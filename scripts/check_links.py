#!/usr/bin/env python
"""Check markdown cross-references: relative paths, anchors, repo paths.

Scans the given markdown files (default: ``README.md`` and
``docs/*.md``) for inline links ``[text](target)`` and validates every
*internal* target:

* ``path`` — the file or directory must exist, resolved relative to
  the *linking* file's directory;
* ``path#anchor`` — the path must exist *and* contain a heading whose
  GitHub-style slug equals ``anchor``;
* ``#anchor`` — the current file must contain a matching heading.

Backticked repo paths in prose — ``src/…``, ``tests/…``,
``scripts/…``, ``benchmarks/…`` or ``docs/…`` ending in
``.py``/``.md``/``.json``/``.yml`` — must exist too, resolved from the
repository root: a deleted module must not live on in the docs.  Globs
and ``<placeholders>`` are skipped.

External targets (``http://``, ``https://``, ``mailto:``) are ignored
— CI must not depend on the network.  Exit status is the number of
broken links (0 = clean), so the CI docs job can gate on it directly.

Usage::

    python scripts/check_links.py [FILE.md ...]
"""

from __future__ import annotations

import pathlib
import re
import sys

#: Inline markdown links, skipping images.  Targets with spaces are
#: invalid in GitHub markdown, so the terse character class is enough.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
#: Backticked repo-relative file paths (no globs, no placeholders).
REPO_PATH_RE = re.compile(
    r"`((?:src|tests|scripts|benchmarks|docs)/[^`\s*<>{}]*\.(?:py|md|json|yml))`"
)
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, strip punctuation, dashes."""
    # Inline code/emphasis markers vanish, as does any other character
    # that is not a word character, space, or hyphen.
    text = heading.lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.strip().replace(" ", "-")


def anchors_of(path: pathlib.Path) -> set:
    """All heading slugs in one markdown file (code fences skipped)."""
    slugs: set = set()
    counts: dict = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        # GitHub disambiguates duplicate headings with -1, -2, ...
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_file(path: pathlib.Path) -> list:
    """All broken internal links in one file, as printable strings."""
    problems = []
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            rel, _, anchor = target.partition("#")
            dest = (path.parent / rel).resolve() if rel else path.resolve()
            if not dest.exists():
                problems.append(
                    f"{path}:{lineno}: broken path {target!r} "
                    f"(resolved {dest})"
                )
                continue
            if anchor:
                if dest.is_dir() or dest.suffix.lower() != ".md":
                    problems.append(
                        f"{path}:{lineno}: anchor on non-markdown "
                        f"target {target!r}"
                    )
                elif anchor not in anchors_of(dest):
                    problems.append(
                        f"{path}:{lineno}: missing anchor {target!r}"
                    )
        for match in REPO_PATH_RE.finditer(line):
            if not (REPO_ROOT / match.group(1)).exists():
                problems.append(
                    f"{path}:{lineno}: no such repo path {match.group(1)!r}"
                )
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        files = [pathlib.Path(a) for a in args]
    else:
        files = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))

    missing = [f for f in files if not f.exists()]
    for f in missing:
        print(f"no such file: {f}", file=sys.stderr)
    if missing:
        return len(missing)

    problems = []
    checked = 0
    for f in files:
        problems.extend(check_file(f))
        checked += 1
    for p in problems:
        print(p, file=sys.stderr)
    print(f"checked {checked} files: {len(problems)} broken links")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
