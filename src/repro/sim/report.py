"""Assemble benchmark result records into a readable report.

Every figure benchmark appends a JSON line to
``benchmarks/results/<scale>.jsonl``; this module renders those records
as a Markdown document (the raw material for EXPERIMENTS.md) so that a
full paper-scale run can be turned into a results section with one
command: ``python -m repro report benchmarks/results/paper.jsonl``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

import orjson

from repro.errors import SimulationError

PathLike = Union[str, Path]


def load_records(path: PathLike) -> List[dict]:
    """Parse one results .jsonl file; skips blank lines, rejects junk."""
    records = []
    data = Path(path).read_bytes()
    for line_number, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            raise SimulationError(
                f"{path}:{line_number}: not valid JSON: {exc}"
            ) from exc
        if "figure" not in record or "means" not in record:
            raise SimulationError(
                f"{path}:{line_number}: not a benchmark record"
            )
        records.append(record)
    return records


def latest_per_figure(records: List[dict]) -> Dict[str, dict]:
    """Keep only each figure's last record (reruns overwrite)."""
    out: Dict[str, dict] = {}
    for record in records:
        out[record["figure"]] = record
    return out


def render_markdown(records: List[dict], title: str = "Benchmark results") -> str:
    """A Markdown report: one section per figure, means ± CI tables."""
    if not records:
        return f"# {title}\n\n(no records)\n"
    latest = latest_per_figure(records)
    lines = [f"# {title}", ""]
    for figure in sorted(latest):
        record = latest[figure]
        lines.append(f"## {figure}")
        lines.append("")
        lines.append(f"*Setting:* {record.get('setting', '(unknown)')}  ")
        lines.append(f"*Runs:* {record.get('runs', '?')}, scale `{record.get('scale', '?')}`")
        lines.append("")
        means = record["means"]
        half_widths = record.get("half_widths", {})
        rejected = record.get("rejected", {})
        salvaged = record.get("salvaged", {})
        lost = record.get("lost", {})
        chaos = bool(salvaged) or bool(lost)
        if chaos:
            lines.append(
                "| scheduler | cost/slot | 95% CI ± | rejected | salvaged GB | lost GB |"
            )
            lines.append(
                "|-----------|-----------|----------|----------|-------------|---------|"
            )
        else:
            lines.append("| scheduler | cost/slot | 95% CI ± | rejected |")
            lines.append("|-----------|-----------|----------|----------|")
        winner = min(means, key=means.get)
        for name in sorted(means, key=means.get):
            mark = " **(best)**" if name == winner else ""
            row = (
                f"| {name}{mark} | {means[name]:.2f} | "
                f"{half_widths.get(name, 0.0):.2f} | {rejected.get(name, 0)} |"
            )
            if chaos:
                row += (
                    f" {salvaged.get(name, 0.0):.1f} |"
                    f" {lost.get(name, 0.0):.1f} |"
                )
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
