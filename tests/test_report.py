"""Unit tests for the benchmark report generator."""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.report import (
    latest_per_figure,
    load_records,
    render_markdown,
)


def record(figure="Fig. 6", postcard=10.0, flow=12.0):
    return {
        "figure": figure,
        "scale": "smoke",
        "setting": "fig6: c=30",
        "runs": 3,
        "means": {"postcard": postcard, "flow-based": flow},
        "half_widths": {"postcard": 1.0, "flow-based": 2.0},
        "rejected": {"postcard": 0, "flow-based": 1},
    }


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_records(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [record(), record("Fig. 7")])
    records = load_records(path)
    assert len(records) == 2


def test_load_records_skips_blank_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(record()) + "\n\n\n")
    assert len(load_records(path)) == 1


def test_load_records_rejects_junk(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(SimulationError, match="not valid JSON"):
        load_records(path)
    path.write_text('{"hello": 1}\n')
    with pytest.raises(SimulationError, match="not a benchmark record"):
        load_records(path)


def test_latest_per_figure():
    older = record(postcard=99.0)
    newer = record(postcard=10.0)
    latest = latest_per_figure([older, newer])
    assert latest["Fig. 6"]["means"]["postcard"] == 10.0


def test_render_markdown():
    text = render_markdown([record(), record("Fig. 7", postcard=5.0, flow=4.0)])
    assert "## Fig. 6" in text and "## Fig. 7" in text
    assert "**(best)**" in text
    # The winner of Fig. 7 is flow-based.
    fig7 = text.split("## Fig. 7")[1]
    assert fig7.index("flow-based **(best)**") < fig7.index("| postcard |")


def test_render_empty():
    assert "(no records)" in render_markdown([])


def test_cli_report(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "r.jsonl"
    write_jsonl(src, [record()])
    assert main(["report", str(src)]) == 0
    assert "Fig. 6" in capsys.readouterr().out

    out = tmp_path / "report.md"
    assert main(["report", str(src), "-o", str(out)]) == 0
    assert out.exists()
