"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_example_fig1(capsys):
    assert main(["example", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "12" in out


def test_example_fig3(capsys):
    assert main(["example", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "32.67" in out


def test_simulate_table(capsys):
    code = main(
        [
            "simulate",
            "--datacenters", "4",
            "--slots", "3",
            "--max-files", "2",
            "--schedulers", "postcard", "direct",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "postcard" in out and "direct" in out and "cost/slot" in out


def test_simulate_surprise_chaos(capsys):
    code = main(
        [
            "simulate",
            "--datacenters", "5",
            "--slots", "8",
            "--seed", "3",
            "--surprise",
            "--schedulers", "postcard",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "salvaged" in out
    assert "chaos [postcard]:" in out
    assert "disrupted=" in out and "replans=" in out


def test_simulate_outages_file(tmp_path, capsys):
    import json

    path = tmp_path / "outages.json"
    path.write_text(
        json.dumps(
            [{"src": 0, "dst": 1, "start_slot": 0, "end_slot": 2}]
        )
    )
    code = main(
        [
            "simulate",
            "--datacenters", "4",
            "--slots", "4",
            "--max-files", "2",
            "--outages", str(path),
            "--schedulers", "postcard",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos [postcard]: outages=1" in out


def _table(capsys, argv):
    """``simulate``'s stdout with the wall-clock ``solve s`` cells blanked."""
    assert main(["simulate", "--datacenters", "4", "--slots", "5",
                 "--max-files", "3", "--schedulers", "hybrid", "direct",
                 *argv]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    column = lines[0].index("solve s")
    for i in range(2, 4):
        lines[i] = lines[i][:column] + "#" * 7 + lines[i][column + 7:]
    return lines, captured.err


@pytest.mark.parametrize(
    "extra", [[], ["--surprise"], ["--forecast", "--forecast-period", "3"],
              ["--link-schedule"]],
    ids=["plain", "surprise", "forecast", "link-schedule"],
)
def test_simulate_jobs_never_change_the_table(tmp_path, capsys, extra):
    if extra == ["--link-schedule"]:
        windows = tmp_path / "leo.json"
        assert main(["schedule", "generate", "--preset", "leo",
                     "--datacenters", "4", "--slots", "5",
                     "-o", str(windows)]) == 0
        capsys.readouterr()
        extra = extra + [str(windows)]
    serial, serial_err = _table(capsys, extra)
    fanned, fanned_err = _table(capsys, extra + ["--jobs", "2"])
    assert fanned == serial
    assert "ignoring --jobs" not in fanned_err
    if "--forecast" in extra:
        assert any(line.startswith("forecast [hybrid]") for line in fanned)
        assert "'direct' has no forecast hook" in fanned_err
    if "--surprise" in extra:
        assert any(line.startswith("chaos [direct]") for line in fanned)
    if "--link-schedule" in extra:
        assert any(line.startswith("link-schedule:") for line in fanned)


@pytest.mark.parametrize(
    "flag", [["--profile"], ["--show-links"], ["--obs-jsonl"]],
    ids=["profile", "show-links", "obs-jsonl"],
)
def test_simulate_jobs_yield_to_in_process_flags(tmp_path, capsys, flag):
    if flag == ["--obs-jsonl"]:
        flag = flag + [str(tmp_path / "events.jsonl")]
    assert main(_SMALL_SIM + flag + ["--jobs", "2"]) == 0
    assert "ignoring --jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--forecast-period", "1"], ["--forecast-horizon", "-2"]],
    ids=["period", "horizon"],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_refuses_bad_forecast_flags(capsys, flag, jobs):
    argv = ["simulate", "--datacenters", "3", "--slots", "2",
            "--schedulers", "hybrid", "--forecast", *flag, "--jobs", jobs]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: forecast ") and captured.out == ""


def test_figure_command(capsys):
    code = main(
        [
            "figure", "fig6",
            "--runs", "1",
            "--datacenters", "4",
            "--slots", "3",
            "--max-files", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "postcard" in out


def test_trace_generate_and_run(tmp_path, capsys):
    trace = tmp_path / "t.json"
    code = main(
        [
            "trace", "generate",
            "--datacenters", "4",
            "--slots", "2",
            "--max-files", "2",
            "-o", str(trace),
        ]
    )
    assert code == 0
    assert trace.exists()
    capsys.readouterr()

    code = main(["trace", "run", str(trace), "--scheduler", "postcard"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cost/slot" in out


def test_trace_stats(tmp_path, capsys):
    trace = tmp_path / "t.json"
    main(
        [
            "trace", "generate",
            "--datacenters", "4",
            "--slots", "2",
            "--max-files", "2",
            "-o", str(trace),
        ]
    )
    capsys.readouterr()
    assert main(["trace", "stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "files" in out and "hottest pairs" in out


def test_trace_run_empty(tmp_path, capsys):
    trace = tmp_path / "empty.json"
    trace.write_text('{"kind": "postcard-trace", "version": 1, "requests": []}')
    assert main(["trace", "run", str(trace)]) == 1


def test_invalid_scheduler_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--schedulers", "quantum"])


_SMALL_SIM = [
    "simulate",
    "--datacenters", "4",
    "--slots", "3",
    "--max-files", "2",
    "--schedulers", "postcard",
]


def test_simulate_profile_prints_run_report(capsys):
    assert main(_SMALL_SIM + ["--profile"]) == 0
    out = capsys.readouterr().out
    assert "== run report ==" in out
    for stage in ("lp.build", "lp.compile", "lp.solve", "sim.audit"):
        assert stage in out, f"profile report missing stage {stage}"
    assert "lp.cols" in out  # counters section


def test_simulate_obs_jsonl_round_trips_through_report(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert main(_SMALL_SIM + ["--obs-jsonl", str(events)]) == 0
    out = capsys.readouterr().out
    assert f"events to {events}" in out
    assert events.exists() and events.stat().st_size > 0

    assert main(["report", str(events)]) == 0
    out = capsys.readouterr().out
    assert "== run report" in out
    assert "lp.solve" in out and "sim.scheduler" in out


def test_simulate_profile_detaches_sink(capsys):
    from repro import obs

    assert main(_SMALL_SIM + ["--profile"]) == 0
    capsys.readouterr()
    assert not obs.get_registry().enabled


def test_report_benchmark_records_still_render(tmp_path, capsys):
    results = tmp_path / "smoke.jsonl"
    results.write_text(
        '{"figure": "fig6", "scale": "smoke", "setting": "s", "runs": 1, '
        '"means": {"postcard": 10.0}, "half_widths": {"postcard": 0.5}, '
        '"rejected": {"postcard": 0}}\n'
    )
    assert main(["report", str(results)]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out


def test_report_malformed_events_file(tmp_path, capsys):
    bad = tmp_path / "events.jsonl"
    bad.write_text('{"type": "span", "name": "ok", "dur": 0.1}\n{oops\n')
    assert main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "events.jsonl:2" in err


def test_simulate_obs_jsonl_unwritable_path(tmp_path, capsys):
    bad = tmp_path / "no-such-dir" / "events.jsonl"
    assert main(_SMALL_SIM + ["--obs-jsonl", str(bad)]) == 1
    assert "error: cannot open" in capsys.readouterr().err


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_empty_events_file(tmp_path, capsys):
    empty = tmp_path / "events.jsonl"
    # A blank-only file is not detected as obs events and is not a valid
    # benchmark log either; it must fail, not render an empty report.
    empty.write_text("\n")
    assert main(["report", str(empty)]) == 1
    assert "no records" in capsys.readouterr().err


def _long_flags(*command):
    """Every ``--flag`` the (sub)command's parser declares."""
    parser = build_parser()
    for name in command:
        parser = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
            and name in a.choices
        ).choices[name]
    return {
        opt for a in parser._actions for opt in a.option_strings
        if opt.startswith("--") and opt != "--help"
    }


SERVE_FLAGS = {
    "--host", "--port", "--socket", "--datacenters", "--capacity", "--seed",
    "--scheduler", "--max-deadline", "--link-schedule", "--tick-seconds",
    "--max-queue", "--max-batch", "--checkpoint-dir", "--checkpoint-every",
    "--period-slots", "--snapshot-retain",
    "--read-timeout", "--watchdog-timeout", "--forecast",
    "--forecast-period", "--forecast-horizon", "--obs-jsonl",
}


def _assert_flags_are(capsys, command, flags):
    """The flags are derived from ``ServiceConfig``; the literals above
    pin that none was renamed, added or lost on the way."""
    assert _long_flags(*command) == flags
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


def test_serve_help_lists_service_options(capsys):
    _assert_flags_are(capsys, ["serve"], SERVE_FLAGS)


def test_loadgen_help_lists_replay_options(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["loadgen", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--rate", "--requests", "--trace", "--drain",
                 "--expect-no-misses"):
        assert flag in out


def test_serve_rejects_bad_config(capsys):
    assert main(["serve", "--datacenters", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_loadgen_against_no_daemon(tmp_path, capsys):
    code = main([
        "loadgen", "--socket", str(tmp_path / "nowhere.sock"),
        "--requests", "1",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_serve_loadgen_round_trip(tmp_path, capsys):
    """The two subcommands against each other: a short-lived daemon in a
    thread, the loadgen CLI replaying a generated trace with --drain."""
    import threading

    sock = str(tmp_path / "cli.sock")
    summary_path = tmp_path / "summary.json"
    server_codes = []

    def run_server():
        server_codes.append(main([
            "serve", "--socket", sock, "--datacenters", "4",
            "--capacity", "60", "--max-deadline", "8",
            "--tick-seconds", "0.05",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]))

    thread = threading.Thread(target=run_server)
    thread.start()
    try:
        import time

        deadline = time.time() + 30
        while not (tmp_path / "cli.sock").exists():
            assert time.time() < deadline, "daemon never bound its socket"
            time.sleep(0.05)
        code = main([
            "loadgen", "--socket", sock, "--requests", "20",
            "--rate", "6000", "--datacenters", "4", "--capacity", "60",
            "--max-deadline", "6", "--drain", "--expect-no-misses",
            "--json", str(summary_path),
        ])
    finally:
        thread.join(timeout=30)
    assert code == 0
    assert server_codes == [0]
    assert not thread.is_alive()
    out = capsys.readouterr().out
    assert "drain: clean" in out and "latency:" in out
    import json

    summary = json.loads(summary_path.read_text())
    assert summary["submitted"] == 20
    assert summary["deadline_misses"] == 0
    assert summary["drained"] is True


def test_report_writes_output_file(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert main(_SMALL_SIM + ["--obs-jsonl", str(events)]) == 0
    capsys.readouterr()
    rendered = tmp_path / "report.txt"
    assert main(["report", str(events), "-o", str(rendered)]) == 0
    assert "wrote report" in capsys.readouterr().out
    assert "lp.solve" in rendered.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--jobs", "-1"],
        ["figure", "fig4", "--jobs", "-2"],
        ["simulate", "--datacenters", "1"],
        ["simulate", "--max-deadline", "0"],
        ["trace", "generate", "--datacenters", "1", "-o", "{out}"],
        ["trace", "run", "{missing}"],
        ["figure", "fig4", "--runs", "0"],
    ],
    ids=["simulate-jobs", "figure-jobs", "simulate-datacenters",
         "simulate-max-deadline", "trace-generate-datacenters",
         "trace-run-missing", "figure-runs"],
)
def test_bad_input_prints_an_error_not_a_traceback(tmp_path, capsys, argv):
    """Every failure leaves through main: one ``error:`` line, exit 1."""
    paths = {"out": tmp_path / "t.json", "missing": tmp_path / "missing.json"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and captured.out == ""
