"""Command-line interface: simulate, regenerate figures, inspect traces.

Usage (after ``pip install -e .``)::

    python -m repro simulate --datacenters 8 --capacity 30 --slots 10
    python -m repro simulate --datacenters 6 --slots 5 --profile
    python -m repro simulate --slots 5 --obs-jsonl events.jsonl
    python -m repro simulate --outages outages.json --surprise
    python -m repro simulate --schedulers postcard direct greedy --jobs 3
    python -m repro simulate --schedulers heuristic hybrid postcard
    python -m repro figure fig6 --runs 3
    python -m repro figure fig6 --runs 8 --jobs 4
    python -m repro example fig3
    python -m repro trace generate --datacenters 6 --slots 5 -o trace.json
    python -m repro trace run trace.json --scheduler postcard
    python -m repro schedule generate --preset leo --slots 12 -o leo.json
    python -m repro schedule show leo.json --slots 12
    python -m repro simulate --slots 12 --link-schedule leo.json
    python -m repro report events.jsonl
    python -m repro serve --port 0 --checkpoint-dir ckpt/
    python -m repro loadgen --port 7411 --requests 200 --rate 1000 --drain
    python -m repro loadgen --port 7411 --requests 500 --outstanding 16
    python -m repro watch --port 7411 --interval 1

``--profile`` prints a per-stage timing/counter breakdown (graph build,
LP compile/solve, audit) after the run; ``--obs-jsonl`` streams the raw
instrumentation events to a file that ``report`` renders back.  The
``report`` subcommand also accepts a ``benchmarks/results/*.jsonl``
file and renders it as Markdown (the two formats are auto-detected).
``--schedulers heuristic hybrid`` selects the PR 4 fast lane: the LP-free
close-to-deadline scheduler and the escalating hybrid (a per-scheduler
``hybrid [...]`` summary line reports the lane split after the table).

Every subcommand prints plain-text tables; nothing writes outside the
paths the user names.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.errors import ReproError, TopologyError

#: The paper figures ``figure`` regenerates; their settings are
#: :mod:`repro.sim.runner`'s ``FIG4`` .. ``FIG7``.
FIGURES = ("fig4", "fig5", "fig6", "fig7")

#: The workload flags of ``simulate`` and ``trace generate``, with
#: ``simulate``'s defaults.
_WORKLOAD_DEFAULTS = dict(
    datacenters=8, capacity=30.0, max_deadline=4, max_files=6, slots=10, seed=0
)


def _hybrid_summary(name: str, result) -> str:
    """One-line lane split for a hybrid scheduler's run."""
    total = result.escalations + result.fast_slots
    rate = result.escalations / total if total else 0.0
    return (
        f"hybrid [{name}]: fast-lane slots={result.fast_slots} "
        f"LP escalations={result.escalations} "
        f"(escalation rate {rate:.0%})"
    )


def _forecast_summary(name: str, stats: dict) -> str:
    """One-line forecast accuracy/activity report for a run."""
    return (
        f"forecast [{name}]: predictor={stats['predictor']} "
        f"mape={stats['mape']:.2f} trust={stats['trust']:.2f} "
        f"shifted={stats['shifted_gb']:.1f} GB "
        f"guard-trips={stats['guard_trips']}"
    )


@contextlib.contextmanager
def _obs_sinks(path: Optional[str], *sinks):
    """Attach ``sinks``, and a JSONL event sink on ``path`` when one is
    named, for the block; yields the JSONL sink (or None)."""
    from repro import obs

    try:
        jsonl = obs.JsonlSink(path) if path else None
    except OSError as exc:
        raise ReproError(f"cannot open {path}: {exc}") from exc
    attached = [s for s in (*sinks, jsonl) if s is not None]
    registry = obs.get_registry()
    for sink in attached:
        registry.add_sink(sink)
    try:
        yield jsonl
    finally:
        for sink in attached:
            registry.remove_sink(sink)
        if jsonl is not None:
            jsonl.close()


def _topology(args: argparse.Namespace):
    from repro.net.generators import complete_topology

    return complete_topology(args.datacenters, capacity=args.capacity, seed=args.seed)


def _paper_workload(args: argparse.Namespace):
    """The seeded Sec. VII workload the workload flags describe."""
    from repro.traffic import PaperWorkload

    return PaperWorkload(
        _topology(args), max_deadline=args.max_deadline,
        max_files=args.max_files, seed=args.seed,
    )


def _load_trace(path: str):
    """A trace's requests and the slots they are released over."""
    from repro.traffic.io import load_requests

    requests = load_requests(path)
    if not requests:
        raise ReproError("trace is empty")
    return requests, max(r.release_slot for r in requests) + 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis import format_table
    from repro.sim.engine import Simulation
    from repro.sim.parallel import (
        TOPOLOGY_COMPLETE,
        FaultSpec,
        build_cell,
        comparison_tasks,
        run_tasks,
    )
    from repro.sim.runner import ExperimentSetting

    jobs = args.jobs
    if jobs > 1 and (args.profile or args.obs_jsonl or args.show_links):
        print(
            "note: --profile/--obs-jsonl/--show-links need in-process "
            "state; ignoring --jobs and running serially",
            file=sys.stderr,
        )
        jobs = 1
    link_schedule = None
    if args.link_schedule:
        from repro.net.schedule import LinkSchedule

        link_schedule = LinkSchedule.from_file(args.link_schedule)
    forecast = None
    if args.forecast:
        from repro.forecast import ForecastProvider

        # Refuse bad values here, before any task (or worker) builds one.
        ForecastProvider.seasonal(args.forecast_period, args.forecast_horizon)
        forecast = (args.forecast_period, args.forecast_horizon)
    # --outages FILE loads an explicit outage list (--surprise demotes
    # it to unannounced); --surprise alone generates random surprises.
    faults = None
    if args.outages:
        faults = FaultSpec(path=args.outages, announced=not args.surprise)
    elif args.surprise:
        faults = FaultSpec(
            outage_probability=args.outage_prob,
            mean_duration=args.mean_outage,
            announced=False,
        )
    setting = ExperimentSetting(
        "simulate",
        capacity=args.capacity,
        max_deadline=args.max_deadline,
        num_datacenters=args.datacenters,
        num_slots=args.slots,
        max_files=args.max_files,
    )
    tasks = comparison_tasks(
        setting,
        args.schedulers,
        runs=1,
        base_seed=args.seed,
        faults=faults,
        topology=TOPOLOGY_COMPLETE,
        link_schedule=args.link_schedule,
        forecast=forecast,
    )

    fold = obs.MetricsSnapshot() if args.profile else None
    last_scheduler = None
    with _obs_sinks(args.obs_jsonl, fold) as jsonl:
        if args.show_links:
            # The last scheduler's ledger has to outlive its run.
            outcomes = run_tasks(tasks[:-1])
            last_scheduler, workload = build_cell(tasks[-1])
            result = Simulation(last_scheduler, workload, args.slots).run()
            outcomes.append((tasks[-1].scheduler, 0, result))
        else:
            outcomes = run_tasks(tasks, jobs=jobs)

    rows = []
    summaries = []
    for name, _run, result in outcomes:
        if result.escalations + result.fast_slots > 0:
            summaries.append(_hybrid_summary(name, result))
        if result.forecast is not None:
            summaries.append(_forecast_summary(name, result.forecast))
        elif args.forecast:
            print(
                f"note: scheduler {name!r} has no forecast hook; "
                "running it reactively",
                file=sys.stderr,
            )
        row = [
            name,
            result.final_cost_per_slot,
            result.total_requests,
            result.total_rejected,
            f"{result.relay_overhead:.2f}",
            f"{result.solve_seconds_total:.2f}",
        ]
        if faults is not None:
            row.extend(
                [
                    f"{result.salvaged_gb:.1f}",
                    f"{result.lost_gb:.1f}",
                    result.deadline_misses,
                ]
            )
        rows.append(row)
    headers = ["scheduler", "cost/slot", "files", "rejected", "relay", "solve s"]
    if faults is not None:
        headers.extend(["salvaged", "lost", "misses"])
    print(format_table(headers, rows))
    if link_schedule is not None:
        print(link_schedule.describe(args.slots))
    for line in summaries:
        print(line)
    if faults is not None:
        # Every cell of the run saw this (seeded, hence identical) set.
        outages = build_cell(tasks[0])[0].state.fault_model.outages
        for name, _run, result in outcomes:
            print(
                f"chaos [{name}]: outages={len(outages)} "
                f"disrupted={result.disrupted_gb:.2f} GB "
                f"salvaged={result.salvaged_gb:.2f} GB "
                f"lost={result.lost_gb:.2f} GB "
                f"misses={result.deadline_misses} "
                f"replans={result.recovery_replans}"
            )
    if fold is not None:
        print()
        print(obs.render_report(fold, title="run report"))
    if jsonl is not None:
        print(f"\nwrote {jsonl.num_events} events to {args.obs_jsonl}")

    if last_scheduler is not None:
        from repro.analysis.plots import utilization_rows

        state = last_scheduler.state
        samples = {
            link.key: state.ledger.samples(link.src, link.dst)[: args.slots]
            for link in state.topology.links
        }
        caps = {link.key: link.capacity for link in state.topology.links}
        print(f"\nlink utilization ({args.schedulers[-1]}, busiest first):")
        print(utilization_rows(samples, caps, top=8))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.sim.runner import FIG4, FIG5, FIG6, FIG7, run_comparison

    setting = replace(
        {s.name: s for s in (FIG4, FIG5, FIG6, FIG7)}[args.name],
        num_datacenters=args.datacenters,
        num_slots=args.slots,
        max_files=args.max_files,
    )
    comparison = run_comparison(
        setting, args.schedulers, runs=args.runs, base_seed=args.seed,
        jobs=args.jobs,
    )
    print(setting.describe())
    print(comparison.to_table())
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.core.scheduler import PostcardScheduler
    from repro.net.generators import fig1_topology, fig3_topology
    from repro.traffic import TransferRequest

    if args.name == "fig1":
        topology, slot, label, paper = fig1_topology(), 0, "Fig. 1 optimized", "12"
        files = [TransferRequest(2, 3, 6.0, 3, release_slot=0)]
    else:
        topology, slot, label, paper = fig3_topology(), 3, "Fig. 3 Postcard", "32.67"
        files = [
            TransferRequest(2, 4, 8.0, 4, release_slot=3),
            TransferRequest(1, 4, 10.0, 2, release_slot=3),
        ]
    scheduler = PostcardScheduler(topology, horizon=100)
    scheduler.on_slot(slot, files)
    print(f"{label} cost/interval: "
          f"{scheduler.state.current_cost_per_slot():.2f} (paper: {paper})")
    return 0


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.traffic.io import save_requests

    requests = _paper_workload(args).all_requests(args.slots)
    save_requests(requests, args.output)
    print(f"wrote {len(requests)} requests to {args.output}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.net.generators import complete_topology
    from repro.registry import make_scheduler
    from repro.sim.engine import Simulation
    from repro.traffic import TraceWorkload

    requests, num_slots = _load_trace(args.trace)
    max_node = max(max(r.source, r.destination) for r in requests)
    topology = complete_topology(
        max_node + 1, capacity=args.capacity, seed=args.seed
    )
    horizon = num_slots + max(r.deadline_slots for r in requests)
    scheduler = make_scheduler(args.scheduler, topology, horizon)
    result = Simulation(scheduler, TraceWorkload(requests), num_slots).run()
    print(result.summary())
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.traffic import TraceWorkload
    from repro.traffic.stats import collect_stats

    requests, num_slots = _load_trace(args.trace)
    stats = collect_stats(TraceWorkload(requests), num_slots)
    print(stats.describe())
    print("hottest pairs:")
    print(
        format_table(
            ["pair", "GB"],
            [[f"{s}->{d}", volume] for (s, d), volume in stats.hottest_pairs],
        )
    )
    return 0


def _parse_maintenance_windows(specs: List[str]):
    """``SRC:DST:START:END`` outage specs -> ((src, dst), start, end)."""
    if not specs:
        raise TopologyError(
            "--preset maintenance needs at least one --window SRC:DST:START:END"
        )
    outages = []
    for spec in specs:
        try:
            src, dst, start, end = (int(p) for p in spec.split(":"))
        except ValueError:
            raise TopologyError(
                f"maintenance window {spec!r} is not SRC:DST:START:END"
            ) from None
        outages.append(((src, dst), start, end))
    return outages


def _cmd_schedule_generate(args: argparse.Namespace) -> int:
    """Write a link-schedule JSON from one of the scenario presets."""
    from repro.net.presets import (
        ground_station_downlink_schedule,
        leo_pass_schedule,
        maintenance_schedule,
    )

    topology = _topology(args)
    if args.preset == "leo":
        schedule = leo_pass_schedule(
            topology,
            args.slots,
            fraction=args.fraction,
            period=args.period,
            pass_length=args.pass_length,
            seed=args.seed,
        )
    elif args.preset == "downlink":
        schedule = ground_station_downlink_schedule(
            topology,
            args.slots,
            station_dcs=args.stations,
            period=args.period,
            window_length=args.pass_length,
        )
    else:  # maintenance
        outages = _parse_maintenance_windows(args.window)
        schedule = maintenance_schedule(
            topology, args.slots, outages, repeat_every=args.repeat_every
        )
    schedule.to_file(args.output)
    print(
        f"wrote {schedule.num_windows} windows for {len(schedule)} links "
        f"to {args.output}"
    )
    print(schedule.describe(args.slots))
    return 0


def _cmd_schedule_show(args: argparse.Namespace) -> int:
    """Summarize a link-schedule file, link by link."""
    from repro.analysis import format_table
    from repro.net.schedule import LinkSchedule

    schedule = LinkSchedule.from_file(args.schedule)
    print(schedule.describe(args.slots if args.slots else None))
    rows = []
    for src, dst in schedule.scheduled_links():
        windows = schedule.windows_for(src, dst)
        spans = " ".join(
            f"[{w.start_slot},{w.end_slot})" for w in windows
        ) or "(dark)"
        rows.append([f"{src}->{dst}", len(windows), spans])
    if rows:
        print(format_table(["link", "windows", "up spans"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServiceDaemon
    from repro.service.chaos import MONKEY
    from repro.service.config import from_args

    config = from_args(args)
    # Subprocess fault drills arm crash points through the
    # environment (REPRO_CHAOS=action:point[:at[:param]],...); a clean
    # environment arms nothing and the taps are no-ops.
    MONKEY.configure_from_env()

    async def _run() -> None:
        daemon = ServiceDaemon(config)
        await daemon.start()
        resumed = " (resumed from checkpoint)" if daemon.broker.resumed else ""
        windowed = (
            f" windowed-links={len(daemon.broker.link_schedule)}"
            if daemon.broker.link_schedule
            else ""
        )
        print(
            f"serving on {daemon.endpoint} scheduler={config.scheduler} "
            f"tick={config.tick_seconds}s queue<={config.max_queue}"
            f"{windowed}{resumed}",
            flush=True,
        )
        try:
            await daemon.run_until_stopped()
        finally:
            await daemon.stop()
        stats = daemon.broker.stats()
        print(
            f"drained: slots={stats['slots']} submitted={stats['submitted']} "
            f"admitted={stats['admitted']} rejected={stats['rejected']} "
            f"checkpoints={stats['checkpoints']}",
            flush=True,
        )

    with _obs_sinks(args.obs_jsonl):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            print("interrupted; a checkpoint directory resumes from the last committed slot")
            return 130
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    import orjson

    from repro.service import run_loadgen

    if args.trace:
        requests, _ = _load_trace(args.trace)
    else:
        workload = _paper_workload(args)
        requests = []
        slot = 0
        while len(requests) < args.requests:
            requests.extend(workload.requests_at(slot))
            slot += 1
        requests = requests[: args.requests]
    if not requests:
        raise ReproError("nothing to replay")

    result = asyncio.run(run_loadgen(
        requests, host=args.host, port=args.port, socket_path=args.socket,
        rate_per_min=args.rate, max_retries=args.max_retries,
        drain=args.drain, outstanding=args.outstanding,
    ))

    summary = result.summary()
    if args.json:
        from pathlib import Path

        Path(args.json).write_bytes(
            orjson.dumps(summary, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE))
    if summary["mode"] == "closed":
        print(
            f"closed loop: {summary['submitted']}/{len(requests)} requests "
            f"at {summary['outstanding']} outstanding — capacity "
            f"{summary['capacity_per_s']} req/s"
        )
    else:
        print(
            f"replayed {summary['submitted']}/{len(requests)} requests at "
            f"{summary['throughput_per_min']} req/min "
            f"(target {args.rate:g} req/min)"
        )
    print(
        f"admitted={summary['admitted']} rejected={summary['rejected']} "
        f"failed={summary['failed']} "
        f"backpressure_retries={summary['backpressure_retries']} "
        f"deadline_misses={summary['deadline_misses']}"
    )
    print(
        f"latency: rtt p50={summary['rtt_p50_s']}s p99={summary['rtt_p99_s']}s | "
        f"wait p99={summary['wait_p99_s']}s | "
        f"decision p50={summary['decision_p50_s']}s "
        f"p99={summary['decision_p99_s']}s"
    )
    if args.drain:
        print("drain: clean" if result.drained else "drain: FAILED")
    if args.expect_no_misses and (
        summary["deadline_misses"] > 0
        or summary["failed"] > 0
        or (args.drain and not result.drained)
    ):
        print("gate failed: misses/failures detected", file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import run_watch

    try:
        frames = asyncio.run(
            run_watch(
                host=args.host,
                port=args.port,
                socket_path=args.socket,
                interval_s=args.interval,
                iterations=1 if args.once else args.iterations,
                clear=not (args.no_clear or args.once),
            )
        )
    except KeyboardInterrupt:
        return 0
    return 0 if frames else 1


def _looks_like_obs_events(path: str) -> bool:
    """True when the first JSON line is an observability event.

    Both ``report`` inputs are JSONL; obs events carry a ``type`` of
    span/counter/gauge, benchmark records carry ``figure``/``means``.
    Unreadable or malformed files fall through to the benchmark loader,
    whose errors name the offending line.
    """
    import orjson

    try:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = orjson.loads(line)
                return (
                    isinstance(record, dict)
                    and record.get("type") in ("span", "counter", "gauge")
                )
    except (OSError, orjson.JSONDecodeError):
        pass
    return False


def _cmd_report(args: argparse.Namespace) -> int:
    if _looks_like_obs_events(args.results):
        from functools import partial

        from repro.obs import load_events as load, render_events_report

        unit = "events"
        render = partial(render_events_report, title=f"run report — {args.results}")
    else:
        from repro.sim.report import load_records as load, render_markdown as render

        unit = "records"
    loaded = load(args.results)
    if not loaded:
        raise ReproError(f"{args.results}: no {unit}")
    text = render(loaded)
    if args.output == "-":
        print(text)
    else:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote report for {len(loaded)} {unit} to {args.output}")
    return 0


def _flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare ``--<name>`` for each keyword, in order, typed and
    defaulted by its value (the workload flags and their kin)."""
    for name, default in defaults.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=type(default), default=default
        )


def _endpoint_flags(parser: argparse.ArgumentParser) -> None:
    """``--host`` / ``--port`` / ``--socket``: a client's daemon."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="connect over a unix socket instead of TCP",
    )


def _schedulers_flag(parser: argparse.ArgumentParser, *default: str) -> None:
    from repro.registry import scheduler_names

    parser.add_argument(
        "--schedulers", nargs="+", choices=scheduler_names(), default=list(default)
    )


def _jobs_flag(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--jobs", type=int, default=1, help=help)


def build_parser() -> argparse.ArgumentParser:
    from repro.registry import scheduler_names
    from repro.service.config import add_arguments as add_service_flags

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Postcard (ICDCS'12) reproduction: schedulers, figures, traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    _flags(p_sim, **_WORKLOAD_DEFAULTS)
    _schedulers_flag(p_sim, "postcard", "flow-based", "direct")
    p_sim.add_argument(
        "--show-links",
        action="store_true",
        help="print per-link utilization sparklines for the last scheduler",
    )
    p_sim.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing/counter breakdown after the run",
    )
    p_sim.add_argument(
        "--obs-jsonl",
        metavar="PATH",
        help="stream instrumentation events to PATH (render with "
        "`python -m repro report PATH`)",
    )
    p_sim.add_argument(
        "--outages",
        metavar="FILE",
        help="inject outages from a JSON file (list of {src, dst, "
        "start_slot, end_slot, announced})",
    )
    p_sim.add_argument(
        "--surprise",
        action="store_true",
        help="make outages unannounced (invisible at schedule time); "
        "without --outages, generates random surprise outages",
    )
    p_sim.add_argument(
        "--outage-prob",
        type=float,
        default=0.15,
        help="per-link failure probability for generated outages",
    )
    p_sim.add_argument(
        "--mean-outage",
        type=float,
        default=2.0,
        help="mean outage duration in slots for generated outages",
    )
    p_sim.add_argument(
        "--link-schedule",
        metavar="FILE",
        help="restrict links to the availability windows in FILE "
        "(generate one with `python -m repro schedule generate`)",
    )
    _jobs_flag(
        p_sim,
        "run schedulers in N worker processes (same seeds, same "
        "results; incompatible with --profile/--obs-jsonl/--show-links)",
    )
    p_sim.add_argument(
        "--forecast",
        action="store_true",
        help="attach an online traffic forecaster to forecast-capable "
        "schedulers (hybrid): predicted background load steers paid "
        "lifts into forecast-quiet slots (see docs/FORECAST.md)",
    )
    p_sim.add_argument(
        "--forecast-period",
        type=int,
        default=24,
        metavar="SLOTS",
        help="seasonal period the predictors learn (default 24)",
    )
    p_sim.add_argument(
        "--forecast-horizon",
        type=int,
        default=0,
        metavar="SLOTS",
        help="how far ahead reservations extend (default: one period)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name", choices=FIGURES)
    _flags(p_fig, runs=3, datacenters=10, slots=12, max_files=10, seed=2012)
    _jobs_flag(p_fig, "fan the runs x schedulers grid out to N worker processes")
    _schedulers_flag(p_fig, "postcard", "flow-based")
    p_fig.set_defaults(func=_cmd_figure)

    p_ex = sub.add_parser("example", help="print a worked paper example")
    p_ex.add_argument("name", choices=["fig1", "fig3"])
    p_ex.set_defaults(func=_cmd_example)

    p_trace = sub.add_parser("trace", help="generate or replay traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_gen = trace_sub.add_parser("generate", help="write a workload trace")
    _flags(p_gen, **{**_WORKLOAD_DEFAULTS, "slots": 5})
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_trace_generate)

    p_stats = trace_sub.add_parser("stats", help="summarize a trace")
    p_stats.add_argument("trace")
    p_stats.set_defaults(func=_cmd_trace_stats)

    p_run = trace_sub.add_parser("run", help="replay a trace")
    p_run.add_argument("trace")
    p_run.add_argument(
        "--scheduler", choices=scheduler_names(), default="postcard"
    )
    _flags(p_run, capacity=30.0, seed=0)
    p_run.set_defaults(func=_cmd_trace_run)

    p_sched = sub.add_parser(
        "schedule",
        help="generate or inspect link-availability schedules "
        "(see docs/SCENARIOS.md)",
    )
    sched_sub = p_sched.add_subparsers(dest="schedule_command", required=True)

    p_sgen = sched_sub.add_parser(
        "generate", help="write a link-schedule JSON from a scenario preset"
    )
    p_sgen.add_argument(
        "--preset",
        choices=["leo", "downlink", "maintenance"],
        required=True,
        help="leo: periodic constellation passes over a random link "
        "subset; downlink: appointment windows at ground-station DCs; "
        "maintenance: always-on minus explicit outage windows",
    )
    _flags(p_sgen, datacenters=8, capacity=30.0, slots=10, seed=0)
    p_sgen.add_argument(
        "--fraction",
        type=float,
        default=0.5,
        help="(leo) fraction of links riding the constellation",
    )
    p_sgen.add_argument(
        "--period",
        type=int,
        default=8,
        help="(leo/downlink) slots between window starts",
    )
    p_sgen.add_argument(
        "--pass-length",
        type=int,
        default=3,
        help="(leo/downlink) slots each window stays up",
    )
    p_sgen.add_argument(
        "--stations",
        type=int,
        nargs="+",
        default=[0],
        help="(downlink) ground-station datacenter ids",
    )
    p_sgen.add_argument(
        "--window",
        action="append",
        metavar="SRC:DST:START:END",
        help="(maintenance) one outage span; repeatable",
    )
    p_sgen.add_argument(
        "--repeat-every",
        type=int,
        default=None,
        help="(maintenance) recur the outage pattern every N slots",
    )
    p_sgen.add_argument("-o", "--output", required=True)
    p_sgen.set_defaults(func=_cmd_schedule_generate)

    p_show = sched_sub.add_parser(
        "show", help="summarize a link-schedule file"
    )
    p_show.add_argument("schedule")
    p_show.add_argument(
        "--slots",
        type=int,
        default=0,
        help="report coverage over the first N slots",
    )
    p_show.set_defaults(func=_cmd_schedule_show)

    p_serve = sub.add_parser(
        "serve", help="run the transfer-broker daemon (see docs/SERVICE.md)"
    )
    add_service_flags(p_serve)
    p_serve.add_argument(
        "--obs-jsonl", metavar="PATH",
        help="stream service instrumentation events to PATH",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_lg = sub.add_parser(
        "loadgen", help="replay a traffic trace against a running daemon"
    )
    _endpoint_flags(p_lg)
    p_lg.add_argument(
        "--trace", metavar="FILE", default=None,
        help="replay an explicit trace (from `repro trace generate`); "
        "otherwise a PaperWorkload trace is generated",
    )
    p_lg.add_argument(
        "--requests", type=int, default=200,
        help="number of generated requests (ignored with --trace)",
    )
    p_lg.add_argument(
        "--rate", type=float, default=1000.0, help="submission rate, req/min"
    )
    p_lg.add_argument(
        "--outstanding", type=int, default=0,
        help="closed-loop mode: keep N submissions in flight (submit on "
        "response, ignoring --rate) and report capacity in req/s",
    )
    _flags(p_lg, datacenters=10, capacity=100.0, max_deadline=8, max_files=6, seed=0)
    p_lg.add_argument(
        "--max-retries", type=int, default=8,
        help="backpressure retries per request before counting it failed",
    )
    p_lg.add_argument(
        "--drain", action="store_true",
        help="send drain after the replay (flushes + stops the daemon)",
    )
    p_lg.add_argument(
        "--expect-no-misses", action="store_true",
        help="exit 1 if any admitted request missed its deadline or any "
        "submission failed (CI gate)",
    )
    p_lg.add_argument(
        "--json", metavar="PATH", help="also write the summary as JSON"
    )
    p_lg.set_defaults(func=_cmd_loadgen)

    p_watch = sub.add_parser(
        "watch", help="live telemetry dashboard over a running daemon"
    )
    _endpoint_flags(p_watch)
    p_watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between metrics polls",
    )
    p_watch.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N frames (0 = run until the daemon drains)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render a single frame without clearing the screen and exit",
    )
    p_watch.add_argument(
        "--no-clear", action="store_true",
        help="do not clear the screen between frames (pipe-friendly)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_report = sub.add_parser(
        "report",
        help="render a benchmark results or observability events .jsonl",
    )
    p_report.add_argument(
        "results",
        help="path to benchmarks/results/<scale>.jsonl or an --obs-jsonl "
        "event file (auto-detected)",
    )
    p_report.add_argument("-o", "--output", default="-", help="output file or - for stdout")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  Every failure leaves here: a library error or
    an OS error prints ``error: <message>`` on stderr and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
