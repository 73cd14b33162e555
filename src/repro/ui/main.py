"""The ``repro`` command line: simulate, query, investigate, serve.

Usage (also via ``python -m repro``):

    repro simulate --scenario demo --events-per-host 1000 --out day.jsonl
    repro query day.jsonl 'proc p["%sbblv%"] write ip i as e1 return p, i'
    repro query day.jsonl --backend sqlite 'proc p write file f as e1 return f'
    repro explain day.jsonl "$(cat query.aiql)"
    repro check 'proc p[ start proc c as e1 return c'
    repro repl day.jsonl
    repro serve day.jsonl --port 8080
    repro investigate day.jsonl --catalog figure4

Every data-loading command accepts ``--backend`` to pick the storage
substrate the engine runs on — a single-node builtin (``row`` or
``sqlite``; default: row) or the multi-process scatter-gather tier
(``sharded``, ``sharded(sqlite)``, ... with ``--shards N`` setting the
worker fan-out).  Queries run serially; the
sharded backends are the one source of parallelism.

Event files are the JSONL archive format of
:mod:`repro.storage.serialize` (``.gz`` compressed transparently).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.session import AiqlSession
from repro.errors import ReproError
from repro.lang.errors import AiqlSyntaxError
from repro.storage.backend import BUILTIN_BACKENDS, SHARDED_BACKENDS
from repro.storage.serialize import load_store, write_events
from repro.storage.wal import SYNC_POLICIES
from repro.ui.render import render_table

#: ``--backend`` choices: the single-node builtins plus the sharded
#: scatter-gather family (``--shards`` sets the worker fan-out).
BACKEND_CHOICES = BUILTIN_BACKENDS + SHARDED_BACKENDS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIQL: investigate attack behaviors over system "
                    "monitoring data")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="generate a monitored enterprise day (JSONL)")
    simulate.add_argument("--scenario", choices=("demo", "case2"),
                          default="demo")
    simulate.add_argument("--events-per-host", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", required=True)

    query = commands.add_parser("query", help="run one AIQL query")
    query.add_argument("data", help="JSONL event file")
    query.add_argument("aiql", help="query text (or @file)")
    query.add_argument("--max-rows", type=int, default=50)
    query.add_argument("--explain", action="store_true",
                       help="print the plan (chosen access path, "
                            "statistics-based estimate) and the per-pattern "
                            "execution report (actual rows) with the result")
    query.add_argument("--analyze", action="store_true",
                       help="EXPLAIN ANALYZE: run the query and print, per "
                            "pattern, the planner's estimate next to the "
                            "actual rows and elapsed time, with the "
                            "estimate-error ratio flagged when it is far off")
    query.add_argument("--trace-out", metavar="FILE", default=None,
                       help="record a hierarchical span trace of the query "
                            "(parse/analyze/plan/schedule/scan/join/project) "
                            "and write it as Chrome trace_event JSON, "
                            "loadable in chrome://tracing or Perfetto")

    explain = commands.add_parser("explain", help="show the query plan")
    explain.add_argument("data")
    explain.add_argument("aiql")

    check = commands.add_parser("check", help="syntax-check a query")
    check.add_argument("aiql")

    lint = commands.add_parser(
        "lint", help="run the semantic analyzer on a query")
    lint.add_argument("aiql", nargs="+", help="query text (each may be @file)")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")

    repl = commands.add_parser("repl", help="interactive console")
    repl.add_argument("data")

    serve = commands.add_parser("serve", help="start the web UI")
    serve.add_argument("data")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)

    investigate = commands.add_parser(
        "investigate", help="replay a paper query catalog")
    investigate.add_argument("data")
    investigate.add_argument("--catalog", choices=("figure4", "figure5"),
                             default="figure4")

    stream = commands.add_parser(
        "stream", help="evaluate standing queries over a live event stream")
    stream.add_argument("aiql", nargs="+",
                        help="standing queries (each may be @file)")
    stream.add_argument("--scenario", choices=("demo", "case2"),
                        default="demo",
                        help="telemetry generator to tail")
    stream.add_argument("--events-per-host", type=int, default=500)
    stream.add_argument("--seed", type=int, default=None)
    stream.add_argument("--batch-size", type=_positive_int, default=256,
                        help="bus delivery batch size")
    stream.add_argument("--follow", action="store_true",
                        help="pace the replay in (scaled) real time and "
                             "keep printing matches until interrupted")
    stream.add_argument("--rate", type=float, default=5000.0, metavar="EPS",
                        help="events/sec pacing for --follow")
    stream.add_argument("--max-rows", type=int, default=20,
                        help="result rows per query printed at the end")
    stream.add_argument("--backend", choices=BACKEND_CHOICES, default="row",
                        help="storage substrate the stream ingests into")
    stream.add_argument("--shards", type=_positive_int, default=None,
                        metavar="N",
                        help="worker-process fan-out for the sharded "
                             "backends (stream batches route per shard)")
    stream.add_argument("--durable", metavar="DIR", default=None,
                        help="write-ahead-log the ingest (and standing-query "
                             "alerts) into DIR; crash-recoverable with "
                             "'repro recover DIR'")
    stream.add_argument("--sync", choices=SYNC_POLICIES, default="always",
                        help="WAL fsync policy for --durable "
                             "(default: always)")

    stats = commands.add_parser(
        "stats", help="dump the metrics snapshot a durable stream writes")
    stats.add_argument("dir", help="durable directory (--durable DIR); "
                                   "reads DIR/metrics.json")
    stats.add_argument("--json", action="store_true",
                       help="raw snapshot JSON instead of the rendered form")
    stats.add_argument("--follow", action="store_true",
                       help="re-read and re-print the snapshot every second "
                            "until interrupted (pairs with a live "
                            "'repro stream --durable DIR --follow')")

    recover = commands.add_parser(
        "recover", help="rebuild a crashed durable session from its "
                        "WAL + checkpoint")
    recover.add_argument("dir", help="durable directory (--durable DIR)")
    recover.add_argument("--aiql", action="append", default=[],
                         metavar="QUERY",
                         help="run a query on the recovered store "
                              "(repeatable; each may be @file)")
    recover.add_argument("--checkpoint", action="store_true",
                         help="checkpoint after recovery (snapshots the "
                              "store and truncates the replayed WAL)")
    recover.add_argument("--max-rows", type=int, default=20)
    recover.add_argument("--backend", choices=BUILTIN_BACKENDS, default="row",
                         help="backend to rebuild into (used only if the "
                              "directory's manifest does not name one)")

    alerts = commands.add_parser(
        "alerts", help="replay or acknowledge a durable session's alert log")
    alerts.add_argument("dir", help="durable directory (--durable DIR)")
    alerts.add_argument("--consumer", default="default",
                        help="named ack cursor to read through")
    alerts.add_argument("--ack", action="store_true",
                        help="acknowledge everything printed (the next "
                             "replay starts after it)")

    for loader in (query, explain, repl, serve, investigate):
        loader.add_argument("--backend", choices=BACKEND_CHOICES,
                            default="row",
                            help="storage substrate to load events into")
        loader.add_argument("--shards", type=_positive_int, default=None,
                            metavar="N",
                            help="worker-process fan-out for the sharded "
                                 "backends (default: 2)")
    return parser


def _query_text(argument: str) -> str:
    if argument.startswith("@"):
        with open(argument[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return argument


def _load_session(path: str, backend: str = "row",
                  shards: int | None = None) -> AiqlSession:
    session = AiqlSession(backend=backend, shards=shards)
    load_store(path, session.store)
    return session


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, stdout)
    except AiqlSyntaxError as exc:
        print(exc.render(), file=stdout)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=stdout)
        return 1


def _build_scenario(args: argparse.Namespace):
    """Shared scenario assembly for ``simulate`` and ``stream``."""
    from repro.telemetry import build_case2_scenario, build_demo_scenario
    builders = {"demo": build_demo_scenario, "case2": build_case2_scenario}
    kwargs = {"events_per_host": args.events_per_host}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return builders[args.scenario](**kwargs)


def _dispatch(args: argparse.Namespace, stdout) -> int:
    if args.command == "simulate":
        count = write_events(_build_scenario(args).events(), args.out)
        print(f"wrote {count} events to {args.out}", file=stdout)
        return 0

    if args.command == "check":
        from repro.lang.errors import check_syntax
        error = check_syntax(_query_text(args.aiql))
        if error is None:
            print("syntax OK", file=stdout)
            return 0
        print(error.render(), file=stdout)
        return 2

    if args.command == "lint":
        return _run_lint(args, stdout)

    if args.command == "query":
        session = _load_session(args.data, args.backend, args.shards)
        text = _query_text(args.aiql)
        tracing = args.trace_out is not None
        if not (args.explain or args.analyze or tracing):
            result = session.query(text)
            print(render_table(result, max_rows=args.max_rows), file=stdout)
            return 0
        from dataclasses import replace
        options = session.options
        if args.explain or args.analyze:
            print(session.explain(text), file=stdout)
            options = replace(options, explain=True)
        result = session.query(text, options, trace=args.analyze or tracing)
        if args.analyze:
            print(_render_analyze(result), file=stdout)
        elif args.explain and result.report:
            print("execution:", file=stdout)
            print(result.report, file=stdout)
        if tracing:
            tracer = session.last_trace()
            assert tracer is not None
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(tracer.to_json())
            print(f"trace written to {args.trace_out} "
                  f"({len(tracer.spans())} spans; open in chrome://tracing "
                  f"or https://ui.perfetto.dev)", file=stdout)
        print(render_table(result, max_rows=args.max_rows), file=stdout)
        return 0

    if args.command == "stats":
        return _run_stats(args, stdout)

    if args.command == "explain":
        session = _load_session(args.data, args.backend, args.shards)
        print(session.explain(_query_text(args.aiql)), file=stdout)
        return 0

    if args.command == "repl":
        from repro.ui.cli import run
        session = _load_session(args.data, args.backend, args.shards)
        print(session.describe(), file=stdout)
        run(session, stdout=stdout)
        return 0

    if args.command == "serve":
        from repro.ui.webapp import make_server
        session = _load_session(args.data, args.backend, args.shards)
        server = make_server(session, args.host, args.port)
        host, port = server.server_address
        print(f"AIQL web UI on http://{host}:{port}/ — Ctrl-C to stop",
              file=stdout)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        return 0

    if args.command == "stream":
        return _run_stream(args, stdout)

    if args.command == "recover":
        return _run_recover(args, stdout)

    if args.command == "alerts":
        return _run_alerts(args, stdout)

    if args.command == "investigate":
        from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
        catalog = (FIGURE4_QUERIES if args.catalog == "figure4"
                   else FIGURE5_QUERIES)
        session = _load_session(args.data, args.backend, args.shards)
        print(session.describe(), file=stdout)
        total = 0.0
        for entry in catalog:
            result = session.query(entry.aiql)
            total += result.elapsed
            print(f"[{entry.id}] {entry.title}", file=stdout)
            print(render_table(result, max_rows=5), file=stdout)
            print(file=stdout)
        print(f"{len(catalog)} queries in {total * 1000:.0f} ms",
              file=stdout)
        return 0

    raise ReproError(f"unknown command {args.command!r}")


def _render_analyze(result) -> str:
    """EXPLAIN ANALYZE body: planner estimates against measured reality.

    One line per pattern in execution order, the actual rows
    the scan matched and the time it took next to the statistics-based
    estimate the scheduler ordered by (the estimator predicts *matched*
    rows — fetched shows what the access path had to hydrate to get
    there).  The estimate-error ratio (actual / estimated) is printed
    for every pattern and flagged when off by 4x either way — the signal
    that the per-bucket statistics have gone stale or a predicate
    defeated them.
    """
    execution = result.execution
    if execution is None:
        return result.report or "(no execution report)"
    lines = ["EXPLAIN ANALYZE",
             f"pattern order: {' -> '.join(execution.order) or '(none)'}"]
    for trace in execution.patterns:
        if trace.estimate > 0:
            ratio = trace.matched / trace.estimate
            error = f"est-error=x{ratio:.2f}"
            if ratio >= 4.0 or ratio <= 0.25:
                error += "  <-- estimate off"
        elif trace.matched == 0:
            error = "est-error=exact"
        else:
            error = "est-error=xinf  <-- estimate off"
        path = f" path={trace.path}" if trace.path else ""
        lines.append(f"  {trace.event_var}:{path} estimate={trace.estimate} "
                     f"actual={trace.matched} fetched={trace.fetched} "
                     f"time={trace.elapsed * 1000:.1f}ms  {error}")
    if execution.short_circuited:
        lines.append("  short-circuited: a pattern had no matches")
    lines.append(f"joined rows: {execution.joined_rows}")
    lines.append(f"total: {execution.elapsed * 1000:.1f} ms")
    return "\n".join(lines)


def _render_metrics(snapshot) -> str:
    """Human-readable form of one metrics snapshot."""
    lines = []
    if snapshot.counters:
        lines.append("counters:")
        for name in sorted(snapshot.counters):
            lines.append(f"  {name} = {snapshot.counters[name]}")
    if snapshot.gauges:
        lines.append("gauges:")
        for name in sorted(snapshot.gauges):
            lines.append(f"  {name} = {snapshot.gauges[name]:g}")
    if snapshot.histograms:
        lines.append("histograms:")
        for name in sorted(snapshot.histograms):
            hist = snapshot.histograms[name]
            mean = hist.total / hist.count if hist.count else 0.0
            lines.append(
                f"  {name}: count={hist.count} mean={mean:.6g} "
                f"p50={hist.percentile(0.50):.6g} "
                f"p95={hist.percentile(0.95):.6g} "
                f"p99={hist.percentile(0.99):.6g} max={hist.vmax:.6g}")
    return "\n".join(lines) if lines else "(empty snapshot)"


def _run_stats(args: argparse.Namespace, stdout) -> int:
    """``repro stats``: print the snapshot a durable stream keeps on disk.

    ``repro stream --durable DIR`` rewrites ``DIR/metrics.json``
    atomically (write + rename) as it runs and on close, so this command
    can watch a live stream's counters without any RPC surface.
    """
    import os as _os
    import time as _time

    from repro.obs.metrics import MetricsSnapshot

    path = _os.path.join(args.dir, "metrics.json")
    while True:
        if not _os.path.exists(path):
            raise ReproError(f"{path}: no metrics snapshot (was the stream "
                             f"run with --durable {args.dir}?)")
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if args.json:
            print(text, file=stdout)
        else:
            print(_render_metrics(MetricsSnapshot.from_json(text)),
                  file=stdout)
        if not args.follow:
            return 0
        print(file=stdout)
        try:
            _time.sleep(1.0)
        except KeyboardInterrupt:
            return 0


def _run_lint(args: argparse.Namespace, stdout) -> int:
    """``repro lint``: static analysis without loading any data.

    Exit codes: 0 when every query is clean (or carries only warnings
    without ``--strict``), 1 when warnings are present under
    ``--strict``, 2 when any query has errors.
    """
    from repro.analysis import analyze, render_all

    errors = warnings = 0
    for position, text in enumerate(args.aiql, start=1):
        source = _query_text(text)
        label = (text[1:] if text.startswith("@")
                 else f"query {position}")
        diagnostics = analyze(source)
        if not diagnostics:
            continue
        print(f"{label}:", file=stdout)
        print(render_all(diagnostics, source), file=stdout)
        errors += sum(1 for d in diagnostics if d.is_error)
        warnings += sum(1 for d in diagnostics if not d.is_error)
    checked = len(args.aiql)
    summary = (f"{checked} quer{'y' if checked == 1 else 'ies'} checked: "
               f"{errors} error(s), {warnings} warning(s)")
    print(summary, file=stdout)
    if errors:
        return 2
    if warnings and args.strict:
        return 1
    return 0


def _run_recover(args: argparse.Namespace, stdout) -> int:
    """``repro recover``: rebuild store state after a crash.

    Prints the recovery tally (checkpoint + WAL replay + dedup counts)
    and the recovered store summary; ``--aiql`` then runs investigation
    queries directly on the recovered state.
    """
    session = AiqlSession.recover(args.dir, backend=args.backend)
    print(session.store.recovery.describe(), file=stdout)
    print(session.describe(), file=stdout)
    for text in args.aiql:
        result = session.query(_query_text(text))
        print(render_table(result, max_rows=args.max_rows), file=stdout)
    if args.checkpoint:
        number = session.checkpoint()
        print(f"checkpoint #{number} written ({session.event_count} "
              f"events); WAL truncated", file=stdout)
    session.store.close()
    return 0


def _run_alerts(args: argparse.Namespace, stdout) -> int:
    """``repro alerts``: at-least-once consumption of the alert log."""
    import os

    from repro.stream.alertlog import AlertLog

    path = os.path.join(args.dir, "alerts.log")
    if not os.path.exists(path):
        raise ReproError(f"{path}: no alert log (was the stream run with "
                         f"--durable {args.dir}?)")
    with AlertLog(path) as log:
        last = 0
        count = 0
        for record in log.replay(args.consumer):
            cells = ", ".join(str(cell) for cell in record.row)
            print(f"#{record.seq} [{record.query}] {cells}", file=stdout)
            last = record.seq
            count = count + 1
        print(f"{count} pending alert(s) for consumer "
              f"{args.consumer!r}", file=stdout)
        if args.ack and last:
            log.ack(last, args.consumer)
            print(f"acknowledged through #{last}", file=stdout)
    return 0


def _write_metrics_snapshot(session: AiqlSession, directory: str) -> str:
    """Atomically rewrite DIR/metrics.json (what ``repro stats`` reads)."""
    import os as _os

    path = _os.path.join(directory, "metrics.json")
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(session.metrics().to_json())
    _os.replace(temp, path)   # a follower never sees a torn snapshot
    return path


def _run_stream(args: argparse.Namespace, stdout) -> int:
    """``repro stream``: tail a telemetry generator with standing queries.

    Matches and anomaly alerts print live as the stream produces them;
    the final section shows each standing query's accumulated result —
    exactly what a batch query over the fully-ingested store returns.

    With ``--durable DIR`` every delivered batch is WAL-appended before
    it reaches the store and every alert lands in ``DIR/alerts.log``, so
    a crash (or kill) mid-stream loses at most the in-flight batch and
    ``repro recover DIR`` rebuilds the rest.  ``--follow`` shuts down
    gracefully on SIGINT/SIGTERM: pending bus batches are flushed,
    window panes finalized, and the WAL closed cleanly (exit 0).
    """
    import os as _os
    import time as _time

    events = _build_scenario(args).events()

    stream_kwargs = {"batch_size": args.batch_size}
    if args.durable is not None:
        if args.backend.startswith("sharded") or args.shards is not None:
            # WAL-backed shard recovery is the ROADMAP follow-up; until
            # then refuse rather than silently lose a shard on crash.
            raise ReproError("--durable does not support the sharded "
                             "backends yet (shard workers restart empty)")
        session = AiqlSession(backend=args.backend, durable_dir=args.durable,
                              sync=args.sync)
        stream_kwargs["alert_log"] = _os.path.join(args.durable, "alerts.log")
    else:
        session = AiqlSession(backend=args.backend, shards=args.shards)

    def on_match(standing, row) -> None:
        cells = ", ".join(str(cell) for cell in row)
        print(f"[{standing.name}] {cells}", file=stdout)

    # The stream must exist (with the requested batch size) before the
    # first register() lazily creates one with defaults.
    stream = session.stream(**stream_kwargs)
    queries = []
    for position, text in enumerate(args.aiql, start=1):
        source = _query_text(text)
        # Tailing mode runs unbounded: surface matches through the
        # callback only instead of accumulating them for result().
        queries.append(session.register(source, callback=on_match,
                                        name=f"q{position}",
                                        retain_results=not args.follow))
    print(f"streaming {len(events)} events ({args.scenario} scenario) "
          f"against {len(queries)} standing queries "
          f"[backend={session.backend_name}]", file=stdout)

    started = _time.perf_counter()
    if args.follow:
        if args.rate <= 0:
            raise ReproError("--rate must be positive with --follow")
        # Graceful shutdown: SIGINT/SIGTERM set a flag the pacing loop
        # checks between chunks, so interruption never tears a batch —
        # pending bus batches flush, panes finalize, the WAL closes
        # cleanly, and the command exits 0.
        import signal as _signal

        stopping = []

        def _request_stop(signum, frame) -> None:
            stopping.append(_signal.Signals(signum).name)

        previous = {
            sig: _signal.signal(sig, _request_stop)
            for sig in (_signal.SIGINT, _signal.SIGTERM)
        }
        try:
            published = 0
            last_snapshot = started
            for start in range(0, len(events), args.batch_size):
                if stopping:
                    print(f"{stopping[0]} — flushing and closing stream",
                          file=stdout)
                    break
                chunk = events[start:start + args.batch_size]
                stream.publish_many(chunk)
                stream.flush()
                published += len(chunk)
                # Keep the on-disk metrics snapshot fresh (~1 Hz) so a
                # concurrent `repro stats DIR --follow` tails live
                # counters (match latency, watermark lag, queue depth).
                now = _time.perf_counter()
                if args.durable is not None and now - last_snapshot >= 1.0:
                    _write_metrics_snapshot(session, args.durable)
                    last_snapshot = now
                # Deadline-based pacing: sleep toward the schedule instead
                # of a full per-chunk budget, so publish/flush time does
                # not erode the requested rate.
                deadline = started + published / args.rate
                remaining = deadline - _time.perf_counter()
                if remaining > 0:
                    _time.sleep(remaining)
        finally:
            for sig, handler in previous.items():
                _signal.signal(sig, handler)
    else:
        try:
            stream.publish_many(events)
        except KeyboardInterrupt:
            print("interrupted — closing stream", file=stdout)
    stream.close()
    elapsed = _time.perf_counter() - started

    print(file=stdout)
    for standing in queries:
        print(f"== {standing.name} ({standing.kind}): "
              f"{standing.matches} matches, state={standing.state_size()}, "
              f"evicted={standing.evicted}", file=stdout)
        if not args.follow:
            print(render_table(standing.result(), max_rows=args.max_rows),
                  file=stdout)
    rate = len(events) / elapsed if elapsed > 0 else 0.0
    print(f"{len(events)} events in {elapsed:.2f}s ({rate:,.0f} events/sec); "
          f"store now holds {session.event_count} events", file=stdout)
    if args.durable is not None:
        metrics_path = _write_metrics_snapshot(session, args.durable)
        wal_size = session.store.wal_size
        session.store.close()
        print(f"durable: {args.durable} (wal {wal_size} bytes; "
              f"'repro recover {args.durable}' rebuilds this store; "
              f"'repro stats {args.durable}' reads {metrics_path})",
              file=stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
