"""Command-line interface: build, query, and inspect knowledge graphs.

The offline analogue of the IYP project's operational scripts::

    python -m repro build --scale small --output iyp.iyp2
    python -m repro query --snapshot iyp.iyp2 \
        "MATCH (a:AS) RETURN count(a)"
    python -m repro serve --snapshot iyp.iyp2 --port 8734
    python -m repro serve --archive archive --watch 5
    python -m repro top --port 8734 --once
    python -m repro quality --dir archive
    python -m repro archive list --dir archive
    python -m repro inventory
    python -m repro ontology
    python -m repro studies --scale small
    python -m repro info --snapshot iyp.iyp2

``query`` and ``serve`` share one admission-control path
(:mod:`repro.server.admission`): ``--timeout`` and ``--limit`` on the
interactive command enforce the same budgets a served query gets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import IYP
from repro.datasets.registry import DATASETS, organizations
from repro.graphdb import load_snapshot, save_snapshot
from repro.ontology import ENTITIES, RELATIONSHIPS
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world

#: Default dump file: what ``build`` writes and the snapshot-reading
#: commands open when no path is given.
DEFAULT_SNAPSHOT = "iyp.iyp2"

_SCALES = {
    "small": WorldConfig.small,
    "medium": WorldConfig.medium,
    "2015": WorldConfig.year2015,
}


def _load_iyp(snapshot: str) -> IYP:
    return IYP(load_snapshot(snapshot))


def _print_crawler_runs(report) -> None:
    """Per-crawler telemetry table (``build --verbose``)."""
    print(f"{'crawler':<34} {'seconds':>8} {'n+':>7} {'n~':>7} {'r+':>8} {'r~':>8}")
    print("-" * 76)
    for run in report.crawler_runs:
        flag = "  ERROR" if run.error else ""
        print(
            f"{run.name:<34} {run.seconds:>8.3f} {run.nodes_created:>7,} "
            f"{run.nodes_merged:>7,} {run.relationships_created:>8,} "
            f"{run.relationships_merged:>8,}{flag}"
        )


def cmd_build(args: argparse.Namespace) -> int:
    """Build the knowledge graph and write (and optionally archive) a snapshot."""
    config = _SCALES[args.scale](seed=args.seed)
    print(f"Building synthetic world (scale={args.scale}, seed={args.seed})...")
    world = build_world(config)
    datasets = args.datasets.split(",") if args.datasets else None
    archive = None
    if args.archive:
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(args.archive)
    iyp, report = build_iyp(
        world,
        dataset_names=datasets,
        archive=archive,
        archive_label=args.archive_label,
    )
    print(
        f"Built {report.nodes:,} nodes / {report.relationships:,} "
        f"relationships in {report.total_seconds:.1f}s"
    )
    if args.verbose:
        _print_crawler_runs(report)
    if report.archived_as:
        entry = archive.resolve(report.archived_as)
        print(
            f"Archived as {entry.label} in {args.archive}/ "
            f"(checksum {entry.checksum[:12]})"
        )
    save_snapshot(iyp.store, args.output)
    size_mb = Path(args.output).stat().st_size / 1e6
    print(f"Snapshot written to {args.output} ({size_mb:.1f} MB)")
    return 0


def _parse_params(pairs: list[str] | None) -> dict[str, object]:
    """``--param key=value`` pairs; values parse as JSON, falling back
    to plain strings (so ``--param asn=2497`` is a number but
    ``--param org_name=NTT`` needs no quoting)."""
    import json

    params: dict[str, object] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_query(args: argparse.Namespace) -> int:
    """Run a Cypher query against a snapshot.

    ``--timeout`` and ``--limit`` reuse the query service's admission
    control: the query runs under the same cooperative guard a served
    request gets, and aborts are reported the same way.  ``--profile``
    executes the query for real and prints the annotated operator tree
    (rows, store hits, timings) above the results.
    """
    from repro.cypher.errors import QueryAbortedError
    from repro.server.admission import AdmissionController

    iyp = _load_iyp(args.snapshot)
    if args.explain:
        explanation = iyp.engine.explain(args.query)
        for step in explanation.plan:
            print(step)
        _print_warnings(explanation.warnings)
        return 0
    params = _parse_params(args.param)
    controller = AdmissionController(
        max_concurrent=1,
        default_timeout=args.timeout,
        default_max_rows=args.limit,
    )
    try:
        with controller.slot():
            if args.profile:
                result, plan = iyp.engine.profile(
                    args.query, params, guard=controller.guard()
                )
                print(plan.render())
                print()
            else:
                result = iyp.engine.run(args.query, params, guard=controller.guard())
    except QueryAbortedError as exc:
        print(f"query aborted: {exc}", file=sys.stderr)
        return 1
    print(result.to_table(max_rows=args.limit or 50))
    if result.stats:
        stats = result.stats
        print(
            f"-- nodes +{stats.nodes_created}/-{stats.nodes_deleted}, "
            f"rels +{stats.relationships_created}/-{stats.relationships_deleted}, "
            f"props {stats.properties_set}"
        )
    return 0


def _print_warnings(warnings, source: str | None = None) -> None:
    for finding in warnings:
        print(finding.format(source))


def cmd_explain(args: argparse.Namespace) -> int:
    """Show the execution plan of a query, with lint warnings."""
    iyp = _load_iyp(args.snapshot)
    explanation = iyp.engine.explain(args.query)
    for step in explanation.plan:
        print(step)
    _print_warnings(explanation.warnings)
    return 0


def _lint_sources(args: argparse.Namespace) -> list[tuple[str, str]]:
    """Resolve ``repro lint`` inputs to (source name, query) pairs.

    Each positional source is a file (queries extracted by extension),
    ``-`` for stdin, or — failing both — inline query text.
    """
    from repro.lint import extract_queries

    pairs: list[tuple[str, str]] = []
    for source in args.sources:
        if source == "-":
            pairs.append(("<stdin>", sys.stdin.read()))
        elif Path(source).is_file():
            pairs.extend(extract_queries(source))
        else:
            pairs.append(("<query>", source))
    return pairs


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically check Cypher queries against the ontology.

    Without ``--strict`` the exit code reflects errors only; with it,
    warnings fail too (info-level notes never do).  ``--snapshot``
    additionally enables the index-aware checks (LNT008).
    """
    from repro.lint import QueryLinter, fails_strict

    if getattr(args, "python", False):
        # Concurrency-safety mode: the sources are Python files/dirs.
        return cmd_check_concurrency(
            argparse.Namespace(paths=args.sources, strict=args.strict)
        )

    store = load_snapshot(args.snapshot) if args.snapshot else None
    linter = QueryLinter(store)
    pairs = _lint_sources(args)
    if not pairs:
        print("nothing to lint", file=sys.stderr)
        return 2
    failed = False
    total = 0
    for source, query in pairs:
        findings = linter.lint(query)
        total += len(findings)
        _print_warnings(findings, source)
        if args.strict:
            failed = failed or fails_strict(findings)
        else:
            failed = failed or any(f.severity == "error" for f in findings)
    queries = len(pairs)
    print(f"linted {queries} quer{'y' if queries == 1 else 'ies'}: "
          f"{total} diagnostic{'' if total == 1 else 's'}")
    return 1 if failed else 0


def cmd_check_concurrency(args: argparse.Namespace) -> int:
    """Run the concurrency-safety analyzer over the serving stack.

    Checks the lock contracts declared through ``GUARDED_BY`` maps and
    ``@guarded_by`` decorators (RACE001-RACE006) and the static
    lock-order graph (RACE007).  With no paths, analyzes the default
    targets (repro.graphdb, repro.server, repro.obs, repro.archive,
    repro.concurrency, and the shared LRU cache).  ``--strict`` fails on
    warnings as well as errors.
    """
    from repro.lint import analyze_paths, default_targets, fails_strict

    if args.paths:
        files: list[Path] = []
        for raw in args.paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                files.append(path)
            else:
                print(f"no such file: {raw}", file=sys.stderr)
                return 2
    else:
        files = default_targets()

    findings = analyze_paths(files)
    for path, diag in findings:
        print(diag.format(path))
    diags = [diag for _, diag in findings]
    count = len(diags)
    print(f"checked {len(files)} file{'' if len(files) == 1 else 's'}: "
          f"{count} finding{'' if count == 1 else 's'}")
    if args.strict:
        return 1 if fails_strict(diags) else 0
    return 1 if any(d.severity == "error" for d in diags) else 0


def cmd_validate_graph(args: argparse.Namespace) -> int:
    """Sweep a snapshot for ontology schema violations, per crawler."""
    from repro.lint import SCHEMA_CODES, GraphValidator

    store = load_snapshot(args.snapshot)
    report = GraphValidator().validate(store)
    print(
        f"checked {report.nodes_checked:,} nodes / "
        f"{report.relationships_checked:,} relationships"
    )
    if report.ok:
        print("no schema violations")
        return 0
    for code, count in report.by_code().items():
        print(f"  {code} ({SCHEMA_CODES[code]}): {count}")
    print("violations by crawler:")
    for crawler, items in report.by_crawler().items():
        print(f"  {crawler:<34} {len(items):>6,}")
        for violation in items[: args.show]:
            print(f"    {violation}")
    return 1


def cmd_info(args: argparse.Namespace) -> int:
    """Summarize a snapshot: size, labels, relationship types."""
    iyp = _load_iyp(args.snapshot)
    summary = iyp.summary()
    print(f"nodes:         {summary['nodes']:,}")
    print(f"relationships: {summary['relationships']:,}")
    print("labels:")
    for label, count in summary["labels"].items():
        print(f"  :{label:<26} {count:>8,}")
    print("relationship types:")
    for rel_type, count in summary["relationship_types"].items():
        print(f"  :{rel_type:<26} {count:>8,}")
    return 0


def _print_diff(diff, verbose: bool) -> None:
    """Shared rendering for ``repro diff`` and ``repro archive diff``."""
    summary = diff.summary()
    for section, counts in summary.items():
        if not counts:
            continue
        print(f"{section}:")
        for token, count in counts.items():
            print(f"  {token:<30} {count:>8,}")
    if verbose:
        for key in diff.nodes_added[:20]:
            print(f"+ node {key}")
        for key in diff.nodes_removed[:20]:
            print(f"- node {key}")
        for key, changes in diff.nodes_modified[:20]:
            print(f"~ node {key}")
            for prop, (before, after) in sorted(changes.items()):
                print(f"    .{prop}: {before!r} -> {after!r}")
        for key, changes in diff.relationships_modified[:20]:
            print(f"~ rel {key}")
            for prop, (before, after) in sorted(changes.items()):
                print(f"    .{prop}: {before!r} -> {after!r}")


def cmd_diff(args: argparse.Namespace) -> int:
    """Diff two snapshots by entity identity (longitudinal workflow).

    With ``--exit-code`` the command exits 1 when the snapshots differ,
    so CI can use it as a serialization-regression tripwire.  With
    ``--format json`` the diff is emitted as an ordered delta batch —
    the exact record format ``GraphStore.apply_delta`` replays and the
    archive's binary delta entries carry — so scripts can turn any two
    snapshots into a shippable delta.
    """
    from repro.core.diff import snapshot_diff

    old = load_snapshot(args.old)
    new = load_snapshot(args.new)
    diff = snapshot_diff(old, new)
    if args.format == "json":
        from repro.delta import delta_from_diff, delta_to_json

        batch = delta_from_diff(old, new, diff)
        print(delta_to_json(batch))
        return 1 if args.exit_code and not batch.empty else 0
    if diff.unchanged:
        print("snapshots are identical (by entity identity)")
        return 0
    _print_diff(diff, args.verbose)
    return 1 if args.exit_code else 0


def cmd_inventory(_args: argparse.Namespace) -> int:
    """List the dataset registry (the paper's Table 8)."""
    print(f"{len(DATASETS)} datasets from {len(organizations())} organizations\n")
    print(f"{'organization':<26} {'dataset':<28} {'frequency':<10} license")
    print("-" * 84)
    for spec in DATASETS:
        print(
            f"{spec.organization:<26} {spec.name:<28} {spec.frequency:<10} "
            f"{spec.license}"
        )
    return 0


def cmd_ontology(_args: argparse.Namespace) -> int:
    """List entities and relationships (Tables 6 and 7)."""
    print(f"{len(ENTITIES)} entities:")
    for definition in ENTITIES.values():
        print(f"  :{definition.label:<26} key: {definition.key}")
    print(f"\n{len(RELATIONSHIPS)} relationships:")
    for definition in RELATIONSHIPS.values():
        endpoints = ", ".join(f"{s}->{e}" for s, e in definition.endpoints[:3])
        print(f"  :{definition.type:<26} {endpoints}")
    return 0


def cmd_studies(args: argparse.Namespace) -> int:
    """Run every reproduction study and print the headline numbers."""
    from repro.studies import (
        compare_origin_datasets,
        run_combined_study,
        run_dns_robustness_study,
        run_ripki_study,
        run_spof_study,
    )

    config = _SCALES[args.scale](seed=args.seed)
    world = build_world(config)
    iyp, report = build_iyp(world)
    print(f"graph: {report.nodes:,} nodes / {report.relationships:,} rels\n")

    ripki = run_ripki_study(iyp)
    print("RiPKI (Table 2):", {k: round(v, 1) for k, v in ripki.table2_row().items()})
    dns = run_dns_robustness_study(iyp)
    print("DNS practices (Table 3):", {k: round(v, 1) for k, v in dns.table3_row().items()})
    print(
        "Shared infra (Table 4): "
        f"NS med/max {dns.cno_by_ns.median}/{dns.cno_by_ns.maximum}, "
        f"/24 med/max {dns.cno_by_slash24.median}/{dns.cno_by_slash24.maximum}"
    )
    combined = run_combined_study(iyp)
    print(
        "NS RPKI (5.1.1): "
        f"prefixes {combined.ns_prefixes_covered_pct:.1f}%, "
        f"domains {combined.domains_on_covered_ns_pct:.1f}%"
    )
    spof = run_spof_study(iyp)
    top = spof.top_countries(3)
    print("SPoF top countries (Fig 5):", [c for c, _ in top])
    comparison = compare_origin_datasets(iyp)
    print(
        f"Dataset diff (6.1): {comparison.total} disagreements, "
        f"IPv6-dominated={comparison.ipv6_dominated}"
    )
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Validate a world configuration's internal consistency."""
    from repro.simnet.validate import validate_world

    config = _SCALES[args.scale](seed=args.seed)
    world = build_world(config)
    report = validate_world(world)
    print(f"checks run: {report.checks_run}")
    if report.ok:
        print("world is consistent")
        return 0
    for problem in report.problems:
        print(f"PROBLEM: {problem}")
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the weekly study report from a snapshot."""
    from repro.studies.report import generate_report

    iyp = _load_iyp(args.snapshot)
    report = generate_report(iyp, snapshot_label=args.snapshot)
    if args.output:
        Path(args.output).write_text(report.markdown, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(report.markdown)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a knowledge graph over HTTP (the public-instance analogue).

    With ``--archive`` the served store comes out of a snapshot archive
    (``--snapshot`` is then an archive selector, default ``latest``),
    ``/query`` accepts ``snapshot=`` for time travel, ``POST /admin/swap``
    hot-swaps the live store, and ``--watch`` polls the archive so new
    builds go live without a restart (see
    :class:`repro.archive.ArchiveWatcher` for how each entry is taken).
    """
    from repro.server import QueryService, create_server
    from repro.server.metrics import Metrics

    if args.watch is not None and not args.archive:
        print("--watch requires --archive", file=sys.stderr)
        return 1
    # One registry across build and serving, so pipeline counters show
    # up on the served /metrics endpoint.
    metrics = Metrics()
    archive = None
    snapshot_label = None
    if args.archive:
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(args.archive)
        if not archive.entries():
            print(f"archive {args.archive}/ has no snapshots", file=sys.stderr)
            return 1
        selector = args.snapshot or "latest"
        entry = archive.resolve(selector)
        print(f"Loading archived snapshot {entry.label} ({entry.filename})...")
        store = archive.load(entry)
        snapshot_label = entry.label
    elif args.snapshot:
        print(f"Loading snapshot {args.snapshot}...")
        store = load_snapshot(args.snapshot)
    else:
        print(f"Building synthetic world (scale={args.scale}, seed={args.seed})...")
        world = build_world(_SCALES[args.scale](seed=args.seed))
        iyp, report = build_iyp(world, metrics=metrics)
        print(
            f"Built {report.nodes:,} nodes / {report.relationships:,} "
            f"relationships in {report.total_seconds:.1f}s"
        )
        store = iyp.store
    if args.workers > 1 and args.backend != "columnar":
        print("--workers N (N>1) requires --backend columnar", file=sys.stderr)
        return 1
    # The service options, spelled once for the in-process service and
    # for the copy each pool worker builds.
    options = {
        "max_concurrent": args.max_concurrent,
        "default_timeout": args.timeout,
        "default_max_rows": args.max_rows,
        "cache_size": args.cache_size,
        "tracing": not args.no_trace,
        "slow_query_seconds": args.slow_query_threshold,
        "snapshot_label": snapshot_label,
    }
    if args.backend == "columnar":
        if args.workers > 1:
            return _serve_pool(args, store, archive, options)
        from repro.columnar import ColumnarGraphStore

        print("Building columnar arrays (read-only backend)...")
        store = ColumnarGraphStore.from_store(store)
    service = QueryService(store, metrics=metrics, archive=archive, **options)
    watcher = _start_watcher(args, service, archive)
    server = create_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"Serving {store.node_count:,} nodes / "
        f"{store.relationship_count:,} relationships on http://{host}:{port}"
    )
    print(
        "Endpoints: POST /query /profile /lint /admin/swap; GET /explain "
        "/ontology /archive /archive/info /stats /healthz /readyz /metrics "
        "/quality /debug/slowlog /debug/statements /debug/traces /debug/trace"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if watcher is not None:
            watcher.stop()
        server.server_close()
        dump = service.slowlog.format_text()
        if dump:
            print(dump)
        if service.statements is not None:
            statements = service.statements.format_text()
            if statements:
                print(statements)
    return 0


def _start_watcher(args: argparse.Namespace, service, archive):
    """``--watch``: keep ``service`` (a ``QueryService`` or a
    ``WorkerPool``) on the archive's latest entry; None without it."""
    if args.watch is None:
        return None
    from repro.archive import ArchiveWatcher

    watcher = ArchiveWatcher(service, archive, interval=args.watch)
    watcher.start()
    print(f"Watching {args.archive}/ every {args.watch:g}s")
    return watcher


def _serve_pool(args: argparse.Namespace, store, archive, options: dict) -> int:
    """Multi-process serving: pack the graph into shared memory and
    pre-fork ``--workers`` query processes onto one listening socket.

    Hot swap is parent-driven here (``/admin/swap`` would only reach
    whichever worker accepted the connection): with ``--watch`` the
    archive watcher drives ``WorkerPool.load_and_swap``, which packs
    each new entry into a fresh segment and broadcasts it to every
    worker; the old segment is unlinked once all workers acknowledge.
    """
    import multiprocessing
    import signal
    import threading

    from repro.columnar.pool import WorkerPool
    from repro.columnar.shm import pack_store

    if "fork" not in multiprocessing.get_all_start_methods():
        print("--workers requires fork support (POSIX)", file=sys.stderr)
        return 1
    # SIGTERM (docker stop, systemd) must unwind like Ctrl-C so the
    # shared-memory segment is unlinked, not leaked in /dev/shm.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    print(f"Packing {store.node_count:,} nodes into shared memory...")
    manifest = pack_store(store)
    pool = WorkerPool(
        manifest,
        host=args.host,
        port=args.port,
        workers=args.workers,
        service_config=options,
        archive=archive,
    )
    pool.start()
    host, port = pool.address
    print(
        f"Serving {manifest.nodes:,} nodes / "
        f"{manifest.relationships:,} relationships on http://{host}:{port} "
        f"({args.workers} worker processes, backend columnar, "
        f"segment {manifest.name})"
    )
    # Started after the fork: workers must not inherit the thread's state.
    watcher = _start_watcher(args, pool, archive)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down worker pool")
    finally:
        if watcher is not None:
            watcher.stop()
        pool.stop()
    return 0


def cmd_store_info(args: argparse.Namespace) -> int:
    """Describe a graph store: composition plus the estimated memory
    footprint of each backend for the same data."""
    import json

    from repro.columnar import ColumnarGraphStore

    if args.snapshot:
        print(f"Loading snapshot {args.snapshot}...", file=sys.stderr)
        store = load_snapshot(args.snapshot)
    else:
        world = build_world(_SCALES[args.scale](seed=args.seed))
        iyp, _report = build_iyp(world)
        store = iyp.store
    columnar = ColumnarGraphStore.from_store(store)
    info = {
        "nodes": store.node_count,
        "relationships": store.relationship_count,
        "labels": dict(sorted(store.label_counts().items())),
        "relationship_types": dict(
            sorted(store.relationship_type_counts().items())
        ),
        "indexes": [list(pair) for pair in store.indexes()],
        "constraints": [list(pair) for pair in store.constraints()],
        "backends": {
            store.backend_name: store.memory_info(),
            columnar.backend_name: columnar.memory_info(),
        },
    }
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"nodes:         {info['nodes']:,}")
    print(f"relationships: {info['relationships']:,}")
    print("labels:")
    for label, count in info["labels"].items():
        print(f"  {label:<24} {count:>10,}")
    print("relationship types:")
    for rel_type, count in info["relationship_types"].items():
        print(f"  {rel_type:<24} {count:>10,}")
    print(f"indexes:       {', '.join(':'.join(p) for p in info['indexes']) or '-'}")
    print(
        "constraints:   "
        f"{', '.join(':'.join(p) for p in info['constraints']) or '-'}"
    )
    print("estimated memory footprint (bytes):")
    backends = info["backends"]
    components = sorted(
        {key for sizes in backends.values() for key in sizes}
    )
    header = f"  {'component':<22}" + "".join(
        f"{name:>14}" for name in sorted(backends)
    )
    print(header)
    for component in components:
        row = f"  {component:<22}"
        for name in sorted(backends):
            row += f"{backends[name].get(component, 0):>14,}"
        print(row)
    return 0


def _render_statements(snapshot: dict) -> str:
    """Statement-statistics table shared by ``repro top`` refreshes."""
    lines = [
        f"{snapshot['statements_tracked']} statement(s) tracked "
        f"(capacity {snapshot['capacity']}), "
        f"{snapshot['recorded_total']:,} calls recorded, "
        f"{snapshot['evicted_total']:,} evicted — sorted by {snapshot['sort']}",
        f"{'fingerprint':<14} {'calls':>7} {'rows':>9} {'err':>4} {'hit%':>5} "
        f"{'total s':>8} {'mean ms':>8} {'p95 ms':>8} {'p99 ms':>8}  query",
        "-" * 110,
    ]
    for stmt in snapshot["statements"]:
        query = stmt["query"]
        if len(query) > 48:
            query = query[:45] + "..."
        errors = sum(stmt["errors"].values())
        lines.append(
            f"{stmt['fingerprint']:<14} {stmt['calls']:>7,} {stmt['rows']:>9,} "
            f"{errors:>4} {stmt['cache_hit_rate'] * 100:>4.0f}% "
            f"{stmt['total_seconds']:>8.3f} {stmt['mean_ms']:>8.2f} "
            f"{stmt['p95_ms']:>8.2f} {stmt['p99_ms']:>8.2f}  {query}"
        )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live statement monitor against a running server.

    Polls ``GET /debug/statements`` and redraws a ``pg_stat_statements``
    style table every ``--interval`` seconds; ``--once`` prints a single
    snapshot and exits (the scriptable mode CI and tests use).
    """
    import json
    import time
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    url = (
        f"http://{args.host}:{args.port}/debug/statements"
        f"?top={args.top}&sort={args.sort}"
    )
    while True:
        try:
            with urlopen(url, timeout=10) as response:
                snapshot = json.loads(response.read())
        except HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            print(f"server returned {exc.code}: {detail}", file=sys.stderr)
            return 1
        except (URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            print(f"cannot reach {url}: {reason}", file=sys.stderr)
            return 1
        if not args.once:
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
        print(_render_statements(snapshot))
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
            return 0


def cmd_quality(args: argparse.Namespace) -> int:
    """Longitudinal data-quality report over a snapshot archive.

    Reads freshness, coverage, and cross-source agreement out of the
    archive manifest alone (no snapshot is loaded).  Exits 1 when the
    latest snapshot is stale or any crawler is erroring/diverging, so
    the command doubles as a pipeline-health check.
    """
    import json

    from repro.obs import archive_quality, render_quality_report

    archive = _open_archive(args)
    entries = archive.entries()
    if not entries:
        print(f"archive {args.dir}/ is empty", file=sys.stderr)
        return 1
    report = archive_quality(
        [entry.to_dict() for entry in entries],
        stale_after_seconds=args.stale_after * 86400.0,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_quality_report(report))
    return 1 if (report["stale"] or report["problem_crawlers"]) else 0


def _open_archive(args: argparse.Namespace):
    from repro.archive import SnapshotArchive

    return SnapshotArchive(args.dir)


def cmd_archive_list(args: argparse.Namespace) -> int:
    """List a snapshot archive's manifest, oldest first."""
    archive = _open_archive(args)
    entries = archive.entries()
    if not entries:
        print(f"archive {args.dir}/ is empty")
        return 0
    print(f"{'label':<22} {'fmt':>3} {'nodes':>10} {'rels':>10} created")
    print("-" * 70)
    for entry in entries:
        print(
            f"{entry.label:<22} {'v' + str(entry.format):>3} {entry.nodes:>10,} "
            f"{entry.relationships:>10,} {entry.created_at}"
        )
    return 0


def cmd_archive_info(args: argparse.Namespace) -> int:
    """Show one archive entry's manifest record in full."""
    import json

    archive = _open_archive(args)
    try:
        info = archive.info(args.snapshot)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_archive_verify(args: argparse.Namespace) -> int:
    """Check every archived snapshot against its manifest record."""
    archive = _open_archive(args)
    report = archive.verify(deep=args.deep)
    mode = "deep" if args.deep else "checksum"
    print(f"verified {report.entries_checked} snapshot(s) ({mode})")
    if report.ok:
        print("archive is consistent")
        return 0
    for problem in report.problems:
        print(f"PROBLEM: {problem}")
    return 1


def cmd_archive_diff(args: argparse.Namespace) -> int:
    """Diff two archived snapshots by entity identity."""
    archive = _open_archive(args)
    try:
        diff = archive.diff(args.old, args.new)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if diff.unchanged:
        print(f"{args.old} and {args.new} are identical (by entity identity)")
        return 0
    _print_diff(diff, args.verbose)
    return 1 if args.exit_code else 0


def cmd_archive_prune(args: argparse.Namespace) -> int:
    """Delete all but the newest N snapshots."""
    archive = _open_archive(args)
    removed = archive.prune(args.keep)
    if not removed:
        print("nothing to prune")
        return 0
    for entry in removed:
        print(f"pruned {entry.label} ({entry.filename})")
    return 0


def cmd_archive_add(args: argparse.Namespace) -> int:
    """Import an existing snapshot file into the archive."""
    archive = _open_archive(args)
    store = load_snapshot(args.snapshot)
    label = args.label or Path(args.snapshot).name.split(".")[0]
    entry = archive.add(store, label)
    print(
        f"archived {entry.label} ({entry.filename}, "
        f"{entry.nodes:,} nodes / {entry.relationships:,} rels)"
    )
    return 0


def cmd_analytics(args: argparse.Namespace) -> int:
    """Run one ``algo.*`` procedure against a snapshot.

    ``repro analytics list`` enumerates the registry; any other measure
    name (with or without the ``algo.`` prefix) loads the snapshot, runs
    the procedure, and prints the top rows.  ``--arg`` passes positional
    procedure arguments; values parse as JSON with a plain-string
    fallback, mirroring ``query --param``.
    """
    import json

    from repro.analytics import PROCEDURES, ProcedureContext, get_procedure, suggest

    if args.measure == "list":
        print(f"{'procedure':<28} {'columns':<24} {'precomputed':<12} summary")
        print("-" * 100)
        for spec in PROCEDURES.values():
            columns = ",".join(spec.columns)
            flag = "yes" if spec.precompute else "no"
            print(f"{spec.name:<28} {columns:<24} {flag:<12} {spec.summary}")
        return 0
    name = args.measure if "." in args.measure else f"algo.{args.measure}"
    spec = get_procedure(name)
    if spec is None:
        hint = ""
        hints = suggest(name)
        if hints:
            hint = f" (did you mean {' or '.join(hints)}?)"
        print(f"unknown procedure {name!r}{hint}", file=sys.stderr)
        return 1
    call_args = []
    for raw in args.arg or ():
        try:
            call_args.append(json.loads(raw))
        except json.JSONDecodeError:
            call_args.append(raw)
    iyp = _load_iyp(args.snapshot)
    try:
        rows = spec.run(ProcedureContext(iyp.store), *call_args)
    except (TypeError, ValueError) as exc:
        print(f"bad arguments for {spec.name}{spec.signature}: {exc}", file=sys.stderr)
        return 1
    print(f"{spec.name}{spec.signature}: {len(rows)} row(s)")
    if rows:
        widths = {column: max(len(column), 12) for column in spec.columns}
        print("  ".join(column.ljust(widths[column]) for column in spec.columns))
        for record in rows[: args.top]:
            print(
                "  ".join(
                    str(record[column]).ljust(widths[column])
                    for column in spec.columns
                )
            )
        if len(rows) > args.top:
            print(f"... {len(rows) - args.top} more row(s)")
    return 0


def cmd_docs(args: argparse.Namespace) -> int:
    """Generate the documentation pages from registry and ontology."""
    from repro.docs import write_docs

    for path in write_docs(args.output):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Internet Yellow Pages reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a knowledge graph snapshot")
    build.add_argument("--scale", choices=sorted(_SCALES), default="small")
    build.add_argument("--seed", type=int, default=20240501)
    build.add_argument("--datasets", help="comma-separated dataset subset")
    build.add_argument("--output", default=DEFAULT_SNAPSHOT)
    build.add_argument(
        "--verbose", action="store_true",
        help="print per-crawler telemetry (timings, nodes/rels created vs merged)",
    )
    build.add_argument(
        "--archive", metavar="DIR",
        help="also archive the built graph into this snapshot archive",
    )
    build.add_argument(
        "--archive-label", metavar="LABEL",
        help="label for the archived snapshot (default: build-NNNN)",
    )
    build.set_defaults(func=cmd_build)

    query = sub.add_parser("query", help="run a Cypher query on a snapshot")
    query.add_argument("query")
    query.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    query.add_argument(
        "--limit", type=int, default=None,
        help="abort when the query returns more rows than this "
             "(default: unlimited; display still truncates at 50)",
    )
    query.add_argument(
        "--timeout", type=float, default=None,
        help="abort the query after this many seconds",
    )
    query.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="query parameter (repeatable); values parse as JSON, "
             "falling back to plain strings",
    )
    query.add_argument(
        "--profile", action="store_true",
        help="execute the query and print the annotated operator tree "
             "(rows, store hits, timings) above the results",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print the execution plan and lint warnings without "
             "running the query",
    )
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser("serve", help="serve a snapshot over HTTP")
    serve.add_argument(
        "--snapshot",
        help="snapshot to serve (default: build a world); with --archive "
             "this is an archive selector instead of a file path",
    )
    serve.add_argument(
        "--archive", metavar="DIR",
        help="serve out of this snapshot archive (enables time travel "
             "via snapshot= and hot swapping via POST /admin/swap)",
    )
    serve.add_argument(
        "--watch", type=float, metavar="SECONDS",
        help="poll the archive at this interval and bring the service "
             "to each new entry: delta entries are applied to a dict "
             "store in place, anything else is loaded and hot-swapped "
             "(requires --archive)",
    )
    serve.add_argument("--scale", choices=sorted(_SCALES), default="small")
    serve.add_argument("--seed", type=int, default=20240501)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734)
    serve.add_argument(
        "--max-concurrent", type=int, default=8,
        help="admission control: maximum concurrent queries",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query time budget in seconds",
    )
    serve.add_argument(
        "--max-rows", type=int, default=100_000,
        help="default per-query result row limit",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result cache capacity (entries)",
    )
    serve.add_argument(
        "--slow-query-threshold", type=float, default=1.0, metavar="SECONDS",
        help="queries at or above this many seconds land in the slow-query log",
    )
    serve.add_argument(
        "--no-trace", action="store_true",
        help="disable span tracing and per-query profiling",
    )
    serve.add_argument(
        "--backend", choices=("dict", "columnar"), default="dict",
        help="store backend: the mutable dict-of-objects store, or the "
             "read-only columnar array store (shareable across processes)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="with --backend columnar: pre-fork N query processes "
             "attached to one shared-memory graph segment",
    )
    serve.set_defaults(func=cmd_serve)

    store_info = sub.add_parser(
        "store-info",
        help="graph composition and per-backend memory footprint",
    )
    store_info.add_argument(
        "--snapshot", help="snapshot file to inspect (default: build a world)"
    )
    store_info.add_argument("--scale", choices=sorted(_SCALES), default="small")
    store_info.add_argument("--seed", type=int, default=20240501)
    store_info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    store_info.set_defaults(func=cmd_store_info)

    top = sub.add_parser(
        "top", help="live statement monitor against a running server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8734)
    top.add_argument(
        "--top", type=int, default=20, help="statements to show (default 20)"
    )
    top.add_argument(
        "--sort", choices=("total_seconds", "calls", "rows", "mean_ms", "p99_ms"),
        default="total_seconds",
        help="ranking column (default total_seconds)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2s)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (scriptable mode)",
    )
    top.set_defaults(func=cmd_top)

    quality = sub.add_parser(
        "quality", help="longitudinal data-quality report over an archive"
    )
    quality.add_argument(
        "--dir", default="archive", metavar="DIR",
        help="archive directory (default: archive/)",
    )
    quality.add_argument(
        "--stale-after", type=float, default=8.0, metavar="DAYS",
        help="flag the archive stale beyond this age (default 8 days)",
    )
    quality.add_argument(
        "--json", action="store_true",
        help="emit the raw report as JSON instead of the table",
    )
    quality.set_defaults(func=cmd_quality)

    explain = sub.add_parser("explain", help="show a query's execution plan")
    explain.add_argument("query")
    explain.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    explain.set_defaults(func=cmd_explain)

    lint = sub.add_parser(
        "lint", help="statically check Cypher queries against the ontology"
    )
    lint.add_argument(
        "sources", nargs="+", metavar="SOURCE",
        help="a .py/.md/.cypher file, '-' for stdin, or an inline query",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    lint.add_argument(
        "--snapshot",
        help="lint against this snapshot's indexes too (enables LNT008)",
    )
    lint.add_argument(
        "--python", action="store_true",
        help="treat SOURCEs as Python files/dirs and run the "
             "concurrency-safety analyzer instead of the query linter",
    )
    lint.set_defaults(func=cmd_lint)

    concurrency = sub.add_parser(
        "check-concurrency",
        help="check the codebase's own lock discipline (RACE001-RACE007)",
    )
    concurrency.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="Python files or directories (default: the serving stack)",
    )
    concurrency.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    concurrency.set_defaults(func=cmd_check_concurrency)

    validate = sub.add_parser(
        "validate-graph", help="sweep a snapshot for ontology violations"
    )
    validate.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    validate.add_argument(
        "--show", type=int, default=3, metavar="N",
        help="violations to print per crawler (default 3)",
    )
    validate.set_defaults(func=cmd_validate_graph)

    info = sub.add_parser("info", help="summarize a snapshot")
    info.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    info.set_defaults(func=cmd_info)

    diff = sub.add_parser("diff", help="diff two snapshots by identity")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the diff as an ordered delta batch (the "
             "apply_delta record format)",
    )
    diff.add_argument(
        "--verbose", action="store_true",
        help="list changed entities, including per-property before/after",
    )
    diff.add_argument(
        "--exit-code", action="store_true",
        help="exit 1 when the snapshots differ (CI tripwire)",
    )
    diff.set_defaults(func=cmd_diff)

    archive = sub.add_parser(
        "archive", help="manage a directory of archived snapshots"
    )
    archive_sub = archive.add_subparsers(dest="archive_command", required=True)

    def _archive_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub_parser = archive_sub.add_parser(name, help=help_text)
        sub_parser.add_argument(
            "--dir", default="archive", metavar="DIR",
            help="archive directory (default: archive/)",
        )
        return sub_parser

    archive_list = _archive_parser("list", "list archived snapshots")
    archive_list.set_defaults(func=cmd_archive_list)

    archive_info = _archive_parser("info", "show one entry's manifest record")
    archive_info.add_argument("snapshot", help="label, unique prefix, or 'latest'")
    archive_info.set_defaults(func=cmd_archive_info)

    archive_verify = _archive_parser(
        "verify", "check snapshots against the manifest"
    )
    archive_verify.add_argument(
        "--deep", action="store_true",
        help="also load each snapshot and recount nodes/relationships",
    )
    archive_verify.set_defaults(func=cmd_archive_verify)

    archive_diff = _archive_parser("diff", "diff two archived snapshots")
    archive_diff.add_argument("old", help="label, unique prefix, or 'latest'")
    archive_diff.add_argument("new", help="label, unique prefix, or 'latest'")
    archive_diff.add_argument(
        "--verbose", action="store_true",
        help="list changed entities, including per-property before/after",
    )
    archive_diff.add_argument(
        "--exit-code", action="store_true",
        help="exit 1 when the snapshots differ (CI tripwire)",
    )
    archive_diff.set_defaults(func=cmd_archive_diff)

    archive_prune = _archive_parser("prune", "delete all but the newest N")
    archive_prune.add_argument("--keep", type=int, required=True, metavar="N")
    archive_prune.set_defaults(func=cmd_archive_prune)

    archive_add = _archive_parser("add", "import a snapshot file")
    archive_add.add_argument("snapshot", help="snapshot file (v1 or v2)")
    archive_add.add_argument("--label", help="entry label (default: file stem)")
    archive_add.set_defaults(func=cmd_archive_add)

    inventory = sub.add_parser("inventory", help="list the dataset registry")
    inventory.set_defaults(func=cmd_inventory)

    ontology = sub.add_parser("ontology", help="list entities and relationships")
    ontology.set_defaults(func=cmd_ontology)

    studies = sub.add_parser("studies", help="run all reproduction studies")
    studies.add_argument("--scale", choices=sorted(_SCALES), default="small")
    studies.add_argument("--seed", type=int, default=20240501)
    studies.set_defaults(func=cmd_studies)

    selfcheck = sub.add_parser(
        "selfcheck", help="validate a world configuration's consistency"
    )
    selfcheck.add_argument("--scale", choices=sorted(_SCALES), default="small")
    selfcheck.add_argument("--seed", type=int, default=20240501)
    selfcheck.set_defaults(func=cmd_selfcheck)

    report = sub.add_parser("report", help="generate the weekly study report")
    report.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    report.add_argument("--output", help="write markdown here (default: stdout)")
    report.set_defaults(func=cmd_report)

    docs = sub.add_parser("docs", help="generate documentation pages")
    docs.add_argument("--output", default="documentation")
    docs.set_defaults(func=cmd_docs)

    analytics = sub.add_parser(
        "analytics", help="run a graph analytics procedure on a snapshot"
    )
    analytics.add_argument(
        "measure",
        help="procedure name (with or without the algo. prefix), or "
        "'list' to enumerate the registry",
    )
    analytics.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    analytics.add_argument(
        "--arg",
        action="append",
        help="positional procedure argument (repeatable, JSON or string)",
    )
    analytics.add_argument(
        "--top", type=int, default=20, help="rows to print (default 20)"
    )
    analytics.set_defaults(func=cmd_analytics)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
