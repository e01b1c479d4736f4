"""Command-line interface: the processing model on files.

Subcommands::

    python -m repro generate  --out DIR [--seed N --classes N --versions N --users N]
                              [--format nt|binary]
        generate a synthetic world and save its KB + users under DIR
        (``--format binary`` writes the binary store layout directly)

    python -m repro convert   --src DIR --out DIR [--to binary|nt]
        migrate a KB directory between the two on-disk layouts.  The
        source layout is auto-detected; the conversion is lossless in
        both directions (identical version ids, metadata, triple sets,
        recorded deltas and term-interning order -- hence bit-identical
        measure results and recommendations from either copy).

    python -m repro measures  --kb DIR [--old ID --new ID] [--top K]
        print every catalogue measure's most-affected targets

    python -m repro recommend --kb DIR --users FILE --user ID [-k K] [--out FILE]
        print (and optionally save) a recommendation package for one user

    python -m repro report    --kb DIR --anonymity K [--strategy generalize|suppress]
        print the k-anonymous change report of the latest evolution step

    python -m repro compact-store --kb DIR [--retain SPEC]
                                  [--rollup-bytes B --rollup-records N]
        roll a binary store's commit log up into its base offline:
        rewrite ``kb.rpw`` from the live chain (atomic tmp +
        ``os.replace`` + dir fsync) and truncate ``commits.rpl``.  With
        ``--retain`` (``all``, ``last:N``, ``threshold:C``, ``thin[:B]``)
        the rolled-up base is additionally thinned through the matching
        :mod:`repro.kb.archive` policy (first and latest versions always
        survive) under the store's original KB name.  With
        ``--rollup-bytes``/``--rollup-records`` the roll-up only runs
        when the log is at/over a threshold (exit status still 0 -- "not
        due" is not an error).

    python -m repro serve --kb DIR --users FILE [--port N] [--host H]
                          [--tenant NAME] [--workers W] [--shards S]
                          [--replicas R] [-k K] [--persist]
                          [--rollup-bytes B] [--rollup-records N]
                          [--events-interval S] [--max-connections N]
                          [--alert-p99-ms MS] [--alert-queue-depth N]
                          [--alert-log-bytes B]
        serve concurrent JSON recommendation requests over HTTP.  The KB
        becomes one tenant of a :mod:`repro.service`
        ``RecommendationService`` (thread worker pool + admission batching
        + snapshot-consistent reads); endpoints are ``GET /health``,
        ``GET /tenants``, ``GET /stats`` (the frozen, versioned ops
        snapshot), ``GET /alerts`` (threshold evaluation over the same
        snapshot, configured with the ``--alert-*`` flags), ``GET
        /events`` (an SSE stream of the same snapshot, one ``event:
        stats`` frame per ``--events-interval`` seconds plus an ``event:
        alerts`` frame on ticks where the thresholds fire),
        ``POST /recommend`` (with a strong ``ETag`` and ``If-None-Match``
        304s) and ``POST /commit`` (see ``docs/http-api.md``).  ``--port
        0`` picks an ephemeral port and prints it.

        Every topology is served by the same front-end
        (:mod:`repro.service.aio`): one asyncio event loop parses,
        routes and writes, so an idle keep-alive connection costs a
        coroutine instead of an OS thread (``--max-connections`` caps the
        open-connection count); scoring runs on the admission worker
        threads of whichever process owns the tenant.

        ``--kb`` accepts either on-disk layout (auto-detected).  A binary
        store boots O(root + deltas) -- mmap decode, lazy snapshots, the
        head pair pre-built -- which is the cold-start fast path; with
        ``--persist`` (binary stores, single-process topology) every
        ``POST /commit`` is additionally appended to the store's commit
        log under the tenant write lock: one O(delta) fsync per commit,
        never a full-snapshot rewrite, so a restart replays to exactly
        the served chain.  The crash-consistency guarantee is strict:
        **a commit whose HTTP response was sent is never lost** -- each
        record is fsynced before the commit hook returns, and boot-time
        recovery only ever drops bytes written *after* the last
        acknowledged record.  ``--rollup-bytes`` / ``--rollup-records``
        bound the log (and hence restart/recovery time): when a commit
        leaves ``commits.rpl`` at/over either threshold, the store
        rewrites its base from the live chain and truncates the log,
        still under the same write lock.

        **Sharded topology** (``--shards S``, S >= 1): instead of scoring
        in-process, the command spawns S worker *processes*, each running
        a full ``RecommendationService`` over the tenants a stable hash of
        the tenant name routes to it (``TenantRegistry.shard_of``), and
        the HTTP server becomes a thin router: ``POST /recommend`` /
        ``POST /commit`` bodies are forwarded over a local pipe to the
        owning shard (requests multiplex concurrently per pipe; admission
        batching stays local to each shard), and the GET endpoints
        aggregate across shards.  Each tenant is bootstrapped into its
        shard via the binary wire format (:mod:`repro.kb.wire`) -- term
        dictionary, root snapshot and the recorded commit-delta chain --
        and every later ``/commit`` is applied by the owning shard alone,
        which is the whole commit-replication story: one owner per
        tenant, no cross-shard state.

        **Read replicas** (``--replicas R``, implies ``--shards 1`` when
        no shard count is given): each tenant's reads additionally
        round-robin across R read-only replica processes, bootstrapped
        zero-copy from one shared-memory segment holding the tenant's
        store payload (:mod:`repro.service.replica`).  Commits still go
        to the single owning shard, which forwards each O(delta) commit
        record to the replicas; a dead replica degrades reads back to
        the owner.

        Scaling knobs, in one line each: ``--workers`` adds scoring
        *threads* inside one process (helps only while a single core is
        not saturated -- threads share the GIL); ``--shards`` adds
        *processes* that partition tenants (scales many tenants across
        cores, but one tenant still lives on one core); ``--replicas``
        adds read-only *processes per tenant* (scales one hot tenant's
        reads across cores -- the only knob that does).  Prefer
        ``--workers`` on single-core boxes, ``--shards`` for many
        CPU-bound tenants, ``--replicas`` for one read-heavy tenant.

KB directories use either ``save_kb`` layout -- the interoperable one
(per-version ``.nt`` files + ``manifest.json``, so the CLI works on
hand-built N-Triples data) or the binary store of :mod:`repro.io.store`
(``kb.rpw`` wire base + ``commits.rpl`` append-only commit log).  Every
subcommand auto-detects which layout ``--kb`` points at; ``repro
convert`` moves between them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.eval.tables import TextTable
from repro.io import (
    load_kb,
    load_users,
    save_kb,
    save_package,
    save_users,
)
from repro.measures.base import EvolutionContext
from repro.measures.catalog import default_catalog
from repro.privacy.generalization import GeneralizationHierarchy
from repro.privacy.kanonymity import anonymize_report
from repro.privacy.build import build_change_report
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.synthetic.world import generate_world


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Recommend knowledge-base evolution measures (ICDE 2017 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic world")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument(
        "--seed", type=int, default=0,
        help="world RNG seed: the same seed always produces the same KB, "
             "evolution history and users (default: 0)",
    )
    generate.add_argument(
        "--classes", type=int, default=80,
        help="schema classes in the generated ontology (default: 80)",
    )
    generate.add_argument(
        "--versions", type=int, default=3,
        help="KB versions in the evolution chain (default: 3)",
    )
    generate.add_argument(
        "--users", type=int, default=8,
        help="synthetic users with interaction histories (default: 8)",
    )
    generate.add_argument(
        "--format", choices=("nt", "binary"), default="nt",
        help="KB layout to write: interoperable .nt directory (default) or "
             "the binary store (fast cold boot, O(delta) commit appends)",
    )

    convert = commands.add_parser(
        "convert", help="convert a KB directory between the .nt and binary layouts"
    )
    convert.add_argument("--src", required=True, help="source KB directory (auto-detected layout)")
    convert.add_argument("--out", required=True, help="destination directory")
    convert.add_argument(
        "--to", choices=("binary", "nt"), default="binary",
        help="destination layout (default: binary)",
    )

    measures = commands.add_parser("measures", help="print measure results")
    measures.add_argument("--kb", required=True, help="KB directory (save_kb layout)")
    measures.add_argument("--old", help="older version id (default: second-to-last)")
    measures.add_argument("--new", help="newer version id (default: latest)")
    measures.add_argument(
        "--top", type=int, default=5,
        help="per-measure entries to print (default 5)",
    )

    recommend = commands.add_parser("recommend", help="recommend to one user")
    recommend.add_argument("--kb", required=True, help="KB directory (save_kb layout)")
    recommend.add_argument("--users", required=True, help="users JSON file")
    recommend.add_argument("--user", required=True, help="user id")
    recommend.add_argument("-k", type=int, default=5, help="package size (default 5)")
    recommend.add_argument("--out", help="write the package to this JSON file")

    report = commands.add_parser("report", help="k-anonymous change report")
    report.add_argument("--kb", required=True, help="KB directory (save_kb layout)")
    report.add_argument(
        "--anonymity", type=int, default=2, metavar="K",
        help="k-anonymity parameter: every reported group covers >= K changes",
    )
    report.add_argument(
        "--strategy", choices=("generalize", "suppress"), default="generalize",
        help="how under-sized groups are anonymised: generalize up the "
             "schema, or suppress entirely",
    )

    serve = commands.add_parser(
        "serve", help="serve JSON recommendation requests over HTTP"
    )
    serve.add_argument("--kb", required=True, help="KB directory (save_kb layout)")
    serve.add_argument("--users", required=True, help="users JSON file")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8351, help="0 = ephemeral")
    serve.add_argument("--tenant", help="tenant name (default: the KB's name)")
    serve.add_argument(
        "--workers", type=int, default=4,
        help="scoring worker threads (per shard when --shards is given)",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="shard processes; 0 = score in-process, N >= 1 = spawn N worker "
             "processes and serve through a thin router",
    )
    serve.add_argument(
        "--replicas", type=int, default=0,
        help="read-only replica processes per tenant (shared-memory "
             "zero-copy bootstrap; reads round-robin owner+replicas, "
             "commits stay on the owner); implies --shards 1 when "
             "--shards is not given",
    )
    serve.add_argument(
        "--replicas-min", type=int, default=None, metavar="N",
        help="autoscale floor: never retire a tenant below N read replicas "
             "(enables the autoscale controller; requires --replicas-max)",
    )
    serve.add_argument(
        "--replicas-max", type=int, default=None, metavar="N",
        help="autoscale ceiling: never grow a tenant past N read replicas "
             "(enables the autoscale controller; requires --replicas-min)",
    )
    serve.add_argument(
        "--autoscale-interval", type=float, default=None, metavar="SECONDS",
        help="with --replicas-min/--replicas-max: how often the controller "
             "re-reads per-tenant read share and takes one scaling step "
             "(default: 2.0)",
    )
    serve.add_argument("-k", type=int, default=5, help="default package size")
    serve.add_argument(
        "--persist", action="store_true",
        help="append every /commit to the KB's binary-store commit log "
             "(requires a binary-store --kb and the single-process topology); "
             "an acknowledged commit is never lost across a crash/restart",
    )
    serve.add_argument(
        "--rollup-bytes", type=int, metavar="B",
        help="with --persist: roll the commit log up into the base whenever "
             "it reaches B bytes (bounds restart recovery time)",
    )
    serve.add_argument(
        "--rollup-records", type=int, metavar="N",
        help="with --persist: roll the commit log up into the base whenever "
             "it reaches N records",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=0, metavar="N",
        help="response cache: keep up to N memoised recommendation "
             "responses (served as pre-encoded bytes with strong ETags; "
             "0 with --cache-bytes 0 disables the cache, which is the "
             "default).  Entries never expire: version pairs are "
             "immutable and population changes invalidate by epoch",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=0, metavar="B",
        help="response cache: byte budget for memoised response bodies "
             "(LRU eviction past the budget; 0 with --cache-entries 0 "
             "disables the cache).  Applies per process: each shard or "
             "replica process runs its own cache",
    )
    serve.add_argument(
        "--events-interval", type=float, default=1.0, metavar="SECONDS",
        help="default publish cadence of the SSE /events stream (default: "
             "1.0; subscribers may override per connection with ?interval=)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=4096, metavar="N",
        help="simultaneous open connections the front-end accepts before "
             "answering 503 (default: 4096)",
    )
    serve.add_argument(
        "--alert-p99-ms", type=float, metavar="MS",
        help="GET /alerts: fire when a tenant's rolling p99 latency is "
             "at/over this many milliseconds",
    )
    serve.add_argument(
        "--alert-queue-depth", type=int, metavar="N",
        help="GET /alerts: fire when the admission backlog is at/over N "
             "queued requests",
    )
    serve.add_argument(
        "--alert-log-bytes", type=int, metavar="B",
        help="GET /alerts: fire when a persisted tenant's commit log is "
             "at/over B bytes (tenants with a roll-up threshold alert at "
             "80%% of it instead)",
    )

    compact = commands.add_parser(
        "compact-store",
        help="roll a binary store's commit log up into its base (offline)",
    )
    compact.add_argument("--kb", required=True, help="binary store directory")
    compact.add_argument(
        "--retain", metavar="SPEC",
        help="additionally thin the rolled-up chain through an archive "
             "policy: all, last:N, threshold:C, thin or thin:B "
             "(first and latest versions always survive)",
    )
    compact.add_argument(
        "--rollup-bytes", type=int, metavar="B",
        help="only roll up when the log is at least B bytes (default: always)",
    )
    compact.add_argument(
        "--rollup-records", type=int, metavar="N",
        help="only roll up when the log holds at least N records",
    )
    return parser


def _context_for(kb, old_id: str | None, new_id: str | None) -> EvolutionContext:
    versions = list(kb)
    if len(versions) < 2:
        raise SystemExit("error: the knowledge base needs at least two versions")
    old = kb.version(old_id) if old_id else versions[-2]
    new = kb.version(new_id) if new_id else versions[-1]
    return EvolutionContext(old, new)


def _cmd_generate(args: argparse.Namespace) -> int:
    world = generate_world(
        seed=args.seed,
        n_classes=args.classes,
        n_versions=args.versions,
        n_users=args.users,
    )
    out = Path(args.out)
    save_kb(world.kb, out / "kb", format=args.format)
    save_users(world.users, out / "users.json")
    print(f"world seed={args.seed}: {len(world.kb)} versions, "
          f"{len(world.kb.latest().graph)} triples in latest, "
          f"{len(world.users)} users")
    print(f"saved to {out}/kb ({args.format} layout) and {out}/users.json")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.io import convert_kb
    from repro.kb.errors import KnowledgeBaseError

    try:
        destination = convert_kb(args.src, args.out, to=args.to)
    except (ValueError, FileNotFoundError, KnowledgeBaseError) as exc:
        # KnowledgeBaseError covers corrupt stores (WireFormatError) and
        # malformed .nt input (ParseError) alike.
        raise SystemExit(f"error: {exc}") from None
    kb = load_kb(destination)
    print(
        f"converted {args.src} -> {destination} ({args.to} layout): "
        f"{len(kb)} versions, {len(kb.latest().graph)} triples in latest"
    )
    return 0


def _cmd_measures(args: argparse.Namespace) -> int:
    kb = load_kb(Path(args.kb))
    context = _context_for(kb, args.old, args.new)
    catalog = default_catalog()
    results = catalog.compute_all(context)
    table = TextTable(
        title=(
            f"most affected targets, {context.old.version_id} -> "
            f"{context.new.version_id}"
        ),
        columns=["measure", "family", f"top-{args.top} targets (score)"],
    )
    for name in sorted(results):
        measure = catalog.get(name)
        top = results[name].top(args.top)
        rendered = ", ".join(f"{t.local_name}({s:.2f})" for t, s in top if s > 0)
        table.add_row(name, measure.family.value, rendered or "(no change)")
    print(table.render())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    kb = load_kb(Path(args.kb))
    users = {user.user_id: user for user in load_users(Path(args.users))}
    if args.user not in users:
        raise SystemExit(
            f"error: unknown user {args.user!r} (have: {', '.join(sorted(users))})"
        )
    engine = RecommenderEngine(kb, config=EngineConfig(k=args.k, spread_depth=1))
    package = engine.recommend(users[args.user])
    print(f"recommendations for {args.user} (context {package.metadata['context']}):")
    for rank, scored in enumerate(package, start=1):
        print(f"  {rank}. {scored.item.describe():50s} utility={scored.utility:.3f}")
    if args.out:
        save_package(package, args.out)
        print(f"package written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    kb = load_kb(Path(args.kb))
    context = _context_for(kb, None, None)
    report = build_change_report(context)
    hierarchy = GeneralizationHierarchy(context.new_schema)
    released = anonymize_report(
        report, hierarchy, args.anonymity, strategy=args.strategy
    )
    table = TextTable(
        title=(
            f"k={args.anonymity} anonymous change report "
            f"({args.strategy}); {len(released.suppressed)} classes suppressed"
        ),
        columns=["released class", "total changes", "contributors"],
    )
    for row in sorted(released.rows, key=lambda r: -r.total):
        table.add_row(row.cls.local_name, row.total, row.contributor_count)
    print(table.render())
    print(f"k-anonymity guarantee holds: {released.is_k_anonymous()}")
    return 0


def _cmd_compact_store(args: argparse.Namespace) -> int:
    """Offline roll-up: absorb a store's commit log into its base.

    The online twin of ``serve --persist --rollup-*``: rewrites ``kb.rpw``
    from the chain on disk through the same atomic tmp + ``os.replace`` +
    dir-fsync path and truncates ``commits.rpl``, so the next boot
    recovers in O(base) with no log replay.  Crash-safe at every point --
    a kill mid-compaction leaves either the old base + old log (before the
    replace) or a new base whose superseded log records are discarded on
    the next load (after it).  With ``--retain`` the rolled-up chain is
    additionally thinned through a :mod:`repro.kb.archive` policy, keeping
    the store's original KB name (and always the first + latest versions,
    so the end-to-end delta survives).
    """
    from repro.io.store import BinaryKBStore
    from repro.kb.archive import policy_from_spec
    from repro.kb.errors import KnowledgeBaseError

    try:
        store = BinaryKBStore.open(
            Path(args.kb),
            rollup_bytes=args.rollup_bytes,
            rollup_records=args.rollup_records,
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    policy = None
    if args.retain:
        try:
            policy = policy_from_spec(args.retain)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    records_before, bytes_before = store.log_stats()
    try:
        kb = store.load()
        if (args.rollup_bytes or args.rollup_records) and not store._rollup_due():
            print(
                f"store {args.kb}: log at {records_before} records / "
                f"{bytes_before} bytes, under threshold -- nothing to do"
            )
            return 0
        versions_before = len(kb)
        if policy is not None:
            kb = policy.apply(kb, name=kb.name)
            BinaryKBStore.save(kb, store.directory)
        else:
            store.rollup(kb)
    except KnowledgeBaseError as exc:
        raise SystemExit(f"error: {exc}") from None
    finally:
        store.close()
    records_after, bytes_after = store.log_stats()
    thinned = (
        f", {versions_before} -> {len(kb)} versions ({args.retain})"
        if policy is not None
        else ""
    )
    print(
        f"compacted {args.kb}: absorbed {records_before} log records "
        f"({bytes_before} -> {bytes_after} log bytes){thinned}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.io.store import BinaryKBStore
    from repro.recommender.engine import EngineConfig
    from repro.service import (
        AlertThresholds,
        AsyncServiceServer,
        AutoscaleController,
        RecommendationService,
        ServiceConfig,
        ShardSupervisor,
    )

    if args.shards < 0:
        raise SystemExit(f"error: --shards must be >= 0, got {args.shards}")
    if args.replicas < 0:
        raise SystemExit(f"error: --replicas must be >= 0, got {args.replicas}")
    autoscale = args.replicas_min is not None or args.replicas_max is not None
    if autoscale and (args.replicas_min is None or args.replicas_max is None):
        raise SystemExit(
            "error: --replicas-min and --replicas-max must be given together"
        )
    if args.autoscale_interval is not None and not autoscale:
        raise SystemExit(
            "error: --autoscale-interval only applies with "
            "--replicas-min/--replicas-max"
        )
    if (args.replicas or autoscale) and not args.shards:
        # Replicas live in the sharded topology; a single shard is the
        # natural owner for the replicated single-tenant case.
        args.shards = 1
    if autoscale and args.replicas < args.replicas_min:
        # Start at the floor instead of making the controller climb to it
        # one tick at a time.
        args.replicas = args.replicas_min
    try:
        thresholds = AlertThresholds(
            p99_ms=args.alert_p99_ms,
            queue_depth=args.alert_queue_depth,
            log_bytes=args.alert_log_bytes,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    kb_dir = Path(args.kb)
    is_binary = BinaryKBStore.is_store(kb_dir)
    if args.persist and not is_binary:
        raise SystemExit(
            "error: --persist needs a binary-store --kb "
            "(migrate with: python -m repro convert --src DIR --out DIR)"
        )
    if args.persist and args.shards:
        raise SystemExit(
            "error: --persist is single-process only (sharded commits are "
            "applied by the owning shard process)"
        )
    if (args.rollup_bytes or args.rollup_records) and not args.persist:
        raise SystemExit(
            "error: --rollup-bytes/--rollup-records only apply with --persist"
        )
    users = load_users(Path(args.users))
    try:
        config = ServiceConfig(
            k=args.k,
            workers=args.workers,
            rollup_bytes=args.rollup_bytes,
            rollup_records=args.rollup_records,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            engine=EngineConfig(k=args.k, spread_depth=1),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    controller = None
    if args.shards:
        # Sharded topology: worker processes score, this process routes.
        backend = ShardSupervisor(
            shards=args.shards, config=config, replicas=args.replicas
        )
        if is_binary:
            # Cold-start fast path: read the on-disk store bytes once and
            # ship them verbatim to the owning shard -- the router never
            # decodes the KB.
            store = BinaryKBStore.open(kb_dir)
            payload = store.bootstrap_payload()
            kb_name, version_ids = store.describe(payload)
            tenant_name = args.tenant or kb_name
            shard = backend.add_tenant_encoded(tenant_name, payload, users)
            n_versions = len(version_ids)
        else:
            kb = load_kb(kb_dir)
            tenant_name = args.tenant or kb.name
            shard = backend.add_tenant(tenant_name, kb, users)
            n_versions = len(kb)
        replicated = f" (+{args.replicas} read replicas)" if args.replicas else ""
        banner = (
            f"routing tenant {tenant_name!r} ({n_versions} versions, {len(users)} "
            f"users) -> shard {shard} of {args.shards}{replicated}"
        )
    else:
        store = None
        if args.persist:
            # add_tenant(store=...) wires the whole durability plane: the
            # O(delta) sync-per-commit hook, opportunistic threshold
            # roll-up under the tenant write lock, and releasing the
            # store's pinned lazy memory maps when the tenant leaves
            # serving (shutdown), not whenever GC gets around to it.
            store = BinaryKBStore.open(kb_dir)
            kb = store.load()
        else:
            kb = load_kb(kb_dir)
        backend = RecommendationService(config)
        tenant = backend.add_tenant(args.tenant or kb.name, kb, users, store=store)
        banner = (
            f"serving tenant {tenant.name!r} ({len(kb)} versions, "
            f"{len(users)} users)"
        )
    persisting = " [persisting commits]" if args.persist else ""
    try:
        server = AsyncServiceServer(
            backend,
            host=args.host,
            port=args.port,
            thresholds=thresholds,
            events_interval=args.events_interval,
            max_connections=args.max_connections,
        )
    except ValueError as exc:
        backend.close()
        raise SystemExit(f"error: {exc}") from None
    if args.shards:
        backend.start()
        if autoscale:
            try:
                controller = AutoscaleController(
                    backend,
                    min_replicas=args.replicas_min,
                    max_replicas=args.replicas_max,
                    interval_s=args.autoscale_interval
                    if args.autoscale_interval is not None
                    else 2.0,
                )
            except ValueError as exc:
                backend.close()
                raise SystemExit(f"error: {exc}") from None

    async def run() -> None:
        # The loop runs in the main thread; scoring happens on the
        # admission workers of whichever process owns the tenant.
        host, port = await server.start()
        print(f"{banner} on http://{host}:{port}{persisting}")
        if controller is not None:
            controller.start()
            print(
                f"autoscaling replicas in [{args.replicas_min}, "
                f"{args.replicas_max}] every {controller.interval_s:g}s"
            )
        print(
            "endpoints: GET /health /tenants /stats /alerts /events; "
            "POST /recommend /commit"
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass  # SIGINT cancelled the loop: shut down cleanly below
    finally:
        print("shutting down")
        if controller is not None:
            controller.stop()
        backend.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "convert": _cmd_convert,
        "measures": _cmd_measures,
        "recommend": _cmd_recommend,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "compact-store": _cmd_compact_store,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly like cat/grep.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
