"""Command-line interface: ``python -m repro`` or the ``rumor`` console script.

Sub-commands
------------
``list``
    List every registered experiment with its paper reference.
``run <experiment-id>``
    Run one experiment (optionally scaled down) and print its table.
    ``run --scenario FILE#name`` runs one scenario from a corpus manifest
    instead of a registered experiment.
``run-all``
    Run every registered experiment and print all tables; with
    ``--scenario FILE`` the manifest's scenarios join the roster.
``simulate``
    Run one protocol on one graph and print the result.  The graph is built
    through the same case builders as the registered experiments' sweeps.
    Takes the same ``--store/--dynamics`` flags as ``run``, so a one-off
    simulation can hit the cache.
``corpus run|status|report <manifest>``
    Run (resumably), probe or render a scenario-corpus manifest — every
    scenario becomes one store-backed sweep; a warm ``run`` recomputes
    zero cells and constructs zero graphs.
``report``
    Regenerate the Markdown experiment report (EXPERIMENTS.md content);
    ``--scenario FILE`` adds a manifest's scenarios as report sections.
``store serve|submit|status|ls|info|gc|export``
    Serve, inspect and manage the content-addressed result store, and
    submit/inspect leased sweeps on a hub.
``worker``
    Run a stateless sweep worker against a ``repro store serve`` hub.
``trace summary|export``
    Aggregate ``REPRO_TRACE`` span files into a per-phase wall-time table,
    or export them as Chrome tracing JSON (``export --chrome``).

The experiment-running sub-commands accept ``--store [PATH|URL]`` (cache
every cell in a content-addressed result store; a bare ``--store`` uses
``$REPRO_STORE`` or ``.repro-store``), ``--no-store`` (ignore
``$REPRO_STORE``) and ``--force`` (recompute and overwrite cached cells).
A store designator is either a directory path or the ``http://host:port``
URL of a ``repro store serve`` service — remote objects are fetched once
and read-through-cached locally.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis.tables import format_table
from ..core.kernels import KERNEL_REGISTRY
from ..experiments import (
    experiment_markdown_section,
    experiment_table,
    get_experiment,
    list_experiment_ids,
    run_experiment,
)
from ..experiments.config import CaseBuilder, sweep_sizes
from ..experiments.figure1 import (
    CYCLE_STARS_CASE,
    DOUBLE_STAR_CASE,
    HEAVY_TREE_CASE,
    SIAMESE_CASE,
    STAR_CASE,
)
from ..experiments.regular_graphs import HYPERCUBE_CASE, RANDOM_REGULAR_CASE
from ..experiments.reporting import report_section_ids
from ..scenarios import resolve_dynamics
from ..store import STORE_ENV_VAR, ResultStore

__all__ = ["main", "build_parser"]

#: Store root used by a bare ``--store`` / the ``store`` sub-command when
#: neither a path nor ``$REPRO_STORE`` is given.
DEFAULT_STORE_PATH = ".repro-store"

#: Environment variable consulted for the hub auth token when ``--token`` is
#: not given (``store serve --token``, ``store submit``, ``worker``).
TOKEN_ENV_VAR = "REPRO_STORE_TOKEN"


def _default_store_path() -> str:
    import os

    return os.environ.get(STORE_ENV_VAR, "").strip() or DEFAULT_STORE_PATH


def _resolve_token(args: argparse.Namespace) -> Optional[str]:
    """The auth token from ``--token`` or ``$REPRO_STORE_TOKEN``."""
    import os

    token = getattr(args, "token", None)
    if token is None:
        token = os.environ.get(TOKEN_ENV_VAR, "").strip() or None
    return token


def parse_byte_size(value: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (e.g. ``500M``)."""
    text = value.strip().upper()
    multiplier = 1
    for suffix, factor in (("K", 1024), ("M", 1024**2), ("G", 1024**3)):
        if text.endswith(suffix):
            text, multiplier = text[: -len(suffix)], factor
            break
    try:
        count = int(float(text) * multiplier)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a byte size: {value!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"byte size must be non-negative: {value!r}")
    return count


#: The graph families of ``simulate``: the registered experiments' case
#: builders (their sources are replaced by ``--source``).
SIMULATE_CASES = {
    "star": STAR_CASE,
    "double-star": DOUBLE_STAR_CASE,
    "heavy-binary-tree": HEAVY_TREE_CASE,
    "siamese-heavy-tree": SIAMESE_CASE,
    "cycle-stars-cliques": CYCLE_STARS_CASE,
    "complete": CaseBuilder("complete_graph", "num_vertices"),
    "hypercube": HYPERCUBE_CASE,
    "random-regular": RANDOM_REGULAR_CASE,
}


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Sweep-shape options shared by the sub-commands that run or read sweeps."""
    _add_seed_option(parser)
    parser.add_argument("--trials", type=int, default=None, help="override trials per cell")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="scale factor applied to the size sweep"
    )


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "run (size, protocol) cells on a process pool of N workers "
            "(-1 = one per CPU); the default runs cells serially"
        ),
    )


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Trial-execution options shared by the experiment-running sub-commands."""
    _add_workers_option(parser)
    _add_dynamics_option(parser)
    _add_store_options(parser)


def _add_store_location(
    parser: argparse.ArgumentParser, purpose: str, dest: str = "store"
) -> None:
    """``--store [PATH|URL]``; a bare flag means $REPRO_STORE or the default root."""
    parser.add_argument(
        "--store",
        dest=dest,
        nargs="?",
        const="",
        default=None,
        metavar="PATH|URL",
        help=f"{purpose}; with no value, uses ${STORE_ENV_VAR} or '{DEFAULT_STORE_PATH}'",
    )


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """Result-store options shared by the experiment-running sub-commands."""
    _add_store_location(
        parser,
        "cache finished cells in a content-addressed result store and "
        "reuse them on later runs (bit-identical to recomputing); accepts "
        "a directory or the http://host:port URL of a 'repro store serve' "
        "service",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help=f"disable the result store even when ${STORE_ENV_VAR} is set",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell and overwrite any cached artifact",
    )


def _resolve_store_arg(args: argparse.Namespace):
    """Map the --store/--no-store flags onto a run_experiment store argument."""
    if getattr(args, "no_store", False):
        return False
    store = getattr(args, "store", None)
    if store is None:
        return None  # defer to $REPRO_STORE
    return ResultStore(store or _default_store_path())


def _add_dynamics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dynamics",
        default=None,
        metavar="SPEC",
        help=(
            "dynamic-topology schedule applied to every run, as "
            "'<kind>:key=value,key=value' — e.g. 'bernoulli-edges:rate=0.1' "
            "(per-round Bernoulli edge failures), "
            "'flapping:period=10,down_rounds=5,edge_fraction=0.2', "
            "'node-crashes:crash_round=5,fraction=0.1,duration=20', "
            "'edge-churn:fail_rate=0.05,recover_rate=0.5'"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="rumor",
        description=(
            "Reproduction of 'How to Spread a Rumor: Call Your Neighbors or "
            "Take a Walk?' (PODC 2019)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="experiment id (see 'list'); omit when using --scenario",
    )
    run_parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE#NAME",
        help=(
            "run one scenario from a corpus manifest instead of a registered "
            "experiment ('manifest.yaml#scenario-name'; the '#name' part is "
            "optional when the manifest holds exactly one scenario)"
        ),
    )
    _add_sweep_options(run_parser)
    run_parser.add_argument(
        "--markdown", action="store_true", help="emit the Markdown report section"
    )
    _add_execution_options(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="also run every scenario of this corpus manifest",
    )
    _add_sweep_options(run_all_parser)
    _add_execution_options(run_all_parser)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run a single protocol on a single graph"
    )
    simulate_parser.add_argument("protocol", choices=sorted(KERNEL_REGISTRY))
    simulate_parser.add_argument("family", choices=list(SIMULATE_CASES))
    simulate_parser.add_argument("size", type=int, help="family size parameter")
    simulate_parser.add_argument("--source", type=int, default=0)
    _add_seed_option(simulate_parser)
    simulate_parser.add_argument("--agent-density", type=float, default=1.0)
    simulate_parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="independent trials to run (default: 1; >1 prints summary stats)",
    )
    _add_dynamics_option(simulate_parser)
    _add_store_options(simulate_parser)

    report_parser = subparsers.add_parser(
        "report", help="regenerate the Markdown experiment report"
    )
    report_parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help=(
            "register this corpus manifest's scenarios as report sections "
            "(they join the ids accepted by --only and, with --serve, the "
            "/report endpoints)"
        ),
    )
    _add_sweep_options(report_parser)
    report_parser.add_argument(
        "--output", default="-", help="output path, or '-' for stdout"
    )
    report_parser.add_argument(
        "--from-store",
        action="store_true",
        help=(
            "build every section purely from cached cells (no simulation; "
            "errors if a cell or document is missing from the store)"
        ),
    )
    report_parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="SECTION",
        help=(
            "restrict the report to these sections: experiment ids from "
            "'list', plus 'coupling' and 'fairness'"
        ),
    )
    report_parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "serve the report over HTTP from the store instead of writing a "
            "file: GET /report/<section>[.json] renders from cached cells "
            "only (zero simulation), with ETag/If-None-Match revalidation"
        ),
    )
    report_parser.add_argument(
        "--host", default="127.0.0.1", help="--serve bind address (default: 127.0.0.1)"
    )
    report_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="--serve bind port (default: 8080; 0 = ephemeral)",
    )
    _add_dynamics_option(report_parser)
    _add_store_options(report_parser)

    corpus_parser = subparsers.add_parser(
        "corpus",
        help="run, probe and report a scenario-corpus manifest (YAML/JSON)",
    )
    corpus_subparsers = corpus_parser.add_subparsers(
        dest="corpus_command", required=True
    )

    corpus_run_parser = corpus_subparsers.add_parser(
        "run",
        help=(
            "run (or resume) every scenario of a manifest as store-backed "
            "sweeps; prints per-scenario counts and a final JSON summary "
            "line with computed/cached cell and graph-construction counts"
        ),
    )
    corpus_run_parser.add_argument("manifest", help="corpus manifest path")
    _add_seed_option(corpus_run_parser)
    corpus_run_parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help="restrict the run to these scenario names",
    )
    _add_workers_option(corpus_run_parser)
    _add_store_options(corpus_run_parser)

    corpus_status_parser = corpus_subparsers.add_parser(
        "status",
        help="probe which corpus cells the store already holds (JSON; no simulation)",
    )
    corpus_report_parser = corpus_subparsers.add_parser(
        "report",
        help="render the corpus Markdown report from cached cells (no simulation)",
    )
    for sub in (corpus_status_parser, corpus_report_parser):
        sub.add_argument("manifest", help="corpus manifest path")
        _add_seed_option(sub)
        _add_store_location(sub, "result store to probe")
    corpus_report_parser.add_argument(
        "--output", default="-", help="output path, or '-' for stdout"
    )
    corpus_report_parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on missing cells instead of rendering placeholders",
    )
    corpus_report_parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "serve the corpus report over HTTP from the store "
            "(GET /report/<scenario>[.json]) instead of writing a file"
        ),
    )
    corpus_report_parser.add_argument(
        "--host", default="127.0.0.1", help="--serve bind address (default: 127.0.0.1)"
    )
    corpus_report_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="--serve bind port (default: 8080; 0 = ephemeral)",
    )

    store_parser = subparsers.add_parser(
        "store", help="serve, inspect and manage the content-addressed result store"
    )
    _add_store_location(
        store_parser,
        "store root: a directory, or a service URL for the read-only commands",
        dest="store_path",
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)

    serve_parser = store_subparsers.add_parser(
        "serve",
        help=(
            "serve the store root over HTTP (read-only without --token; "
            "point clients at it via REPRO_STORE=http://host:port)"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port (default: 8080; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--token",
        default=None,
        help=(
            "bearer token enabling the authenticated write API (publishes "
            f"and the sweep farm); defaults to ${TOKEN_ENV_VAR}; without a "
            "token the service stays read-only"
        ),
    )
    serve_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help=(
            "seconds a granted sweep lease stays valid without a heartbeat "
            "before it is re-granted to another worker (default: 60)"
        ),
    )

    submit_parser = store_subparsers.add_parser(
        "submit",
        help=(
            "submit one experiment's cell manifest to a hub as a leased "
            "sweep (point --store at the hub URL); idempotent"
        ),
    )
    submit_parser.add_argument("experiment_id", help="experiment id (see 'list')")
    _add_sweep_options(submit_parser)
    submit_parser.add_argument(
        "--token", default=None, help=f"hub auth token (default: ${TOKEN_ENV_VAR})"
    )
    _add_dynamics_option(submit_parser)

    status_parser = store_subparsers.add_parser(
        "status", help="show a leased sweep's progress on a hub (JSON)"
    )
    status_parser.add_argument("sweep_id", help="sweep id printed by 'store submit'")
    status_parser.add_argument(
        "--token", default=None, help=f"hub auth token (default: ${TOKEN_ENV_VAR})"
    )

    store_subparsers.add_parser("ls", help="list cached cells")

    info_parser = store_subparsers.add_parser(
        "info", help="show one cached cell's metadata"
    )
    info_parser.add_argument("key", help="cell key (a unique prefix is enough)")

    gc_parser = store_subparsers.add_parser(
        "gc", help="delete unreferenced cached cells, or trim to a byte budget"
    )
    gc_parser.add_argument(
        "--keep-days",
        type=float,
        default=0.0,
        help="also keep unreferenced objects younger than this many days",
    )
    gc_parser.add_argument(
        "--max-bytes",
        type=parse_byte_size,
        default=None,
        metavar="SIZE",
        help=(
            "instead of sweeping every unreferenced object, evict least-"
            "recently-read cells until the store fits SIZE bytes (suffixes "
            "K/M/G allowed, e.g. 500M); journal-referenced cells stay "
            "pinned, and --keep-days acts as an age floor for eviction"
        ),
    )
    gc_parser.add_argument(
        "--all",
        action="store_true",
        help="ignore sweep-journal references and collect everything eligible",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="report what would be deleted"
    )

    export_parser = store_subparsers.add_parser(
        "export", help="copy the store (or selected cells) to another root"
    )
    export_parser.add_argument("destination", help="destination store root")
    export_parser.add_argument(
        "--keys", nargs="+", default=None, help="export only these cell keys"
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help=(
            "lease sweep cells from a 'repro store serve' hub, simulate "
            "them, publish the results, and exit when the sweep is done"
        ),
    )
    worker_parser.add_argument("url", help="hub URL (http://host:port)")
    worker_parser.add_argument("sweep_id", help="sweep id printed by 'store submit'")
    worker_parser.add_argument(
        "--token", default=None, help=f"hub auth token (default: ${TOKEN_ENV_VAR})"
    )
    worker_parser.add_argument(
        "--name", default=None, help="worker name recorded in the sweep journal"
    )
    worker_parser.add_argument(
        "--store",
        dest="cache",
        default=None,
        metavar="PATH",
        help="local read-through cache directory (default: a private temp dir)",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between lease attempts when no cell is grantable",
    )
    worker_parser.add_argument(
        "--hub-patience",
        type=float,
        default=60.0,
        help="seconds to keep retrying while the hub is unreachable",
    )
    worker_parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="exit after computing this many cells (default: run to completion)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize or export REPRO_TRACE span files",
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_summary_parser = trace_subparsers.add_parser(
        "summary", help="per-phase wall-time table aggregated over trace files"
    )
    trace_summary_parser.add_argument(
        "paths", nargs="+", help="trace JSONL files or REPRO_TRACE directories"
    )

    trace_export_parser = trace_subparsers.add_parser(
        "export", help="convert trace files for external viewers"
    )
    trace_export_parser.add_argument(
        "paths", nargs="+", help="trace JSONL files or REPRO_TRACE directories"
    )
    trace_export_parser.add_argument(
        "--chrome",
        action="store_true",
        help="emit Chrome tracing JSON (load in chrome://tracing or Perfetto)",
    )
    trace_export_parser.add_argument(
        "--output", default=None, metavar="PATH", help="write here instead of stdout"
    )

    return parser


def _run_one(
    config,
    seed: int,
    trials: Optional[int],
    scale: float,
    workers: Optional[int] = None,
    dynamics: Optional[str] = None,
    store=None,
    force: bool = False,
):
    return run_experiment(
        config,
        base_seed=seed,
        sizes=sweep_sizes(config, scale),
        trials=trials,
        workers=workers,
        dynamics=resolve_dynamics(dynamics),
        store=store,
        force=force,
    )


def _command_list() -> int:
    rows = []
    for experiment_id in list_experiment_ids():
        config = get_experiment(experiment_id)
        rows.append([experiment_id, config.paper_reference, config.title])
    print(format_table(["experiment id", "paper reference", "title"], rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if (args.experiment_id is None) == (args.scenario is None):
        print(
            "run takes an experiment id or --scenario FILE#NAME (not both)",
            file=sys.stderr,
        )
        return 2
    if args.scenario is not None:
        from ..scenarios import ScenarioError, resolve_scenario

        try:
            config = resolve_scenario(args.scenario).to_config()
        except (ScenarioError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        config = get_experiment(args.experiment_id)
    result = _run_one(
        config,
        args.seed,
        args.trials,
        args.scale,
        args.workers,
        args.dynamics,
        _resolve_store_arg(args),
        args.force,
    )
    if args.markdown:
        print(experiment_markdown_section(result))
    else:
        print(experiment_table(result))
    return 0


def _command_run_all(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        from ..scenarios import ScenarioError, load_corpus, register_corpus

        try:
            register_corpus(load_corpus(args.scenario))
        except (ScenarioError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    store = _resolve_store_arg(args)
    for experiment_id in list_experiment_ids():
        result = _run_one(
            get_experiment(experiment_id),
            args.seed,
            args.trials,
            args.scale,
            args.workers,
            args.dynamics,
            store,
            args.force,
        )
        print(experiment_table(result))
        print()
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from ..experiments.config import GraphCase, ProtocolSpec
    from ..experiments.runner import run_trial_set

    graph = SIMULATE_CASES[args.family](args.size, args.seed).graph
    kwargs = {}
    if args.protocol in ("visit-exchange", "meet-exchange", "hybrid-ppull-visitx"):
        kwargs["agent_density"] = args.agent_density
    trial_set = run_trial_set(
        ProtocolSpec(name=args.protocol, kwargs=kwargs),
        GraphCase(graph=graph, source=args.source, size_parameter=args.size),
        trials=max(args.trials, 1),
        base_seed=args.seed,
        experiment_id="simulate",
        dynamics=resolve_dynamics(args.dynamics),
        store=_resolve_store_arg(args),
        force=args.force,
    )
    first = trial_set.results[0]
    print(
        f"{first.protocol} on {first.graph_name} (n={first.num_vertices}, "
        f"m={first.num_edges}) from source {first.source}:"
    )
    if len(trial_set) == 1:
        if first.completed:
            print(f"  broadcast time = {first.broadcast_time} rounds")
        else:
            print(f"  did NOT complete within {first.rounds_executed} rounds")
    else:
        mean = trial_set.mean_broadcast_time()
        completed = len(trial_set.completed_results)
        if mean is not None:
            print(
                f"  broadcast time = {mean:.1f} rounds "
                f"(mean over {completed}/{len(trial_set)} completed trials)"
            )
        else:
            print(f"  no trial completed ({len(trial_set)} ran)")
    if first.num_agents:
        print(f"  agents = {first.num_agents}")
    status = trial_set.store_status
    if status is not None:
        print(f"  store: {status[0]} (cell {status[1][:16]})")
    return 0


def _report_sections(args: argparse.Namespace) -> List[str]:
    """Validate --only and return the section ids the report should include."""
    known = report_section_ids()
    if args.only is None:
        return known
    unknown = [name for name in args.only if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown report section(s) {', '.join(map(repr, unknown))}; "
            f"choose from: {', '.join(known)}"
        )
    return [name for name in known if name in set(args.only)]


def _command_report(args: argparse.Namespace) -> int:
    from ..experiments.reporting import (
        report_markdown,
        run_report_sections,
        store_report_payload,
    )

    if args.scenario is not None:
        from ..scenarios import ScenarioError, load_corpus, register_corpus

        try:
            register_corpus(load_corpus(args.scenario))
        except (ScenarioError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    wanted = _report_sections(args)
    store = _resolve_store_arg(args)
    if args.serve:
        if args.no_store:
            print(
                "--serve reads from a result store; it cannot be "
                "combined with --no-store",
                file=sys.stderr,
            )
            return 2
        # The report endpoints live on the store service itself, so serving
        # a report is just serving the store (read-only): every /report
        # render comes from cached cells, revalidated by cell-set ETags.
        if store is None:
            store = ResultStore(_default_store_path())
        return _serve_loop(store.root, host=args.host, port=args.port, token=None)
    options = dict(
        sections=wanted,
        base_seed=args.seed,
        trials=args.trials,
        scale=args.scale,
        dynamics=resolve_dynamics(args.dynamics),
    )
    if args.from_store:
        if args.no_store:
            print(
                "--from-store reads from a result store; it cannot be "
                "combined with --no-store",
                file=sys.stderr,
            )
            return 2
        # Pure store reads: the sections of the JSON report, without running
        # a single simulation.  The store to read defaults to $REPRO_STORE.
        if store is None:
            store = ResultStore(_default_store_path())
        payload = store_report_payload(store, **options)
        missing = [s["detail"] for s in payload["sections"] if s["status"] != "complete"]
        if missing:
            print("\n".join(missing), file=sys.stderr)
            return 1
        sections = [entry["markdown"] for entry in payload["sections"]]
    else:
        sections = run_report_sections(store=store, force=args.force, **options)
    text = report_markdown(sections)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    return 0


def _command_corpus(args: argparse.Namespace) -> int:
    import json

    from ..scenarios import (
        ScenarioError,
        corpus_report,
        corpus_status,
        load_corpus,
        register_corpus,
        run_corpus,
    )

    try:
        corpus = load_corpus(args.manifest)
    except (ScenarioError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if getattr(args, "no_store", False):
        print(
            "corpus runs are store-backed; --no-store makes no sense here",
            file=sys.stderr,
        )
        return 2
    store = _resolve_store_arg(args)
    if store is None:
        store = ResultStore(_default_store_path())

    try:
        if args.corpus_command == "run":
            summary = run_corpus(
                corpus,
                store=store,
                base_seed=args.seed,
                workers=args.workers,
                force=args.force,
                names=args.only,
            )
            for row in summary.scenarios:
                line = (
                    f"{row.name}: {row.total_cells} cells "
                    f"({row.computed} computed, {row.cached} cached)"
                )
                if row.rumor_cells:
                    line += (
                        f" + {row.rumor_cells} rumor cells "
                        f"({row.rumor_computed} computed)"
                    )
                print(line)
            print(json.dumps(summary.as_dict(), sort_keys=True))
            return 0
        if args.corpus_command == "status":
            summary = corpus_status(corpus, store=store, base_seed=args.seed)
            print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
            return 0
        if args.corpus_command == "report":
            if args.serve:
                # Scenario sections render from the same /report endpoints as
                # the standard experiments; registering the corpus in this
                # process is what makes the service know them.
                register_corpus(corpus)
                return _serve_loop(store.root, host=args.host, port=args.port, token=None)
            try:
                text = corpus_report(
                    corpus,
                    store=store,
                    base_seed=args.seed,
                    strict=args.strict,
                )
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 1
            if args.output == "-":
                print(text)
            else:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"wrote {args.output}")
            return 0
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    raise SystemExit(f"unknown corpus command {args.corpus_command!r}")


def _serve_loop(
    root, *, host: str, port: int, token: Optional[str], lease_ttl: float = 60.0
) -> int:
    """Bind a store service and serve until interrupted (SIGINT/SIGTERM).

    Shared by ``store serve`` and ``report --serve`` — same bind/diagnostic
    messages, same graceful drain-on-signal shutdown, same request-counter
    summary on exit.
    """
    import signal

    from ..store import StoreError
    from ..store.service import serve

    try:
        service = serve(root, host=host, port=port, token=token, lease_ttl=lease_ttl)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        # Most commonly EADDRINUSE: the bind happens in the constructor.
        print(f"cannot serve on {host}:{port}: {exc}", file=sys.stderr)
        return 2
    client_url = service.url
    if host == "0.0.0.0":
        # The wildcard bind address is not routable; tell clients the
        # machine's name instead.  (The server is IPv4-only, so "::"
        # never binds in the first place.)
        import socket

        bound_port = service.server.server_address[1]
        client_url = f"http://{socket.gethostname()}:{bound_port}"
    print(
        f"serving result store {service.store.root} at {service.url} "
        f"({'writable' if token else 'read-only'}; point clients at it "
        f"via {STORE_ENV_VAR}={client_url})",
        flush=True,
    )

    def _graceful(signum, frame):  # pragma: no cover - signal timing
        # Stop accepting connections; serve_forever() then drains every
        # in-flight request before returning, so workers mid-publish get
        # their responses instead of a reset.
        service.request_stop()

    previous = {
        sig: signal.signal(sig, _graceful)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    counters = service.request_counts
    print(
        "shut down cleanly; requests served: "
        + (
            ", ".join(f"{route}={count}" for route, count in sorted(counters.items()))
            or "none"
        ),
        flush=True,
    )
    return 0


def _command_store(args: argparse.Namespace) -> int:
    import json

    if args.store_command in ("submit", "status"):
        from ..store import StoreError
        from ..store.worker import submit_sweep, sweep_status

        url = (args.store_path or _default_store_path()).rstrip("/")
        if not url.startswith(("http://", "https://")):
            print(
                f"'store {args.store_command}' talks to a hub: point --store "
                f"(or ${STORE_ENV_VAR}) at a 'repro store serve' URL, got {url!r}",
                file=sys.stderr,
            )
            return 2
        token = _resolve_token(args)
        try:
            if args.store_command == "submit":
                if token is None:
                    print(
                        "'store submit' needs the hub's auth token "
                        f"(--token or ${TOKEN_ENV_VAR})",
                        file=sys.stderr,
                    )
                    return 2
                config = get_experiment(args.experiment_id)
                sweep_id, status = submit_sweep(
                    url,
                    config,
                    token=token,
                    base_seed=args.seed,
                    sizes=sweep_sizes(config, args.scale),
                    trials=args.trials,
                    dynamics=resolve_dynamics(args.dynamics),
                )
                print(sweep_id)
                print(json.dumps(status, sort_keys=True), file=sys.stderr)
            else:
                status = sweep_status(url, args.sweep_id, token=token)
                print(json.dumps(status, indent=2, sort_keys=True))
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0

    store = ResultStore(args.store_path or _default_store_path())
    if args.store_command == "serve":
        return _serve_loop(
            store.root,
            host=args.host,
            port=args.port,
            token=_resolve_token(args),
            lease_ttl=args.lease_ttl,
        )
    if args.store_command == "ls":
        rows = [
            [
                e["key"][:16],
                e["protocol"],
                e["graph"],
                e["n"],
                e["trials"],
                e["backend"],
                e["bytes"],
                e["created_at"],
            ]
            for e in store.entries()
        ]
        print(
            format_table(
                ["key", "protocol", "graph", "n", "trials", "backend", "bytes", "created (UTC)"],
                rows,
                title=f"result store at {store.root} ({len(rows)} objects)",
            )
        )
        return 0
    if args.store_command == "info":
        matches = [k for k in store.keys() if k.startswith(args.key)]
        if not matches:
            print(f"no object with key prefix {args.key!r} in {store.root}")
            return 1
        if len(matches) > 1:
            print(f"key prefix {args.key!r} is ambiguous ({len(matches)} matches)")
            return 1
        print(json.dumps(store.read_sidecar(matches[0]), indent=2, sort_keys=True))
        return 0
    if args.store_command == "gc":
        removed = store.gc(
            keep_referenced=not args.all,
            older_than_days=args.keep_days,
            dry_run=args.dry_run,
            max_bytes=args.max_bytes,
        )
        verb = "would delete" if args.dry_run else "deleted"
        target = store.root if store.backend.local is store.backend else (
            f"the local cache of {store.root}"
        )
        print(f"{verb} {len(removed)} object(s) from {target}")
        return 0
    if args.store_command == "export":
        copied = store.export(args.destination, keys=args.keys)
        print(f"exported {copied} object(s) to {args.destination}")
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def _command_worker(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from ..store import StoreError
    from ..store.worker import run_worker

    token = _resolve_token(args)
    if token is None:
        print(
            f"'worker' needs the hub's auth token (--token or ${TOKEN_ENV_VAR})",
            file=sys.stderr,
        )
        return 2
    cache = args.cache
    scratch = None
    if cache is None:
        # Workers are stateless: without an explicit cache they use a private
        # scratch directory so nothing leaks between runs.
        scratch = tempfile.TemporaryDirectory(prefix="repro-worker-")
        cache = scratch.name
    try:
        summary = run_worker(
            args.url.rstrip("/"),
            args.sweep_id,
            token=token,
            name=args.name,
            cache=cache,
            poll_interval=args.poll_interval,
            hub_patience=args.hub_patience,
            max_cells=args.max_cells,
        )
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if scratch is not None:
            scratch.cleanup()
    print(json.dumps(summary, sort_keys=True))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    import json

    from ..telemetry import chrome_trace, read_events, summarize_events, trace_files

    files = []
    for target in args.paths:
        found = trace_files(target)
        if not found:
            print(f"no trace files under {target!r}", file=sys.stderr)
            return 2
        files.extend(found)
    events = read_events(files)
    if not events:
        print("no trace events found", file=sys.stderr)
        return 2

    if args.trace_command == "summary":
        rows = [
            [
                row["phase"],
                str(row["count"]),
                str(row["events"]),
                f"{row['total_seconds']:.4f}",
                f"{row['mean_seconds']:.4f}",
                f"{row['min_seconds']:.4f}",
                f"{row['max_seconds']:.4f}",
            ]
            for row in summarize_events(events)
        ]
        print(
            format_table(
                ["phase", "spans", "events", "total s", "mean s", "min s", "max s"],
                rows,
            )
        )
        return 0

    if not args.chrome:
        print("trace export: pass --chrome to select the output format", file=sys.stderr)
        return 2
    payload = json.dumps(chrome_trace(events), separators=(",", ":"))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {len(events)} events to {args.output}")
    else:
        print(payload)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "run-all":
        return _command_run_all(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "corpus":
        return _command_corpus(args)
    if args.command == "store":
        return _command_store(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "trace":
        return _command_trace(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
