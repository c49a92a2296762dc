"""Command-line interface: run any experiment of the paper from a shell.

Examples
--------
List the available methods and experiments::

    python -m repro.cli list

Run one method on a chosen workload::

    python -m repro.cli run --method calibre-simclr --dataset cifar10 \
        --setting quantity --param 2 --samples 50 --rounds 25

Parallelize client execution across processes (results are identical to
the serial default — only wall-clock changes)::

    python -m repro.cli run --method calibre-simclr --backend process --workers 4

Every paper artifact runs one way: sweep its grid into a persistent,
resumable run store, then regenerate its tables from the store alone
(no retraining)::

    python -m repro.cli sweep --exp table1 --runs-dir runs/table1 --seeds 0 1 2
    python -m repro.cli report --exp table1 --runs-dir runs/table1 --seeds 0 1 2
    python -m repro.cli sweep --exp fig4 --panel 1 --runs-dir runs/fig4
    python -m repro.cli report --exp fig4 --panel 1 --runs-dir runs/fig4 --csv

Figures render as SVG from the stored records the same way (``--grid``
is an alias of ``--exp``, ``--store`` of ``--runs-dir``)::

    python -m repro.cli sweep --grid fig5 --runs-dir runs/fig5
    python -m repro.cli figures fig5 --store runs/fig5 --out fig5.svg
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import List, Optional

from .analysis.cli import add_check_arguments, run_check_command
from .eval import (
    NonIIDSetting,
    available_methods,
    format_ablation_table,
    format_across_seeds_table,
    format_comparison_table,
    format_series_csv,
    format_silhouette_across_seeds,
    format_silhouette_table,
    render_series_svg,
)
from .experiments import (
    EMBEDDING_FIGURES,
    PANEL_FIGURES,
    EmbedParams,
    TABLE1_SETTING,
    TABLE1_VARIANTS,
    embeddings_sweep,
    execute_embedding_cell,
    fig3_sweep,
    fig4_sweep,
    figure_results_from_records,
    panel_outcome_from_records,
    panel_title,
    render_figure_svg,
    table1_rows_across_seeds,
    table1_rows_from_records,
    table1_sweep,
    scaled_sweep,
)
from .experiments.settings import SCALED_CONFIG, SCALED_DATASET_KWARGS
from .fl.config import AGGREGATION_POLICIES, AvailabilitySpec, FederatedConfig
from .fl.execution import available_backends
from .ioutil import atomic_write_text
from .runs import (
    CorruptCellRecord,
    RunStore,
    encode_record,
    outcome_from_records,
    run_sweep,
)
from .telemetry import (
    CellTelemetry,
    CorruptSidecar,
    Tracer,
    chrome_trace,
    chrome_trace_from_cells,
    load_store_telemetry,
    parse_sidecar,
    profile_cell,
    render_profile,
)

__all__ = ["main", "build_parser"]

SWEEP_EXPERIMENTS = ("table1",) + tuple(PANEL_FIGURES) + EMBEDDING_FIGURES
FIGURE_CHOICES = tuple(sorted(EMBEDDING_FIGURES + tuple(PANEL_FIGURES)))
# Each ``repro run --dataset``'s class count, known without rendering a
# sample: the cifar10 and stl10 stand-ins fix 10 classes, and the scaled
# cifar100 one sets its own.
_DATASET_CLASSES = {
    "cifar10": 10,
    "cifar100": SCALED_DATASET_KWARGS["cifar100"]["num_classes"],
    "stl10": 10,
}


def _add_population_arguments(parser: argparse.ArgumentParser) -> None:
    """Population-plane knobs (availability churn + async aggregation).

    Shared by ``run`` and the sweep-grid commands; all of them are
    *semantic* (they change results and therefore cell hashes), and all
    default to off so existing command lines reproduce existing bytes.
    """
    parser.add_argument("--availability", type=float, default=None,
                        metavar="FRAC",
                        help="stationary fraction of clients online per "
                             "round (changes results/cell hashes; "
                             "default: everyone, always)")
    parser.add_argument("--churn", type=float, default=None, metavar="RATE",
                        help="membership flip intensity in [0, 1]: 1 redraws "
                             "who is online every round, values toward 0 "
                             "make membership sticky (only meaningful with "
                             "--availability < 1)")
    parser.add_argument("--dropout", type=float, default=None, metavar="PROB",
                        help="probability a sampled client drops mid-round "
                             "before its update lands (changes results)")
    parser.add_argument("--speed-spread", type=float, default=None,
                        metavar="SIGMA",
                        help="lognormal sigma of per-client speed "
                             "multipliers; orders simulated completions "
                             "under async aggregation")
    parser.add_argument("--aggregation", default="sync",
                        choices=list(AGGREGATION_POLICIES),
                        help="server aggregation policy: 'sync' (default, "
                             "the bitwise-deterministic contract), "
                             "'buffered' (FedBuff-style flushes), or "
                             "'staleness' (per-update staleness weighting)")
    parser.add_argument("--aggregation-buffer", type=int, default=None,
                        metavar="K",
                        help="buffer size for --aggregation buffered "
                             "(default: 10)")
    parser.add_argument("--staleness-decay", type=float, default=None,
                        metavar="D",
                        help="staleness down-weighting exponent for the "
                             "async policies (default: 0.5)")


def _population_overrides(args) -> dict:
    """``FederatedConfig`` overrides from the population-plane flags.

    Empty when every flag is at its default, so the resulting config —
    and every fingerprint derived from it — is byte-identical to a
    pre-population command line.
    """
    overrides = {}
    if (args.availability is not None or args.churn is not None
            or args.dropout is not None or args.speed_spread is not None):
        try:
            overrides["availability"] = AvailabilitySpec(
                availability=(1.0 if args.availability is None
                              else args.availability),
                churn=1.0 if args.churn is None else args.churn,
                dropout=0.0 if args.dropout is None else args.dropout,
                speed_spread=(0.0 if args.speed_spread is None
                              else args.speed_spread),
            )
        except ValueError as error:
            raise SystemExit(f"availability flags: {error}") from error
    if args.aggregation != "sync":
        overrides["aggregation"] = args.aggregation
    if args.aggregation_buffer is not None:
        if args.aggregation_buffer < 1:
            raise SystemExit(f"--aggregation-buffer must be >= 1, "
                             f"got {args.aggregation_buffer}")
        overrides["aggregation_buffer"] = args.aggregation_buffer
    if args.staleness_decay is not None:
        if args.staleness_decay < 0:
            raise SystemExit(f"--staleness-decay must be >= 0, "
                             f"got {args.staleness_decay}")
        overrides["staleness_decay"] = args.staleness_decay
    return overrides


@contextmanager
def _flag(name: str, error: type = ValueError):
    """Exit 2 naming flag ``name`` when the setting, config or grid built
    from its value rejects it, instead of a traceback."""
    try:
        yield
    except error as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _require_at_least(flag: str, value: Optional[int], least: int) -> None:
    """Exit 2 naming ``flag`` when ``value`` is set and below ``least``."""
    if value is not None and value < least:
        print(f"{flag} must be >= {least}, got {value}", file=sys.stderr)
        raise SystemExit(2)


def _require_unique(flag: str, values: List) -> None:
    """Exit 2 naming ``flag`` when ``values`` repeats one: a repeated
    method or seed would list its cells twice."""
    if len(set(values)) != len(values):
        print(f"{flag}: values must be unique, got {values}", file=sys.stderr)
        raise SystemExit(2)


def _scaled_config(args, **overrides) -> FederatedConfig:
    """``SCALED_CONFIG`` with ``--rounds``/``--clients`` (when given), the
    population flags and ``overrides`` applied."""
    config = SCALED_CONFIG
    if args.rounds is not None:
        with _flag("--rounds"):
            config = config.with_overrides(rounds=args.rounds)
    if args.clients is not None:
        with _flag("--clients"):
            config = config.with_overrides(
                num_clients=args.clients,
                clients_per_round=min(SCALED_CONFIG.clients_per_round,
                                      args.clients))
    return config.with_overrides(**overrides, **_population_overrides(args))


def _population_flags(args) -> List[str]:
    """Echo the population-plane flags (for ``repro report`` hints)."""
    parts = []
    if args.availability is not None:
        parts.append(f"--availability {args.availability}")
    if args.churn is not None:
        parts.append(f"--churn {args.churn}")
    if args.dropout is not None:
        parts.append(f"--dropout {args.dropout}")
    if args.speed_spread is not None:
        parts.append(f"--speed-spread {args.speed_spread}")
    if args.aggregation != "sync":
        parts.append(f"--aggregation {args.aggregation}")
    if args.aggregation_buffer is not None:
        parts.append(f"--aggregation-buffer {args.aggregation_buffer}")
    if args.staleness_decay is not None:
        parts.append(f"--staleness-decay {args.staleness_decay}")
    return parts


def _add_sweep_grid_arguments(parser: argparse.ArgumentParser,
                              experiment_flag: bool = True) -> None:
    """Flags that *define* a sweep grid — shared by ``sweep``, ``report``
    and ``figures``.

    ``report``/``figures`` rebuild the same grid to know which
    content-hashed cells to read, so any flag here that changes results
    must be given identically to every command.  ``figures`` names its
    artifact positionally, so it skips the ``--exp`` flag.
    """
    if experiment_flag:
        parser.add_argument("--exp", "--grid", dest="exp", required=True,
                            choices=SWEEP_EXPERIMENTS,
                            help="which paper artifact's grid to use "
                                 "(--grid is an alias)")
    parser.add_argument("--panel", type=int, default=0,
                        help="panel index for fig3 (0-3) / fig4 (0-1)")
    parser.add_argument("--runs-dir", "--store", dest="runs_dir", required=True,
                        metavar="DIR",
                        help="run-store directory (created on demand by "
                             "'sweep'; --store is an alias)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="seed axis of the grid (default: 0)")
    parser.add_argument("--methods", nargs="*", default=None,
                        help="method subset (default: the artifact's full list)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override config rounds (changes cell hashes)")
    parser.add_argument("--clients", type=int, default=None,
                        help="override config num_clients (changes cell hashes)")
    parser.add_argument("--samples", type=int, default=None,
                        help="override samples per client (changes cell hashes)")
    parser.add_argument("--novel", type=int, default=6,
                        help="novel clients per cell (fig4 only)")
    parser.add_argument("--embed-clients", type=int, default=None,
                        help="clients sampled into an embedding figure "
                             "(changes cell hashes; embedding grids only)")
    parser.add_argument("--embed-samples", type=int, default=None,
                        help="samples embedded per client "
                             "(changes cell hashes; embedding grids only)")
    parser.add_argument("--tsne-iterations", type=int, default=None,
                        help="t-SNE gradient steps "
                             "(changes cell hashes; embedding grids only)")
    _add_population_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Calibre reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list methods and experiment panels")

    check_parser = sub.add_parser(
        "check",
        help="run the static invariant checker over the codebase",
        description="AST-check src/, benchmarks/ and examples/ against the "
                    "repo's determinism, atomicity, fingerprint, layering, "
                    "tracing and pickling contracts (docs/invariants.md). "
                    "Exit 0 means every invariant holds; 'python -m "
                    "repro.analysis' is the stdlib-only spelling.")
    add_check_arguments(check_parser)

    run_parser = sub.add_parser("run", help="run methods on one workload")
    run_parser.add_argument("--method", action="append", required=True,
                            help="method name (repeatable)")
    run_parser.add_argument("--dataset", default="cifar10",
                            choices=list(_DATASET_CLASSES))
    run_parser.add_argument("--setting", default="quantity",
                            choices=["quantity", "dirichlet", "iid"])
    run_parser.add_argument("--param", type=float, default=2.0,
                            help="classes per client (quantity) or concentration")
    run_parser.add_argument("--samples", type=int, default=50,
                            help="samples per client")
    run_parser.add_argument("--rounds", type=int, default=SCALED_CONFIG.rounds)
    run_parser.add_argument("--clients", type=int, default=SCALED_CONFIG.num_clients)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--backend", default="serial",
                            choices=available_backends(),
                            help="client-execution engine; results are identical "
                                 "across backends (default: serial)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="worker count for the process backend "
                                 "(default: all cores)")
    run_parser.add_argument("--client-batch", type=int, default=None,
                            metavar="K",
                            help="cohort-vectorized client execution: omit "
                                 "for auto (batch homogeneous cohorts whole), "
                                 "1 to disable, K>=2 to cap cohort size; "
                                 "results are bitwise identical either way")
    run_parser.add_argument("--csv", action="store_true",
                            help="also print the CSV series")
    run_parser.add_argument("--out", default=None, metavar="PATH",
                            help="write the run's cell records as one JSON "
                                 "list (the objects a run store's "
                                 "cells/<hash>.json files hold)")
    run_parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="record span telemetry for the whole run "
                                 "and write it as Chrome trace-event JSON "
                                 "(open in Perfetto or chrome://tracing); "
                                 "results are identical with or without it")
    _add_population_arguments(run_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a paper artifact as a persistent, resumable sweep",
        description="Expand an artifact's grid into content-hashed cells, "
                    "skip the ones already in the run store, and dispatch "
                    "the rest; a killed sweep resumes instead of restarting.")
    _add_sweep_grid_arguments(sweep_parser)
    sweep_parser.add_argument("--scheduler", default="serial",
                              choices=available_backends(),
                              help="experiment-level execution backend; cell "
                                   "results are identical across schedulers "
                                   "(default: serial)")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="concurrent cells for the process "
                                   "scheduler (default: all cores)")
    sweep_parser.add_argument("--client-batch", type=int, default=None,
                              metavar="K",
                              help="cohort-vectorized client execution inside "
                                   "each cell: omit for auto, 1 to disable, "
                                   "K>=2 to cap cohort size; store bytes are "
                                   "identical either way")
    sweep_parser.add_argument("--max-cells", type=int, default=None,
                              help="execute at most N pending cells this pass "
                                   "(budgeted/smoke runs); the rest defer")
    sweep_parser.add_argument("--round-checkpoints", action="store_true",
                              help="checkpoint in-flight cells per round under "
                                   "<runs-dir>/checkpoints/; a killed sweep "
                                   "resumes mid-cell from the last finished "
                                   "round instead of restarting the cell")
    sweep_parser.add_argument("--checkpoint-every", type=int, default=1,
                              metavar="K",
                              help="with --round-checkpoints: checkpoint "
                                   "after every K-th round (default: 1)")
    sweep_parser.add_argument("--no-telemetry", action="store_true",
                              help="skip the per-cell telemetry/<hash>.jsonl "
                                   "span sidecars (store records are "
                                   "byte-identical either way)")
    sweep_parser.add_argument("--trace-out", default=None, metavar="PATH",
                              help="after the sweep, combine the store's "
                                   "telemetry sidecars into one Chrome "
                                   "trace-event JSON (one process row per "
                                   "cell; open in Perfetto)")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-cell progress lines")

    report_parser = sub.add_parser(
        "report",
        help="regenerate an artifact's tables from the run store (no retraining)",
        description="Rebuild the same grid as 'repro sweep' and render its "
                    "tables purely from stored cell records.")
    _add_sweep_grid_arguments(report_parser)
    report_parser.add_argument("--csv", action="store_true",
                               help="also print the CSV series (fig3/fig4)")
    report_parser.add_argument("--across-seeds", action="store_true",
                               help="collapse the seed axis into mean ± std "
                                    "rows instead of printing one table per "
                                    "seed")
    report_parser.add_argument("--timings", action="store_true",
                               help="also print per-cell wall-clock (and "
                                    "mean per-round time) from each cell's "
                                    "telemetry sidecar; cells swept with "
                                    "--no-telemetry have no recorded timing")

    figures_parser = sub.add_parser(
        "figures",
        help="render a paper figure as SVG from the run store (no retraining)",
        description="Rebuild a figure's sweep grid, read its records from "
                    "the run store, and write the figure as a standalone "
                    "SVG — embedding figures (fig1/2/5-8) and the "
                    "accuracy-fairness scatters (fig3/fig4) alike.")
    figures_parser.add_argument("figure", choices=FIGURE_CHOICES,
                                help="which paper figure to render")
    _add_sweep_grid_arguments(figures_parser, experiment_flag=False)
    figures_parser.add_argument("--seed", type=int, default=None,
                                help="which seed's records to render "
                                     "(default: the grid's single seed; "
                                     "required when --seeds lists several)")
    figures_parser.add_argument("--out", default=None, metavar="PATH",
                                help="output SVG path (default: <figure>.svg, "
                                     "fig3/fig4: <figure>-panel<P>.svg)")

    profile_parser = sub.add_parser(
        "profile",
        help="summarize a run store's telemetry sidecars (hot phases, "
             "stragglers, counters)",
        description="Read every telemetry/<fingerprint>.jsonl sidecar under "
                    "the store and print, per cell, the time spent per "
                    "phase, client-update statistics (including straggler "
                    "spread: slowest client minus the round median), "
                    "per-worker utilization, and counter totals. Purely "
                    "read-only diagnostics.")
    profile_parser.add_argument("store", metavar="DIR",
                                help="run-store directory (the --runs-dir of "
                                     "a sweep run with telemetry on)")
    profile_parser.add_argument("--top", type=int, default=0, metavar="N",
                                help="show only the N busiest workers per "
                                     "cell (default: all)")

    return parser


def _command_list() -> int:
    print("methods:")
    for name in available_methods():
        print(f"  {name}")
    print("\nexecution backends:")
    for name in available_backends():
        print(f"  {name}")
    for figure, panels in PANEL_FIGURES.items():
        print(f"\n{figure} panels:")
        for index, (dataset, label, setting) in enumerate(panels):
            print(f"  {index}: {dataset} paper:{label} scaled:{setting.label()}")
    print("\nsweep experiments (repro sweep/report --exp ...):")
    for name in SWEEP_EXPERIMENTS:
        print(f"  {name}")
    print("\nrenderable figures (repro figures ...):")
    for name in FIGURE_CHOICES:
        print(f"  {name}")
    return 0


def _command_run(args) -> int:
    unknown = [m for m in args.method if m not in available_methods()]
    if unknown:
        print(f"unknown methods: {unknown}", file=sys.stderr)
        return 2
    _require_unique("--method", args.method)
    _require_at_least("--seed", args.seed, 0)
    _require_at_least("--workers", args.workers, 1)
    _require_at_least("--client-batch", args.client_batch, 1)
    config = _scaled_config(args, backend=args.backend, workers=args.workers,
                            client_batch=args.client_batch)
    # --samples alone first (the iid kind ignores the parameter), so a
    # rejected --param is named apart from it.
    with _flag("--samples"):
        NonIIDSetting("iid", 0, args.samples)
    with _flag("--param"):
        setting = NonIIDSetting(args.setting, args.param, args.samples)
        classes = _DATASET_CLASSES[args.dataset]
        if setting.kind == "quantity" and setting.parameter > classes:
            raise ValueError(f"classes per client must be at most {classes} "
                             f"for {args.dataset}, got {args.param!r}")
    name = f"{args.dataset} {args.setting}({args.param}, {args.samples})"
    sweep = scaled_sweep(name, args.dataset, setting, args.method,
                         seeds=[args.seed], config=config)
    # With --trace-out, an ambient tracer spans the entire run: every
    # method's session, worker fragments included, lands on one timeline.
    tracer = Tracer() if args.trace_out else None
    with tracer.activate() if tracer is not None else nullcontext():
        summary = run_sweep(sweep, verbose=True)
    outcome = outcome_from_records(sweep, summary.records)
    print()
    print(format_comparison_table(outcome, title=outcome.title))
    if args.csv:
        print()
        print(format_series_csv(outcome))
    if args.out:
        path = atomic_write_text(args.out, encode_record(summary.records))
        print(f"\nwrote {path}")
    if tracer is not None:
        payload = chrome_trace(tracer, process_name=name)
        path = atomic_write_text(args.trace_out,
                                 json.dumps(payload, sort_keys=True))
        print(f"wrote trace {path} ({len(payload['traceEvents'])} events; "
              "open in https://ui.perfetto.dev)")
    return 0


def _build_sweep(args, experiment: Optional[str] = None):
    """Build the (deterministic) sweep grid described by CLI flags."""
    experiment = experiment if experiment is not None else args.exp
    if args.methods:
        unknown = [m for m in args.methods if m not in available_methods()]
        if unknown:
            raise SystemExit(f"unknown methods: {unknown}")
    # The grid rejects these too, but under the --samples guard below; so
    # each flag is checked alone first, to be named.
    _require_at_least("--seeds", min(args.seeds), 0)
    _require_unique("--seeds", args.seeds)
    _require_unique("--methods", args.methods or [])
    if experiment in EMBEDDING_FIGURES:
        for flag, name, value in (
                ("--embed-clients", "num_embed_clients", args.embed_clients),
                ("--embed-samples", "samples_per_client", args.embed_samples),
                ("--tsne-iterations", "tsne_iterations", args.tsne_iterations)):
            if value is not None:
                with _flag(flag):
                    EmbedParams(**{name: value})
    config = _scaled_config(args)
    if experiment == "fig4":
        # fig4_sweep sets the same value again; setting it here first lets
        # a rejected --novel be named apart from a rejected --samples.
        with _flag("--novel"):
            config = config.with_overrides(num_novel_clients=args.novel)
    # Each artifact builds its own setting, so a bad --samples surfaces
    # from its sweep function; fig3/fig4 check --panel before that.
    with _flag("--samples"), _flag("--panel", IndexError):
        if experiment in EMBEDDING_FIGURES:
            return embeddings_sweep(
                experiment, methods=args.methods or None, seeds=args.seeds,
                config=config, samples_per_client=args.samples,
                embed_clients=args.embed_clients,
                embed_samples=args.embed_samples,
                tsne_iterations=args.tsne_iterations,
            )
        if experiment == "table1":
            setting = TABLE1_SETTING
            if args.samples is not None:
                setting = replace(setting, samples_per_client=args.samples)
            return table1_sweep(variants=args.methods or TABLE1_VARIANTS,
                                seeds=args.seeds, setting=setting,
                                config=config)
        if experiment == "fig3":
            return fig3_sweep(args.panel, methods=args.methods,
                              seeds=args.seeds, config=config,
                              samples_per_client=args.samples)
        return fig4_sweep(args.panel, methods=args.methods, seeds=args.seeds,
                          num_novel_clients=args.novel, config=config,
                          samples_per_client=args.samples)


def _grid_flags(args) -> str:
    """Echo the grid-defining flags so a hinted ``repro report`` command
    rebuilds exactly the swept grid (fingerprints must match the store)."""
    parts = [f"--exp {args.exp}", f"--runs-dir {args.runs_dir}"]
    if args.exp in ("fig3", "fig4"):
        parts.append(f"--panel {args.panel}")
    if args.seeds != [0]:
        parts.append("--seeds " + " ".join(str(seed) for seed in args.seeds))
    if args.methods:
        parts.append("--methods " + " ".join(args.methods))
    if args.rounds is not None:
        parts.append(f"--rounds {args.rounds}")
    if args.clients is not None:
        parts.append(f"--clients {args.clients}")
    if args.samples is not None:
        parts.append(f"--samples {args.samples}")
    if args.exp == "fig4" and args.novel != 6:
        parts.append(f"--novel {args.novel}")
    if args.embed_clients is not None:
        parts.append(f"--embed-clients {args.embed_clients}")
    if args.embed_samples is not None:
        parts.append(f"--embed-samples {args.embed_samples}")
    if args.tsne_iterations is not None:
        parts.append(f"--tsne-iterations {args.tsne_iterations}")
    parts.extend(_population_flags(args))
    return " ".join(parts)


def _command_sweep(args) -> int:
    # Checked before the store is opened, so a bad value creates nothing.
    for flag, value, least in (("--checkpoint-every", args.checkpoint_every, 1),
                               ("--client-batch", args.client_batch, 1),
                               ("--jobs", args.jobs, 1),
                               ("--max-cells", args.max_cells, 0)):
        _require_at_least(flag, value, least)
    sweep = _build_sweep(args)
    store = RunStore(args.runs_dir)
    executor = (execute_embedding_cell if args.exp in EMBEDDING_FIGURES
                else None)
    try:
        summary = run_sweep(sweep, store=store, backend=args.scheduler,
                            workers=args.jobs, max_cells=args.max_cells,
                            client_batch=args.client_batch,
                            round_checkpoints=args.round_checkpoints,
                            checkpoint_every=args.checkpoint_every,
                            executor=executor,
                            telemetry=not args.no_telemetry,
                            verbose=not args.quiet)
    except CorruptCellRecord as error:
        _print_corrupt(error)
        return 1
    print(summary.describe())
    print(f"store: {store.root} ({len(store)} cells)")
    if args.trace_out:
        try:
            cells = load_store_telemetry(str(store.root))
        except CorruptSidecar as error:
            _print_corrupt_sidecar(error)
            return 1
        if not cells:
            print("no telemetry sidecars to combine (swept with "
                  "--no-telemetry, or nothing executed yet)", file=sys.stderr)
        else:
            labeled = [(f"{fingerprint[:12]} "
                        f"{cell.meta.get('label', '')}".strip(), cell)
                       for fingerprint, cell in cells]
            payload = chrome_trace_from_cells(labeled)
            path = atomic_write_text(args.trace_out,
                                     json.dumps(payload, sort_keys=True))
            print(f"wrote trace {path} ({len(cells)} cells; open in "
                  "https://ui.perfetto.dev)")
    if summary.complete:
        flags = _grid_flags(args)
        print(f"complete — regenerate tables anytime with: repro report {flags}")
        if args.exp in EMBEDDING_FIGURES:
            print(f"render the figure with: repro figures {args.exp} "
                  + flags.replace(f"--exp {args.exp} ", ""))
    return 0


def _report_title(base: str, seed: int, many_seeds: bool) -> str:
    return f"{base} [seed {seed}]" if many_seeds else base


def _cell_telemetry(store: RunStore, key) -> Optional[CellTelemetry]:
    """The cell's telemetry sidecar, or ``None`` when it has none (swept
    with ``--no-telemetry``) or a torn line keeps it from parsing."""
    try:
        return parse_sidecar(
            store.telemetry_path_for(key).read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None


def _print_timings(store: RunStore, cells, records) -> None:
    """Render the per-cell wall-clock block (``repro report --timings``).

    A cell's wall clock is the ``cell`` span of its telemetry sidecar and
    its per-round time that over the record's round count; a cell without
    a readable sidecar has no recorded timing.
    """
    print("cell timings (from telemetry sidecars):")
    totals = []
    rows_missing = 0
    rows_resumed = 0
    rows_churned = 0
    for key, record in zip(cells, records):
        telemetry = _cell_telemetry(store, key)
        if telemetry is None:
            rows_missing += 1
            continue
        resumed = bool(telemetry.meta.get("resumed"))
        wall = profile_cell(key.fingerprint, telemetry).cell_duration_s
        if not (resumed or wall):
            rows_missing += 1
            continue
        # Churn-affected cells (active availability model) ran fewer or
        # different clients per round; their wall clocks are flagged so
        # they never read as baseline numbers.
        availability = key.config.availability
        churned = availability is not None and availability.is_active
        marker = " (churn)" if churned else ""
        if churned:
            rows_churned += 1
        if resumed:
            # A resumed cell's span covered only the recomputed tail of
            # the run, so it prints a marker instead of numbers.
            rows_resumed += 1
            print(f"  {key.fingerprint}   (resumed)            "
                  f"{key.label()}{marker}")
            continue
        rounds = len(record["result"].get("rounds", []))
        per_round = wall / rounds if rounds else None
        totals.append(wall)
        per_round_text = f" ({per_round:8.3f}s/round)" if per_round else ""
        print(f"  {key.fingerprint}  {wall:9.3f}s{per_round_text}  "
              f"{key.label()}{marker}")
    if totals:
        print(f"  total {sum(totals):.3f}s over {len(totals)} cells, "
              f"mean {sum(totals) / len(totals):.3f}s/cell")
    if rows_resumed:
        print(f"  ({rows_resumed} cell(s) finished from a mid-cell "
              "checkpoint: no comparable wall clock)")
    if rows_churned:
        print(f"  ({rows_churned} cell(s) ran under availability churn: "
              "wall clocks cover a reduced client load)")
    if rows_missing:
        print(f"  ({rows_missing} cell(s) have no recorded timing)")


def _across_seeds_pairs(cells, records, novel: bool = False):
    """method → per-seed (mean, variance) pairs, in the grid's seed order."""
    per_method = {}
    report_key = "novel_report" if novel else "report"
    for key, record in zip(cells, records):
        report = record.get(report_key)
        if report is None:
            continue
        per_method.setdefault(key.method, []).append(
            (report["mean"], report["variance"]))
    return per_method


def _silhouette_pairs(cells, records):
    """method → per-seed (tsne, feature) silhouettes, in grid seed order."""
    per_method = {}
    for key, record in zip(cells, records):
        embedding = record.get("embedding")
        if embedding is None:
            continue
        per_method.setdefault(key.method, []).append(
            (embedding["silhouette"], embedding["feature_silhouette"]))
    return per_method


def _report_across_seeds(args, cells, records) -> None:
    seeds_label = f"[across seeds {' '.join(str(s) for s in args.seeds)}]"
    if args.exp in EMBEDDING_FIGURES:
        print(format_silhouette_across_seeds(
            _silhouette_pairs(cells, records),
            title=f"{args.exp} silhouettes {seeds_label}"))
        return
    if args.exp == "table1":
        rows = table1_rows_across_seeds(
            cells, records, variants=args.methods or TABLE1_VARIANTS,
            seeds=args.seeds)
        print(format_ablation_table(rows, title=f"Table I {seeds_label}"))
        return
    name = panel_title(args.exp, args.panel)
    print(format_across_seeds_table(_across_seeds_pairs(cells, records),
                                    title=f"{name} {seeds_label}"))
    novel_pairs = _across_seeds_pairs(cells, records, novel=True)
    if novel_pairs:
        print()
        print(format_across_seeds_table(
            novel_pairs, title=f"{name} [novel] {seeds_label}"))


def _report_seed(args, sweep, store, cells, records, seed: int) -> None:
    """Print one seed's tables, each formatted from its artifact's view."""
    many_seeds = len(args.seeds) > 1
    if args.exp in EMBEDDING_FIGURES:
        results = figure_results_from_records(
            cells, records, methods=args.methods or None, seed=seed,
            store=store)
        print(format_silhouette_table(
            results, title=_report_title(f"{args.exp} silhouettes", seed,
                                         many_seeds)))
        return
    if args.exp == "table1":
        rows = table1_rows_from_records(
            cells, records, variants=args.methods or TABLE1_VARIANTS, seed=seed)
        print(format_ablation_table(
            rows, title=_report_title("Table I", seed, many_seeds)))
        return
    outcome = panel_outcome_from_records(args.exp, args.panel, sweep, records,
                                         seed=seed)
    name = outcome.title
    print(format_comparison_table(
        outcome, title=_report_title(name, seed, many_seeds)))
    if outcome.novel_reports:
        print(format_comparison_table(
            outcome, novel=True,
            title=_report_title(name + " [novel]", seed, many_seeds)))
    if args.csv:
        print(format_series_csv(outcome))


def _print_corrupt(error: CorruptCellRecord) -> None:
    print(f"{error}; delete the file and re-run the sweep to recompute "
          "the cell", file=sys.stderr)


def _print_corrupt_sidecar(error: CorruptSidecar) -> None:
    print(f"{error}; delete the file to go on without that cell's "
          "telemetry", file=sys.stderr)


def _stored_records(runs_dir: str, cells, experiment: str):
    """``(store, records)`` for ``cells`` — or ``(None, None)`` after naming
    the missing store, missing cells or a corrupt record on stderr
    (``report`` and ``figures``)."""
    try:
        store = RunStore(runs_dir, create=False)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return None, None
    missing = store.missing(cells)
    if missing:
        print(f"{len(missing)} of {len(cells)} cells missing from {store.root}; "
              f"finish the sweep first (repro sweep --exp {experiment} ...):",
              file=sys.stderr)
        for key in missing[:10]:
            print(f"  {key.fingerprint}  {key.label()}", file=sys.stderr)
        if len(missing) > 10:
            print(f"  ... and {len(missing) - 10} more", file=sys.stderr)
        return None, None
    try:
        return store, store.load_records(cells)
    except CorruptCellRecord as error:
        _print_corrupt(error)
        return None, None


def _command_report(args) -> int:
    sweep = _build_sweep(args)
    cells = sweep.cells()
    store, records = _stored_records(args.runs_dir, cells, args.exp)
    if store is None:
        return 1
    if args.across_seeds:
        _report_across_seeds(args, cells, records)
    else:
        for index, seed in enumerate(args.seeds):
            if index:
                print()
            _report_seed(args, sweep, store, cells, records, seed)
    if args.timings:
        print()
        _print_timings(store, cells, records)
    return 0


def _command_figures(args) -> int:
    """Render one paper figure from the run store alone (no retraining)."""
    # 'figures' renders one seed of the grid. The grid axis (--seeds) must
    # match what was swept, so never rewrite it silently from --seed.
    _require_at_least("--seed", args.seed, 0)
    if args.seed is None:
        if len(args.seeds) > 1:
            print(f"--seeds lists {args.seeds}; pick one to render with "
                  "--seed N", file=sys.stderr)
            return 2
        args.seed = args.seeds[0]
    elif args.seed not in args.seeds:
        if args.seeds == [0]:
            # --seeds was left at its default; follow --seed.
            args.seeds = [args.seed]
        else:
            print(f"--seed {args.seed} is not in the swept grid's --seeds "
                  f"{args.seeds}", file=sys.stderr)
            return 2
    sweep = _build_sweep(args, experiment=args.figure)
    cells = [key for key in sweep.cells() if key.seed == args.seed]
    store, records = _stored_records(args.runs_dir, cells, args.figure)
    if store is None:
        return 1
    if args.figure in EMBEDDING_FIGURES:
        results = figure_results_from_records(
            cells, records, methods=args.methods or None, seed=args.seed,
            store=store)
        svg = render_figure_svg(args.figure, results)
        print(format_silhouette_table(results, title=f"{args.figure} silhouettes"))
        default_out = f"{args.figure}.svg"
    else:
        outcome = panel_outcome_from_records(args.figure, args.panel, sweep,
                                             records, seed=args.seed)
        svg = render_series_svg(outcome, title=outcome.title)
        default_out = f"{args.figure}-panel{args.panel}.svg"
    path = atomic_write_text(args.out or default_out, svg)
    print(f"wrote {path}")
    return 0


def _command_profile(args) -> int:
    try:
        store = RunStore(args.store, create=False)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 1
    try:
        cells = load_store_telemetry(str(store.root))
    except CorruptSidecar as error:
        _print_corrupt_sidecar(error)
        return 1
    if not cells:
        print(f"no telemetry sidecars under {store.telemetry_dir} "
              "(sweep with telemetry on — the default — to produce them)",
              file=sys.stderr)
        return 1
    print(render_profile(cells, top=args.top), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "check":
        return run_check_command(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "figures":
        return _command_figures(args)
    if args.command == "profile":
        return _command_profile(args)
    return 2  # unreachable given required=True


if __name__ == "__main__":
    sys.exit(main())
