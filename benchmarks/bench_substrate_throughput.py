"""Substrate microbenchmarks (classic pytest-benchmark timings).

Not a paper table — these track the throughput of the building blocks the
reproduction stands on (autograd conv, NT-Xent, KMeans, t-SNE, a full
Calibre loss step) so regressions in the substrate are visible, plus the
federated round loop's rounds/sec under each execution backend
(:mod:`repro.fl.execution`).

Run under pytest-benchmark for calibrated timings, or directly as a
script for the CI smoke check and a per-backend rounds/sec comparison::

    python benchmarks/bench_substrate_throughput.py --smoke
    python benchmarks/bench_substrate_throughput.py --rounds 6 --clients 8
"""

import argparse
import pickle
import sys
import time
from operator import itemgetter

import numpy as np
import pytest

from repro.cluster import kmeans
from repro.core import cluster_views, meta_term, prototype_plan
from repro.eval import build_method, make_dataset, make_encoder_factory
from repro.eval.harness import NonIIDSetting, make_partitions
from repro.fl import (
    FederatedConfig,
    TrainingSession,
    available_backends,
    build_federation,
    payload_nbytes,
    write_checkpoint,
)
from repro.fl.session import checkpoint_total_bytes
from repro.ioutil import atomic_write_text
from repro.manifold import tsne_embed
from repro.nn import SmallConvEncoder, Tensor
from repro.nn.trace import input_leaves
from repro.ssl import nt_xent


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_conv_encoder_forward_backward(benchmark, rng):
    encoder = SmallConvEncoder(width=8, rng=rng)
    images = rng.standard_normal((32, 3, 12, 12))

    def step():
        out = encoder(Tensor(images))
        (out * out).sum().backward()
        encoder.zero_grad()
        return out

    benchmark(step)


def test_nt_xent_loss(benchmark, rng):
    h1 = Tensor(rng.standard_normal((64, 32)), requires_grad=True)
    h2 = Tensor(rng.standard_normal((64, 32)), requires_grad=True)

    def step():
        loss = nt_xent(h1, h2, 0.5)
        loss.backward()
        h1.grad = h2.grad = None
        return loss

    benchmark(step)


def test_kmeans_batch_clustering(benchmark, rng):
    points = rng.standard_normal((128, 32))
    benchmark(lambda: kmeans(points, 10, rng=np.random.default_rng(1)))


def test_calibre_prototype_loss(benchmark, rng):
    z_e = Tensor(rng.standard_normal((64, 32)), requires_grad=True)
    z_o = Tensor(rng.standard_normal((64, 32)), requires_grad=True)

    def step():
        clusters = cluster_views(z_e, z_o, 5, rng=np.random.default_rng(2))
        plan = prototype_plan(clusters, z_e.data.dtype, use_lc=False, use_lp=False)
        loss = meta_term(z_e, z_o, input_leaves(plan), 0.5)
        loss.backward()
        z_e.grad = z_o.grad = None
        return loss

    benchmark(step)


def test_tsne_small(benchmark, rng):
    points = rng.standard_normal((60, 16))
    benchmark.pedantic(
        lambda: tsne_embed(points, perplexity=10.0, n_iterations=100, seed=0),
        rounds=1, iterations=1,
    )


# ----------------------------------------------------------------------
# Federated round loop: rounds/sec per execution backend
# ----------------------------------------------------------------------
def _round_loop_setup(num_clients: int, samples_per_client: int = 12):
    # 10 classes: make sure the pool covers num_clients disjoint partitions.
    per_class = max(samples_per_client, 8,
                    -(-num_clients * samples_per_client // 10))
    dataset = make_dataset("cifar10", seed=0, image_size=8,
                           train_per_class=per_class,
                           test_per_class=2)
    partitions = make_partitions(
        dataset.train.labels, num_clients,
        NonIIDSetting("iid", 0, samples_per_client), np.random.default_rng(1),
    )
    encoder_factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8), seed=7)
    return dataset, partitions, encoder_factory


def run_round_loop(backend: str, workers, rounds: int = 2, num_clients: int = 4,
                   method: str = "pfl-simclr", client_batch=None):
    """Time the federated training stage; returns a metrics row.

    ``payload_inline_bytes`` is what one client costs pickled whole, as a
    process pool installs it once; ``payload_wire_bytes`` is the pickled
    handle a process task carries for it each round (its id and store,
    :meth:`~repro.fl.session.TrainingSession.client_handle`).  Both are
    measured before training so they isolate the dataset-shipping cost the
    resident federation eliminates, not the algorithm state that must
    travel regardless.

    ``client_batch`` selects the cohort-vectorized engine
    (:mod:`repro.nn.trace`): ``1`` forces the per-client path, ``None``
    batches each homogeneous cohort whole.  Results are required to be
    bitwise identical either way — the smoke gate checks that.
    """
    dataset, partitions, encoder_factory = _round_loop_setup(num_clients)
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=num_clients, rounds=rounds,
        local_epochs=1, batch_size=8, personalization_epochs=2,
        personalization_batch_size=8, backend=backend, workers=workers,
        client_batch=client_batch,
    )
    clients = build_federation(dataset, partitions, seed=2)
    algorithm = build_method(method, config, dataset.num_classes, encoder_factory,
                             projection_dim=8, hidden_dim=16)
    session = TrainingSession(algorithm, clients, config)
    payload_inline = payload_nbytes(clients[0])
    payload_wire = len(pickle.dumps(session.client_handle(clients[0]),
                                    protocol=pickle.HIGHEST_PROTOCOL))
    # Warm the worker pool (spawn + first pickle round-trip) so the timer
    # measures steady-state dispatch, which is what the table claims.
    session.backend.map(abs, list(range(session.backend.workers)))
    start = time.perf_counter()
    session.run()
    elapsed = time.perf_counter() - start
    session.close()
    return {
        "backend": backend,
        "workers": session.backend.workers,
        "client_batch": "auto" if client_batch is None else client_batch,
        "elapsed_s": elapsed,
        "rounds_per_sec": rounds / elapsed if elapsed > 0 else float("inf"),
        "payload_inline_bytes": payload_inline,
        "payload_wire_bytes": payload_wire,
        "final_loss": session.round_records[-1].mean_loss,
    }


COHORT_METHODS = {
    "pfl-simclr": ((16, 8), {}),
    # Calibre's losses drive the (16, 8) encoder to NaN on this workload.
    "calibre-simclr": ((24, 12), {"num_prototypes": 5}),
}
"""The cohort workload's methods: (encoder hidden dims, build overrides)."""

COHORT_SPEEDUP_GATES = {"pfl-simclr": 5.0, "calibre-simclr": 1.5}
"""Minimum batched / per-client rounds/sec per method in ``--smoke``.
Calibre's k-means stays per client, so its floor is lower."""


def run_cohort_loop(client_batch, rounds: int = 2, num_clients: int = 32,
                    method: str = "pfl-simclr"):
    """Time the homogeneous-cohort workload (serial backend).

    Sized so per-step numpy dispatch dominates a single client's update —
    the regime tiny-model federated SSL rounds on CPU live in — which is
    exactly what the client-batched trace/replay engine
    (:mod:`repro.nn.trace`) amortizes.  Single-class quantity partitioning
    gives every client an identically-shaped pool, so auto batching forms
    one ``num_clients``-wide cohort.  ``method`` is a key of
    :data:`COHORT_METHODS`.
    """
    samples = 12
    per_class = max(samples, -(-num_clients * samples // 10))
    dataset = make_dataset("cifar10", seed=0, image_size=6,
                           train_per_class=per_class, test_per_class=2)
    partitions = make_partitions(
        dataset.train.labels, num_clients,
        NonIIDSetting("quantity", 1, samples), np.random.default_rng(1),
    )
    hidden_dims, overrides = COHORT_METHODS[method]
    encoder_factory = make_encoder_factory("mlp", dataset,
                                           hidden_dims=hidden_dims, seed=7)
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=num_clients, rounds=rounds,
        local_epochs=1, batch_size=2, personalization_epochs=2,
        personalization_batch_size=8, client_batch=client_batch,
    )
    clients = build_federation(dataset, partitions, seed=2)
    algorithm = build_method(method, config, dataset.num_classes,
                             encoder_factory, projection_dim=8, hidden_dim=16,
                             **overrides)
    session = TrainingSession(algorithm, clients, config)
    start = time.perf_counter()
    session.run()
    elapsed = time.perf_counter() - start
    session.close()
    return {
        "method": method,
        "backend": "serial/per-client" if client_batch == 1 else "serial/batched",
        "workers": 1,
        "client_batch": "auto" if client_batch is None else client_batch,
        "clients": num_clients,
        "elapsed_s": elapsed,
        "rounds_per_sec": rounds / elapsed if elapsed > 0 else float("inf"),
        "final_loss": session.round_records[-1].mean_loss,
    }


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_round_loop_throughput(benchmark, backend):
    workers = None if backend == "serial" else 2
    benchmark.pedantic(
        lambda: run_round_loop(backend, workers, rounds=2, num_clients=4,
                               client_batch=1),
        rounds=1, iterations=1,
    )


@pytest.mark.parametrize("client_batch", [1, None],
                         ids=["per-client", "batched"])
@pytest.mark.parametrize("method", list(COHORT_METHODS))
def test_cohort_vectorization_throughput(benchmark, method, client_batch):
    """The client-batched engine vs the per-client loop, 32-client cohort.

    The regression thresholds pin the pfl-simclr batched row well below its
    per-client row, so losing the vectorization win fails CI.  Calibre's
    win is smaller than the ceilings' 4x headroom; the ``--smoke``
    speedup floor guards it instead.
    """
    benchmark.pedantic(
        lambda: run_cohort_loop(client_batch, rounds=2, method=method),
        rounds=1, iterations=1,
    )


# ----------------------------------------------------------------------
# Checkpoint encode: legacy inline-JSON vs columnar manifest + .npcol
# ----------------------------------------------------------------------
_CHECKPOINT_STATE = None
# BYOL clients keep their predictor and target networks, so the state
# carries client stores as well as the global model.
CHECKPOINT_BENCH_METHOD = "calibre-byol"


def checkpoint_bench_state():
    """A trained CHECKPOINT_BENCH_METHOD ServerState — the checkpoint bench
    workload.

    Sized (hidden (32, 16), 4 clients, 2 rounds) so the array payload
    dominates the round records: what :class:`RoundCheckpointer` actually
    writes mid-run.  Cached — training it is setup, not the thing timed.
    """
    global _CHECKPOINT_STATE
    if _CHECKPOINT_STATE is None:
        dataset, partitions, _ = _round_loop_setup(4)
        encoder_factory = make_encoder_factory("mlp", dataset,
                                               hidden_dims=(32, 16), seed=7)
        config = FederatedConfig(
            num_clients=4, clients_per_round=4, rounds=2, local_epochs=1,
            batch_size=8, personalization_epochs=2,
            personalization_batch_size=8,
        )
        clients = build_federation(dataset, partitions, seed=2)
        algorithm = build_method(CHECKPOINT_BENCH_METHOD, config,
                                 dataset.num_classes, encoder_factory,
                                 projection_dim=8, hidden_dim=16)
        session = TrainingSession(algorithm, clients, config)
        session.run_until(2)
        _CHECKPOINT_STATE = session.capture_state()
        session.close()
    return _CHECKPOINT_STATE


def run_checkpoint_encode(tmp_dir, repeats: int = 3):
    """Best-of-N encode timings and on-disk bytes for both formats.

    Returns a metrics row; the smoke gates pin the columnar format's
    reductions.  The byte counts are deterministic; min-of-N on the
    timings rejects scheduler noise the same way the calibration
    workload does.
    """
    import pathlib

    state = checkpoint_bench_state()
    tmp_dir = pathlib.Path(tmp_dir)
    timings = {"json": float("inf"), "columnar": float("inf")}
    written = {}
    for _ in range(repeats):
        for arrays in ("json", "columnar"):
            # One directory per format, as RoundCheckpointer keeps one
            # per run — the columnar sidecar sweep scans its directory's
            # manifests, and sharing it with the legacy file would bill
            # that file's parse to the columnar side.
            directory = tmp_dir / arrays
            directory.mkdir(exist_ok=True)
            path = directory / "bench.json"
            start = time.perf_counter()
            written[arrays] = write_checkpoint(state, path, arrays=arrays)
            timings[arrays] = min(timings[arrays],
                                  time.perf_counter() - start)
    nbytes = {arrays: checkpoint_total_bytes(path)
              for arrays, path in written.items()}
    return {
        "json_bytes": nbytes["json"],
        "columnar_bytes": nbytes["columnar"],
        "bytes_reduction": nbytes["json"] / nbytes["columnar"],
        "json_encode_s": timings["json"],
        "columnar_encode_s": timings["columnar"],
        "encode_speedup": timings["json"] / timings["columnar"],
    }


@pytest.mark.parametrize("arrays", ["json", "columnar"])
def test_checkpoint_encode(benchmark, arrays, tmp_path):
    state = checkpoint_bench_state()
    path = tmp_path / "bench.json"
    benchmark(lambda: write_checkpoint(state, path, arrays=arrays))


# ----------------------------------------------------------------------
# Script entry point (CI smoke job + manual backend comparison)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Federated round-loop throughput per execution backend"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed workload; exits non-zero on any failure, "
                             "backend disagreement, a process-task client "
                             "payload reduction below 10x, a cohort-vectorization "
                             "speedup below 5x (pfl-simclr) or 1.5x "
                             "(calibre-simclr), batched/per-client result "
                             "divergence, a columnar-checkpoint byte "
                             "reduction below 4x, or a checkpoint encode "
                             "speedup below 5x (CI guard)")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for parallel backends (default: all cores)")
    parser.add_argument("--method", default="pfl-simclr")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result rows as JSON (CI artifact)")
    args = parser.parse_args(argv)
    rounds, clients = (2, 4) if args.smoke else (args.rounds, args.clients)

    # One row per backend; on the process row the payload columns show
    # what the resident federation buys.
    rows = [
        run_round_loop(backend, 1 if backend == "serial" else args.workers,
                       rounds=rounds, num_clients=clients, method=args.method,
                       client_batch=1)
        for backend in sorted(available_backends())
    ]

    # Cohort vectorization: the per-client loop vs the client-batched
    # trace/replay engine over one 32-client homogeneous cohort, for each
    # of COHORT_METHODS — the point is the engine, not args.method.  Each
    # side is the best of five runs, the two sides alternating: min-of-N
    # rejects scheduler noise in the speedup gate (as the checkpoint encode
    # timings below do), and alternating lets both sides sample the same
    # machine states.
    cohorts = {}
    for method in COHORT_METHODS:
        runs = {1: [], None: []}
        for _ in range(5):
            for client_batch in runs:
                runs[client_batch].append(
                    run_cohort_loop(client_batch, rounds=rounds, method=method))
        per_client, batched = [min(rows, key=itemgetter("elapsed_s"))
                               for rows in runs.values()]
        cohorts[method] = {
            "speedup": batched["rounds_per_sec"]
            / max(per_client["rounds_per_sec"], 1e-12),
            "rows": [per_client, batched]}

    print(f"round-loop throughput ({args.method}, {clients} clients, {rounds} rounds)")
    print(f"{'backend':<18}{'workers':>8}{'elapsed_s':>12}{'rounds/sec':>12}"
          f"{'inline_B':>10}{'wire_B':>10}{'final_loss':>12}")
    for row in rows:
        print(f"{row['backend']:<18}{row['workers']:>8}{row['elapsed_s']:>12.3f}"
              f"{row['rounds_per_sec']:>12.2f}{row['payload_inline_bytes']:>10}"
              f"{row['payload_wire_bytes']:>10}{row['final_loss']:>12.4f}")
    for method, cohort in cohorts.items():
        print(f"\ncohort vectorization ({method}, "
              f"{cohort['rows'][0]['clients']} clients, {rounds} rounds): "
              f"{cohort['speedup']:.1f}x rounds/sec")
        for row in cohort["rows"]:
            print(f"{row['backend']:<18}{row['workers']:>8}"
                  f"{row['elapsed_s']:>12.3f}{row['rounds_per_sec']:>12.2f}"
                  f"{row['final_loss']:>32.4f}")

    # Checkpoint encode: the columnar manifest + .npcol sidecar vs the
    # legacy inline-JSON file, on the fixed bench state.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = run_checkpoint_encode(tmp)
    print(f"\ncheckpoint encode ({CHECKPOINT_BENCH_METHOD} bench state): "
          f"{ckpt['json_bytes']} B -> {ckpt['columnar_bytes']} B "
          f"({ckpt['bytes_reduction']:.2f}x), "
          f"{ckpt['json_encode_s'] * 1e3:.1f} ms -> "
          f"{ckpt['columnar_encode_s'] * 1e3:.1f} ms "
          f"({ckpt['encode_speedup']:.2f}x)")

    if args.json:
        import json

        payload = {
            "method": args.method, "clients": clients, "rounds": rounds,
            "rows": rows,
            "cohort": {method: {"clients": cohort["rows"][0]["clients"],
                                "rounds": rounds, **cohort}
                       for method, cohort in cohorts.items()},
            "checkpoint": ckpt,
        }
        atomic_write_text(args.json, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    status = 0
    losses = {row["final_loss"] for row in rows}
    if len(losses) != 1:
        print(f"FAIL: backends disagree on final loss: {losses}", file=sys.stderr)
        status = 1
    else:
        print("OK: all backends produced identical final losses")
    (process,) = [row for row in rows if row["backend"] == "process"]
    reduction = process["payload_inline_bytes"] / max(process["payload_wire_bytes"], 1)
    if reduction < 10.0:
        print(f"FAIL: a process task's client payload is only {reduction:.1f}x "
              "below the client's pickled size", file=sys.stderr)
        status = 1
    else:
        print(f"OK: the resident federation cuts a process task's client "
              f"payload {reduction:.1f}x")
    for method, cohort in cohorts.items():
        per_client, batched = cohort["rows"]
        if per_client["final_loss"] != batched["final_loss"]:
            print(f"FAIL: {method} client-batched path diverges from "
                  f"per-client path: {batched['final_loss']!r} != "
                  f"{per_client['final_loss']!r}", file=sys.stderr)
            status = 1
        else:
            print(f"OK: {method} client-batched final loss is bitwise "
                  f"identical to per-client")
        gate = COHORT_SPEEDUP_GATES[method]
        if cohort["speedup"] < gate:
            print(f"FAIL: {method} cohort vectorization speedup only "
                  f"{cohort['speedup']:.1f}x (gate: >= {gate:g}x)",
                  file=sys.stderr)
            status = 1
        else:
            print(f"OK: {method} cohort vectorization delivers "
                  f"{cohort['speedup']:.1f}x rounds/sec")
    # The all-f8 state bounds the byte ratio near 4.6x (8 raw bytes per
    # element vs ~38 chars of indented legacy JSON), hence the 4x gate;
    # the encode gate is the full 5x — json.dumps of float lists is the
    # expensive half.
    if ckpt["bytes_reduction"] < 4.0:
        print(f"FAIL: columnar checkpoint only {ckpt['bytes_reduction']:.2f}x "
              f"smaller than legacy JSON (gate: >= 4x)", file=sys.stderr)
        status = 1
    else:
        print(f"OK: columnar checkpoint is {ckpt['bytes_reduction']:.2f}x "
              f"smaller than legacy JSON")
    if ckpt["encode_speedup"] < 5.0:
        print(f"FAIL: columnar checkpoint encode only "
              f"{ckpt['encode_speedup']:.2f}x faster than legacy JSON "
              f"(gate: >= 5x)", file=sys.stderr)
        status = 1
    else:
        print(f"OK: columnar checkpoint encodes {ckpt['encode_speedup']:.2f}x "
              f"faster than legacy JSON")
    return status


if __name__ == "__main__":
    sys.exit(main())
