"""Population smoke check (CI guard for ``repro.fl.population``).

Four gates over the virtual-population plane (see docs/population.md):

1. **Scale** — a 1,000,000-client ``VirtualPopulation`` runs a real
   20-participant training round with peak RSS growth bounded: resident
   client memory is O(active), never O(population).
2. **Determinism under churn** — a 3-round run with availability churn,
   mid-round dropout, and speed spread is bitwise identical between the
   serial and process backends in sync mode.
3. **Async sanity** — buffered (FedBuff-style) aggregation diverges
   from sync (it reweights by simulated staleness) but stays finite,
   with a final loss in the same regime as the sync run's.
4. **Observability** — a churned CLI sweep records ``round.dropouts``
   and ``aggregate.staleness`` counters in the telemetry sidecar, and
   ``repro report --timings`` marks the churned cell.

Usage::

    python benchmarks/population_smoke.py
"""

import json
import resource
import sys
import tempfile
import warnings
from pathlib import Path

from smoke_common import REPO_ROOT, fail, run_cli, summary_counts

sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data.synthetic import SyntheticImageDataset  # noqa: E402
from repro.eval.harness import make_encoder_factory  # noqa: E402
from repro.eval.registry import build_method  # noqa: E402
from repro.fl import (AvailabilitySpec, FederatedConfig,  # noqa: E402
                      TrainingSession, VirtualPopulation)

# 20 realized clients at ~40 KiB of arrays each is ~1 MiB; a population
# that accidentally realized eagerly would need tens of GiB.  256 MiB
# leaves headroom for allocator noise while still failing any
# O(population) regression by two orders of magnitude.
RSS_BUDGET_MIB = 256

CHURN = AvailabilitySpec(availability=0.6, churn=0.4, dropout=0.15,
                         speed_spread=0.3)


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_session(dataset, factory, *, num_clients, backend="serial",
                  availability=None, aggregation="sync", seed=5,
                  max_resident=8, rounds=3, clients_per_round=6):
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=clients_per_round,
        rounds=rounds, local_epochs=1, batch_size=8, backend=backend,
        availability=availability, aggregation=aggregation,
        personalization_epochs=1, seed=seed)
    algorithm = build_method("fedavg", config, dataset.num_classes, factory)
    population = VirtualPopulation(dataset, num_clients=num_clients,
                                   samples_per_client=12, seed=seed,
                                   max_resident=max_resident)
    return TrainingSession(algorithm, population, config), population


def check_scale(dataset, factory):
    baseline = rss_mib()
    session, population = build_session(
        dataset, factory, num_clients=1_000_000, rounds=1,
        clients_per_round=20, max_resident=32)
    session.run_until(1)
    grown = rss_mib() - baseline
    if population.realized_total != 20:
        fail(f"scale: expected 20 realized clients, got "
             f"{population.realized_total}")
    if population.resident_count > 32:
        fail(f"scale: resident count {population.resident_count} exceeds "
             f"max_resident=32 after end_round")
    if grown > RSS_BUDGET_MIB:
        fail(f"scale: 1M-client round grew peak RSS by {grown:.1f} MiB "
             f"(budget {RSS_BUDGET_MIB} MiB) — realization is not O(active)")
    population.close()
    print(f"OK: 1M-client population ran a 20-participant round, "
          f"peak RSS +{grown:.1f} MiB (budget {RSS_BUDGET_MIB})")


def run_churned(dataset, factory, backend, aggregation="sync"):
    session, population = build_session(
        dataset, factory, num_clients=100, availability=CHURN,
        aggregation=aggregation, backend=backend)
    with session, warnings.catch_warnings():
        # A serial fallback would make the backend comparison vacuous.
        warnings.simplefilter("error", RuntimeWarning)
        session.run()
    state = {name: np.asarray(value).copy()
             for name, value in session.global_state.items()}
    records = [record.to_json() for record in session.round_records]
    population.close()
    return state, records


def check_churn_determinism(dataset, factory):
    serial_state, serial_records = run_churned(dataset, factory, "serial")
    process_state, process_records = run_churned(dataset, factory, "process")
    for name in serial_state:
        if not np.array_equal(serial_state[name], process_state[name]):
            fail(f"churn determinism: global state '{name}' differs "
                 f"between serial and process backends")
    if json.dumps(serial_records, sort_keys=True) != \
            json.dumps(process_records, sort_keys=True):
        fail("churn determinism: round records differ between backends")
    if not any(record["metrics"].get("dropouts") for record in serial_records):
        fail("churn determinism: no round recorded a dropout under "
             f"dropout={CHURN.dropout} (availability model inactive?)")
    print(f"OK: churned 3-round run bitwise identical serial==process "
          f"(participants {[r['participant_ids'] for r in serial_records]})")
    return serial_state, serial_records


def check_async_sanity(dataset, factory, sync_state, sync_records):
    buffered_state, buffered_records = run_churned(
        dataset, factory, "serial", aggregation="buffered")
    if all(np.array_equal(buffered_state[name], sync_state[name])
           for name in buffered_state):
        fail("async sanity: buffered aggregation is bitwise identical to "
             "sync under a speed spread — staleness weighting inactive?")
    for name, value in buffered_state.items():
        if not np.isfinite(value).all():
            fail(f"async sanity: non-finite values in '{name}'")
    sync_loss = sync_records[-1]["mean_loss"]
    buffered_loss = buffered_records[-1]["mean_loss"]
    if not (np.isfinite(buffered_loss) and
            0.2 * sync_loss <= buffered_loss <= 5.0 * sync_loss):
        fail(f"async sanity: buffered final loss {buffered_loss:.4f} out of "
             f"regime vs sync {sync_loss:.4f}")
    print(f"OK: buffered aggregation diverges but stays sane "
          f"(final loss {buffered_loss:.4f} vs sync {sync_loss:.4f})")


def check_observability():
    grid = ["--exp", "fig3", "--panel", "0", "--methods", "fedavg",
            "--rounds", "2", "--clients", "8", "--samples", "20",
            "--availability", "0.8", "--dropout", "0.4",
            "--speed-spread", "0.5", "--aggregation", "staleness"]
    with tempfile.TemporaryDirectory(prefix="population-smoke-") as tmp:
        store = Path(tmp) / "store"
        counts = summary_counts(run_cli(
            "sweep", "--quiet", "--runs-dir", str(store), *grid))
        if counts[0] != 1:
            fail(f"observability sweep: expected executed=1, got {counts}")
        sidecars = sorted((store / "telemetry").glob("*.jsonl"))
        if len(sidecars) != 1:
            fail(f"expected 1 telemetry sidecar, found "
                 f"{[path.name for path in sidecars]}")
        from repro.telemetry import parse_sidecar
        counters = parse_sidecar(sidecars[0].read_text()).counters
        # population.realized/evicted never fire here: the CLI sweep
        # builds a realized federation, not a VirtualPopulation (those
        # counters are asserted by tests/fl/test_population_session.py).
        for name in ("round.dropouts", "aggregate.staleness"):
            if name not in counters:
                fail(f"sidecar missing counter {name!r} "
                     f"(have {sorted(counters)})")
        if counters["round.dropouts"] < 1:
            fail(f"expected at least one dropout under dropout=0.4, "
                 f"counters: {counters}")
        timings = run_cli("report", "--timings", "--runs-dir", str(store),
                          *grid)
        if "(churn)" not in timings:
            fail(f"report --timings did not mark the churned cell:\n"
                 f"{timings}")
    print(f"OK: sidecar counters present "
          f"(dropouts={counters['round.dropouts']:g}, "
          f"staleness={counters['aggregate.staleness']:g}); "
          f"timings marked (churn)")


def main() -> int:
    dataset = SyntheticImageDataset(num_classes=4, train_per_class=80,
                                    test_per_class=10, seed=3)
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                   seed=7)
    check_scale(dataset, factory)
    sync_state, sync_records = check_churn_determinism(dataset, factory)
    check_async_sanity(dataset, factory, sync_state, sync_records)
    check_observability()
    return 0


if __name__ == "__main__":
    sys.exit(main())
