"""Embedding figures — Figs. 1, 2, 5, 6, 7, 8 — as store-backed sweeps.

Each figure in the paper is a 2-D t-SNE of encoder representations of
local samples, colored by true class:

* Fig. 1: pFL-SimCLR / pFL-BYOL across 10 of 100 clients — fuzzy clusters;
* Fig. 2: the same methods *within* single clients (client-14 / client-56);
* Fig. 5: pFL-SimSiam / pFL-MoCoV2 vs their Calibre versions;
* Fig. 6: Calibre (SimCLR) vs Calibre (BYOL), plus per-client views;
* Fig. 7/8: FedAvg / FedRep / FedPer / FedBABU / LG-FedAvg / Calibre
  (SimCLR) on CIFAR-10 (D-non-iid) and STL-10 (Q-non-iid).

Because "clear vs. fuzzy boundaries" is visual in the paper, we
additionally report the silhouette score of the embedding under true class
labels, turning every figure into a measurable claim: calibrated methods
must score higher than their uncalibrated counterparts.

Sweep entry points
------------------
Every figure is one :class:`~repro.runs.SweepSpec` grid (one cell per
method x seed, with the t-SNE/sampling knobs carried as fingerprinted
``extras``), executed through :func:`~repro.runs.run_sweep` with
:func:`execute_embedding_cell` as the cell executor:

* :func:`embeddings_sweep` — declare a figure's grid;
* :func:`execute_embedding_cell` — train one cell, embed, and return a
  store record carrying both the training result and the embedding;
* :func:`figure_results_from_records` / :func:`embedding_from_record` —
  the records view: one :class:`EmbeddingResult` per method, from a
  sweep's records alone (no retraining);
* :func:`render_figure_svg` — the results-to-SVG assembly behind
  ``repro figures``.

``run_sweep`` without a store runs the same cells in memory, which is
what quick scripts (``examples/tsne_embeddings.py``) use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.harness import NonIIDSetting
from ..fl.session import SessionCallback, TrainingSession
from ..manifold import silhouette_score, tsne_embed
from ..runs import ARRAYS_KEY, RunKey, RunStore, SweepSpec, execute_cell
from ..viz.svg import ScatterPanel, render_panels
from .settings import scaled_sweep

__all__ = [
    "EmbeddingResult",
    "EmbedParams",
    "FIGURE_METHOD_SETS",
    "FIGURE_WORKLOADS",
    "EMBEDDING_FIGURES",
    "embeddings_sweep",
    "execute_embedding_cell",
    "figure_results_from_records",
    "embedding_from_record",
    "render_figure_svg",
]

FIGURE_METHOD_SETS: Dict[str, List[str]] = {
    "fig1": ["pfl-simclr", "pfl-byol"],
    "fig2": ["pfl-simclr", "pfl-byol"],  # fig1's methods, per-client views
    "fig5": ["pfl-simsiam", "pfl-mocov2", "calibre-simsiam", "calibre-mocov2"],
    "fig6": ["calibre-simclr", "calibre-byol"],
    "fig7": ["fedavg", "fedrep", "fedper", "fedbabu", "lg-fedavg", "calibre-simclr"],
    "fig8": ["fedavg", "fedrep", "fedper", "fedbabu", "lg-fedavg", "calibre-simclr"],
}

# Workload of each figure: (dataset, scaled non-IID setting).
FIGURE_WORKLOADS: Dict[str, Tuple[str, NonIIDSetting]] = {
    "fig1": ("cifar10", NonIIDSetting("dirichlet", 0.3, 50)),
    "fig2": ("cifar10", NonIIDSetting("dirichlet", 0.3, 50)),
    "fig5": ("cifar10", NonIIDSetting("dirichlet", 0.3, 50)),
    "fig6": ("cifar10", NonIIDSetting("dirichlet", 0.3, 50)),
    "fig7": ("cifar10", NonIIDSetting("dirichlet", 0.3, 50)),
    "fig8": ("stl10", NonIIDSetting("quantity", 2, 30)),
}

EMBEDDING_FIGURES: Tuple[str, ...] = tuple(sorted(FIGURE_WORKLOADS))
"""The figures this module can sweep and render (fig2 shares fig1's cells)."""

_FIGURE_TITLES = {
    "fig1": "Fig. 1 — pFL-SSL embeddings (fuzzy class boundaries)",
    "fig2": "Fig. 2 — pFL-SSL embeddings within single clients",
    "fig5": "Fig. 5 — Calibre vs uncalibrated SSL embeddings",
    "fig6": "Fig. 6 — Calibre (SimCLR/BYOL) embeddings + per-client views",
    "fig7": "Fig. 7 — method embeddings on CIFAR-10 (D-non-iid)",
    "fig8": "Fig. 8 — method embeddings on STL-10 (Q-non-iid)",
}

# Figures whose paper panels zoom into single clients.
_PER_CLIENT_FIGURES = ("fig2", "fig6")


@dataclass(frozen=True)
class EmbedParams:
    """The embedding stage's knobs — everything past training that
    determines a figure cell's record, carried (JSON-typed) in the cell
    fingerprint via ``RunKey.extras``.

    ``tsne_iterations``/``tsne_perplexity`` configure the exact t-SNE of
    :mod:`repro.manifold.tsne`; the t-SNE seed is the cell's seed, so the
    embedding is bit-reproducible for a fixed cell.
    """

    num_embed_clients: int = 6
    samples_per_client: int = 15
    tsne_iterations: int = 250
    tsne_perplexity: float = 15.0

    def __post_init__(self):
        # Rejected here, when the grid is declared, not after a cell has
        # trained and handed t-SNE an empty or degenerate input.
        for name in ("num_embed_clients", "samples_per_client",
                     "tsne_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.tsne_perplexity > 0:
            raise ValueError(
                f"tsne_perplexity must be > 0, got {self.tsne_perplexity}")

    def to_jsonable(self) -> Dict:
        return {
            "num_embed_clients": int(self.num_embed_clients),
            "samples_per_client": int(self.samples_per_client),
            "tsne_iterations": int(self.tsne_iterations),
            "tsne_perplexity": float(self.tsne_perplexity),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict) -> "EmbedParams":
        return cls(
            num_embed_clients=int(payload["num_embed_clients"]),
            samples_per_client=int(payload["samples_per_client"]),
            tsne_iterations=int(payload["tsne_iterations"]),
            tsne_perplexity=float(payload["tsne_perplexity"]),
        )


# Figures 7/8 embed fewer samples with a shorter t-SNE (six methods/panel).
_FIGURE_EMBED_DEFAULTS = {
    "fig7": EmbedParams(samples_per_client=12, tsne_iterations=200),
    "fig8": EmbedParams(samples_per_client=12, tsne_iterations=200),
}


@dataclass
class EmbeddingResult:
    """A 2-D embedding of one method's representations.

    ``silhouette`` scores the 2-D t-SNE embedding; ``feature_silhouette``
    scores the raw encoder features — the more faithful quantitative
    counterpart of the paper's "clear vs. fuzzy boundary" claims.
    """

    method: str
    embedding: np.ndarray  # (n, 2)
    labels: np.ndarray  # true classes
    client_ids: np.ndarray  # source client of each point
    silhouette: float
    feature_silhouette: float = 0.0
    per_client_silhouette: Dict[int, float] = field(default_factory=dict)

    def to_csv(self) -> str:
        rows = ["x,y,label,client"]
        for (x, y), label, client in zip(self.embedding, self.labels, self.client_ids):
            rows.append(f"{x:.5f},{y:.5f},{int(label)},{int(client)}")
        return "\n".join(rows)


# ----------------------------------------------------------------------
# Embedding core
# ----------------------------------------------------------------------
def _embed_trained_method(
    method_name: str,
    algorithm,
    global_state,
    clients: Sequence,
    embed: EmbedParams,
    tsne_seed: int,
) -> EmbeddingResult:
    """Embed a trained method's representations of several clients' samples.

    Deterministic given the trained state: feature extraction is pure and
    the t-SNE seed is explicit.
    """
    chosen = clients[: embed.num_embed_clients]
    counts = [min(embed.samples_per_client, len(client.train)) for client in chosen]
    features = np.concatenate(algorithm.extract_features(
        chosen, global_state,
        [client.train.images[:count] for client, count in zip(chosen, counts)]))
    labels = np.concatenate([client.train.labels[:count]
                             for client, count in zip(chosen, counts)])
    client_ids = np.concatenate([np.full(count, client.client_id)
                                 for client, count in zip(chosen, counts)])

    embedding = tsne_embed(features, perplexity=embed.tsne_perplexity,
                           n_iterations=embed.tsne_iterations, seed=tsne_seed)
    has_classes = np.unique(labels).size >= 2
    overall = silhouette_score(embedding, labels) if has_classes else 0.0
    feature_sil = silhouette_score(features, labels) if has_classes else 0.0
    per_client: Dict[int, float] = {}
    for client in chosen:
        mask = client_ids == client.client_id
        if np.unique(labels[mask]).size >= 2 and mask.sum() >= 5:
            per_client[client.client_id] = silhouette_score(
                embedding[mask], labels[mask]
            )
    return EmbeddingResult(
        method=method_name, embedding=embedding, labels=labels,
        client_ids=client_ids, silhouette=overall,
        feature_silhouette=feature_sil,
        per_client_silhouette=per_client,
    )


# ----------------------------------------------------------------------
# Store-backed sweeps
# ----------------------------------------------------------------------
def _check_figure(figure: str) -> str:
    if figure not in FIGURE_WORKLOADS:
        raise KeyError(f"unknown embedding figure '{figure}'; "
                       f"available: {list(EMBEDDING_FIGURES)}")
    return figure


def embeddings_sweep(
    figure: str,
    methods: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    config=None,
    embed: Optional[EmbedParams] = None,
    embed_clients: Optional[int] = None,
    embed_samples: Optional[int] = None,
    tsne_iterations: Optional[int] = None,
    dataset_kwargs: Optional[Dict] = None,
    method_overrides: Optional[Dict[str, Dict]] = None,
    samples_per_client: Optional[int] = None,
    **spec_overrides,
) -> SweepSpec:
    """Declare one embedding figure's grid: one cell per method (x seed).

    The t-SNE/sampling knobs travel as ``extras`` on every cell, so they
    are part of each cell's content hash — two figures differing only in
    ``tsne_iterations`` never share records.  Fig. 2 declares exactly
    Fig. 1's cells (same methods, workload, and extras), so sweeping
    either figure fills the store for both; only the rendering differs.

    ``samples_per_client`` scales the figure's non-i.i.d. setting down
    (smoke/budget grids); like every result-changing knob it changes the
    cell fingerprints.  ``embed_clients``/``embed_samples``/
    ``tsne_iterations`` override single fields of the figure's default
    :class:`EmbedParams` (the CLI flags) without replacing the whole
    ``embed`` object.
    """
    figure = _check_figure(figure)
    dataset, setting = FIGURE_WORKLOADS[figure]
    if samples_per_client is not None:
        setting = replace(setting, samples_per_client=samples_per_client)
    if embed is None:
        embed = _FIGURE_EMBED_DEFAULTS.get(figure, EmbedParams())
    embed_overrides = {
        name: value for name, value in (
            ("num_embed_clients", embed_clients),
            ("samples_per_client", embed_samples),
            ("tsne_iterations", tsne_iterations),
        ) if value is not None
    }
    if embed_overrides:
        embed = replace(embed, **embed_overrides)
    return scaled_sweep(
        figure, dataset, setting,
        methods if methods is not None else FIGURE_METHOD_SETS[figure],
        seeds=seeds, config=config, dataset_kwargs=dataset_kwargs,
        method_overrides=method_overrides,
        extras={"embed": embed.to_jsonable()}, **spec_overrides)


def embed_params_of(key: RunKey) -> EmbedParams:
    """The :class:`EmbedParams` carried by an embedding cell's extras."""
    payload = key.extras.get("embed")
    if payload is None:
        raise KeyError(
            f"cell {key.fingerprint} carries no 'embed' extras — it is a "
            "plain training cell, not an embedding-figure cell")
    return EmbedParams.from_jsonable(payload)


class _EmbedOnFinalRound(SessionCallback):
    """Capture the embedding on the final round's ``round_end`` event —
    after the last training round commits, before personalization runs
    (the paper's figures show pre-personalization representations)."""

    def __init__(self, extract):
        self.extract = extract

    def on_round_end(self, session, event) -> None:
        if session.round_index >= session.config.rounds:
            self.extract(session)


def execute_embedding_cell(key: RunKey, client_backend: Optional[str] = None,
                           client_batch: Optional[int] = None,
                           verbose: bool = False,
                           checkpoint_dir=None,
                           checkpoint_every: int = 1) -> Dict:
    """Run one embedding cell end-to-end and return its store record.

    Delegates the training run — federation setup, checkpoint/resume
    semantics, ``result``/``report`` record fields — entirely to
    :func:`~repro.runs.execute_cell`, hooking the cell's session to embed
    the trained encoder's representations *between* training and
    personalization.  The silhouette scores and the names of the t-SNE
    point, label and client-id columns go under the record's ``embedding``
    key; the columns themselves under :data:`~repro.runs.ARRAYS_KEY`,
    which the store writes to the cell's ``.npcol`` sidecar.
    """
    embed = embed_params_of(key)
    captured: Dict[str, EmbeddingResult] = {}

    def extract(session: TrainingSession) -> None:
        captured["embedding"] = _embed_trained_method(
            key.method, session.algorithm, session.global_state,
            session.clients, embed, tsne_seed=key.seed)

    def session_hook(method_name: str, session: TrainingSession) -> None:
        if session.round_index >= session.config.rounds:
            # Resumed from a checkpoint taken after the final round:
            # training will not step again, so embed right away.
            extract(session)
        else:
            session.add_callback(_EmbedOnFinalRound(extract))

    record = execute_cell(key, client_backend=client_backend,
                          client_batch=client_batch, verbose=verbose,
                          checkpoint_dir=checkpoint_dir,
                          checkpoint_every=checkpoint_every,
                          session_hook=session_hook)
    embedding = captured["embedding"]
    record["embedding"] = _embedding_payload(embedding, embed)
    record[ARRAYS_KEY] = _embedding_columns(embedding)
    if verbose:
        print(f"  {key.method:20s} tsne_sil={embedding.silhouette:.4f} "
              f"feat_sil={embedding.feature_silhouette:.4f}")
    return record


_EMBEDDING_COLUMNS = ("embedding.points", "embedding.labels",
                      "embedding.client_ids")


def _embedding_columns(result: EmbeddingResult) -> Dict[str, np.ndarray]:
    """The embedding's bulk arrays, as binary sidecar columns."""
    points, labels, client_ids = _EMBEDDING_COLUMNS
    return {
        points: np.asarray(result.embedding, dtype=np.float64),
        labels: np.asarray(result.labels, dtype=np.int64),
        client_ids: np.asarray(result.client_ids, dtype=np.int64),
    }


def _embedding_payload(result: EmbeddingResult, embed: EmbedParams) -> Dict:
    """The record's ``embedding`` field: scalars inline, arrays by name.

    The point cloud itself lives in the cell's ``.npcol`` sidecar (see
    :data:`~repro.runs.ARRAYS_KEY`); the record carries only the column
    names, so cell fingerprints and record bytes are independent of the
    binary container format.
    """
    return {
        "params": embed.to_jsonable(),
        "arrays": list(_EMBEDDING_COLUMNS),
        "silhouette": float(result.silhouette),
        "feature_silhouette": float(result.feature_silhouette),
        "per_client_silhouette": {str(cid): float(value) for cid, value
                                  in sorted(result.per_client_silhouette.items())},
    }


def embedding_from_record(record: Dict,
                          arrays: Optional[Dict[str, np.ndarray]] = None
                          ) -> EmbeddingResult:
    """Rebuild an :class:`EmbeddingResult` from a stored cell record.

    The inverse of the serialization in :func:`execute_embedding_cell`.
    Current records name their bulk columns under ``embedding.arrays``
    and carry the values in a ``.npcol`` sidecar — pass those columns as
    ``arrays`` (or leave them attached in-memory under
    :data:`~repro.runs.ARRAYS_KEY` for ephemeral runs).  Legacy records
    with inline ``points``/``labels``/``client_ids`` JSON lists decode
    unchanged.  Both paths rebuild bitwise-identical results — floats
    round-trip exactly through JSON *and* through the binary container —
    so a result rebuilt from either format renders byte-identical SVGs.
    """
    payload = record.get("embedding")
    if payload is None:
        raise KeyError(
            f"record {record.get('fingerprint')} carries no embedding — "
            "it was produced by a plain training sweep, not a figure sweep")
    if "points" in payload:  # legacy inline-JSON embedding
        points = payload["points"]
        labels = payload["labels"]
        client_ids = payload["client_ids"]
    else:
        if arrays is None:
            arrays = record.get(ARRAYS_KEY)
        if arrays is None:
            raise KeyError(
                f"record {record.get('fingerprint')} stores its embedding "
                "columns in an array sidecar, but none was provided — read "
                "it via RunStore.read_arrays or pass store= to "
                "figure_results_from_records")
        names = payload["arrays"]
        points, labels, client_ids = (arrays[name] for name in names)
    return EmbeddingResult(
        method=record["key"]["method"],
        embedding=np.asarray(points, dtype=np.float64),
        labels=np.asarray(labels, dtype=int),
        client_ids=np.asarray(client_ids, dtype=int),
        silhouette=float(payload["silhouette"]),
        feature_silhouette=float(payload["feature_silhouette"]),
        per_client_silhouette={int(cid): float(value) for cid, value
                               in payload["per_client_silhouette"].items()},
    )


def figure_results_from_records(
    cells: Sequence[RunKey],
    records: Sequence[Optional[Dict]],
    methods: Optional[Sequence[str]] = None,
    seed: int = 0,
    store=None,
) -> List[EmbeddingResult]:
    """One :class:`EmbeddingResult` per method, from stored records alone.

    ``cells``/``records`` are a figure sweep's canonical grid (as
    returned by :func:`~repro.runs.run_sweep` or
    :meth:`~repro.runs.RunStore.load_records`); ``methods`` defaults to
    every method present, in grid order.  ``store`` (a path or
    :class:`~repro.runs.RunStore`) supplies the ``.npcol`` array sidecars
    of columnar records; legacy inline records and ephemeral records with
    in-memory columns need none.  Raises if any requested method's cell
    is missing for ``seed``.
    """
    if store is not None and not isinstance(store, RunStore):
        store = RunStore(store)
    by_method: Dict[str, Tuple[RunKey, Dict]] = {}
    order: List[str] = []
    for key, record in zip(cells, records):
        if key.seed != seed or record is None:
            continue
        if key.method not in by_method:
            order.append(key.method)
        by_method[key.method] = (key, record)
    wanted = list(methods) if methods is not None else order
    missing = [name for name in wanted if name not in by_method]
    if missing:
        raise KeyError(f"no stored records for methods {missing} at seed {seed}; "
                       "run the figure sweep first (repro sweep)")
    results = []
    for name in wanted:
        key, record = by_method[name]
        arrays = None
        if (store is not None and ARRAYS_KEY not in record
                and "points" not in record.get("embedding", {})
                and store.has_arrays(key)):
            arrays = store.read_arrays(key)
        results.append(embedding_from_record(record, arrays=arrays))
    return results


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _per_client_panels(result: EmbeddingResult, max_clients: int = 2
                       ) -> List[ScatterPanel]:
    """Single-client zoom panels (Figs. 2/6), best-silhouette clients first."""
    ranked = sorted(result.per_client_silhouette.items(),
                    key=lambda item: (-item[1], item[0]))
    panels = []
    for client_id, sil in ranked[:max_clients]:
        mask = result.client_ids == client_id
        panels.append(ScatterPanel(
            points=result.embedding[mask],
            labels=result.labels[mask],
            title=f"{result.method} · client {client_id}",
            subtitle=f"silhouette {sil:+.3f}",
        ))
    return panels


def render_figure_svg(figure: str, results: Sequence[EmbeddingResult],
                      title: Optional[str] = None) -> str:
    """Render one embedding figure from its per-method results.

    One panel per method (t-SNE points colored+shaped by true class,
    silhouette scores in the subtitle); Figs. 2 and 6 additionally get
    per-client zoom panels.  Purely a function of ``results`` — feeding
    it records reloaded from the store reproduces the bytes of the
    original render.
    """
    figure = _check_figure(figure)
    results = list(results)
    if not results:
        raise ValueError("no embedding results to render")
    panels = []
    if figure != "fig2":  # fig2 is the paper's single-client view only
        panels.extend(ScatterPanel(
            points=result.embedding,
            labels=result.labels,
            title=result.method,
            subtitle=(f"silhouette {result.silhouette:+.3f} · "
                      f"features {result.feature_silhouette:+.3f}"),
        ) for result in results)
    if figure in _PER_CLIENT_FIGURES:
        for result in results:
            panels.extend(_per_client_panels(result))
    if not panels:
        raise ValueError(
            f"{figure} renders per-client panels, but no cell recorded a "
            "per-client silhouette (too few samples or classes per client)")
    columns = 2 if len(panels) <= 4 else 3
    return render_panels(panels, columns=columns,
                         title=title if title is not None else _FIGURE_TITLES[figure])
