"""Representation quality: regenerate the paper's t-SNE figures (Figs. 1/5/6).

Trains an uncalibrated pFL-SimCLR encoder and a Calibre (SimCLR) encoder on
the same federation, embeds six clients' local features with t-SNE, renders
ASCII scatters (class id = glyph), and prints silhouette scores — the
quantitative version of the paper's "fuzzy vs. clear cluster boundaries".

Usage:  python examples/tsne_embeddings.py
"""

from repro.experiments import run_figure
from repro.viz import ascii_scatter


def main():
    # Fig. 1's workload (CIFAR-10, Dirichlet 0.3), in memory: no run store.
    results = run_figure(
        "fig1",
        methods=["pfl-simclr", "calibre-simclr"],
        embed_clients=6,
        embed_samples=15,
        tsne_iterations=300,
        seed=0,
        verbose=True,
    )
    for result in results:
        print()
        print(ascii_scatter(
            result.embedding, result.labels, width=64, height=20,
            title=(f"{result.method}: t-SNE of client representations "
                   f"(feature silhouette {result.feature_silhouette:.4f})"),
        ))
    print("\nInterpretation: higher silhouette = clearer class clusters.")
    uncalibrated, calibrated = results
    gain = calibrated.feature_silhouette - uncalibrated.feature_silhouette
    print(f"Calibre improves feature-space silhouette by {gain:+.4f} "
          f"({uncalibrated.feature_silhouette:.4f} -> "
          f"{calibrated.feature_silhouette:.4f}).")


if __name__ == "__main__":
    main()
