"""``repro.cluster`` — KMeans substrate for prototype generation."""

from .kmeans import KMeansResult, kmeans, kmeans_plus_plus_init

__all__ = ["KMeansResult", "kmeans", "kmeans_plus_plus_init"]
