"""Weighted K-means over Bregman divergences with local-optimality guarantees.

The top level holds what a run and its certificates need. Everything else
lives in its submodule: ``divergence`` (the four divergences), ``model``
(datasets and cluster statistics), ``engine`` (seeding and the outer
loop), ``localopt`` (move costs and escape steps), ``verify``
(certificates and brute force), ``data_io`` (CSV loading, merging,
synthetic data) and ``experiments`` (replicated benchmarks and sweeps).
"""

from .divergence import DivergenceSpec
from .model import Dataset
from .engine import EngineConfig, RunReport, run
from .verify import Certificate, brute_force_best, certify_c_local, certify_d_local

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Dataset",
    "DivergenceSpec",
    "EngineConfig",
    "RunReport",
    "brute_force_best",
    "certify_c_local",
    "certify_d_local",
    "run",
]
