"""Print one digest line per engine run over a fixed fuzz of instances.

The fuzz draws tie-heavy integer grids (``synth_uniform_grid``) and N(0,1)
points with integer weights 1-3, exp-transformed for KL and Itakura-Saito,
for all four divergence kinds at offsets 0, 1e4 and 1e5, with both inits
and all five variants, over ``SEEDS`` instance seeds. Each run is capped
at ``MAX_ITERATIONS``, so the runs that spin to their cap far from the
origin stay short. Its line holds the case and a digest of the labels,
centers, loss trajectory, iteration, invocation and repair counts,
termination and both certificates. No run or certificate of the fuzz
raises; one that does stops the script with its traceback and a non-zero
exit status.

Two checkouts give bit-identical results on the fuzz exactly when their
outputs are equal:

    python3 tools/bitcheck.py > before.txt   # in one checkout
    python3 tools/bitcheck.py > after.txt    # in the other
    diff before.txt after.txt

The script imports ``lokmeans`` from the ``src`` directory beside it.
``--cases`` runs only the first cases of the order, in which the variant
varies fastest, then the kind, so the first 20 cover every kind and
variant.
"""

import argparse
import hashlib
import itertools
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lokmeans import Dataset, DivergenceSpec, EngineConfig, run  # noqa: E402
from lokmeans.data_io import synth_uniform_grid  # noqa: E402
from lokmeans.divergence import ITAKURA_SAITO, KINDS, KL, SQUARED_MAHALANOBIS  # noqa: E402
from lokmeans.engine import INITS, VARIANTS  # noqa: E402
from lokmeans.verify import certify_c_local, certify_d_local  # noqa: E402

SEEDS = 8
SOURCES = ("grid", "normal")
OFFSETS = (0.0, 1e4, 1e5)
MAX_ITERATIONS = 200


def cases():
    """(seed, source, offset, init, kind, variant), the variant fastest."""
    return itertools.product(range(SEEDS), SOURCES, OFFSETS, INITS, KINDS, VARIANTS)


def instance(seed: int, source: str, offset: float, kind: str):
    """The dataset, divergence and k of one case: every variant and init of
    a (seed, source, offset, kind) runs on the same instance."""
    rng = np.random.default_rng([seed, SOURCES.index(source), KINDS.index(kind)])
    n = int(rng.integers(20, 80))
    d = int(rng.integers(1, 3))
    if source == "grid":
        dataset = synth_uniform_grid(n, d, seed)
        points, weights = dataset.points, dataset.weights
    else:
        points = rng.normal(size=(n, d))
        weights = rng.integers(1, 4, size=n).astype(np.float64)
        if kind in (KL, ITAKURA_SAITO):
            points = np.exp(points)
    k = int(rng.integers(2, min(6, points.shape[0]) + 1))
    if kind == SQUARED_MAHALANOBIS:
        basis = rng.normal(size=(d, d))
        spec = DivergenceSpec.squared_mahalanobis(basis @ basis.T + d * np.eye(d))
    else:
        spec = DivergenceSpec(kind)
    return Dataset(points + offset, weights), spec, k


def digest(dataset: Dataset, spec: DivergenceSpec, config: EngineConfig) -> tuple[str, str]:
    """A short outcome and the digest of everything the run and its certificates report."""
    sha = hashlib.sha256()
    report = run(dataset, config)
    for array in (report.final_labels, report.final_centers, report.loss_trajectory):
        sha.update(np.ascontiguousarray(array).tobytes())
    counts = (report.iterations, report.new_step_invocations, report.empty_cluster_repairs)
    sha.update(repr((counts, report.termination)).encode())
    for certificate in (
        certify_d_local(dataset, report.final_labels, config.k, spec),
        certify_c_local(
            dataset, report.final_labels, report.final_centers, spec, config.tie_tolerance
        ),
    ):
        sha.update(repr(asdict(certificate)).encode())
    outcome = f"{report.termination} it={report.iterations} moves={report.new_step_invocations}"
    return outcome, sha.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=None, help="run only the first cases")
    args = parser.parse_args(argv)
    for seed, source, offset, init, kind, variant in itertools.islice(cases(), args.cases):
        dataset, spec, k = instance(seed, source, offset, kind)
        config = EngineConfig(
            k=k, divergence=spec, variant=variant, init=init, seed=seed,
            max_iterations=MAX_ITERATIONS,
        )
        outcome, sha = digest(dataset, spec, config)
        case = (seed, source, f"{offset:g}", init, kind, variant, f"n={dataset.n}", f"k={k}")
        print(*case, outcome, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
