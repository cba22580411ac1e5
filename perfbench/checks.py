"""Per-op output checks and the failure tally.

``check_op`` returns the problems found in one op's results as
``(kind, detail)`` pairs, empty when every check passes. ``Tally``
counts an op as failed when a call in it raised or any check found a
problem. Nothing is dropped: both kinds go into ``failed`` and
``failed_share``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from lokmeans import verify

LOSS_RTOL = 1e-9
ESCAPE_VARIANTS = ("c-lo", "d-lo", "min-d-lo")
# Certificate each variant must earn where the op certifies its results.
REQUIRED_CERTIFICATE = {
    "d-lo": ("d_local", verify.D_LOCAL),
    "min-d-lo": ("d_local", verify.D_LOCAL),
    "pnx": ("d_local", verify.D_LOCAL),
    "c-lo": ("c_local", verify.C_LOCAL),
}


def check_result(res) -> list[tuple[str, str]]:
    """Checks that need only one run's own outputs."""
    where = f"{res.instance}/{res.spec.kind}/{res.variant}"
    problems = []
    if res.termination != "converged":
        problems.append(("not-converged", f"{where}: {res.termination}"))
    steps = np.diff(res.trajectory)
    if not (steps < 0.0).all():
        at = int(np.argmax(steps >= 0.0))
        problems.append(
            ("trajectory-not-strict", f"{where}: {res.trajectory[at:at + 2].tolist()} at step {at}")
        )
    recomputed = verify.loss_at_optimal_centers(res.dataset, res.labels, res.k, res.spec)
    if abs(res.final_loss - recomputed) > LOSS_RTOL * abs(recomputed):
        problems.append(("loss-mismatch", f"{where}: {res.final_loss!r} != {recomputed!r}"))
    if res.optimum is not None and res.final_loss < res.optimum - LOSS_RTOL * abs(res.optimum):
        problems.append(("below-optimum", f"{where}: {res.final_loss!r} < {res.optimum!r}"))
    name, kind = REQUIRED_CERTIFICATE.get(res.variant, (None, None))
    if name in res.certificates and res.certificates[name].kind != kind:
        cert = res.certificates[name]
        problems.append(
            ("certificate", f"{where}: {cert.kind} (worst delta {cert.worst_delta!r}), expected {kind}")
        )
    return problems


def check_op(results) -> list[tuple[str, str]]:
    """Every check of one op: per run, then escape variants against ``none``."""
    problems = []
    for res in results:
        problems += check_result(res)
    baseline = _none_losses(results)
    for res in results:
        none_loss = baseline.get((res.instance, res.spec.kind))
        if res.variant in ESCAPE_VARIANTS and none_loss is not None and res.final_loss > none_loss:
            problems.append(
                (
                    "above-none",
                    f"{res.instance}/{res.spec.kind}/{res.variant}:"
                    f" {res.final_loss!r} > none's {none_loss!r}",
                )
            )
    return problems


def _none_losses(results) -> dict:
    return {(r.instance, r.spec.kind): r.final_loss for r in results if r.variant == "none"}


def loss_ratios(results) -> list[float]:
    """final_loss(variant) / final_loss(none) for each escape-variant run."""
    baseline = _none_losses(results)
    ratios = []
    for res in results:
        none_loss = baseline.get((res.instance, res.spec.kind))
        # A zero baseline (k equal to the distinct points) has no ratio.
        if res.variant in ESCAPE_VARIANTS and none_loss:
            ratios.append(res.final_loss / none_loss)
    return ratios


class Tally:
    """Attempted and failed ops, with the problems that failed them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.examples: dict[str, str] = {}

    def record(self, problems: list[tuple[str, str]]) -> bool:
        """Count one op; returns whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
        for kind, detail in problems:
            self.kinds[kind] += 1
            self.examples.setdefault(kind, detail)
        return bool(problems)

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
