"""Release gate: every stated criterion at its stated tolerance.

Each criterion prints one ``[PASS]``/``[FAIL]`` line straight to the
terminal (bypassing capture) so the verdict survives in any log. Criteria
5, 8, and 9 audit the runs collected by criteria 1 and 3, so this module
relies on pytest's default file-order execution.

The dominance criterion (number 6) names d=1, N=50, K=15, but 50 draws
from the ten-value 1-D integer grid yield at most ten distinct points, so
fifteen distinct starting centers cannot exist. The test keeps N, K, the
replicates and the seeds, and runs them at d=2, the smallest dimension at
which that shape exists; the companion test right after it checks the
dominance property on the 1-D grid at k=6.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from conftest import ALL_KINDS, random_instance, spec_for
from lokmeans import DivergenceSpec, EngineConfig, brute_force_best, certify_d_local, run
from lokmeans.data_io import dedup_merge, load_csv, synth_uniform_grid
from lokmeans.engine import init_centers
from lokmeans.experiments import run_bench, run_counterexample
from lokmeans.localopt import delta_move
from lokmeans.model import cluster_stats
from lokmeans.verify import loss_at_optimal_centers

SQE = DivergenceSpec.squared_euclidean()
ESCAPE_VARIANTS = ("c-lo", "d-lo", "min-d-lo")


@dataclass
class _Collected:
    # (label, loss trajectory, termination reason) for criterion 5
    trajectories: list = field(default_factory=list)
    # (dataset, k, spec, seed, {variant: report}) for criteria 8 and 9
    instances: list = field(default_factory=list)


COLLECTED = _Collected()


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_counterexample_reproduction(capsys):
    start = time.perf_counter()
    payload = run_counterexample()
    elapsed = time.perf_counter() - start

    problems = []
    none = payload["variants"]["none"]
    if none["iterations"] > 3:
        problems.append(f"baseline took {none['iterations']} iterations (> 3)")
    if abs(none["final_loss"] - 8.5) > 1e-9:
        problems.append(f"baseline loss {none['final_loss']!r} != 8.5")
    if not np.allclose(none["final_centers"], [[-2.0], [2.0]], atol=1e-9):
        problems.append(f"baseline centers {none['final_centers'].ravel().tolist()}")
    for sense in ("c_local", "d_local"):
        kind = none["certificates"][sense]["kind"]
        if kind != "not-local":
            problems.append(f"baseline {sense} certificate is {kind}")

    bound = 31.0 / 6.0 + 1e-9
    wanted_cert = {"c-lo": ("c_local", "c-local"), "d-lo": ("d_local", "d-local"),
                   "min-d-lo": ("d_local", "d-local")}
    for variant in ESCAPE_VARIANTS:
        entry = payload["variants"][variant]
        if entry["final_loss"] > bound:
            problems.append(f"{variant} loss {entry['final_loss']!r} > 31/6")
        sense, want = wanted_cert[variant]
        kind = entry["certificates"][sense]["kind"]
        if kind != want:
            problems.append(f"{variant} {sense} certificate is {kind}, wanted {want}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (>= 1s)")

    for variant, entry in payload["variants"].items():
        COLLECTED.trajectories.append(
            (
                f"counterexample/{variant}",
                np.asarray(entry["loss_trajectory"]),
                entry["termination"],
            )
        )
    detail = (
        f"baseline stalls at 8.5 (not-local both senses), c-lo/d-lo/min-d-lo reach "
        f"{31.0 / 6.0:.6f} with matching certificates in {elapsed:.2f}s"
        if not problems
        else "; ".join(problems)
    )
    _verdict(capsys, 1, not problems, detail)


def test_criterion_2_move_cost_oracle(capsys):
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for _ in range(1000):
        dataset, k = random_instance(rng)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=dataset.n - k)])
        rng.shuffle(labels)
        stats = cluster_stats(dataset, labels, k)
        centers = stats.centers()
        point = int(rng.integers(dataset.n))
        src = int(labels[point])
        dst = int((src + 1 + rng.integers(k - 1)) % k)
        for kind in ALL_KINDS:
            spec = spec_for(kind, rng, dataset.dim)
            closed = delta_move(
                dataset, labels, stats, centers, spec, point, src, dst
            ).delta
            base = loss_at_optimal_centers(dataset, labels, k, spec)
            trial = labels.copy()
            trial[point] = dst
            recomputed = loss_at_optimal_centers(dataset, trial, k, spec) - base
            scale = max(1.0, abs(closed), abs(recomputed))
            worst = max(worst, abs(closed - recomputed) / scale)
            checks += 1
    elapsed = time.perf_counter() - start

    ok = worst < 1e-9 and checks == 4000 and elapsed < 30.0
    detail = (
        f"{checks} closed-form deltas vs full recomputation, worst relative error "
        f"{worst:.3e} < 1e-9 in {elapsed:.1f}s"
    )
    _verdict(capsys, 2, ok, detail)


def test_criterion_3_d_local_closure(capsys):
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    failures = []
    for index in range(200):
        dataset, k = random_instance(rng, n_range=(4, 8), k_range=(2, 3), d_range=(1, 2))
        spec = spec_for(ALL_KINDS[index % 4], rng, dataset.dim)
        reports = {}
        for variant in ("d-lo", "min-d-lo", "pnx"):
            report = run(
                dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=index)
            )
            cert = certify_d_local(dataset, report.final_labels, k, spec)
            if cert.kind != "d-local":
                failures.append(
                    f"instance {index} {variant}: {cert.kind}"
                    f" (worst adjacent delta {cert.worst_delta:.3e})"
                )
            reports[variant] = report
            COLLECTED.trajectories.append(
                (f"instance {index}/{variant}", report.loss_trajectory, report.termination)
            )
        COLLECTED.instances.append((dataset, k, spec, index, reports))
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 20.0
    detail = (
        f"600 runs over 200 instances all certified d-local by exhaustive "
        f"enumeration in {elapsed:.1f}s"
        if ok
        else "; ".join(failures[:5]) + (f" (runtime {elapsed:.1f}s)" if elapsed >= 20 else "")
    )
    _verdict(capsys, 3, ok, detail)


def test_criterion_4_incremental_center_equivalence(capsys):
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    worst = 0.0
    moves = 0
    while moves < 1000:
        dataset, k = random_instance(rng)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=dataset.n - k)])
        rng.shuffle(labels)
        stats = cluster_stats(dataset, labels, k)
        for _ in range(4):
            point = int(rng.integers(dataset.n))
            src = int(labels[point])
            dst = int((src + 1 + rng.integers(k - 1)) % k)
            stats.move(dataset, point, src, dst)
            labels[point] = dst
            fresh = cluster_stats(dataset, labels, k)
            for c in range(k):
                if fresh.member_count[c] == 0:
                    continue
                moved = stats.coord_sum[c] / stats.weight_sum[c]
                expected = fresh.coord_sum[c] / fresh.weight_sum[c]
                worst = max(worst, float(np.abs(moved - expected).max()))
            moves += 1
            if moves == 1000:
                break
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-10 and elapsed < 5.0
    detail = (
        f"{moves} chained ClusterStats moves, worst per-coordinate drift "
        f"{worst:.3e} <= 1e-10 in {elapsed:.1f}s"
    )
    _verdict(capsys, 4, ok, detail)


def test_criterion_5_monotone_convergent_trajectories(capsys):
    if not COLLECTED.trajectories:
        pytest.skip("criteria 1 and 3 collected no runs")
    bad = []
    for label, trajectory, termination in COLLECTED.trajectories:
        diffs = np.diff(np.asarray(trajectory))
        if not (diffs < 0.0).all():
            bad.append(f"{label}: trajectory not strictly decreasing")
        if termination != "converged":
            bad.append(f"{label}: terminated by {termination}")
    detail = (
        f"{len(COLLECTED.trajectories)} trajectories strictly decreasing, "
        f"every run converged (no iteration caps)"
        if not bad
        else "; ".join(bad[:5])
    )
    _verdict(capsys, 5, not bad, detail)


def test_criterion_6_variant_dominance_as_stated(capsys):
    """100 synthetic replicates at N=50, K=15, d=2; every variant per
    replicate shares one uniform initialization.

    The criterion names d=1, but the synthetic grid draws from {1..10}^d
    and merges duplicates, so a 1-D draw holds at most ten distinct points
    and fifteen distinct centers cannot exist. d=2 is the smallest
    dimension at which the stated N and K can: the fewest distinct points
    over these 100 draws is 35. A final loss cut off by the iteration cap
    is not a point the method reached, so, as in criterion 5, every
    compared run must converge with a strictly decreasing trajectory.
    """
    problems = []
    improved = {variant: 0 for variant in ESCAPE_VARIANTS}

    def audit(rep, variant, report):
        if report.termination != "converged":
            problems.append(f"replicate {rep}: {variant} terminated by {report.termination}")
        if not (np.diff(report.loss_trajectory) < 0.0).all():
            problems.append(f"replicate {rep}: {variant} trajectory not strictly decreasing")

    for rep in range(100):
        dataset = synth_uniform_grid(50, 2, seed=600 + rep)
        assert dataset.n >= 15, (
            f"replicate {rep} holds {dataset.n} distinct points, fewer than K=15"
        )
        rng = np.random.default_rng(rep)
        centers = init_centers(dataset, 15, "uniform", SQE, rng)
        base = run(
            dataset,
            EngineConfig(k=15, divergence=SQE, initial_centers=centers),
        )
        audit(rep, "none", base)
        for variant in ESCAPE_VARIANTS:
            tuned = run(
                dataset,
                EngineConfig(
                    k=15, divergence=SQE, variant=variant, initial_centers=centers
                ),
            )
            audit(rep, variant, tuned)
            if tuned.final_loss > base.final_loss:
                problems.append(
                    f"replicate {rep}: {variant} {tuned.final_loss!r} above"
                    f" baseline {base.final_loss!r}"
                )
            if tuned.final_loss < base.final_loss:
                improved[variant] += 1
    if improved["c-lo"] == 0:
        problems.append("c-lo never improved on the baseline")
    detail = (
        f"all variants converge and dominate per replicate at d=2; c-lo improved"
        f" {improved['c-lo']}/100"
        if not problems
        else "; ".join(problems[:3])
    )
    _verdict(capsys, 6, not problems, detail)


def test_variant_dominance_at_feasible_scale(capsys):
    # Companion to criterion 6 on the 1-D grid the criterion names: same n,
    # k = 6 (below the ten-point ceiling of a 1-D draw), so the dominance
    # property is also checked where ties are densest.
    violations = []
    improved = {variant: 0 for variant in ESCAPE_VARIANTS}
    for rep in range(100):
        dataset = synth_uniform_grid(50, 1, seed=600 + rep)
        rng = np.random.default_rng(rep)
        centers = init_centers(dataset, 6, "uniform", SQE, rng)
        base = run(dataset, EngineConfig(k=6, divergence=SQE, initial_centers=centers))
        for variant in ESCAPE_VARIANTS:
            tuned = run(
                dataset,
                EngineConfig(
                    k=6, divergence=SQE, variant=variant, initial_centers=centers
                ),
            )
            if tuned.final_loss > base.final_loss + 1e-12:
                violations.append(f"replicate {rep} {variant}")
            if tuned.final_loss < base.final_loss - 1e-12:
                improved[variant] += 1
    with capsys.disabled():
        counts = ", ".join(f"{v} {improved[v]}/100" for v in ESCAPE_VARIANTS)
        print(f"[NOTE] criterion 6 companion at k=6: improvements {counts}")
    assert not violations, f"dominance violated at {violations[:5]}"
    assert improved["c-lo"] > 0
    assert improved["d-lo"] > 0
    assert improved["min-d-lo"] > 0


def test_criterion_7_iris_reference_loss(capsys, iris_csv):
    dataset = dedup_merge(load_csv(str(iris_csv)))
    start = time.perf_counter()
    best = np.inf
    violations = []
    for init in ("uniform", "kmeans++"):
        base = EngineConfig(k=5, divergence=SQE, init=init, seed=11)
        records, _ = run_bench(dataset, base, ["d-lo"], 20)
        baseline = {r.replicate: r.loss for r in records if r.variant == "none"}
        for record in records:
            if record.variant != "d-lo":
                continue
            best = min(best, record.loss)
            if record.loss > baseline[record.replicate]:
                violations.append(f"{init} replicate {record.replicate}")
    elapsed = time.perf_counter() - start

    ok = best <= 47.01 and not violations and elapsed < 5.0
    detail = (
        f"min d-lo loss {best:.4f} <= 47.01 over 20 replicates x both inits, "
        f"d-lo never above plain K-means, in {elapsed:.1f}s"
        if ok
        else f"min d-lo loss {best:.4f}; violations {violations[:5]}; {elapsed:.1f}s"
    )
    _verdict(capsys, 7, ok, detail)


def test_criterion_8_brute_force_sandwich(capsys):
    if not COLLECTED.instances:
        pytest.skip("criterion 3 collected no instances")
    violations = []
    exact_hits = 0
    for dataset, k, spec, index, reports in COLLECTED.instances:
        _, global_best = brute_force_best(dataset, k, spec)
        for variant, report in reports.items():
            if global_best > report.final_loss + 1e-9:
                violations.append(
                    f"instance {index} {variant}: global {global_best!r} above"
                    f" final {report.final_loss!r}"
                )
            if abs(global_best - report.final_loss) <= 1e-9:
                exact_hits += 1
    detail = (
        f"global optimum lower-bounds all 600 runs; reached exactly on "
        f"{exact_hits} runs"
        if not violations
        else "; ".join(violations[:5])
    )
    _verdict(capsys, 8, not violations, detail)


def test_criterion_9_determinism(capsys):
    problems = []

    first = run_counterexample()
    second = run_counterexample()
    for variant, entry in first["variants"].items():
        other = second["variants"][variant]
        if not np.array_equal(entry["final_labels"], other["final_labels"]):
            problems.append(f"counterexample/{variant}: labels differ")
        if not (entry["final_centers"] == other["final_centers"]).all():
            problems.append(f"counterexample/{variant}: centers differ")
        if not (entry["loss_trajectory"] == other["loss_trajectory"]).all():
            problems.append(f"counterexample/{variant}: trajectories differ")

    rng = np.random.default_rng(2026)
    again = np.random.default_rng(2026)
    for _ in range(25):
        a, ka = random_instance(rng)
        b, kb = random_instance(again)
        if ka != kb or not (a.points == b.points).all() or not (
            a.weights == b.weights
        ).all():
            problems.append("instance generator is not reproducible per seed")
            break

    replayed = 0
    for dataset, k, spec, index, reports in COLLECTED.instances[:20]:
        for variant, report in reports.items():
            redo = run(
                dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=index)
            )
            same = (
                np.array_equal(redo.final_labels, report.final_labels)
                and (redo.final_centers == report.final_centers).all()
                and (redo.loss_trajectory == report.loss_trajectory).all()
                and redo.iterations == report.iterations
            )
            if not same:
                problems.append(f"instance {index} {variant}: replay differs")
            replayed += 1

    detail = (
        f"counterexample (5 variants), 25 regenerated instances, and "
        f"{replayed} replayed runs are bit-identical"
        if not problems
        else "; ".join(problems[:5])
    )
    _verdict(capsys, 9, not problems, detail)