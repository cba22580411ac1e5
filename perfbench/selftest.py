"""Self-tests of the output checker and the span recorder.

Run with ``python3 perfbench/selftest.py`` from the repository root; the
benchmark runner also calls ``run_all`` before it measures, and reports
nothing if a self-test fails.
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from lokmeans import engine, verify
from lokmeans.data_io import counterexample_instance
from lokmeans.divergence import DivergenceSpec

import checks
import spans
from workloads import Result, from_report


def _good_results() -> list[Result]:
    dataset, centers = counterexample_instance()
    spec = DivergenceSpec.squared_euclidean()
    results = []
    for variant in ("none", "d-lo"):
        config = engine.EngineConfig(k=2, divergence=spec, variant=variant, initial_centers=centers)
        res = from_report("counterexample", variant, dataset, 2, spec, engine.run(dataset, config))
        res.certificates["d_local"] = verify.certify_d_local(dataset, res.labels, 2, spec)
        results.append(res)
    return results


def test_checker_counts_each_wrong_output() -> None:
    good = _good_results()
    assert checks.check_op(good) == [], checks.check_op(good)

    wrong_loss = copy.deepcopy(good)
    wrong_loss[1].final_loss *= 1.0 + 1e-6
    flat = copy.deepcopy(good)
    flat[1].trajectory = np.append(flat[1].trajectory, flat[1].trajectory[-1])
    not_local = copy.deepcopy(good)
    not_local[1].certificates["d_local"] = verify.Certificate(verify.NOT_LOCAL, None, -1.0, 0)

    tally = checks.Tally()
    tally.record(checks.check_op(good))
    for bad, kind in (
        (wrong_loss, "loss-mismatch"),
        (flat, "trajectory-not-strict"),
        (not_local, "certificate"),
    ):
        assert tally.record(checks.check_op(bad)), kind
        assert tally.kinds[kind] == 1, (kind, dict(tally.kinds))
    assert (tally.attempted, tally.failed) == (4, 3), (tally.attempted, tally.failed)


def test_self_times_on_stub_tree() -> None:
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0], own
    assert own.sum() == end[0] - start[0]
    assert spans.nesting_violations(start, end, parent) == 0
    assert spans.nesting_violations(start, np.array([10.0, 4.0, 11.0, 7.0]), parent) == 1


def test_recorder_on_stub_calls() -> None:
    recorder = spans.SpanRecorder()
    namespace = type("stub", (), {})

    def leaf():
        time.sleep(0.001)

    def middle():
        namespace.leaf()
        namespace.leaf()

    def root():
        namespace.middle()
        time.sleep(0.001)

    namespace.leaf, namespace.middle, namespace.root = leaf, middle, root
    targets = [(namespace, n, recorder.wrap(getattr(namespace, n), n)) for n in ("leaf", "middle", "root")]
    with spans.patched(targets):
        namespace.root()  # outside an op: not recorded
        with recorder.op_scope(7):
            namespace.root()
    assert namespace.leaf is leaf and namespace.root is root
    arr = recorder.arrays()
    assert [recorder.names[i] for i in arr["name"]] == ["root", "middle", "leaf", "leaf"]
    assert arr["parent"].tolist() == [-1, 0, 1, 1] and set(arr["op"].tolist()) == {7}
    assert spans.nesting_violations(arr["start"], arr["end"], arr["parent"]) == 0
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    root_duration = arr["end"][0] - arr["start"][0]
    assert abs(own.sum() - root_duration) <= 1e-12 * root_duration, (own.sum(), root_duration)
    assert (own >= 0.0).all(), own


def run_all() -> None:
    test_checker_counts_each_wrong_output()
    test_self_times_on_stub_tree()
    test_recorder_on_stub_calls()


if __name__ == "__main__":
    run_all()
    print("selftest: ok")
