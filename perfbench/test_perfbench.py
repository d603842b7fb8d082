"""Self-tests of the benchmark harness (not of the model).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

# a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
NESTED = [
    ["a", 0.0, 10.0, None, "cell"],
    ["b", 1.0, 4.0, 0, "cell"],
    ["c", 5.0, 9.0, 0, "cell"],
    ["d", 6.0, 8.0, 2, "cell"],
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(NESTED) == {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0}
    assert spans.top_level_s(NESTED) == 10.0


def test_inclusive_time_counts_a_name_once_when_nested_in_itself():
    nested_digest = [
        ["sim.digest", 0.0, 5.0, None, None],
        ["sim.digest", 1.0, 3.0, 0, None],
        ["sim.drain", 6.0, 7.0, None, None],
        ["sim.digest", 6.5, 6.75, 2, None],
    ]
    assert spans.inclusive_times(nested_digest) == {"sim.digest": 5.25, "sim.drain": 1.0}
    assert spans.call_counts(nested_digest) == {"sim.digest": 2, "sim.drain": 1}
    layers = spans.layer_metrics(nested_digest, {}, traced_s=12.0)
    assert layers["sim.drain_s"] == 0.75  # self: 1.0 minus the nested digest
    assert layers["sim.digest_s"] == 5.25
    assert layers["trace.uncovered_share"] == 0.5  # 6 of 12 s under no span


def test_p50():
    assert run.p50([]) is None
    assert run.p50([3.0, 1.0, 2.0]) == 2.0
    assert run.p50([4.0, 1.0, 3.0, 2.0]) == 2.5


FAKE_WORKLOAD = textwrap.dedent("""
    import json, sys, time
    def emit(**event):
        print("@@pb " + json.dumps(event), flush=True)
    emit(ev="plan", cells=["a", "b", "c"])
    emit(ev="ready", cpu=time.process_time())
    for key, budget, sleep in (("a", 30, 0), ("b", {budget}, {sleep}), ("c", 30, 0)):
        emit(ev="start", cells=[key], budget=budget)
        time.sleep(sleep)
        emit(ev="done", cell=key, s=0.01, digest="digest-" + key)
    emit(ev="end", wall=0.03, info={{}}, probes=[0.016, 0.02, 0.024], dispatch_probes=[])
""")


def fake_workload(budget: float, sleep: float):
    return [sys.executable, "-c", FAKE_WORKLOAD.format(budget=budget, sleep=sleep)]


def test_corrupted_digest_fails_the_cell_it_names():
    rnd = run.supervise(fake_workload(30, 0), mode="measure", deadline=run.clock() + 60)
    assert rnd.killed is None
    assert [c.key for c in rnd.cells] == ["a", "b", "c"] and not rnd.failures
    # scaled by the mean probe sample of the round
    assert run.end_to_end([rnd])["wall_s"] == pytest.approx(0.03 * run.PROBE_REF_S / 0.02)
    run.check_digests(rnd, {"a": "digest-a", "b": "corrupted", "c": "digest-c"})
    assert [c.key for c in rnd.failures] == ["b"]
    assert "digest mismatch" in rnd.failures[0].failure
    assert len(rnd.failures) / len(rnd.cells) > 0  # fail_ratio


def test_a_pool_dispatch_is_scaled_by_the_samples_taken_while_it_ran():
    rnd = run.Round("measure", setup_s=0.5, wall_s=4.0, probes=[0.016],
                    dispatch_probes=[0.008, 0.012])
    rnd.cells = [run.Cell("pooled", None, "d"), run.Cell("serial", 1.0, "d")]
    ref = run.PROBE_REF_S
    assert run.end_to_end([rnd]) == pytest.approx({
        "wall_s": 4.0 * ref / 0.010,
        "setup_s": 0.5 * ref / 0.016,
        "cell_s_p50": 1.0 * ref / 0.016,  # pooled cells have no time of their own
        "peak_rss_mb": None,
    })


def test_budget_overrun_kills_the_round_and_fails_by_cell_key():
    t0 = time.monotonic()
    rnd = run.supervise(fake_workload(0.5, 60), mode="measure", deadline=run.clock() + 60)
    assert time.monotonic() - t0 < 20
    assert rnd.killed == "wall-clock budget overrun"
    failed = {c.key: c.failure for c in rnd.failures}
    assert failed == {"b": "wall-clock budget overrun",
                      "c": "not run: wall-clock budget overrun"}
    assert rnd.rss_mb is not None  # the killed process was reaped


def test_workload_that_dies_in_set_up_is_one_failed_cell():
    argv = [sys.executable, "-c", "raise SystemExit(3)"]
    rnd = run.supervise(argv, mode="measure", deadline=run.clock() + 60)
    assert rnd.killed == "workload process exited with 3"
    assert [(c.key, c.failure) for c in rnd.failures] == [("set-up", rnd.killed)]


def test_every_declared_metric_is_produced():
    layers = spans.layer_metrics([], {}, traced_s=1.0)
    assert set(run.declared_metrics(trace=True)) == set(layers) | {"trace.overhead_s"}
    assert set(run.declared_metrics(trace=False)) == set(run.end_to_end([]))
