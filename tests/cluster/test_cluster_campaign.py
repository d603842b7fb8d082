"""Cluster campaign acceptance tests: bit-identical reports at any
--jobs level (including the 16-node cell required by the scaling
sweep) and fault composition."""

import pytest

from repro.cli import main
from repro.cluster.campaign import run_cluster, run_scaling
from repro.common.errors import ConfigurationError

SEED = 20260806


def test_sixteen_node_report_bit_identical_across_jobs():
    """`repro cluster --nodes 16 --jobs N` must be bit-identical for
    any N.  Exercised via the same SimJob path the CLI uses."""
    kwargs = dict(
        configs=["native"],
        node_counts=[16],
        seed=SEED,
        supersteps=2,
        step_compute_s=0.0003,
    )
    serial = run_scaling(jobs=1, **kwargs)
    parallel = run_scaling(jobs=4, **kwargs)
    assert serial == parallel
    cell = serial["cells"]["native@16"]
    assert cell["nodes"] == 16
    assert cell["completed_steps"] == 2
    assert cell["failed_ranks"] == []
    # The digest covers per-node traces, the collective log, and fabric
    # stats — equality above plus a stable digest is the bit-identity
    # contract.
    assert len(cell["digest"]) == 64


def test_run_cluster_reports_timing_and_fabric_stats():
    res = run_cluster(
        "native", 4, SEED, supersteps=3, step_compute_s=0.0005
    )
    assert res["completed_steps"] == 3
    assert len(res["per_step_ms"]) == 3
    assert res["mean_step_ms"] > 0
    assert res["max_step_ms"] >= res["mean_step_ms"]
    assert res["elapsed_ms"] >= res["mean_step_ms"]
    fabric = res["fabric"]
    assert fabric["messages"] > 0
    assert fabric["bytes"] > 0
    assert fabric["dead_ranks"] == 0


def test_run_scaling_rows_carry_slowdown_and_amplification():
    report = run_scaling(
        configs=["native"],
        node_counts=[2, 4],
        seed=SEED,
        supersteps=2,
        step_compute_s=0.0003,
        jobs=2,
    )
    rows = report["rows"]
    assert [(r["config"], r["nodes"]) for r in rows] == [
        ("native", 2), ("native", 4),
    ]
    for row in rows:
        assert row["slowdown_vs_native"] == 1.0  # native vs itself
    # Amplification is normalized to the smallest node count.
    assert rows[0]["amplification"] == 1.0
    assert rows[1]["amplification"] > 0


def test_node_failure_fault_composes_with_campaign():
    res = run_cluster(
        "native", 4, SEED,
        supersteps=4,
        step_compute_s=0.0005,
        fail_rank=2,
        fail_at_ms=0.9,
    )
    assert res["fault_injections"] == 1
    assert res["failed_ranks"] == [2]
    # Survivors kept making progress after the failure.
    assert res["completed_steps"] == 4
    assert res["fabric"]["dead_ranks"] == 1
    # And the faulted run stays deterministic.
    res2 = run_cluster(
        "native", 4, SEED,
        supersteps=4,
        step_compute_s=0.0005,
        fail_rank=2,
        fail_at_ms=0.9,
    )
    assert res == res2


def test_orphan_repaired_to_a_rank_in_its_halo_exchange_is_answered():
    # Rank 2 dies just after forwarding rank 3's coverage of superstep 0.
    # Rank 3 re-sends it to the root, which has moved on to superstep 1's
    # halo exchange and waits for rank 3's halo: the root must answer the
    # orphan from there, or both wait for ever.
    res = run_cluster(
        "hafnium-kitten", 4, 0xC0FFEE,
        supersteps=3,
        step_compute_s=0.0008,
        fail_rank=2,
        fail_at_ms=1.0,
    )
    assert res["failed_ranks"] == [2]
    assert res["completed_steps"] == 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_config_rejected_before_dispatch(jobs):
    with pytest.raises(ConfigurationError,
                       match=r"^repeated configuration name\(s\): native$"):
        run_scaling(configs=["native", "hafnium-kitten", "native"], node_counts=[2],
                    seed=SEED, jobs=jobs)


def test_cli_repeated_config_is_a_clean_error(capsys):
    rc = main(["cluster", "--jobs", "2", "--configs", "native,native"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "repro cluster: repeated configuration name(s): native\n"
    )
