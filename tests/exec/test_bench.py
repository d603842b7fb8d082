"""The ``repro bench`` harness: structure, honesty, and archiving."""

import json

from repro.exec.bench import (
    bench_digest,
    bench_engine_events,
    compare_bench,
    default_bench_path,
    run_bench,
    summarize_bench,
    write_bench,
)


def test_engine_microbench_reports_rates():
    r = bench_engine_events(5_000)
    assert r["events_fired"] >= 5_000
    assert r["events_per_sec"] > 0
    assert r["rounds"] >= 1


def test_digest_bench_agrees_between_paths():
    r = bench_digest(3_000, repeats=3)
    assert r["digests_agree"]
    assert r["incremental_seconds"] > 0


def test_run_bench_quick_structure(tmp_path):
    results = run_bench(quick=True, jobs=1)
    assert results["quick"] is True
    assert results["host"]["cpu_count"] >= 1
    assert results["engine"]["events_per_sec"] > 0
    assert results["parallel"]["jobs"] == 1
    assert results["parallel"]["serial_seconds"] > 0
    # Quick mode skips the expensive NPB figure.
    assert "fig9_10_npb_seconds" not in results["figures"]

    path = write_bench(results, str(tmp_path / "BENCH_test.json"))
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["engine"] == results["engine"]

    summary = summarize_bench(results)
    assert "ev/s" in summary
    assert "serial" in summary


def _fake_results(engine_evps, fig_seconds):
    return {
        "engine": {"events_per_sec": engine_evps},
        "figures": {"fig7_8_memory_seconds": fig_seconds},
    }


def test_compare_bench_flags_regressions_in_both_directions():
    base = _fake_results(1000.0, 10.0)
    # Throughput halved AND wall-clock doubled: two regressions.
    text, regs = compare_bench(
        _fake_results(500.0, 20.0), base, regress_pct=25.0
    )
    assert len(regs) == 2
    assert "REGRESSION" in text
    # Throughput up, wall-clock down: improvements, not regressions.
    _, regs_good = compare_bench(
        _fake_results(2000.0, 5.0), base, regress_pct=25.0
    )
    assert regs_good == []
    # Within threshold: a 10% dip does not trip a 25% gate.
    _, regs_ok = compare_bench(
        _fake_results(900.0, 11.0), base, regress_pct=25.0
    )
    assert regs_ok == []


def test_compare_bench_skips_missing_metrics():
    # An old baseline without the digest/parallel sections must not
    # fail the comparison — new metrics are reported as skipped.
    text, regs = compare_bench(
        _fake_results(1000.0, 10.0), _fake_results(1000.0, 10.0),
        regress_pct=25.0,
    )
    assert regs == []
    assert "skipped" in text


def test_default_bench_path_is_dated():
    path = default_bench_path()
    assert path.startswith("BENCH_") and path.endswith(".json")
    assert len(path) == len("BENCH_2026-08-06.json")
