"""Report rendering and experiment-driver plumbing."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.experiments import (
    BenchmarkTable,
    PAPER_FIG8,
    PAPER_FIG10,
    SelfishProfile,
    paper_normalized,
    run_benchmark_table,
)
from repro.core.metrics import Aggregate
from repro.core.report import (
    render_normalized_table,
    render_raw_table,
    render_selfish,
)


def agg(config, mean, stdev=0.1):
    return Aggregate(config, "b", "u", mean=mean, stdev=stdev, n=3)


def fake_table(bench="stream"):
    aggs = {
        "native": agg("native", 100.0),
        "hafnium-kitten": agg("hafnium-kitten", 99.0),
        "hafnium-linux": agg("hafnium-linux", 95.0),
    }
    return {
        bench: BenchmarkTable(
            benchmark=bench,
            unit="MB/s",
            aggregates=aggs,
            normalized={k: v.mean / 100.0 for k, v in aggs.items()},
        )
    }


class TestPaperTables:
    def test_paper_fig8_rows_complete(self):
        for bench, row in PAPER_FIG8.items():
            assert set(row) == {"native", "hafnium-kitten", "hafnium-linux"}

    def test_paper_fig10_values(self):
        assert PAPER_FIG10["lu"]["native"] == 33.16
        assert PAPER_FIG10["ep"]["hafnium-linux"] == 0.77

    def test_paper_normalized(self):
        norm = paper_normalized(PAPER_FIG8, "randomaccess")
        assert norm["native"] == 1.0
        assert norm["hafnium-kitten"] == pytest.approx(6.2e-5 / 6.5e-5)


class TestRendering:
    def test_raw_table_contains_rows_and_units(self):
        text = render_raw_table(fake_table(), "T", paper=PAPER_FIG8)
        assert "T" in text
        assert "Native" in text and "Kitten" in text and "Linux" in text
        assert "MB/s" in text
        assert "paper" in text

    def test_normalized_table(self):
        text = render_normalized_table(fake_table(), "N", paper=PAPER_FIG8)
        assert "1.0000" in text
        assert "0.9500" in text

    def test_render_selfish_with_events(self):
        profile = SelfishProfile(
            config="native",
            times_us=np.array([1e5, 2e5, 3e5]),
            latencies_us=np.array([2.0, 3.0, 2.5]),
            summary={
                "count": 3.0,
                "rate_hz": 3.0,
                "mean_latency_us": 2.5,
                "max_latency_us": 3.0,
                "stolen_fraction": 1e-5,
            },
            interarrival_cv=0.0,
        )
        text = render_selfish(profile)
        assert "Selfish Detour" in text
        assert "*" in text
        assert "interarrival CV" in text

    def test_render_selfish_empty(self):
        profile = SelfishProfile(
            config="native",
            times_us=np.array([]),
            latencies_us=np.array([]),
            summary={
                "count": 0.0, "rate_hz": 0.0, "mean_latency_us": 0.0,
                "max_latency_us": 0.0, "stolen_fraction": 0.0,
            },
            interarrival_cv=0.0,
        )
        assert "no detours" in render_selfish(profile)


class TestDriverPlumbing:
    def test_run_benchmark_table_trials_differ_but_aggregate(self):
        tables = run_benchmark_table(
            "memory", trials=2, seed=30, configs=["native"]
        )
        table = tables["stream"]
        agg_ = table.aggregates["native"]
        assert agg_.n == 2
        assert len(agg_.values) == 2
        # Per-trial jitter makes trials distinct but close.
        assert agg_.values[0] != agg_.values[1]
        assert agg_.cv < 0.02
        assert table.normalized["native"] == 1.0

    def test_run_benchmark_table_rejects_unknown_set(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark set 'bogus'"):
            run_benchmark_table("bogus", trials=1)
