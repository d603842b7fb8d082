"""Campaign runner: structure, serialization, and summary."""

import json

import pytest

from repro.core.campaign import (
    SCHEMA_VERSION,
    run_campaign,
    save_campaign,
    summarize,
)


@pytest.fixture(scope="module")
def results():
    # Small but complete: 1 trial, short selfish window, no extensions
    # (test_paper_claims.py checks those at full length).
    return run_campaign(
        seed=25, trials=1, selfish_duration_s=0.3, include_extensions=False
    )


def test_structure(results):
    assert results["schema"] == SCHEMA_VERSION
    assert set(results["fig4_6_selfish"]) == {
        "native", "hafnium-kitten", "hafnium-linux",
    }
    assert set(results["fig7_8_memory"]) == {"hpcg", "stream", "randomaccess"}
    assert set(results["fig9_10_npb"]) == {"lu", "bt", "cg", "ep", "sp"}
    assert "fig8" in results["paper"]
    assert results["wall_seconds"] > 0


def test_normalized_values_sane(results):
    for bench, data in results["fig7_8_memory"].items():
        assert data["normalized"]["native"] == 1.0
        for cfg, v in data["normalized"].items():
            assert 0.8 < v < 1.2, (bench, cfg)


def test_json_roundtrip(results, tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(results, str(path))
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["seed"] == results["seed"]
    assert (
        loaded["fig9_10_npb"]["lu"]["normalized"]["hafnium-linux"]
        == results["fig9_10_npb"]["lu"]["normalized"]["hafnium-linux"]
    )
    # Everything the runner emits is JSON-clean.
    json.dumps(loaded)


def test_summary_text(results):
    text = summarize(results)
    assert "randomaccess" in text
    assert "kitten=" in text and "linux=" in text
