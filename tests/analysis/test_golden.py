"""The golden corpus: every cell matches the committed GOLDEN.json, and
`repro check-golden` names each cell that drifted."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import golden
from repro.cli import main
from repro.core.configs import ALL_CONFIGS
from repro.core.metrics import Float64Series
from repro.exec import execute_job, job_kinds

COMMITTED = golden.GOLDEN_PATH


def test_corpus_matches_golden_at_jobs_1():
    report = golden.check_golden(jobs=1)
    assert report == {"mismatched": [], "missing": [], "stale": []}


def test_corpus_covers_every_config_and_job_kind():
    assert {job.kind for job in golden.CORPUS} == set(job_kinds())
    configs = {job.kwargs().get("config") for job in golden.CORPUS}
    assert set(ALL_CONFIGS) <= configs


def test_result_digest_canonical_forms():
    @dataclass
    class Cell:
        name: str
        series: Float64Series
        stats: dict

    a = Cell("x", Float64Series([0.0, 1.0, 2.0]), {"b": 1, "a": 2})
    b = Cell("x", Float64Series([0.0, 1.0, 2.0]), {"a": 2, "b": 1})
    assert golden.result_digest(a) == golden.result_digest(b)
    assert golden.result_digest({"b": 1, "a": 2}) == golden.result_digest(
        {"a": 2, "b": 1}
    )
    moved = Cell("x", Float64Series([0.0, 1.0, 2.0000000001]), {"a": 2, "b": 1})
    assert golden.result_digest(moved) != golden.result_digest(a)
    # A series field is hashed as its raw bytes: the bytes of the equal
    # ndarray, which is how the committed selfish-profile digests were
    # made when the profile held ndarrays.
    raw = ("x", np.arange(3.0).tobytes(), [("a", 2), ("b", 1)])
    assert golden.result_digest(a) == hashlib.sha256(repr(raw).encode()).hexdigest()


# Refuses numpy at import time, then prints the digest of each corpus cell
# whose index is on the command line.
_DIGEST_WITHOUT_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseNumpy())
from repro.analysis import golden
from repro.exec import execute_job

for i in sys.argv[1:]:
    print(golden.result_digest(execute_job(golden.CORPUS[int(i)])))
"""


def test_result_digest_needs_no_numpy():
    kinds = ("quickstart", "fault-scenario", "selfish-profile")
    picks = [
        next(i for i, job in enumerate(golden.CORPUS) if job.kind == kind)
        for kind in kinds
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_WITHOUT_NUMPY, *map(str, picks)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    jobs = [golden.CORPUS[i] for i in picks]
    in_process = [golden.result_digest(execute_job(job)) for job in jobs]
    assert out.stdout.split() == in_process
    committed = golden.load_golden()
    assert in_process == [committed[job.key] for job in jobs]


@pytest.fixture
def small(tmp_path, monkeypatch):
    """A two-cell corpus and a tmp GOLDEN.json path; returns the path and
    the committed digests of those two cells."""
    cells = tuple(job for job in golden.CORPUS if job.kind == "quickstart")[:2]
    committed = golden.load_golden()
    path = tmp_path / "GOLDEN.json"
    monkeypatch.setattr(golden, "CORPUS", cells)
    monkeypatch.setattr(golden, "GOLDEN_PATH", path)
    return path, {job.key: committed[job.key] for job in cells}


def _check(path, entries, capsys):
    path.write_text(json.dumps(entries))
    rc = main(["check-golden", "--jobs", "1"])
    return rc, capsys.readouterr()


def test_cli_reports_ok(small, capsys):
    rc, out = _check(*small, capsys)
    assert rc == 0
    assert "golden OK: 2 cells" in out.out


def test_flipped_digest_exits_1_naming_the_key(small, capsys):
    path, entries = small
    key, digest = next(iter(entries.items()))
    rc, out = _check(path, {**entries, key: "0" * 64}, capsys)
    assert rc == 1
    assert f"mismatched {key}: {'0' * 16} -> {digest[:16]}" in out.out


def test_extra_key_exits_1_as_stale(small, capsys):
    path, entries = small
    extra = "quickstart(config='nowhere', seed=0)"
    rc, out = _check(path, {**entries, extra: "f" * 64}, capsys)
    assert rc == 1
    assert f"stale {extra}: {'f' * 16} -> (none)" in out.out


def test_dropped_key_exits_1_as_missing(small, capsys):
    path, entries = small
    key, digest = next(iter(entries.items()))
    del entries[key]
    rc, out = _check(path, entries, capsys)
    assert rc == 1
    assert f"missing {key}: (none) -> {digest[:16]}" in out.out


def test_absent_or_unreadable_file_exits_2(small, capsys):
    path, _ = small
    assert main(["check-golden", "--jobs", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err
    path.write_text("{not json")
    assert main(["check-golden", "--jobs", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_update_reproduces_committed_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "GOLDEN.json"
    shutil.copy(COMMITTED, path)
    tampered = json.loads(path.read_text())
    key = golden.CORPUS[0].key
    tampered[key] = "0" * 64
    path.write_text(json.dumps(tampered))
    monkeypatch.setattr(golden, "GOLDEN_PATH", path)

    assert main(["check-golden", "--update", "--jobs", "1"]) == 0
    assert f"mismatched {key}: {'0' * 16}" in capsys.readouterr().out
    assert path.read_bytes() == COMMITTED.read_bytes()
