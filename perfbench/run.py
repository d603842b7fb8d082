"""Layered end-to-end benchmark of the simulator (see README.md).

    python3 perfbench/run.py --workload figs_memory --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --record            # re-record digests.json

Each round of a workload runs in a fresh child process (``workloads.py``)
in its own process group, under a wall-clock budget per cell: a hang is
killed and recorded as failed cells, never a hung benchmark. Rounds repeat
until ``--seconds`` is used up; timings are medians over rounds, scaled to
a reference host speed (``PROBE_REF_S``). Every cell's result digest is
checked against ``digests.json``. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402  (neither module imports model code at import time)
import workloads as wl  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
#: Every run must end well inside the 180 s a run is allowed.
RUN_LIMIT_S = 165.0
#: Set-up (interpreter start + model imports) must finish within this.
SETUP_BUDGET_S = 60.0
#: The CPU speed a process gets on a shared host shifts, by up to ~1.8x
#: between hours and by ~1.3x within a run. Every round samples a fixed
#: pure-Python loop (``workloads.speed_probe``) at its start and end,
#: around every in-process cell and during a pool dispatch, and its host
#: times are reported scaled to a host on which the mean sample is this
#: long: ``t * PROBE_REF_S / mean``. A pool dispatch is scaled by the
#: samples taken during it. A change to the model cannot move the probe,
#: so the scaled times still move with the program's own cost.
PROBE_REF_S = 0.008



def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run:
    ``per_layer`` when traced, else ``end_to_end``."""
    with open(BENCHMARK) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def clock() -> float:
    """CLOCK_MONOTONIC seconds: comparable across processes on one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def p50(values: List[float]) -> Optional[float]:
    """Median, or None for no values."""
    return statistics.median(values) if values else None


@dataclass
class Cell:
    key: str
    seconds: Optional[float] = None
    digest: Optional[str] = None
    failure: Optional[str] = None


@dataclass
class Round:
    """What the supervisor saw of one workload process."""

    mode: str
    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    duration_s: float = 0.0
    plan: List[str] = field(default_factory=list)
    cells: List[Cell] = field(default_factory=list)
    rss_mb: Optional[float] = None
    info: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)
    dispatch_probes: List[float] = field(default_factory=list)
    killed: Optional[str] = None

    @property
    def failures(self) -> List[Cell]:
        return [c for c in self.cells if c.failure is not None]


def become_subreaper() -> None:
    """Orphaned grandchildren (pool workers of a killed round) are
    re-parented to this process, so it can reap them (Linux prctl)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait for every child."""
    kill_group(pgid)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def supervise(argv: List[str], *, mode: str, deadline: float,
              cwd: str = ROOT, env: Optional[dict] = None) -> Round:
    """Run one workload process and collect its report.

    A cell that has been running past its budget, or a process that does
    not finish set-up in time or overruns ``deadline`` (CLOCK_MONOTONIC),
    gets the whole process group killed; its open and unstarted cells
    are recorded as failed, by key.
    """
    rnd = Round(mode)
    t_spawn = clock()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    fd = proc.stdout.fileno()
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    open_cells: List[tuple] = []  # (key, deadline)
    buf = b""
    eof = False
    try:
        while True:
            now = clock()
            if open_cells:
                limit = min(d for _, d in open_cells)
                why = "wall-clock budget overrun"
            elif rnd.setup_s is None and not rnd.cells:
                limit = t_spawn + SETUP_BUDGET_S
                why = "set-up budget overrun"
            else:
                limit, why = deadline, "run time limit"
            if limit > deadline:
                limit, why = deadline, "run time limit"
            if now >= limit:
                rnd.killed = why
                break
            if not sel.select(limit - now):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                eof = True
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                text = line.decode(errors="replace")
                if text.startswith(wl.PREFIX):
                    _handle(rnd, json.loads(text[len(wl.PREFIX):]), open_cells)
                else:
                    print(text, file=sys.stderr)
    finally:
        sel.close()
        if not eof:
            kill_group(proc.pid)
        status, usage = _wait(proc.pid, deadline)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        reap_group(proc.pid)
    rnd.duration_s = clock() - t_spawn
    # ru_maxrss of a reaped child covers its reaped descendants (the pool
    # workers): the largest resident set of any process in the tree.
    rnd.rss_mb = usage.ru_maxrss / 1024
    for key, _ in open_cells:
        rnd.cells.append(Cell(key, failure=rnd.killed or "workload process died"))
    if not rnd.killed and proc.returncode != 0:
        rnd.killed = f"workload process exited with {proc.returncode}"
    if rnd.killed:
        _missing_cells_fail(rnd)
    return rnd


def _wait(pid: int, deadline: float):
    """wait4 on ``pid``; kill its group if it is still alive at ``deadline``
    (a process can hang at exit, e.g. joining a pool with a dead worker)."""
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if clock() >= deadline:
            kill_group(pid)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.01)


def _handle(rnd: Round, ev: dict, open_cells: List[tuple]) -> None:
    kind = ev["ev"]
    if kind == "plan":
        rnd.plan = ev["cells"]
    elif kind == "ready":
        rnd.setup_s = ev["cpu"]
    elif kind == "start":
        until = clock() + ev["budget"]
        open_cells.extend((key, until) for key in ev["cells"])
    elif kind in ("done", "fail"):
        for key in ev["cells"] if kind == "fail" else [ev["cell"]]:
            open_cells.remove(next(c for c in open_cells if c[0] == key))
            if kind == "done":
                rnd.cells.append(Cell(key, ev["s"], ev["digest"]))
            else:
                rnd.cells.append(Cell(key, failure=ev["reason"]))
    elif kind == "end":
        rnd.wall_s = ev["wall"]
        rnd.info = ev["info"]
        rnd.layers = ev.get("layers", {})
        rnd.probes = ev["probes"]
        rnd.dispatch_probes = ev["dispatch_probes"]


def _missing_cells_fail(rnd: Round) -> None:
    """Planned cells that never reported fail with the round's reason."""
    seen: Dict[str, int] = {}
    for cell in rnd.cells:
        seen[cell.key] = seen.get(cell.key, 0) + 1
    for key in rnd.plan:
        if seen.get(key, 0):
            seen[key] -= 1
        else:
            rnd.cells.append(Cell(key, failure=f"not run: {rnd.killed}"))
    if not rnd.plan:
        rnd.cells.append(Cell("set-up", failure=rnd.killed))


def check_digests(rnd: Round, recorded: Dict[str, str]) -> None:
    """Fail every finished cell whose digest differs from the recorded one."""
    for cell in rnd.cells:
        if cell.failure is not None:
            continue
        expected = recorded.get(cell.key)
        if expected is None:
            cell.failure = "no recorded digest"
        elif cell.digest != expected:
            cell.failure = f"digest mismatch: {cell.digest[:16]} != recorded {expected[:16]}"


def child_argv(workload: str, variant: int, mode: str,
               spans_out: Optional[str] = None) -> List[str]:
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", workload, "--variant", str(variant), "--mode", mode]
    if spans_out:
        argv += ["--spans-out", spans_out]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def host_record() -> dict:
    commit = "unknown"
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            commit = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "loadavg_before": os.getloadavg(),
    }


def load_recorded(workload: str, variant: int) -> dict:
    with open(DIGESTS) as f:
        return json.load(f)["workloads"][workload][str(variant)]


def run_rounds(workload: str, variant: int, seconds: float, trace: bool,
               spans_out: Optional[str]) -> List[Round]:
    """Rounds (alternating untraced and traced with ``trace``) until the
    next one would end past ``seconds``; at least one of each mode."""
    t0 = clock()
    deadline = t0 + RUN_LIMIT_S
    modes = ["measure", "trace"] if trace else ["measure"]
    rounds: List[Round] = []
    last: Dict[str, float] = {}
    while True:
        mode = modes[len(rounds) % len(modes)]
        if len(rounds) >= len(modes) and clock() - t0 + last[mode] > seconds:
            break
        rnd = supervise(child_argv(workload, variant, mode,
                                   spans_out if mode == "trace" else None),
                        mode=mode, deadline=deadline, env=child_env())
        rounds.append(rnd)
        last[mode] = rnd.duration_s
        if rnd.killed:
            break
    return rounds


def complete(rounds: List[Round], mode: str) -> List[Round]:
    """Rounds of ``mode`` whose workload process ran to its end."""
    return [r for r in rounds if r.mode == mode and not r.killed and r.wall_s is not None]


def speed_factor(samples: List[float]) -> float:
    """Factor from host seconds measured next to these probe samples to
    reference-speed seconds."""
    return PROBE_REF_S / statistics.fmean(samples)


def scaled_wall_s(rnd: Round) -> float:
    """The round's ``wall_s``, scaled by the samples taken while it was
    timed: during the pool dispatch if it had one, else all of them."""
    return rnd.wall_s * speed_factor(rnd.dispatch_probes or rnd.probes)


def end_to_end(rounds: List[Round]) -> Dict[str, Optional[float]]:
    measured = complete(rounds, "measure")
    return {
        "wall_s": p50([scaled_wall_s(r) for r in measured]),
        "setup_s": p50([r.setup_s * speed_factor(r.probes) for r in measured]),
        "cell_s_p50": p50([c.seconds * speed_factor(r.probes) for r in measured
                           for c in r.cells if c.seconds is not None]),
        "peak_rss_mb": p50([r.rss_mb for r in measured]),
    }


def per_layer(rounds: List[Round]) -> Dict[str, Optional[float]]:
    traced = [r for r in rounds if r.mode == "trace" and r.layers]
    keys = sorted({k for r in traced for k in r.layers})
    out = {k: p50([r.layers[k] for r in traced]) for k in keys}
    traced_wall = p50([scaled_wall_s(r) for r in complete(rounds, "trace")])
    untraced_wall = end_to_end(rounds)["wall_s"]
    out["trace.overhead_s"] = (
        traced_wall - untraced_wall
        if traced_wall is not None and untraced_wall is not None else None
    )
    return out


def print_report(workload: str, seed: int, variant: int, host: dict,
                 rounds: List[Round], metrics: dict, units: Dict[str, str],
                 trace: bool) -> None:
    print(f"perfbench {workload} seed={seed} (input variant {variant}) host={json.dumps(host)}")
    for i, r in enumerate(rounds):
        setup = f"{r.setup_s:.3f}" if r.setup_s is not None else "-"
        wall = f"{r.wall_s:.3f}" if r.wall_s is not None else "-"
        rss = f"{r.rss_mb:.1f}" if r.rss_mb is not None else "-"
        probe = f"{statistics.fmean(r.probes) * 1e3:.2f}" if r.probes else "-"
        if r.dispatch_probes:
            probe += f" (dispatch {statistics.fmean(r.dispatch_probes) * 1e3:.2f})"
        print(f"  round {i} {r.mode:7s} host setup={setup}s wall={wall}s probe={probe}ms "
              f"cells={len(r.cells)} failed={len(r.failures)} peak_rss={rss}MB")
        for cell in r.failures:
            print(f"  FAILED cell {cell.key}: {cell.failure}")
    for key, value in sorted(rounds[0].info.items()) if rounds else ():
        print(f"  {key} = {value!r} (simulated, vs paper; must repeat exactly)")
    cells = [c for r in rounds for c in r.cells]
    failed = sum(c.failure is not None for c in cells)
    print(f"  fail_ratio = {failed}/{len(cells)} cells (raised, over budget or digest mismatch)")
    if not trace:
        measured = complete(rounds, "measure")
        for name, unit in units.items():
            print(f"  {name:12s} {metrics[name]} {unit} [host]")
        print(f"  (medians over {len(measured)} rounds and "
              f"{sum(len(r.cells) for r in measured)} cells; times in seconds at the "
              f"reference speed: each round's times x {PROBE_REF_S * 1e3:g} ms / its "
              f"mean probe)")
        return
    traced = metrics.get("trace.span_wall_s")
    for name, unit in sorted(units.items()):
        value = metrics[name]
        clk = "simulated" if name in spans.SIMULATED else "host"
        share = f"  {100 * value / traced:5.1f}% of trace.span_wall_s" if (
            unit == "s" and traced and value is not None) else ""
        print(f"  {name:28s} {value} {unit} [{clk}]{share}")
    print("  exec.speedup and exec.overhead_s take their per-cell base from a "
          "serial traced pass of the same cells; trace.overhead_s is traced "
          "minus untraced wall_s")


def record(names: List[str]) -> int:
    """Re-record every variant's cell digests: one workload process per
    variant, every cell run serially."""
    data = {"variants": wl.VARIANTS, "workloads": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            data = json.load(f)
    for name in names:
        per_variant = data["workloads"].setdefault(name, {})
        for variant in range(wl.VARIANTS):
            rnd = supervise(child_argv(name, variant, "record"), mode="record",
                            deadline=clock() + 3600, env=child_env())
            if rnd.killed or rnd.failures:
                print(f"record {name} variant {variant} failed: "
                      f"{rnd.killed} {[(c.key, c.failure) for c in rnd.failures]}")
                return 1
            per_variant[str(variant)] = {
                "cells": {c.key: c.digest for c in rnd.cells},
                **rnd.info,
            }
            print(f"recorded {name} variant {variant}: {len(rnd.cells)} cells {rnd.info}")
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record digests.json for --workload (default: all)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no model source at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    become_subreaper()
    if args.record:
        return record([args.workload] if args.workload else sorted(wl.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    spec = wl.WORKLOADS[args.workload]
    host = host_record()
    if spec.jobs > (host["nproc"] or 1):
        print(f"perfbench: {args.workload} needs jobs={spec.jobs} > nproc={host['nproc']}",
              file=sys.stderr)
        return 2
    variant = args.seed % wl.VARIANTS
    recorded = load_recorded(args.workload, variant)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    rounds = run_rounds(args.workload, variant, args.seconds, bool(args.trace),
                        stem + "-spans.json")
    for rnd in rounds:
        check_digests(rnd, recorded["cells"])
        for key, value in rnd.info.items():  # derived results must repeat exactly too
            if value != recorded.get(key):
                rnd.cells.append(Cell(key, failure=f"{value!r} != recorded {recorded.get(key)!r}"))
    host["loadavg_after"] = os.getloadavg()

    units = declared_metrics(bool(args.trace))
    measured = per_layer(rounds) if args.trace else end_to_end(rounds)
    metrics = {name: measured.get(name) for name in units}
    attempted = sum(len(r.cells) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    correct = failed == 0 and attempted > 0 and all(v is not None for v in metrics.values())
    print_report(args.workload, args.seed, variant, host, rounds, metrics, units,
                 bool(args.trace))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if value is not None
        },
    }
    with open(stem + ".json", "w") as f:
        json.dump({"host": host, "workload": args.workload, "seed": args.seed,
                   "variant": variant, "result": result,
                   "rounds": [r.__dict__ | {"cells": [c.__dict__ for c in r.cells]}
                              for r in rounds]}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
