"""Engine hot-path microbenchmark (events/sec).

Run with ``pytest benchmarks/perf --benchmark-only``. This measures the
simulator *host* cost, not simulated results; the reproduced science
lives in ``benchmarks/test_fig*``.
"""

from repro.sim.engine import Engine

N_EVENTS = 50_000


def _churn() -> Engine:
    eng = Engine()
    remaining = [N_EVENTS]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            eng.schedule(1_000, tick)

    for lane in range(8):
        eng.schedule(1_000 + lane, tick)
    eng.run()
    return eng


def test_event_churn_rate(benchmark):
    eng = benchmark(_churn)
    assert eng.events_fired >= N_EVENTS
    benchmark.extra_info["events_fired"] = eng.events_fired
