"""Mailbox BUSY flow control under contention + the retry/backoff helper
that applies the same discipline to cluster fabric ports."""

from types import SimpleNamespace

from repro.cluster.collectives import (
    RETRY_BASE_BACKOFF_PS,
    RETRY_MAX_ATTEMPTS,
    send_message,
)
from repro.cluster.fabric import DEFAULT_PORT_CAPACITY, NetworkFabric
from repro.common.units import ms
from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node
from repro.core.node import run_until_done
from repro.hafnium.mailbox import Mailbox
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Hypercall, Sleep, Thread, WaitEvent
from repro.sim.engine import Engine


class TestBusyAccounting:
    def test_each_rejected_sender_counted(self):
        box = Mailbox(Engine(), "vm")
        assert box.deliver(2, "first", 8)
        for sender in (3, 4, 5):
            assert not box.deliver(sender, "late", 8)
        assert box.busy_rejections == 3
        box.retrieve()
        assert box.deliver(3, "after", 8)
        assert box.busy_rejections == 3  # success doesn't count

    def test_space_signal_fires_only_when_slot_frees(self):
        eng = Engine()
        box = Mailbox(eng, "vm")
        freed = []
        box.space_signal.subscribe(lambda *_: freed.append(eng.now))
        assert box.retrieve() is None
        assert freed == []  # empty retrieve frees nothing
        box.deliver(2, "m", 8)
        box.retrieve()
        assert len(freed) == 1

    def test_fifo_fairness_of_space_notification(self):
        """Waiters subscribed in arrival order are notified in that order
        when the slot frees — the release path cannot reorder them."""
        eng = Engine()
        box = Mailbox(eng, "vm")
        box.deliver(2, "hog", 8)
        order = []
        for name in ("first-waiter", "second-waiter", "third-waiter"):
            box.space_signal.subscribe(lambda *_, n=name: order.append(n))
        box.retrieve()
        assert order == ["first-waiter", "second-waiter", "third-waiter"]


class TestRetryHelper:
    """The retry/backoff helper, ``cluster.collectives.send_message``,
    against a fabric whose destination port already holds
    ``DEFAULT_PORT_CAPACITY`` in-flight messages."""

    def _saturated(self):
        engine = Engine()
        fabric = NetworkFabric(engine, 2)
        inbox = []
        fabric.attach(0, lambda msg: None)
        fabric.attach(1, inbox.append)
        for i in range(DEFAULT_PORT_CAPACITY):
            assert fabric.send(0, 1, i, kind="fill", tag=i, size_bytes=1000)["ok"]
        return engine, SimpleNamespace(fabric=fabric), inbox

    def _drive(self, gen, on_sleep=lambda sleep: None):
        """Run the fragment, answering every yield; returns (yielded
        items, return value). ``on_sleep`` sees each backoff sleep."""
        items = []
        try:
            item = next(gen)
            while True:
                items.append(item)
                if isinstance(item, Sleep):
                    on_sleep(item)
                item = gen.send(None)
        except StopIteration as stop:
            return items, stop.value

    def _send(self, cluster, payload="m"):
        return send_message(cluster, 0, 1, payload, kind="data", tag="t")

    def test_first_try_success(self):
        engine, cluster, inbox = self._saturated()
        engine.run()  # drain the port
        items, result = self._drive(self._send(cluster, "hello"))
        assert result == {"ok": True, "attempts": 1, "error": None}
        assert [type(i) for i in items] == [ComputePhase]
        engine.run()
        assert inbox[-1].payload == "hello" and inbox[-1].tag == "t"

    def test_exponential_backoff_doubles(self):
        engine, cluster, _ = self._saturated()
        sleeps = []

        def on_sleep(sleep):
            sleeps.append(sleep.duration_ps)
            if len(sleeps) == 3:
                engine.run()  # the port drains during the third backoff

        items, result = self._drive(self._send(cluster), on_sleep)
        assert sleeps == [
            RETRY_BASE_BACKOFF_PS << attempt for attempt in range(3)
        ]
        assert result == {"ok": True, "attempts": 4, "error": None}
        assert cluster.fabric.stats()["busy_rejections"] == 3

    def test_exhaustion_reports_busy(self):
        _, cluster, _ = self._saturated()
        items, result = self._drive(self._send(cluster))
        assert result == {
            "ok": False, "attempts": RETRY_MAX_ATTEMPTS, "error": "port-busy",
        }
        # One software cost per attempt; no sleep after the final attempt.
        assert sum(isinstance(i, ComputePhase) for i in items) == RETRY_MAX_ATTEMPTS
        assert sum(isinstance(i, Sleep) for i in items) == RETRY_MAX_ATTEMPTS - 1

    def test_non_busy_failure_stops_immediately(self):
        _, cluster, _ = self._saturated()
        cluster.fabric.fail_rank(1)
        items, result = self._drive(self._send(cluster))
        assert result == {"ok": False, "attempts": 1, "error": "peer-dead"}
        assert not any(isinstance(i, Sleep) for i in items)


class TestConcurrentSendersEndToEnd:
    def test_contending_guests_all_succeed_with_retry(self):
        """Two guest threads race for the primary's single mailbox slot
        while the primary drains slowly: the loser sees BUSY, backs off,
        and eventually lands its message. Nothing is lost or duplicated."""
        node = build_node(CONFIG_HAFNIUM_KITTEN, seed=23)
        spm = node.spm
        results = {}

        def sender(tag):
            attempts = 0
            while True:
                attempts += 1
                res = yield Hypercall(
                    "mailbox_send", dest_vm_id=1, payload=("msg", tag), size_bytes=64
                )
                if not res["busy"]:
                    break
                yield Sleep(ms(1))
            results[tag] = {"ok": res["ok"], "attempts": attempts}

        threads = [
            Thread("send-a", sender("a"), cpu=0, aspace="fc"),
            Thread("send-b", sender("b"), cpu=1, aspace="fc"),
        ]
        node.spawn_workload_threads(threads)

        got = []

        def slow_server():
            # Let both senders race for the single slot first: the winner
            # fills it, the loser must see BUSY and back off.
            yield Sleep(ms(3))
            while len(got) < 2:
                res = yield Hypercall("mailbox_recv")
                if res["ok"]:
                    got.append(res["message"].payload)
                    yield Sleep(ms(1))
                else:
                    yield WaitEvent(res["signal"])

        server = Thread("server", slow_server(), cpu=0, aspace="srv", priority=5)
        spm.vm_by_name("primary").kernel.spawn(server)
        run_until_done(node, threads + [server], max_seconds=10)

        assert sorted(p[1] for p in got) == ["a", "b"]
        assert results["a"]["ok"] and results["b"]["ok"]
        total_attempts = results["a"]["attempts"] + results["b"]["attempts"]
        assert total_attempts >= 3  # someone actually hit BUSY and retried
        assert spm.mailboxes[1].busy_rejections >= 1
