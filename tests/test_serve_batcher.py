"""Deterministic MicroBatcher tests: the policy on a fake clock, the
worker loop on the real one."""

import threading
import time

import pytest

from repro.core.triples import LabeledTriple
from repro.ontology.relations import HAS_ROLE
from repro.resilience.retry import ShedError
from repro.serve.batcher import MicroBatcher


class FakeClock:
    """Manually advanced monotonic clock (matches the resilience Clock API)."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds

    def advance(self, seconds):
        self.now += seconds


def make_triples(n, tag="t"):
    return [
        LabeledTriple(
            subject_id=f"s:{tag}{i}",
            subject_name=f"subject {tag}{i}",
            relation=HAS_ROLE,
            object_id=f"o:{tag}{i}",
            object_name=f"object {tag}{i}",
            label=0,
        )
        for i in range(n)
    ]


def echo_handler(triples):
    """Labels every triple 1; length-preserving, order-preserving."""
    return [1] * len(triples)


class TestPolicyOnFakeClock:
    def test_coalesces_up_to_max_batch(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=4, max_wait_s=1.0, clock=clock
        )
        batcher.submit(make_triples(2, "a"))
        batcher.submit(make_triples(2, "b"))
        ready = batcher.poll()
        assert len(ready) == 2  # 4 triples waiting == max_batch -> flush
        assert sum(len(item.triples) for item in ready) == 4
        assert batcher.poll() == []

    def test_holds_small_batch_until_max_wait(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=64, max_wait_s=0.005, clock=clock
        )
        batcher.submit(make_triples(1))
        assert batcher.poll() == []  # young and small: keep waiting
        clock.advance(0.004)
        assert batcher.poll() == []
        clock.advance(0.002)  # oldest now waited 6 ms > 5 ms
        ready = batcher.poll()
        assert len(ready) == 1

    def test_zero_max_wait_is_the_single_item_fast_path(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=64, max_wait_s=0.0, clock=clock
        )
        batcher.submit(make_triples(1))
        assert len(batcher.poll()) == 1  # no coalescing window at all

    def test_takes_whole_requests_up_to_the_triple_budget(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=4, max_wait_s=0.0, clock=clock
        )
        batcher.submit(make_triples(3, "a"))
        batcher.submit(make_triples(3, "b"))  # would exceed the budget
        ready = batcher.poll()
        assert [len(item.triples) for item in ready] == [3]
        assert [len(item.triples) for item in batcher.poll()] == [3]

    def test_oversized_request_still_dispatches_alone(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=4, max_wait_s=0.0, clock=clock
        )
        batcher.submit(make_triples(10))
        ready = batcher.poll()
        assert len(ready) == 1
        assert len(ready[0].triples) == 10

    def test_queue_full_raises(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=4, max_wait_s=1.0, max_queue=2, clock=clock
        )
        batcher.submit(make_triples(1))
        batcher.submit(make_triples(1))
        with pytest.raises(ShedError) as shed:
            batcher.submit(make_triples(1))
        assert shed.value.reason == "queue-full"
        assert shed.value.retry_after_s == 2.0  # two batch windows

    def test_flush_drains_everything(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            echo_handler, max_batch=64, max_wait_s=60.0, clock=clock
        )
        batcher.submit(make_triples(1, "a"))
        batcher.submit(make_triples(1, "b"))
        assert batcher.poll() == []  # policy says wait...
        assert len(batcher.flush()) == 2  # ...flush overrides it
        assert batcher.flush() == []


class TestDispatch:
    def test_results_fan_back_out_per_request(self):
        clock = FakeClock()
        calls = []

        def handler(triples):
            calls.append(len(triples))
            return [i % 2 for i in range(len(triples))]

        batcher = MicroBatcher(handler, max_batch=8, max_wait_s=0.0, clock=clock)
        a = batcher.submit(make_triples(2, "a"))
        b = batcher.submit(make_triples(3, "b"))
        batcher.dispatch(batcher.flush())
        assert calls == [5]  # one vectorised call for both requests
        assert a.result == [0, 1]
        assert b.result == [0, 1, 0]
        assert a.batch_size == b.batch_size == 5

    def test_handler_error_lands_on_every_item(self):
        clock = FakeClock()

        def broken(triples):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken, max_batch=8, max_wait_s=0.0, clock=clock)
        a = batcher.submit(make_triples(1, "a"))
        b = batcher.submit(make_triples(1, "b"))
        batcher.dispatch(batcher.flush())
        assert isinstance(a.error, RuntimeError)
        assert isinstance(b.error, RuntimeError)
        assert a.result is None

    def test_wrong_arity_handler_is_an_error_not_a_misroute(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            lambda triples: [1], max_batch=8, max_wait_s=0.0, clock=clock
        )
        a = batcher.submit(make_triples(2))
        batcher.dispatch(batcher.flush())
        assert a.error is not None
        assert "labels" in str(a.error)

    def test_snapshot_counts_batches_and_sizes(self):
        clock = FakeClock()
        batcher = MicroBatcher(echo_handler, max_batch=8, max_wait_s=0.0, clock=clock)
        batcher.submit(make_triples(2, "a"))
        batcher.submit(make_triples(4, "b"))
        batcher.dispatch(batcher.flush())
        snapshot = batcher.snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["requests"] == 2
        assert snapshot["triples"] == 6
        assert snapshot["batch_size_max"] == 6
        assert snapshot["batch_size_mean"] == 6.0
        assert snapshot["pending"] == 0


class TestWorkerThread:
    def test_concurrent_submitters_all_get_answers(self):
        batcher = MicroBatcher(
            echo_handler, max_batch=16, max_wait_s=0.002
        ).start()
        items = []
        collect = threading.Lock()

        def client(i):
            item = batcher.submit(make_triples(2, f"c{i}"))
            assert item.wait(timeout=10)
            with collect:
                items.append(item)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        batcher.stop()
        assert len(items) == 20
        assert all(item.result == [1, 1] for item in items)
        snapshot = batcher.snapshot()
        assert snapshot["requests"] == 20
        assert snapshot["triples"] == 40

    def test_stop_drains_pending_work(self):
        # A slow trickle: submit then immediately stop; the drain must
        # still answer the waiting item.
        batcher = MicroBatcher(echo_handler, max_batch=64, max_wait_s=5.0).start()
        item = batcher.submit(make_triples(1))
        batcher.stop()
        assert item.wait(timeout=1)
        assert item.result == [1]

    def test_submit_after_stop_is_an_error(self):
        batcher = MicroBatcher(echo_handler).start()
        batcher.stop()
        with pytest.raises(RuntimeError):
            batcher.submit(make_triples(1))
