"""Tests for futures and generator-based processes."""

import pytest

from repro.sim import (
    Future,
    FutureError,
    SimTimeout,
    Simulator,
    all_of,
    run_process,
    sleep,
    spawn,
    with_timeout,
)


def test_future_resolve_and_result():
    fut = Future()
    assert not fut.done
    fut.resolve(42)
    assert fut.done and fut.successful
    assert fut.result() == 42


def test_future_double_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(FutureError):
        fut.resolve(2)


def test_future_premature_result_raises():
    with pytest.raises(FutureError):
        Future().result()


def test_future_failure_reraises():
    fut = Future()
    fut.fail(ValueError("boom"))
    assert fut.failed
    with pytest.raises(ValueError):
        fut.result()


def test_try_resolve_is_idempotent():
    fut = Future()
    assert fut.try_resolve(1)
    assert not fut.try_resolve(2)
    assert fut.result() == 1


def test_callback_fires_immediately_when_already_done():
    fut = Future()
    fut.resolve("x")
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    assert seen == ["x"]


def test_then_hands_on_value_failure_and_fn_error():
    source = Future()
    doubled = source.then(lambda value: value * 2)
    source.resolve(21)
    assert doubled.result() == 42
    # already done: handed on at once
    assert source.then(str).result() == "21"

    broken = Future()
    handed = broken.then(lambda value: value * 2)
    boom = ValueError("boom")
    broken.fail(boom)
    assert handed.failed and handed.exception is boom

    raising = Future()
    handed = raising.then(lambda value: 1 / value)
    raising.resolve(0)  # fn raises: that is the outcome, not a crash
    assert handed.failed and isinstance(handed.exception, ZeroDivisionError)


def test_then_into_an_existing_future_leaves_a_settled_one_alone():
    source, ready = Future(), Future()
    assert source.then(lambda _value: "bound", into=ready) is ready
    ready.fail(RuntimeError("stopped first"))
    source.resolve(1)
    assert ready.failed and isinstance(ready.exception, RuntimeError)

    source, ready = Future(), Future()
    source.then(lambda _value: "bound", into=ready)
    source.resolve(1)
    assert ready.result() == "bound"


def test_process_sleep_advances_time():
    sim = Simulator()

    def proc():
        yield sleep(sim, 1.5)
        return sim.now

    assert run_process(sim, proc()) == 1.5


def test_process_returns_value():
    sim = Simulator()

    def proc():
        yield sleep(sim, 0.1)
        return "done"

    assert run_process(sim, proc()) == "done"


def test_process_can_await_process():
    sim = Simulator()

    def child():
        yield sleep(sim, 1.0)
        return 10

    def parent():
        value = yield spawn(sim, child())
        return value + 1

    assert run_process(sim, parent()) == 11


def test_process_exception_propagates_to_future():
    sim = Simulator()

    def proc():
        yield sleep(sim, 0.1)
        raise RuntimeError("inner")

    p = spawn(sim, proc())
    sim.run()
    assert p.failed
    with pytest.raises(RuntimeError):
        p.result()


def test_failed_future_is_thrown_into_generator():
    sim = Simulator()
    fut = Future()
    sim.schedule(1.0, fut.fail, ValueError("remote"))

    def proc():
        try:
            yield fut
        except ValueError as exc:
            return f"caught {exc}"

    assert run_process(sim, proc()) == "caught remote"


def test_yielding_non_future_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    p = spawn(sim, proc())
    sim.run()
    assert p.failed and isinstance(p.exception, TypeError)


def test_yield_already_done_future_continues_synchronously():
    sim = Simulator()
    fut = Future()
    fut.resolve(5)

    def proc():
        v = yield fut
        return v

    assert run_process(sim, proc()) == 5


def test_all_of_gathers_in_order():
    sim = Simulator()
    futs = [Future() for _ in range(3)]
    sim.schedule(3.0, futs[0].resolve, "a")
    sim.schedule(1.0, futs[1].resolve, "b")
    sim.schedule(2.0, futs[2].resolve, "c")

    def proc():
        values = yield all_of(futs)
        return values

    assert run_process(sim, proc()) == ["a", "b", "c"]


def test_all_of_empty():
    sim = Simulator()

    def proc():
        values = yield all_of([])
        return values

    assert run_process(sim, proc()) == []


def test_all_of_fails_fast():
    sim = Simulator()
    futs = [Future(), Future()]
    sim.schedule(1.0, futs[1].fail, ValueError("nope"))
    combined = all_of(futs)
    sim.run()
    assert combined.failed


def test_with_timeout_fires():
    sim = Simulator()
    fut = Future()
    wrapped = with_timeout(sim, fut, 1.0)
    sim.run()
    assert wrapped.failed and isinstance(wrapped.exception, SimTimeout)


def test_with_timeout_passes_value_through():
    sim = Simulator()
    fut = Future()
    sim.schedule(0.5, fut.resolve, 99)
    wrapped = with_timeout(sim, fut, 1.0)
    sim.run()
    assert wrapped.result() == 99


def test_run_process_raises_if_unfinished():
    sim = Simulator()

    def proc():
        yield Future()  # never resolves

    with pytest.raises(RuntimeError):
        run_process(sim, proc(), until=10.0)
