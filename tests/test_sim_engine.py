"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(10.0)
    env.run()
    assert env.now == 10.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(3.0)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_receives_timeout_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_process_return_value_via_run_until():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_processes_execute_in_creation_order_at_same_time():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert order == ["a", "b"]


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, name):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, 5.0, "late"))
    env.process(proc(env, 1.0, "early"))
    env.run()
    assert order == ["early", "late"]


def test_process_waits_for_another_process():
    env = Environment()
    log = []

    def worker(env):
        yield env.timeout(4.0)
        log.append("worker done")
        return "result"

    def boss(env):
        result = yield env.process(worker(env))
        log.append(f"boss saw {result}")

    env.process(boss(env))
    env.run()
    assert log == ["worker done", "boss saw result"]


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()
    seen = []

    def waiter(env, event):
        value = yield event
        seen.append(value)

    def firer(env, event):
        yield env.timeout(3.0)
        event.succeed("fired")

    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert seen == ["fired"]


def test_event_cannot_be_triggered_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))

    event = env.event()
    env.process(waiter(env, event))
    event.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("broken")

    env.process(bad(env))
    with pytest.raises(ValueError, match="broken"):
        env.run()


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    process = bad(env)
    env.process(process)
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_reaches_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append(interrupt.cause)

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == ["wake up"]


def test_interrupting_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_any_of_fires_on_first_event():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.any_of([env.timeout(5.0, value="slow"), env.timeout(1.0, value="fast")])
        seen.append(list(result.values()))

    env.process(proc(env))
    env.run()
    assert seen == [["fast"]]
    assert env.now == pytest.approx(5.0)  # the slow timeout still drains


def test_all_of_waits_for_every_event():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.all_of([env.timeout(2.0, value="a"), env.timeout(7.0, value="b")])
        seen.append(sorted(result.values()))

    env.process(proc(env))
    env.run()
    assert seen == [["a", "b"]]


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(3.0)
    env.timeout(1.5)
    assert env.peek() == pytest.approx(1.5)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()
