"""Property-based tests for the discrete-event engines.

The original single-engine properties now run against both the heap
and the calendar queue; on top of those, a differential battery drives
random schedule/batch/cancel/run programs through the two engines and
requires identical firing orders, clocks, and event counts.  The
calendar queue earns its place by being *indistinguishable*, not just
fast.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import ENGINES, make_engine

ENGINE_NAMES = sorted(ENGINES)

pytestmark = pytest.mark.parametrize("engine_name", ENGINE_NAMES)


@settings(max_examples=80, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
def test_events_fire_in_nondecreasing_time(engine_name, delays):
    engine = make_engine(engine_name)
    fired: list[float] = []
    for d in delays:
        engine.schedule(d, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=30),
    cancel_mask=st.lists(st.booleans(), min_size=2, max_size=30),
)
def test_cancelled_events_never_fire(engine_name, delays, cancel_mask):
    engine = make_engine(engine_name)
    fired: list[int] = []
    handles = [
        engine.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)
    ]
    for handle, cancel in zip(handles, cancel_mask):
        if cancel:
            handle.cancel()
    engine.run()
    cancelled = {i for i, c in enumerate(zip(cancel_mask, delays)) if cancel_mask[i]}
    assert set(fired).isdisjoint(cancelled)
    expected = {i for i in range(len(delays)) if i >= len(cancel_mask) or not cancel_mask[i]}
    assert set(fired) == expected


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30),
    until=st.floats(min_value=0.0, max_value=60.0),
)
def test_run_until_is_a_clean_cut(engine_name, delays, until):
    engine = make_engine(engine_name)
    fired: list[float] = []
    for d in delays:
        engine.schedule(d, lambda d=d: fired.append(d))
    engine.run(until=until)
    assert all(d <= until for d in fired)
    assert engine.now == until or (engine.now <= until and not delays)
    cut = len(fired)
    engine.run()
    assert len(fired) - cut == sum(1 for d in delays if d > until)


# ----------------------------------------------------------------------
# Differential battery: heap vs calendar on random programs
# ----------------------------------------------------------------------

_DELAY = st.floats(min_value=0.0, max_value=50.0)

#: One program instruction.  Every operation the simulator performs on
#: an engine is representable: single scheduling, bulk scheduling with
#: and without handles, cancellation, bounded runs, single steps.
_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(
        st.just("batch"),
        st.lists(_DELAY, min_size=0, max_size=8),
        st.booleans(),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("run_until"), st.floats(min_value=0.0, max_value=60.0)),
    st.tuples(st.just("step")),
)


def _execute(engine_name: str, program):
    """Run *program* on a fresh engine; return its observable history.

    Each scheduled event carries a unique tag, so the fired list pins
    the exact (time, seq) order -- equal-time events included.
    """
    eng = make_engine(engine_name)
    fired: list[tuple[int, float]] = []
    handles: list = []
    next_tag = [0]

    def cb(tag: int):
        return lambda: fired.append((tag, eng.now))

    for op in program:
        kind = op[0]
        if kind == "schedule":
            tag = next_tag[0]
            next_tag[0] += 1
            handles.append(eng.schedule(op[1], cb(tag)))
        elif kind == "batch":
            delays, want_handles = op[1], op[2]
            times = [eng.now + d for d in delays]
            tags = range(next_tag[0], next_tag[0] + len(delays))
            next_tag[0] += len(delays)
            out = eng.schedule_batch(
                times, [cb(t) for t in tags], handles=want_handles
            )
            if want_handles and out:
                handles.extend(out)
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run_until":
            eng.run(until=eng.now + op[1])
        elif kind == "step":
            eng.step()
    eng.run()
    return fired, eng.now, eng.processed_events


@settings(max_examples=200, deadline=None)
@given(program=st.lists(_OP, min_size=1, max_size=25))
def test_engines_agree_on_random_programs(engine_name, program):
    """THE differential lock: every engine replays any program with
    the exact firing order, final clock, and event count of the
    reference heap engine."""
    got = _execute(engine_name, program)
    want = _execute("heap", program)
    assert got[0] == want[0], "firing order diverged"
    assert got[1] == want[1], "final clock diverged"
    assert got[2] == want[2], "processed_events diverged"
