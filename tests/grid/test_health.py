"""Unit tests for node health scoring and circuit breakers."""

import pytest

from repro.grid.health import BreakerState, HealthPolicy, HealthTracker


def make_tracker(**overrides) -> HealthTracker:
    defaults = dict(
        ewma_alpha=0.5,
        open_threshold=0.6,
        min_events=2,
        open_duration_s=10.0,
        half_open_probes=1,
        close_after=2,
    )
    defaults.update(overrides)
    return HealthTracker(HealthPolicy(**defaults))


def trip(tracker: HealthTracker, node_id: int = 0, now: float = 0.0) -> None:
    """Drive *node_id*'s breaker OPEN with consecutive failures."""
    for _ in range(10):
        if tracker.record_failure(node_id, now) == "open":
            return
    raise AssertionError("breaker never tripped")


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"open_threshold": 0.0},
            {"min_events": 0},
            {"open_duration_s": 0.0},
            {"half_open_probes": 0},
            {"close_after": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)


class TestScoring:
    def test_ewma_update(self):
        tracker = make_tracker(min_events=100)  # never trips
        tracker.record_failure(0, 0.0)
        assert tracker.node(0).score == pytest.approx(0.5)
        tracker.record_failure(0, 1.0)
        assert tracker.node(0).score == pytest.approx(0.75)
        tracker.record_success(0, 2.0)
        assert tracker.node(0).score == pytest.approx(0.375)

    def test_min_events_guards_cold_nodes(self):
        tracker = make_tracker(min_events=3)
        # Score after 1 failure (0.5) is below 0.6; after two it is
        # 0.75 >= 0.6, but min_events=3 still holds the breaker.
        assert tracker.record_failure(0, 0.0) is None
        assert tracker.record_failure(0, 0.0) is None
        assert tracker.state(0, 0.0) is BreakerState.CLOSED
        assert tracker.record_failure(0, 0.0) == "open"

    def test_success_keeps_breaker_closed(self):
        tracker = make_tracker()
        for t in range(20):
            assert tracker.record_success(0, float(t)) is None
        assert tracker.state(0, 20.0) is BreakerState.CLOSED
        assert tracker.blocked_nodes(20.0) == set()


class TestTripAndQuarantine:
    def test_open_blocks_node(self):
        tracker = make_tracker()
        trip(tracker, now=5.0)
        assert tracker.state(0, 5.0) is BreakerState.OPEN
        assert tracker.is_blocked(0, 5.0)
        assert tracker.blocked_nodes(6.0) == {0}

    def test_other_nodes_unaffected(self):
        tracker = make_tracker()
        tracker.register_node(1)
        trip(tracker, node_id=0)
        assert not tracker.is_blocked(1, 0.0)
        assert tracker.blocked_nodes(0.0) == {0}

    def test_half_open_after_window(self):
        tracker = make_tracker(open_duration_s=10.0)
        trip(tracker, now=0.0)
        assert tracker.state(0, 9.999) is BreakerState.OPEN
        assert tracker.state(0, 10.0) is BreakerState.HALF_OPEN
        # HALF_OPEN with free probe slots is not blocked...
        assert not tracker.is_blocked(0, 10.0)
        assert tracker.is_probation(0, 10.0)
        # ...until the quota is taken.
        tracker.note_probe(0)
        assert tracker.is_blocked(0, 11.0)

    def test_probe_failure_reopens_full_window(self):
        tracker = make_tracker(open_duration_s=10.0)
        trip(tracker, now=0.0)
        tracker.state(0, 10.0)
        tracker.note_probe(0)
        assert tracker.record_failure(0, 12.0, probe=True) == "open"
        assert tracker.state(0, 12.0) is BreakerState.OPEN
        assert tracker.state(0, 21.0) is BreakerState.OPEN  # 12 + 10 > 21
        assert tracker.state(0, 22.0) is BreakerState.HALF_OPEN

    def test_probes_close_breaker(self):
        tracker = make_tracker(close_after=2, open_duration_s=10.0)
        trip(tracker, now=0.0)
        tracker.state(0, 10.0)
        tracker.note_probe(0)
        assert tracker.record_success(0, 11.0, probe=True) is None
        tracker.note_probe(0)
        assert tracker.record_success(0, 12.0, probe=True) == "close"
        assert tracker.state(0, 12.0) is BreakerState.CLOSED
        # Close resets the score: the node starts from a clean slate.
        assert tracker.node(0).score == 0.0

    def test_non_probe_success_does_not_close(self):
        """Stragglers dispatched before the trip complete during
        quarantine without rehabilitating the node."""
        tracker = make_tracker(close_after=1)
        trip(tracker, now=0.0)
        tracker.state(0, 10.0)  # HALF_OPEN
        assert tracker.record_success(0, 11.0, probe=False) is None
        assert tracker.state(0, 11.0) is BreakerState.HALF_OPEN

    def test_abort_probe_returns_slot_without_judgment(self):
        tracker = make_tracker(half_open_probes=1)
        trip(tracker, now=0.0)
        tracker.state(0, 10.0)
        tracker.note_probe(0)
        assert tracker.is_blocked(0, 10.5)
        tracker.abort_probe(0)
        assert not tracker.is_blocked(0, 10.5)
        assert tracker.state(0, 10.5) is BreakerState.HALF_OPEN


class TestBlockedNodes:
    def test_open_breaker_half_opens_through_blocked_nodes(self):
        """``blocked_nodes`` skips CLOSED breakers without per-node
        work, but an OPEN one past its window still turns HALF_OPEN
        there and samples the breaker gauge exactly once."""
        samples = []

        class Gauge:
            def __init__(self, node):
                self.node = node

            def set(self, value):
                samples.append((self.node, value))

        class Telemetry:
            def gauge(self, name, help, *, node):
                assert name == "node_breaker_state"
                return Gauge(node)

        tracker = make_tracker(open_duration_s=10.0)
        tracker.register_node(1)
        trip(tracker, node_id=0, now=0.0)
        trip(tracker, node_id=2, now=5.0)
        tracker.telemetry = Telemetry()
        assert tracker.blocked_nodes(9.0) == {0, 2}
        assert samples == []
        # Node 0's window is over: half-open with a free probe slot.
        assert tracker.blocked_nodes(10.0) == {2}
        assert tracker.node(0).state is BreakerState.HALF_OPEN
        half_open = HealthTracker.STATE_VALUES[BreakerState.HALF_OPEN]
        assert samples == [(0, half_open)]
        tracker.note_probe(0)
        assert list(tracker.blocked_nodes(11.0)) == [0, 2]
        assert samples == [(0, half_open)]
        assert tracker.node(1).state is BreakerState.CLOSED


class TestAccounting:
    """The episode a node's record carries (the ``quarantine`` event's
    ``episode``); the metrics fold those events into node-seconds."""

    def test_quarantine_time_spans_open_and_half_open(self):
        tracker = make_tracker(open_duration_s=10.0, close_after=1)
        trip(tracker, now=5.0)
        assert tracker.node(0).quarantined_since == 5.0
        tracker.state(0, 15.0)  # half-open: still the same episode
        assert tracker.node(0).quarantined_since == 5.0
        tracker.note_probe(0)
        assert tracker.record_success(0, 17.0, probe=True) == "close"
        assert tracker.node(0).quarantined_since is None
        assert tracker.node(0).quarantine_episodes == 1

    def test_reopen_during_probation_is_one_episode(self):
        """OPEN -> HALF_OPEN -> OPEN is a single continuous quarantine
        episode, not two."""
        tracker = make_tracker(open_duration_s=10.0)
        trip(tracker, now=0.0)
        tracker.state(0, 10.0)
        tracker.note_probe(0)
        assert tracker.record_failure(0, 12.0, probe=True) == "open"  # re-open
        assert tracker.node(0).quarantine_episodes == 1
        assert tracker.node(0).quarantined_since == 0.0

    def test_register_is_idempotent(self):
        tracker = make_tracker()
        trip(tracker, now=0.0)
        tracker.register_node(0)  # node rejoins after downtime
        assert tracker.state(0, 1.0) is BreakerState.OPEN
