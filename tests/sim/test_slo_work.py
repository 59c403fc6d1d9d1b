"""SLO work gate: a seeded flash crowd evaluates each objective only
where its verdict can change.

The monitor evaluates an objective once per instant, after the
instant's last event, and only when an event changed its inputs, a
sample left its window, or it is in breach or alerting while anything
else is evaluated.  Re-evaluating every objective on every observation
made 9.42 evaluations per task on this run (3,768); the rule makes 7.27
(2,908).  A count is deterministic, so the gate cannot flake the way a
wall-clock tolerance does; it fails at 10% above the pinned count.
"""

from repro.sim.experiment import run_experiment
from repro.sim.slo import SLOMonitor
from tests.sim.test_slo import flash_crowd_spec

#: ``SLOMonitor._evaluate`` calls per task on ``flash_crowd_spec()``.
EVALUATIONS_PER_TASK = 7.27


def test_flash_crowd_evaluations_per_task(monkeypatch):
    calls = [0]
    evaluate = SLOMonitor._evaluate

    def counting(self, state, now):
        calls[0] += 1
        return evaluate(self, state, now)

    monkeypatch.setattr(SLOMonitor, "_evaluate", counting)
    spec = flash_crowd_spec()
    report = run_experiment(spec).report
    # Four objectives, and a surge that piles up the queue past its bound.
    assert report.slo_objectives == 4
    assert report.slo_breach_seconds["queue-depth"] > 0
    per_task = calls[0] / spec.tasks
    assert per_task <= 1.1 * EVALUATIONS_PER_TASK, per_task
