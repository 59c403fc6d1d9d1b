"""Routing work gate: a seeded wide-grid run routes each site pair once.

Pricing asks the network for a transfer time for every candidate of
every placement.  The route cache in :class:`repro.grid.network.Network`
makes each (src, dst) pair cost one shortest-path search until the
topology next changes.  This test counts the searches on a seeded
16-node, 200-task run; a count is deterministic, so the gate cannot
flake the way a wall-clock tolerance does, and it fails as soon as
per-candidate routing comes back.
"""

import pytest

from repro.grid.network import Network
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.faults import FAULT_PRESETS

MODELS = ("XC5VLX330", "XC5VLX155", "XC5VLX220", "XC5VLX110")


def wide_spec(**overrides) -> ExperimentSpec:
    """16 nodes x (2 GPPs + 2 RPEs x 3 regions), 24 configurations."""
    nodes = tuple(
        NodeSpec(
            gpps=2,
            gpp_mips=1_500 + 250 * (i % 3),
            rpe_models=(MODELS[i % 4],) * 2,
            regions_per_rpe=3,
        )
        for i in range(16)
    )
    return ExperimentSpec(
        tasks=200,
        nodes=nodes,
        configurations=24,
        arrival_rate_per_s=15.0,
        gpp_fraction=0.4,
        seed=3,
    ).with_(**overrides)


@pytest.fixture
def routing_log(monkeypatch):
    """Records (topology epoch, src, dst) per shortest-path search
    (``Network.path``); the epoch advances on every topology mutation."""
    log: list[tuple[int, int, int]] = []
    epoch = [0]
    real_search = Network.path

    def search(self, source, target):
        log.append((epoch[0], source, target))
        return real_search(self, source, target)

    monkeypatch.setattr(Network, "path", search)
    for name in ("connect", "disconnect", "remove_site"):
        real = getattr(Network, name)

        def mutate(self, *args, _real=real, **kwargs):
            epoch[0] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, mutate)
    return log


def test_fault_free_run_routes_each_pair_once(routing_log):
    report = run_experiment(wide_spec()).report
    assert report.completed == 200
    pairs = {(src, dst) for _, src, dst in routing_log}
    assert len(routing_log) == len(pairs)
    # User uplinks to 16 sites, plus producer -> consumer site pairs.
    assert 16 <= len(pairs) <= 16 + 16 * 15


def test_link_faults_reroute_once_per_topology_change(routing_log):
    run_experiment(wide_spec(faults=FAULT_PRESETS["links"]))
    epochs = {epoch for epoch, _, _ in routing_log}
    assert len(epochs) > 1  # the faults did change the topology mid-run
    # Each pair is searched at most once between two topology changes.
    assert len(routing_log) == len(set(routing_log))
