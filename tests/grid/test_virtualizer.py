"""Unit tests for the virtualization layer."""

import pytest

from repro.core.execreq import Artifacts, ExecReq
from repro.core.node import Node
from repro.core.task import simple_task
from repro.core.abstraction import AbstractionLevel
from repro.grid.virtualizer import (
    BitstreamRepository,
    SoftcoreProvisioner,
    SynthesisService,
    VirtualizationError,
    VirtualizationLayer,
)
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.softcore import RHO_VEX_2ISSUE, RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass


def make_design(name="acc", slices=2_000, implements="fft"):
    return HDLDesign(
        name=name, language="VHDL", source_lines=500,
        estimated_slices=slices, implements=implements,
    )


def rpe_node():
    node = Node(node_id=0)
    node.add_rpe(device_by_model("XC5VLX110"), regions=2)
    return node


class TestSynthesisService:
    def test_caches_per_design_device(self):
        service = SynthesisService()
        device = device_by_model("XC5VLX110")
        first = service.synthesize(make_design(), device)
        second = service.synthesize(make_design(), device)
        assert first is second
        assert service.synthesis_runs == 1
        assert service.cache_hits == 1

    def test_different_device_is_a_new_run(self):
        service = SynthesisService()
        service.synthesize(make_design(), device_by_model("XC5VLX110"))
        service.synthesize(make_design(), device_by_model("XC5VLX220"))
        assert service.synthesis_runs == 2

    def test_provider_without_cad_tools_refuses(self):
        # Section III-B3 provider: no CAD tools.
        service = SynthesisService(has_cad_tools=False)
        with pytest.raises(VirtualizationError, match="CAD tools"):
            service.synthesize(make_design(), device_by_model("XC5VLX110"))


class TestBitstreamRepository:
    def bs(self, implements="fft", model="XC5VLX110"):
        return Bitstream(1, model, 1_000, 500, implements=implements)

    def test_put_get(self):
        repo = BitstreamRepository()
        repo.put(self.bs())
        assert repo.get("fft", "XC5VLX110") is not None
        assert repo.get("fft", "XC5VLX220") is None
        assert repo.get("fir", "XC5VLX110") is None

    def test_anonymous_bitstream_rejected(self):
        repo = BitstreamRepository()
        with pytest.raises(ValueError, match="declare"):
            repo.put(Bitstream(1, "XC5VLX110", 1_000, 500))

    def test_for_function_spans_devices(self):
        repo = BitstreamRepository()
        repo.put(self.bs(model="XC5VLX110"))
        repo.put(self.bs(model="XC5VLX220"))
        repo.put(self.bs(implements="fir"))
        assert len(repo.for_function("fft")) == 2
        assert len(repo) == 3


class TestSoftcoreProvisioner:
    def test_provision_hosts_and_prices_reconfig(self):
        prov = SoftcoreProvisioner()
        node = rpe_node()
        region, reconfig_s = prov.provision(node.rpes[0])
        assert reconfig_s > 0
        assert prov.provisioned == 1
        assert node.rpes[0].hosted_softcores[region.region_id].name == "rho-VEX-4issue"

    def test_registry(self):
        prov = SoftcoreProvisioner()
        prov.register(RHO_VEX_2ISSUE)
        assert prov.core("rho-VEX-2issue") is RHO_VEX_2ISSUE
        with pytest.raises(VirtualizationError, match="unknown soft core"):
            prov.core("pentium")


class TestConfigurationPlanning:
    def rpe_task(self, **artifact_kwargs):
        return simple_task(
            1,
            ExecReq(
                node_type=PEClass.RPE,
                artifacts=Artifacts(application_code="x", **artifact_kwargs),
            ),
            1.0,
            function="fft",
        )

    def test_resolution_prefers_resident(self):
        layer = VirtualizationLayer()
        node = rpe_node()
        rpe = node.rpes[0]
        bs = Bitstream(9, rpe.device.model, 1_000, 500, implements="fft")
        region = rpe.fabric.find_placeable(500)
        rpe.fabric.begin_reconfiguration(region, bs)
        rpe.fabric.finish_reconfiguration(region)
        plan = layer.plan_rpe_configuration(self.rpe_task(hdl_design=make_design()), rpe)
        assert not plan.needs_reconfiguration

    def test_known_residency_is_not_looked_up(self, monkeypatch):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        bs = Bitstream(9, rpe.device.model, 1_000, 500, implements="fft")

        def walked(self, implements):
            raise AssertionError("fabric walked")

        monkeypatch.setattr(type(rpe.fabric), "find_resident", walked)
        task = self.rpe_task(bitstream=bs)
        assert not layer.plan_rpe_configuration(task, rpe, resident=True).needs_reconfiguration
        assert layer.plan_rpe_configuration(task, rpe, resident=False).bitstream is bs

    def test_user_bitstream_used_directly(self):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        bs = Bitstream(9, rpe.device.model, 1_000, 500, implements="fft")
        plan = layer.plan_rpe_configuration(self.rpe_task(bitstream=bs), rpe)
        assert plan.bitstream is bs
        assert plan.synthesis_time_s == 0.0

    def test_wrong_device_bitstream_rejected(self):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        bs = Bitstream(9, "XC5VLX330", 1_000, 500, implements="fft")
        with pytest.raises(VirtualizationError, match="targets"):
            layer.plan_rpe_configuration(self.rpe_task(bitstream=bs), rpe)

    def test_repository_hit_avoids_synthesis(self):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        cached = Bitstream(9, rpe.device.model, 1_000, 500, implements="fft")
        layer.repository.put(cached)
        plan = layer.plan_rpe_configuration(self.rpe_task(hdl_design=make_design()), rpe)
        assert plan.bitstream is cached
        assert layer.synthesis.synthesis_runs == 0

    def test_hdl_synthesized_without_repo_side_effect(self):
        # Planning is pure: the repository is only written when the RMS
        # commits a placement (cost estimation must not mutate state).
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        plan = layer.plan_rpe_configuration(self.rpe_task(hdl_design=make_design()), rpe)
        assert plan.needs_reconfiguration
        assert plan.synthesis_time_s > 0
        assert layer.repository.get("fft", rpe.device.model) is None

    def test_replanning_hdl_hits_synthesis_cache(self):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        task = self.rpe_task(hdl_design=make_design())
        first = layer.plan_rpe_configuration(task, rpe)
        second = layer.plan_rpe_configuration(task, rpe)
        assert first.bitstream is second.bitstream
        assert layer.synthesis.synthesis_runs == 1

    def test_nothing_to_configure_with(self):
        layer = VirtualizationLayer()
        rpe = rpe_node().rpes[0]
        with pytest.raises(VirtualizationError, match="neither"):
            layer.plan_rpe_configuration(self.rpe_task(), rpe)


class TestLevelInference:
    def test_inference_order(self):
        layer = VirtualizationLayer()
        base = dict(application_code="x")
        bs = Bitstream(1, "XC5VLX110", 100, 50, implements="x")

        def task_with(**kwargs):
            return simple_task(
                1,
                ExecReq(node_type=PEClass.RPE, artifacts=Artifacts(**base, **kwargs)),
                1.0,
            )

        assert layer.required_abstraction_level(task_with(bitstream=bs)) is AbstractionLevel.DEVICE_SPECIFIC_HW
        assert layer.required_abstraction_level(task_with(hdl_design=make_design())) is AbstractionLevel.USER_DEFINED_HW
        assert layer.required_abstraction_level(task_with(softcore=RHO_VEX_4ISSUE)) is AbstractionLevel.PREDETERMINED_HW
        assert layer.required_abstraction_level(task_with()) is AbstractionLevel.SOFTWARE_ONLY
