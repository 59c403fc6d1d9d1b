"""Unit tests for the ExecReq constraint algebra."""

import pytest

from repro.core.execreq import (
    Artifacts,
    Equals,
    ExecReq,
    Exists,
    MaxValue,
    MinValue,
    OneOf,
)
from repro.hardware.taxonomy import PEClass

CAPS = {
    "pe_class": "RPE",
    "slices": 24_320,
    "device_family": "virtex-5",
    "device_model": "XC5VLX155",
    "partial_reconfig": True,
    "os": "Linux",
}


class TestConstraints:
    def test_min_value(self):
        assert MinValue("slices", 18_707).satisfied_by(CAPS)
        assert not MinValue("slices", 30_790).satisfied_by(CAPS)

    def test_min_value_boundary_inclusive(self):
        assert MinValue("slices", 24_320).satisfied_by(CAPS)

    def test_max_value(self):
        assert MaxValue("slices", 30_000).satisfied_by(CAPS)
        assert not MaxValue("slices", 10_000).satisfied_by(CAPS)

    def test_missing_key_fails_numeric(self):
        assert not MinValue("bram_kb", 1).satisfied_by(CAPS)
        assert not MaxValue("bram_kb", 10**9).satisfied_by(CAPS)

    def test_non_numeric_value_fails_numeric(self):
        assert not MinValue("device_family", 1).satisfied_by(CAPS)

    def test_bool_not_treated_as_number(self):
        assert not MinValue("partial_reconfig", 0).satisfied_by(CAPS)

    def test_equals(self):
        assert Equals("device_model", "XC5VLX155").satisfied_by(CAPS)
        assert not Equals("device_model", "XC6VLX365T").satisfied_by(CAPS)

    def test_one_of(self):
        assert OneOf("os", ("Linux", "Solaris")).satisfied_by(CAPS)
        assert not OneOf("os", ("Windows",)).satisfied_by(CAPS)

    def test_one_of_requires_values(self):
        with pytest.raises(ValueError):
            OneOf("os", ())

    def test_exists(self):
        assert Exists("partial_reconfig").satisfied_by(CAPS)
        assert not Exists("ethernet_macs").satisfied_by(CAPS)
        assert not Exists("nonexistent").satisfied_by(CAPS)

    def test_describe_is_readable(self):
        assert "slices >= 18707" in MinValue("slices", 18_707).describe()
        assert "virtex-5" in Equals("device_family", "virtex-5").describe()
        assert MaxValue("slices", 30_000).describe() == "slices <= 30000"
        assert OneOf("os", ("Linux", "Solaris")).describe() == "os in {'Linux', 'Solaris'}"
        assert Exists("partial_reconfig").describe() == "partial_reconfig present"


class TestExecReq:
    def test_all_constraints_must_hold(self):
        req = ExecReq(
            node_type=PEClass.RPE,
            constraints=(
                Equals("device_family", "virtex-5"),
                MinValue("slices", 18_707),
            ),
        )
        assert req.matches(CAPS)
        assert not req.matches({**CAPS, "slices": 10_000})
        assert not req.matches({**CAPS, "device_family": "virtex-6"})

    def test_pe_class_gate(self):
        req = ExecReq(node_type=PEClass.GPU)
        assert not req.matches(CAPS)
        assert req.matches({"pe_class": "GPU"})

    def test_gpp_requirement_accepts_softcore(self):
        # Section III-A: a soft-core CPU on an RPE can serve GPP tasks.
        req = ExecReq(node_type=PEClass.GPP)
        assert req.matches({"pe_class": "GPP"})
        assert req.matches({"pe_class": "SOFTCORE"})
        assert not req.matches({"pe_class": "RPE"})

    def test_softcore_requirement_rejects_plain_gpp(self):
        req = ExecReq(node_type=PEClass.SOFTCORE)
        assert req.matches({"pe_class": "SOFTCORE"})
        assert not req.matches({"pe_class": "GPP"})

    def test_unmet_constraints_reported(self):
        req = ExecReq(
            node_type=PEClass.RPE,
            constraints=(MinValue("slices", 99_999), Equals("os", "Linux")),
        )
        unmet = req.unmet_constraints(CAPS)
        assert len(unmet) == 1
        assert unmet[0].key == "slices"

    def test_with_constraints_refines(self):
        base = ExecReq(node_type=PEClass.RPE)
        refined = base.with_constraints(MinValue("slices", 30_790))
        assert base.matches(CAPS)
        assert not refined.matches(CAPS)
        assert len(base.constraints) == 0  # original untouched

    def test_describe_includes_node_type(self):
        req = ExecReq(node_type=PEClass.RPE, constraints=(MinValue("slices", 5),))
        assert "NodeType=RPE" in req.describe()


class TestArtifacts:
    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            Artifacts(input_data_bytes=-1)

    def test_defaults_are_empty(self):
        a = Artifacts()
        assert a.application_code == ""
        assert a.bitstream is None and a.hdl_design is None and a.softcore is None
