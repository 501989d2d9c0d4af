"""Design metadata validation and error-hierarchy tests."""

import pytest

import repro.errors as errors
from repro.core import (
    DesignMetadata,
    InstructionEncoding,
    RequestResponseInterface,
    Rtl2Uspec,
)
from repro.designs import LW_SW_ENCODINGS, SIM_CONFIG, multi_vscale_metadata
from repro.errors import MetadataError, SynthesisError


class TestInstructionEncoding:
    def test_match_mask(self):
        sw = LW_SW_ENCODINGS[0]
        from repro.designs import isa
        assert sw.matches(isa.sw(1, 0, 0))
        assert not sw.matches(isa.lw(1, 0, 0))
        assert not sw.matches(isa.sw_undefined(1, 0, 0))  # funct3 differs

    def test_read_write_classification(self):
        sw, lw = LW_SW_ENCODINGS
        assert sw.is_write and not sw.is_read
        assert lw.is_read and not lw.is_write


class TestMetadataValidation:
    def test_valid(self, sim_netlist, metadata):
        metadata.validate(sim_netlist)

    def test_unknown_ifr_rejected(self, sim_netlist):
        md = multi_vscale_metadata(SIM_CONFIG)
        md.ifr = "core_gen[{core}].core.NOPE"
        with pytest.raises(MetadataError):
            md.validate(sim_netlist)

    def test_unknown_interface_signal_rejected(self, sim_netlist):
        md = multi_vscale_metadata(SIM_CONFIG)
        iface = md.interfaces[0]
        bad = RequestResponseInterface(
            resource="the_mem.mem",
            core_req_valid=iface.core_req_valid,
            core_req_sent=iface.core_req_sent,
            core_req_write=iface.core_req_write,
            core_req_addr=iface.core_req_addr,
            core_req_data=iface.core_req_data,
            mem_req_valid="missing_signal",
            mem_req_write=iface.mem_req_write,
            mem_req_addr=iface.mem_req_addr,
            mem_req_data=iface.mem_req_data,
            mem_req_core=iface.mem_req_core,
            proc_valid=iface.proc_valid,
            proc_write=iface.proc_write,
            proc_addr=iface.proc_addr,
            proc_core=iface.proc_core,
        )
        md.interfaces = [bad]
        with pytest.raises(MetadataError):
            md.validate(sim_netlist)

    def test_empty_encodings_rejected(self, sim_netlist):
        md = multi_vscale_metadata(SIM_CONFIG)
        md.encodings = []
        with pytest.raises(MetadataError):
            md.validate(sim_netlist)

    def test_empty_pcr_rejected(self, sim_netlist):
        md = multi_vscale_metadata(SIM_CONFIG)
        md.pcr = []
        with pytest.raises(MetadataError):
            md.validate(sim_netlist)

    def test_core_signal_substitution(self, metadata):
        assert metadata.core_signal(metadata.ifr, 2) == "core_gen[2].core.inst_DX"

    def test_encoding_lookup(self, metadata):
        assert metadata.encoding("lw").is_read
        with pytest.raises(MetadataError):
            metadata.encoding("mul")


class TestSynthesisScope:
    def test_scope_without_the_interface_resource_fails_fast(
            self, sim_netlist, formal_netlist, metadata):
        # Without the memory the emitter has no location for the value
        # axioms; the scope is rejected before any SVA is planned.
        with pytest.raises(SynthesisError, match=r"'the_mem\.mem'"):
            Rtl2Uspec(sim_netlist, formal_netlist, metadata,
                      candidate_filter=["core_gen[0].core.inst_DX",
                                        "core_gen[0].core.PC_WB"])

    def test_scope_with_the_interface_resource_is_accepted(
            self, sim_netlist, formal_netlist, metadata):
        with Rtl2Uspec(sim_netlist, formal_netlist, metadata,
                       candidate_filter=["core_gen[0].core.inst_DX",
                                         "the_mem.mem"]) as synthesizer:
            assert synthesizer.iface.resource == "the_mem.mem"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_positional_errors_carry_location(self):
        err = errors.ParseError("oops", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7
