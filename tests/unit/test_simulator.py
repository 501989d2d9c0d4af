"""Simulator semantics tests, including bitblast co-simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist import Const, Netlist
from repro.sim import Simulator
from repro.verilog import compile_verilog


class TestBasicStepping:
    def test_counter_counts(self):
        nl = Netlist()
        nl.add_wire("n", 4)
        nl.add_wire("q", 4)
        nl.add_cell("add", ["q", Const(4, 1)], "n")
        nl.add_dff("qff", "n", "q", 4)
        sim = Simulator(nl)
        sim.step(5)
        assert sim.peek("q") == 5
        sim.step(20)
        assert sim.peek("q") == 25 & 0xF  # wraps at 4 bits

    def test_dff_init_value(self):
        nl = Netlist()
        nl.add_wire("q", 8)
        nl.add_cell_ = None
        nl.add_dff("qff", "q", "q", 8, init=0x5A)
        sim = Simulator(nl)
        assert sim.peek("q") == 0x5A
        sim.step()
        assert sim.peek("q") == 0x5A  # feeds itself

    def test_inputs_persist(self):
        nl = Netlist()
        nl.add_input("a", 8)
        nl.add_wire("o", 8)
        nl.add_cell("zext", ["a"], "o")
        sim = Simulator(nl)
        sim.set_input("a", 77)
        sim.step(3)
        assert sim.peek("o") == 77

    def test_unknown_input_rejected(self):
        nl = Netlist()
        nl.add_input("a", 1)
        sim = Simulator(nl)
        with pytest.raises(SimulationError):
            sim.set_input("nope", 1)

    def test_reset_state_restores(self):
        nl = Netlist()
        nl.add_wire("n", 4)
        nl.add_wire("q", 4)
        nl.add_cell("add", ["q", Const(4, 1)], "n")
        nl.add_dff("qff", "n", "q", 4)
        sim = Simulator(nl)
        sim.step(3)
        sim.reset_state()
        assert sim.peek("q") == 0
        assert sim.cycle == 0


class TestMemorySemantics:
    def make_mem(self):
        nl = Netlist()
        nl.add_input("we", 1)
        nl.add_input("wa", 2)
        nl.add_input("wd", 8)
        nl.add_input("ra", 2)
        nl.add_wire("rd", 8)
        nl.add_memory("m", 8, 4, init={1: 0x11})
        nl.add_read_port("m", "ra", "rd")
        nl.add_write_port("m", "wa", "wd", "we")
        return nl

    def test_init_image(self):
        sim = Simulator(self.make_mem())
        sim.set_input("ra", 1)
        assert sim.peek("rd") == 0x11

    def test_write_visible_next_cycle(self):
        sim = Simulator(self.make_mem())
        sim.set_input("we", 1)
        sim.set_input("wa", 2)
        sim.set_input("wd", 0x42)
        sim.set_input("ra", 2)
        assert sim.peek("rd") == 0  # before the edge
        sim.step()
        assert sim.peek("rd") == 0x42

    def test_write_priority_later_port_wins(self):
        nl = self.make_mem()
        nl.add_input("wd2", 8)
        nl.add_write_port("m", "wa", "wd2", "we")
        sim = Simulator(nl)
        sim.set_input("we", 1)
        sim.set_input("wa", 0)
        sim.set_input("wd", 0xAA)
        sim.set_input("wd2", 0xBB)
        sim.step()
        assert sim.peek_memory("m", 0) == 0xBB

    def test_read_port_fresh_within_cycle(self):
        # The read port must never serve last cycle's data after the
        # address changed (regression for the RAW staleness bug).
        sim = Simulator(self.make_mem())
        sim.set_input("we", 1)
        sim.set_input("wa", 3)
        sim.set_input("wd", 9)
        sim.step()
        sim.set_input("ra", 3)
        assert sim.peek("rd") == 9
        sim.set_input("ra", 1)
        assert sim.peek("rd") == 0x11

    def test_load_memory_bounds(self):
        sim = Simulator(self.make_mem())
        with pytest.raises(SimulationError):
            sim.load_memory("m", {9: 1})


class TestRunUntil:
    def test_run_until_predicate(self):
        nl = Netlist()
        nl.add_wire("n", 8)
        nl.add_wire("q", 8)
        nl.add_cell("add", ["q", Const(8, 1)], "n")
        nl.add_dff("qff", "n", "q", 8)
        sim = Simulator(nl)
        taken = sim.run_until(lambda s: s.peek("q") == 10)
        assert taken == 10

    def test_run_until_timeout(self):
        nl = Netlist()
        nl.add_wire("q", 1)
        nl.add_dff("qff", "q", "q", 1)
        sim = Simulator(nl)
        with pytest.raises(SimulationError):
            sim.run_until(lambda s: False, max_cycles=10)


# ---------------------------------------------------------------------------
# Co-simulation: the simulator and the bit-blaster/unroller must agree
# on the multi-V-scale formal variant for random input stimulus.
# ---------------------------------------------------------------------------
class TestCoSimulation:
    PROBES = [
        "mem_req_valid",
        "mem_req_core",
        "core_gen[0].core.PC_IF",
        "core_gen[0].core.inst_DX",
        "core_gen[1].core.PC_WB",
        "the_mem.r_addr",
        "the_mem.r_write",
        "resp_data",
    ]

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bitblast_matches_simulator(self, formal_netlist, seed):
        import random

        from repro.formal import Unroller, bitblast
        from repro.sat import ArenaSolver, Cnf

        rng = random.Random(seed)
        cycles = 5
        design = bitblast(formal_netlist, [])
        cnf = Cnf()
        unroller = Unroller(design, cnf,
                            list(formal_netlist.inputs) + self.PROBES)
        unroller.extend_to(cycles)

        sim = Simulator(formal_netlist)
        stimulus = []
        expected = []
        for t in range(cycles):
            frame = {}
            for name, width in formal_netlist.inputs.items():
                value = rng.getrandbits(width)
                if name == "reset":
                    value = 1 if t == 0 else 0
                frame[name] = value
                sim.set_input(name, value)
            stimulus.append(frame)
            expected.append({p: sim.peek(p) for p in self.PROBES})
            sim.step()

        solver = ArenaSolver()
        solver.add_cnf(cnf)
        assumptions = []
        for t, frame in enumerate(stimulus):
            for name, value in frame.items():
                for bit in range(formal_netlist.inputs[name]):
                    lit = unroller.wire_lit(name, t, bit)
                    assumptions.append(lit if (value >> bit) & 1 else -lit)
        assert solver.solve(assumptions=assumptions) == "SAT"
        for t in range(cycles):
            for probe, want in expected[t].items():
                got = 0
                for bit, aig_lit in enumerate(design.wire_lits[probe]):
                    if solver.model_value(unroller.lit(aig_lit, t)):
                        got |= 1 << bit
                assert got == want, (t, probe, got, want)


class TestTraceCapture:
    def test_capture_shares_formal_trace_type(self):
        from repro.formal.trace import Trace
        nl = Netlist()
        nl.add_input("en", 1)
        nl.add_wire("n", 4)
        nl.add_wire("q", 4)
        nl.add_wire("inc", 4)
        nl.add_cell("add", ["q", Const(4, 1)], "inc")
        nl.add_cell("mux", ["en", "inc", "q"], "n")
        nl.add_dff("qff", "n", "q", 4)
        sim = Simulator(nl)
        trace = sim.capture_trace(["q"], 5, inputs={"en": 1})
        assert isinstance(trace, Trace)
        assert trace.values["q"] == [0, 1, 2, 3, 4]
        # The shared tooling (formatting, VCD) applies directly.
        assert "q" in trace.format()
