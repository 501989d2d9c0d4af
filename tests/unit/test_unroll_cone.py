"""Unit tests: the unroller encodes exactly the sequential cone of its
roots, and counterexample traces still cover the whole design.

The design holds two independent counters; a property over one of
them must leave the other out of the CNF, refuse to hand out literals
for it, and still report its values in a trace (simulated forward from
the model, with out-of-cone inputs at 0).
"""

import pytest

from repro.designs import (
    FORMAL_CONFIG,
    SIM_CONFIG,
    load_design_hier,
    multi_vscale_metadata,
)
from repro.errors import FormalError
from repro.formal import (
    REFUTED,
    PropertyChecker,
    SafetyProblem,
    Unroller,
    bitblast,
)
from repro.formal.aig import _AND, _LATCH
from repro.sat import Cnf
from repro.sim import Simulator
from repro.sva.compose import ComposedSvaFactory
from repro.verilog import compile_verilog

TWO_COUNTERS_SRC = """
module two(
    input wire clk,
    input wire reset,
    input wire en_a,
    input wire en_b,
    output reg [3:0] a,
    output reg [3:0] b,
    output reg [3:0] free,
    output wire a_small,
    output wire b_small
);
    always @(posedge clk) begin
        if (reset) a <= 4'd0;
        else if (en_a) a <= a + 4'd1;
        if (reset) b <= 4'd0;
        else if (en_b) b <= b + 4'd1;
        if (reset) free <= 4'd3;
        else free <= free + 4'd2;
    end
    assign a_small = (a < 4'd5);
    assign b_small = (b < 4'd5);
endmodule
"""


@pytest.fixture(scope="module")
def two_counters():
    return compile_verilog(TWO_COUNTERS_SRC, "two")


def reachable(aig, lits):
    """Fixpoint closure of ``lits`` under AND fan-in and latch next."""
    seen = set()
    frontier = {lit >> 1 for lit in lits}
    while frontier:
        node = frontier.pop()
        if node == 0 or node in seen:
            continue
        seen.add(node)
        if aig.kind[node] == _AND:
            frontier |= {aig.fanin0[node] >> 1, aig.fanin1[node] >> 1}
        elif aig.kind[node] == _LATCH:
            frontier.add(aig.latch_next[node] >> 1)
    return seen


class TestCone:
    def test_unrolled_nodes_are_exactly_the_reachable_cone(self, two_counters):
        design = bitblast(two_counters)
        roots = ["a_small", "reset"]
        unroller = Unroller(design, Cnf(), roots)
        want = reachable(design.aig, [lit for name in roots
                                      for lit in design.wire_lits[name]])
        assert set(unroller.cone) == want
        assert unroller.cone == sorted(unroller.cone)
        unroller.extend_to(3)
        for frame in unroller.frames:
            encoded = {node for node, lit in enumerate(frame) if lit and node}
            assert encoded == want
        # The other counter's state is not in the cone at all.
        b_nodes = {lit >> 1 for lit in design.wire_lits["b"]}
        assert not b_nodes & want
        assert len(want) < design.aig.num_nodes() - len(b_nodes)

    def test_lit_outside_the_cone_raises(self, two_counters):
        design = bitblast(two_counters)
        unroller = Unroller(design, Cnf(), ["a_small", "reset"])
        unroller.wire_lit("a", 2, bit=1)  # in the cone: fine
        with pytest.raises(FormalError, match="outside the unrolled cone"):
            unroller.wire_lit("b", 0)
        with pytest.raises(FormalError, match="not a design wire"):
            Unroller(design, Cnf(), ["no_such_wire"])

    def test_trace_fills_out_of_cone_bits_by_simulation(self, two_counters):
        netlist = two_counters.copy()
        # A nonzero power-on value, so the cycle-0 fill of an
        # out-of-cone latch must come from its init value.
        next(d for d in netlist.dffs.values() if d.q == "free").init = 9
        # A share-base problem skips the word-level cone, so the blasted
        # design (and the trace) holds both counters.
        verdict = PropertyChecker(bound=10, max_k=0).check(
            SafetyProblem(netlist, [], ["a_small"], base=netlist),
            prove=False)
        assert verdict.status == REFUTED
        trace = verdict.trace
        assert "b" in trace.values and "free" in trace.values
        assert trace.value("free", 0) == 9
        # Replay: out-of-cone inputs (en_b) read 0, in-cone ones come
        # from the model; every wire must match the simulator.
        sim = Simulator(netlist)
        for t in range(trace.length):
            for name in netlist.inputs:
                sim.set_input(name, trace.value(name, t))
            assert trace.value("en_b", t) == 0
            for name in ("a", "b", "free", "a_small", "b_small"):
                assert trace.value(name, t) == sim.peek(name), (name, t)
            sim.step()
        assert trace.value("a", trace.fail_cycle) == 5


def test_compose_problem_encodes_a_fraction_of_its_module():
    hier = load_design_hier(FORMAL_CONFIG)
    factory = ComposedSvaFactory(hier, multi_vscale_metadata(SIM_CONFIG))
    problem = factory.attribution(0)
    assert problem.base is not None
    checker = PropertyChecker()
    netlist, design = checker._blast(problem)
    base_nodes = bitblast(problem.base).aig.num_nodes()
    unroller = Unroller(design, Cnf(),
                        PropertyChecker._unroll_roots(problem, netlist))
    assert 0 < len(unroller.cone) < 0.25 * base_nodes
