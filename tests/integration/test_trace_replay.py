"""Integration: every counterexample replays on the simulator.

An independent oracle for the formal layer: for each REFUTED verdict of
one monolithic and one compositional scoped synthesis, the trace's
input values drive :class:`repro.sim.Simulator` over the problem's own
(monitor-augmented) netlist.  The replay must satisfy every assumption
through the failure cycle, every assertion before it, and violate an
assertion at it; and every wire and memory cell the trace reports must
equal the simulated value, including the bits the engine filled in by
simulation because they lie outside the property's cone.

The same two runs pin the SAT search trajectory at the engine level:
any change to branching, propagation, learning or the BMC encoding
moves their conflict, decision or propagation counts.
"""

import pytest

from repro import PropertyChecker, synthesize_uspec
from repro.sim import Simulator

SCOPE = ["core_gen[0].core.inst_DX", "the_mem.mem"]

#: checker counters of each run: (sat_conflicts, sat_decisions,
#: sat_propagations, sat_solves, bmc_frames)
TRAJECTORY = {
    "mono": (4617, 19200, 1908804, 269, 254),
    "compose": (4788, 17845, 1687461, 283, 267),
}


class RecordingChecker(PropertyChecker):
    """Keeps every refuted ``(problem, verdict)`` pair it decides."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refuted = []

    def check(self, problem, *args, **kwargs):
        verdict = super().check(problem, *args, **kwargs)
        if verdict.refuted:
            self.refuted.append((problem, verdict))
        return verdict


@pytest.fixture(scope="module", params=["mono", "compose"])
def run(request):
    checker = RecordingChecker(bound=12, max_k=1)
    synthesize_uspec(checker=checker, candidate_filter=SCOPE,
                     compose=request.param == "compose")
    assert checker.refuted
    return request.param, checker


@pytest.fixture
def refutations(run):
    return run[1].refuted


def test_search_trajectory_pinned(run):
    mode, checker = run
    stats = checker.stats
    got = tuple(int(stats[key]) for key in (
        "sat_conflicts", "sat_decisions", "sat_propagations",
        "sat_solves", "bmc_frames"))
    assert got == TRAJECTORY[mode]


def replay(problem, trace):
    """Drive the problem netlist with the trace's inputs; yields the
    simulator once per cycle, settled, before the clock edge."""
    netlist = problem.netlist
    sim = Simulator(netlist)
    for t in range(trace.length):
        for name in netlist.inputs:
            # Inputs outside the problem's cone are absent or 0.
            values = trace.values.get(name)
            sim.set_input(name, values[t] if values is not None else 0)
        yield t, sim
        sim.step()


def test_refutations_replay_on_the_simulator(refutations):
    for problem, verdict in refutations:
        trace = verdict.trace
        fail = trace.fail_cycle
        assert trace.length == fail + 1, problem.name
        assumes = [w for w in problem.assume_wires if w in problem.netlist.wires]
        for t, sim in replay(problem, trace):
            for wire in assumes:
                assert sim.peek(wire) == 1, (problem.name, wire, t)
            held = [sim.peek(wire) for wire in problem.assert_wires]
            if t < fail:
                assert all(held), (problem.name, t)
            else:
                assert not all(held), (problem.name, t)


def test_trace_values_match_the_simulator(refutations):
    for problem, verdict in refutations:
        trace = verdict.trace
        memories = problem.netlist.memories
        for t, sim in replay(problem, trace):
            for name, values in trace.values.items():
                mem_name, _, addr = name.rpartition("[")
                if addr and mem_name in memories:
                    got = sim.peek_memory(mem_name, int(addr[:-1]))
                else:
                    got = sim.peek(name)
                assert values[t] == got, (problem.name, name, t)
