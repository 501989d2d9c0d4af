"""Substrate micro-benchmarks: SAT solver, simulator, property engine.

Not a paper table — these track the performance of the from-scratch
infrastructure everything else stands on.
"""

import pytest

from repro.designs import FORMAL_CONFIG, LW_SW_ENCODINGS, SIM_CONFIG, isa, load_design, multi_vscale_metadata
from repro.designs.harness import MultiVScaleSim
from repro.formal import PropertyChecker, bitblast
from repro.sat import ArenaSolver, Cnf, solve_cnf
from repro.sva import EventSpec, InstrSpec, SvaFactory


def _php(n):
    cnf = Cnf()
    v = {}
    for p in range(n + 1):
        for h in range(n):
            v[(p, h)] = cnf.new_var()
    for p in range(n + 1):
        cnf.add_clause([v[(p, h)] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                cnf.add_clause([-v[(p1, h)], -v[(p2, h)]])
    return cnf


def test_sat_pigeonhole6(benchmark):
    cnf = _php(6)

    def fresh_run():
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        return solver.solve()

    status = benchmark(fresh_run)
    assert status == "UNSAT"


def test_bitblast_formal_design(benchmark):
    netlist = load_design(FORMAL_CONFIG)
    design = benchmark(bitblast, netlist)
    assert design.aig.stats()["latches"] > 0


def test_simulator_throughput(benchmark):
    sim = MultiVScaleSim()
    for core in range(4):
        sim.load_program(core, [isa.li(1, core), isa.sw(1, 0, core * 4),
                                isa.lw(2, 0, 0)])
    sim.reset()

    def run():
        sim.run(100)

    benchmark(run)
    assert sim.sim.cycle > 0


def test_property_check_latency(benchmark):
    """One A0 SVA end to end — the paper's per-SVA latency (3.34 s avg
    with JasperGold on a 64-core Xeon; ours runs a pure-Python CDCL)."""
    netlist = load_design(FORMAL_CONFIG)
    factory = SvaFactory(netlist, multi_vscale_metadata(FORMAL_CONFIG))
    checker = PropertyChecker(bound=12, max_k=1)
    sw = LW_SW_ENCODINGS[0]

    def run():
        problem = factory.never_updates(
            InstrSpec(0, sw), EventSpec("core_gen[0].core.regfile", 2))
        return checker.check(problem)

    verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verdict.proven
    benchmark.extra_info["verdict"] = verdict.status
