"""Unit tests: the formal engine's pinned verdicts and the shared
bitblast cache.

Every verdict field that the synthesizer or the journal consumes is
pinned on a small counter design, through both checker entry points
(``check`` with keyword budgets and the pool workers'
``check_problem`` with a :class:`CheckParams`) — plus the
:class:`BlastCache` mechanics (content keying, LRU eviction, pickle
hygiene) the shared front half rides on.
"""

import pickle

import pytest

from repro.formal import (
    PROVEN,
    PROVEN_BOUNDED,
    REFUTED,
    UNKNOWN,
    BlastCache,
    CheckParams,
    PropertyChecker,
    SafetyProblem,
)
from repro.verilog import compile_verilog
COUNTER_SRC = """
module counter(
    input wire clk,
    input wire reset,
    input wire en,
    output reg [7:0] count,
    output wire le10,
    output wire le9
);
    always @(posedge clk) begin
        if (reset) count <= 8'd0;
        else if (en && (count < 8'd10)) count <= count + 8'd1;
    end
    assign le10 = (count <= 8'd10);
    assign le9 = (count <= 8'd9);
endmodule
"""


@pytest.fixture(scope="module")
def counter_netlist():
    return compile_verilog(COUNTER_SRC, "counter")


def both_entry_points(problem, bound, max_k, prove=True,
                      timeout_seconds=None, max_conflicts=None):
    """The verdict of ``problem`` via ``check`` and via
    ``check_problem``, each on a fresh checker."""
    via_check = PropertyChecker(bound=bound, max_k=max_k).check(
        problem, prove=prove, timeout_seconds=timeout_seconds,
        max_conflicts=max_conflicts)
    via_params = PropertyChecker(bound=bound, max_k=max_k).check_problem(
        problem, CheckParams(prove=prove, timeout_seconds=timeout_seconds,
                             max_conflicts=max_conflicts))
    return [via_check, via_params]


def verdict_key(verdict):
    return (verdict.status, verdict.method, verdict.bound,
            verdict.induction_k, verdict.reason)


class TestEngineAgreement:
    def test_proven_by_induction(self, counter_netlist):
        keys = [verdict_key(v) for v in both_entry_points(
            SafetyProblem(counter_netlist, [], ["le10"]), bound=12, max_k=4)]
        assert keys[0] == keys[1]
        assert keys[0][0] == PROVEN
        assert keys[0][3] == 1  # inductive at depth 1

    def test_refuted_with_a_valid_trace_on_both(self, counter_netlist):
        verdicts = both_entry_points(
            SafetyProblem(counter_netlist, [], ["le9"]), bound=14, max_k=4)
        for v in verdicts:
            assert v.status == REFUTED
            assert v.trace.value("count", v.trace.fail_cycle) == 10
            assert v.trace.value("reset", 0) == 1
            # BMC stops at the first failing frame, so the witness is
            # the *minimal* counterexample (cycle 11: one reset cycle +
            # ten increments), and no frame beyond it is encoded.
            assert v.trace.fail_cycle == 11
            assert v.trace.length == 12

    def test_bounded_clean_below_the_bug(self, counter_netlist):
        keys = [verdict_key(v) for v in both_entry_points(
            SafetyProblem(counter_netlist, [], ["le9"]), bound=5, max_k=0,
            prove=False)]
        assert keys[0] == keys[1]
        assert keys[0][0] == PROVEN_BOUNDED

    def test_assumptions_respected(self, counter_netlist):
        nl = counter_netlist.copy()
        nl.add_wire("not_en", 1)
        nl.add_cell("not", ["en"], "not_en")
        keys = [verdict_key(v) for v in both_entry_points(
            SafetyProblem(nl, ["not_en"], ["le9"]), bound=14, max_k=4)]
        assert keys[0] == keys[1]
        assert keys[0][0] == PROVEN

    def test_exhausted_timeout_is_unknown_on_both(self, counter_netlist):
        for verdict in both_entry_points(
                SafetyProblem(counter_netlist, [], ["le9"]), bound=14,
                max_k=2, timeout_seconds=0.0):
            assert verdict.status == UNKNOWN
            assert verdict.reason == "timeout"

    def test_exhausted_conflict_budget_is_unknown_on_both(self):
        # A hard instance: equivalence of two differently-associated
        # 16-bit multiplier-free adders under a conflict budget of 1.
        src = """
module m(input wire clk, input wire reset, input wire [15:0] a,
         input wire [15:0] b, input wire [15:0] c, output wire ok);
    assign ok = ((a + b) + c) == (a + (b + c));
endmodule
"""
        nl = compile_verilog(src, "m")
        for verdict in both_entry_points(
                SafetyProblem(nl, [], ["ok"]), bound=6, max_k=0,
                prove=False, max_conflicts=1):
            assert verdict.status in (UNKNOWN, PROVEN_BOUNDED)
            if verdict.status == UNKNOWN:
                assert verdict.reason == "conflict-budget"

    def test_invalid_engine_rejected(self):
        with pytest.raises(TypeError):
            PropertyChecker(engine="incremental")


class TestBlastCache:
    def test_content_keyed_hit(self, counter_netlist):
        cache = BlastCache()
        cone1, blasted1 = cache.get(counter_netlist, ["le10"], [])
        cone2, blasted2 = cache.get(counter_netlist.copy(), ["le10"], [])
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        assert cone1 is cone2 and blasted1 is blasted2

    def test_distinct_roots_are_distinct_entries(self, counter_netlist):
        cache = BlastCache()
        cache.get(counter_netlist, ["le10"], [])
        cache.get(counter_netlist, ["le9"], [])
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_lru_eviction(self, counter_netlist):
        cache = BlastCache(capacity=1)
        cache.get(counter_netlist, ["le10"], [])
        cache.get(counter_netlist, ["le9"], [])
        assert len(cache) == 1
        cache.get(counter_netlist, ["le10"], [])  # evicted: re-blast
        assert cache.stats()["misses"] == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BlastCache(capacity=0)

    def test_checker_pickles_without_its_cache(self, counter_netlist):
        checker = PropertyChecker(bound=12, max_k=2)
        checker.check(SafetyProblem(counter_netlist, [], ["le10"]))
        assert len(checker._blast_cache) == 1
        clone = pickle.loads(pickle.dumps(checker))
        assert len(clone._blast_cache) == 0
        # The clone still checks correctly and warms its own cache.
        verdict = clone.check(SafetyProblem(counter_netlist, [], ["le10"]))
        assert verdict.status == PROVEN
        assert len(clone._blast_cache) == 1
