"""Gate-encoding tests for the Cnf builder (truth-table exhaustive)."""

import itertools

import pytest

from repro.errors import SatError
from repro.sat import SAT, UNSAT, ArenaSolver, Cnf


def check_gate(encode, semantics, arity):
    """Exhaustively verify a gate encoding over all input combinations."""
    for values in itertools.product([False, True], repeat=arity):
        cnf = Cnf()
        inputs = cnf.new_vars(arity)
        out = encode(cnf, inputs)
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        assumptions = [v if val else -v for v, val in zip(inputs, values)]
        assert solver.solve(assumptions=assumptions) == SAT
        assert solver.model_value(out) == semantics(*values), (values,)


class TestGateEncodings:
    def test_and2(self):
        check_gate(lambda c, i: c.encode_and(i), lambda a, b: a and b, 2)

    def test_and3(self):
        check_gate(lambda c, i: c.encode_and(i), lambda a, b, d: a and b and d, 3)

    def test_or2(self):
        check_gate(lambda c, i: c.encode_or(i), lambda a, b: a or b, 2)

    def test_or3(self):
        check_gate(lambda c, i: c.encode_or(i), lambda a, b, d: a or b or d, 3)

    def test_xor(self):
        check_gate(lambda c, i: c.encode_xor(*i), lambda a, b: a != b, 2)

    def test_equal(self):
        check_gate(lambda c, i: c.encode_equal(*i), lambda a, b: a == b, 2)

    def test_mux(self):
        check_gate(lambda c, i: c.encode_mux(*i),
                   lambda s, t, f: t if s else f, 3)

    def test_empty_and_is_true(self):
        cnf = Cnf()
        out = cnf.encode_and([])
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        assert solver.solve() == SAT
        assert solver.model_value(out)

    def test_empty_or_is_false(self):
        cnf = Cnf()
        out = cnf.encode_or([])
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        assert solver.solve() == SAT
        assert not solver.model_value(out)

    def test_single_input_passthrough(self):
        cnf = Cnf()
        a = cnf.new_var()
        assert cnf.encode_and([a]) == a
        assert cnf.encode_or([a]) == a


class TestConstants:
    def test_true_false_literals(self):
        cnf = Cnf()
        t = cnf.true_lit
        assert cnf.false_lit == -t
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        assert solver.solve() == SAT
        assert solver.model_value(t)
        assert not solver.model_value(cnf.false_lit)

    def test_const_lit(self):
        cnf = Cnf()
        assert cnf.const_lit(True) == cnf.true_lit
        assert cnf.const_lit(False) == cnf.false_lit


class TestValidation:
    def test_out_of_range_literal_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(SatError):
            cnf.add_clause([5])

    def test_zero_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(SatError):
            cnf.add_clause([0])
