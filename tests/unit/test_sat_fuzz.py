"""Random-CNF fuzz suite: the CDCL solver vs brute-force enumeration.

Every instance is decided twice — by :class:`repro.sat.ArenaSolver`
with its stress knobs cranked (``restart_base=1`` so restarts fire
constantly, ``reduce_db_threshold=1`` so every learned clause triggers
a database reduction) and by exhaustive assignment enumeration — and
the answers must agree.  The same harness fuzzes solving under
assumptions, incremental clause addition between solves, and solves
that keep a shared assumption prefix; golden pins freeze the search
trajectory itself.

Seeded ``random.Random`` throughout: a failure reproduces from the
printed (seed, round) pair.
"""

import hashlib
import random

from repro.sat import SAT, UNSAT, ArenaSolver

NUM_VARS = 8
ROUNDS = 60
#: variables of the (not brute-forced) heap-invariant corpus
WIDE_VARS = 40

#: sha256 of each seeded corpus's trajectory rows (see TestTrajectoryPins)
PINS = {
    "plain":
        "dc673575011ed96eb77f1396cee8288356e2e39b42a44231c3680d77c28996ac",
    "assumptions":
        "4b1d5b33c31ad18c5e281239bdccc9d9641ff3c3d2fb26dce088a2529cf406df",
    "incremental":
        "5649bef8c0c09b819ac1376bda647a34f70f3aecf5be899321cca4582bacd6cc",
}
#: (status, conflicts, decisions, propagations, reductions) on PHP(6,5)
PHP_TRAJECTORY = ("UNSAT", 990, 3673, 15146, 611)


def random_cnf(rng, num_vars=NUM_VARS):
    """A random CNF with a clause/variable ratio swept through the
    under-, critically-, and over-constrained regimes."""
    ratio = rng.choice((2.0, 3.5, 4.3, 5.5))
    num_clauses = max(1, int(num_vars * ratio))
    clauses = []
    for _ in range(num_clauses):
        width = rng.choice((1, 2, 3, 3, 3))
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def brute_force(clauses, num_vars, assumptions=()):
    """True iff some assignment satisfies all clauses and assumptions."""
    fixed = {}
    for lit in assumptions:
        if fixed.get(abs(lit), lit > 0) != (lit > 0):
            return False  # contradictory assumptions
        fixed[abs(lit)] = lit > 0
    for bits in range(1 << num_vars):
        def value(lit):
            var = abs(lit)
            truth = fixed.get(var, bool(bits >> (var - 1) & 1))
            return truth == (lit > 0)
        if any(not value(lit) for lit in assumptions):
            continue
        if all(any(value(lit) for lit in cl) for cl in clauses):
            return True
    return False


def stressed_solver():
    solver = ArenaSolver()
    solver.restart_base = 1        # restart after (almost) every conflict
    solver.reduce_db_threshold = 1  # reduce the learned DB at every check
    return solver


def model_satisfies(solver, clauses):
    return all(any(solver.model_value(lit) for lit in cl) for cl in clauses)


class TestFuzzAgainstBruteForce:
    def test_plain_solve(self):
        rng = random.Random(0xC0FFEE)
        for round_no in range(ROUNDS):
            clauses = random_cnf(rng)
            solver = stressed_solver()
            for cl in clauses:
                solver.add_clause(cl)
            status = solver.solve()
            expected = brute_force(clauses, NUM_VARS)
            assert status == (SAT if expected else UNSAT), \
                f"seed=0xC0FFEE round={round_no}: {clauses}"
            if status == SAT:
                assert model_satisfies(solver, clauses), \
                    f"seed=0xC0FFEE round={round_no}: bad model"

    def test_solve_under_assumptions(self):
        rng = random.Random(0xBEEF)
        for round_no in range(ROUNDS):
            clauses = random_cnf(rng)
            solver = stressed_solver()
            for cl in clauses:
                solver.add_clause(cl)
            # Several assumption sets against ONE retained solver, so
            # learned clauses from earlier queries stress later ones.
            for _ in range(4):
                k = rng.randint(0, 3)
                vs = rng.sample(range(1, NUM_VARS + 1), k)
                assumptions = [v if rng.random() < 0.5 else -v for v in vs]
                status = solver.solve(assumptions=assumptions)
                if not solver.ok:
                    assert not brute_force(clauses, NUM_VARS)
                    break
                expected = brute_force(clauses, NUM_VARS, assumptions)
                assert status == (SAT if expected else UNSAT), \
                    f"seed=0xBEEF round={round_no} assume={assumptions}"
                if status == SAT:
                    assert model_satisfies(solver, clauses)
                    assert all(solver.model_value(lit) for lit in assumptions)
                else:
                    # The failed-assumption set must be a subset of the
                    # assumptions (modulo implied literals at level 0).
                    assert all(lit in assumptions or -lit in assumptions
                               or solver.level[abs(lit)] == 0
                               for lit in solver.conflict_assumptions)

    def test_incremental_clause_addition(self):
        rng = random.Random(0xFEED)
        for round_no in range(ROUNDS // 2):
            clauses = random_cnf(rng)
            solver = stressed_solver()
            added = []
            # Feed the formula in three slices, solving between slices:
            # exactly the retained-solver BMC pattern.
            third = max(1, len(clauses) // 3)
            for start in range(0, len(clauses), third):
                for cl in clauses[start:start + third]:
                    solver.add_clause(cl)
                    added.append(cl)
                status = solver.solve()
                expected = brute_force(added, NUM_VARS)
                assert status == (SAT if expected else UNSAT), \
                    f"seed=0xFEED round={round_no} prefix={len(added)}"
                if status == UNSAT:
                    break  # UNSAT is permanent for a monotone formula


def trajectory(status, solver):
    return (status, solver.conflicts, solver.decisions,
            solver.propagations, solver.reductions)


def trajectory_digest(rows):
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def plain_corpus_rows():
    """One solve per random formula."""
    rng = random.Random(0xD00D)
    rows = []
    for _ in range(ROUNDS // 2):
        solver = stressed_solver()
        for cl in random_cnf(rng):
            solver.add_clause(cl)
        rows.append(trajectory(solver.solve(), solver))
    return rows


def assumption_corpus_rows():
    """Four assumption queries against one retained solver per
    formula, so learned clauses from earlier queries steer later ones."""
    rng = random.Random(0xA12E7A)
    rows = []
    for _ in range(ROUNDS):
        clauses = random_cnf(rng)
        solver = stressed_solver()
        for cl in clauses:
            solver.add_clause(list(cl))
        queries = [[]]
        for _ in range(3):
            k = rng.randint(0, 3)
            vs = rng.sample(range(1, NUM_VARS + 1), k)
            queries.append([v if rng.random() < 0.5 else -v for v in vs])
        for assumptions in queries:
            status = solver.solve(assumptions=list(assumptions))
            rows.append(trajectory(status, solver))
            if not solver.ok:
                break
    return rows


def incremental_corpus_rows():
    """Clause addition between solves: the retained-solver BMC pattern."""
    rng = random.Random(0x5EC0DD)
    rows = []
    for _ in range(ROUNDS // 2):
        clauses = random_cnf(rng)
        solver = stressed_solver()
        third = max(1, len(clauses) // 3)
        for start in range(0, len(clauses), third):
            for cl in clauses[start:start + third]:
                solver.add_clause(list(cl))
            status = solver.solve()
            rows.append(trajectory(status, solver))
            if status == UNSAT:
                break
    return rows


def php_solver(holes=5, pigeons=6):
    """PHP(pigeons, holes) on a stressed solver: UNSAT after thousands
    of conflicts."""
    solver = stressed_solver()

    def var(p, h):
        return p * holes + h + 1
    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])
    return solver


class TestTrajectoryPins:
    """Golden pins over ``(status, conflicts, decisions, propagations,
    reductions)`` after every solve of each seeded corpus.  The values
    were taken while a second, per-clause-object core still replayed
    the same search bit for bit; any change to branching, propagation
    order, learning, restarts or reduce-db moves them."""

    def test_plain_corpus_pinned(self):
        assert trajectory_digest(plain_corpus_rows()) == PINS["plain"]

    def test_assumption_corpus_pinned(self):
        assert trajectory_digest(assumption_corpus_rows()) == \
            PINS["assumptions"]

    def test_incremental_corpus_pinned(self):
        assert trajectory_digest(incremental_corpus_rows()) == \
            PINS["incremental"]

    def test_php_reduce_db_trajectory_pinned(self):
        """PHP(6,5) under constant reduction: every reduce-db rebuilds
        only the touched watchlists, on an exact conflict count."""
        solver = php_solver()
        status = solver.solve()
        assert solver.reductions > 0  # reduce-db actually fired
        assert trajectory(status, solver) == PHP_TRAJECTORY


class TestLazyHeapInvariant:
    """Backtracking pushes a var back onto the VSIDS heap only when its
    live entry is stale, which is sound only if every unassigned var
    still has exactly its current-activity entry afterwards."""

    def test_unassigned_vars_keep_a_current_heap_entry(self):
        rng = random.Random(0x4EA9)
        checked = 0
        for round_no in range(ROUNDS // 2):
            solver = stressed_solver()
            backtrack = solver._backtrack

            def checked_backtrack(target_level, solver=solver,
                                  backtrack=backtrack):
                nonlocal checked
                backtrack(target_level)
                entries = set(solver._heap)
                for var in range(1, solver.num_vars + 1):
                    if solver._litval[var] == 0:
                        act = solver.activity[var]
                        assert solver._heap_act[var] == act, \
                            f"seed=0x4EA9 round={round_no} var={var}"
                        assert (-act, var) in entries, \
                            f"seed=0x4EA9 round={round_no} var={var}"
                checked += 1
            solver._backtrack = checked_backtrack
            # Random 3-SAT near the threshold, wider than the
            # brute-force corpora, so searches run through many
            # conflicts, restarts and reductions.
            for _ in range(int(WIDE_VARS * 4.2)):
                vs = rng.sample(range(1, WIDE_VARS + 1), 3)
                solver.add_clause([v if rng.random() < 0.5 else -v
                                   for v in vs])
            for _ in range(3):
                k = rng.randint(0, 3)
                vs = rng.sample(range(1, WIDE_VARS + 1), k)
                solver.solve(assumptions=[v if rng.random() < 0.5 else -v
                                          for v in vs])
                if not solver.ok:
                    break
        assert checked > 1000  # backtracks actually exercised


def solve_kept(solver, assumption_sets):
    """Solve each set in order, keeping the decision levels of the
    prefix it shares with the assumptions of the previous SAT answer
    (how ``ProgramSolver.decide`` calls the solver).  Returns the
    statuses and the number of assumption levels kept."""
    statuses = []
    kept = 0
    on_trail = None
    for assumptions in assumption_sets:
        keep = 0
        for a, b in zip(on_trail or (), assumptions):
            if a != b:
                break
            keep += 1
        kept += keep
        status = solver.solve(assumptions=assumptions, keep_levels=keep)
        statuses.append(status)
        # Only a SAT exit leaves the assumption levels on the trail.
        on_trail = assumptions if status == SAT else None
    return statuses, kept


class TestSolveBatch:
    """A batch of ``solve(keep_levels=...)`` calls must return the same
    verdicts as per-call ``solve()`` with the same assumption sets
    (keeping a shared prefix is a pure optimization)."""

    def _assumption_sets(self, rng):
        # Most sets extend a prefix of one shared list, like the sweep's
        # selector assumption lists; a couple are independent.
        order = rng.sample(range(1, NUM_VARS + 1), NUM_VARS)
        base = [v if rng.random() < 0.5 else -v for v in order[:3]]
        sets = []
        for _ in range(4):
            tail = rng.sample(order[3:], rng.randint(0, 2))
            sets.append(base[:rng.randint(0, 3)]
                        + [v if rng.random() < 0.5 else -v for v in tail])
        for _ in range(2):
            vs = rng.sample(range(1, NUM_VARS + 1), rng.randint(0, 4))
            sets.append([v if rng.random() < 0.5 else -v for v in vs])
        return sets

    def test_verdict_parity_both_cores(self):
        rng = random.Random(0xBA7C4)
        kept_total = 0
        for round_no in range(ROUNDS // 2):
            clauses = random_cnf(rng)
            sets = self._assumption_sets(rng)
            batch = stressed_solver()
            single = stressed_solver()
            for cl in clauses:
                batch.add_clause(list(cl))
                single.add_clause(list(cl))
            got, kept = solve_kept(batch, [list(s) for s in sets])
            want = [single.solve(assumptions=list(s)) for s in sets]
            assert got == want, f"seed=0xBA7C4 round={round_no}"
            assert 0 <= kept <= sum(len(s) for s in sets)
            kept_total += kept
        assert kept_total > 0  # prefixes were actually kept

    def test_kept_prefix_model_is_current(self):
        """After a kept-prefix SAT answer the model is the one of the
        current assumptions: the window the cycle check reads."""
        solver = ArenaSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        statuses, kept = solve_kept(solver, [[1], [1, -2], [1, -3], [-1]])
        assert statuses == [SAT, SAT, UNSAT, SAT]
        assert kept == 2
        assert solver.model_value(-1) and solver.model_value(2)
        assert solver.solve(assumptions=[1, -2], keep_levels=0) == SAT
        assert solver.model_value(1) and solver.model_value(-2) \
            and solver.model_value(3)

    def test_empty_and_singleton_batches(self):
        solver = ArenaSolver()
        solver.add_clause([1])
        assert solve_kept(solver, []) == ([], 0)
        assert solve_kept(solver, [[]]) == ([SAT], 0)
        assert solve_kept(solver, [[-1]]) == ([UNSAT], 0)


class TestBudgetHygiene:
    def test_deadline_return_clears_conflict_assumptions(self):
        """A timed-out solve must not leak the previous query's failed
        assumptions (a stale failed-assumption core)."""
        solver = ArenaSolver()
        solver.add_clause([-1, 2])
        solver.add_clause([-1, -2])
        assert solver.solve(assumptions=[1]) == UNSAT
        assert solver.conflict_assumptions  # core from this query
        # Next query times out before the search starts.
        assert solver.solve(assumptions=[2], deadline=0.0) == "UNKNOWN"
        assert solver.conflict_assumptions == []

    def test_reduce_db_keeps_solver_sound_on_hard_instance(self):
        """PHP(6,5) forces thousands of conflicts; with reduction after
        every conflict the answer must still be UNSAT."""
        solver = php_solver()
        assert solver.solve() == UNSAT
        assert solver.conflicts > 50  # reductions actually exercised
