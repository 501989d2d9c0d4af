"""Packed-arena CDCL core: the repo's one SAT solver.

:class:`ArenaSolver` decides every SAT query of the formal property
checker and the litmus checker.  Its search trajectory (decisions,
conflicts, propagations, reductions) is pinned per seeded corpus by
the fuzz suite.

Memory layout::

    arena     flat list  |c0_l0 c0_l1 ... | c1_l0 c1_l1 ... | ...
    c_offset  list[int]  per-clause start index into ``arena``
    c_size    list[int]  per-clause literal count
    c_lbd     list[int]  LBD recorded at learn time (0 for problem clauses)
    watches   list-of-lists indexed directly by literal (negative lits
              via negative indexing, like ``_litval``) holding integer
              clause *refs* (indices into the header arrays)
    _litval   list[int] indexed directly by literal (negative lits via
              negative indexing): 1 true, -1 false, 0 unassigned -- the
              one assignment table
    reason    list[int], -1 = decision/assumption, else a clause ref;
              meaningful only while the var is assigned (not reset on
              backtrack)
    trail / trail_lim / level / phase / activity / _heap_act  flat lists

The arena and headers are flat Python lists rather than ``array('i')``:
CPython's ``array.__getitem__`` allocates a fresh int object on every
read outside the small-int cache, which on literal-heavy workloads costs
more than the packed layout saves; a list stores the boxed int once and
hands back the same object.  (Measured on PHP(9,8): list arena ~1.55×
the former per-clause-object core, ``array('i')`` arena ~1.35×.)  The
layout is otherwise exactly the classic packed arena.

A clause ref never changes: arena compaction (triggered when removed
learned clauses leave more than half the arena as garbage) rewrites only
the literal arena and the ``c_offset`` entries, so watchlists and reason
pointers survive untouched.  Removed clauses' header slots leak three
ints apiece — bounded by the learned-clause churn and recycled wholesale
when the solver is dropped.

What the flat layout removes from the hot path, relative to a
per-clause-object core: the per-propagation ``dict`` watchlist lookups
(direct literal-indexed list reads instead), the fresh watchlist
allocation per propagated literal (in-place compaction with a write
index), the ``_value()`` method call per literal scanned (inlined
sign-aware literal-indexed truth reads), and per-clause Python list
objects (one flat arena).
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import SatError
from .cnf import Cnf
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    VsidsHeapMixin,
    luby,
)

#: reason sentinel: the variable is a decision or assumption
NO_REASON = -1


class ArenaSolver(VsidsHeapMixin):
    """CDCL over DIMACS-style integer literals, packed-arena storage.

    Typical use::

        solver = ArenaSolver()
        solver.add_clause([1, -2])
        solver.add_clause([2, 3])
        result = solver.solve()            # SAT / UNSAT
        value = solver.model_value(3)      # True / False

    ``solve(assumptions=...)`` supports incremental queries: the clause
    database persists across calls and learned clauses are retained.
    ``clauses`` and ``learned`` hold integer clause refs (indices into
    the header arrays).
    """

    def __init__(self):
        self.num_vars = 0
        #: flat literal arena (see module docstring for why a list)
        self.arena: List[int] = []
        self.c_offset: List[int] = []
        self.c_size: List[int] = []
        self.c_lbd: List[int] = []
        # Literal-indexed truth values (1 true, -1 false, 0 unassigned):
        # _litval[lit] works for negative lits via Python's negative
        # indexing over a (2*num_vars+1)-slot list, turning the hot
        # sign-aware assignment read into a single list access.  The
        # solver's only assignment table (``_litval[var]`` is the var's
        # value); rebuilt when the variable count grows.
        self._litval: List[int] = [0]
        #: problem / learned clause refs (indices into the header arrays)
        self.clauses: List[int] = []
        self.learned: List[int] = []
        # Watchlists indexed directly by literal over a (2*num_vars+1)-
        # slot list, exactly like ``_litval``: ``watches[lit]`` works for
        # negative literals via negative indexing, so the hot path never
        # computes a watch code.  Slot 0 pads var 0; growth relocates
        # the halves by slice (the list objects move by reference, so
        # existing watchlists survive).
        self.watches: List[List[int]] = [[]]
        self.level: List[int] = [0]
        self.reason: List[int] = [NO_REASON]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.phase: List[bool] = [False]
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        #: learned-DB reductions actually performed (``--profile-sat``)
        self.reductions = 0
        #: arena slots owned by removed clauses, reclaimed by _compact
        self.garbage = 0
        self.max_conflicts: Optional[int] = None
        #: learned-clause count that triggers a database reduction
        self.reduce_db_threshold = 2000
        #: conflicts before the first restart (Luby-scaled thereafter)
        self.restart_base = 64
        #: lazy VSIDS max-heap (see VsidsHeapMixin)
        self._heap: List[Tuple[float, int]] = []
        #: per var, the activity of its live heap entry (-1.0: popped)
        self._heap_act: List[float] = [-1.0]
        #: failed-assumption set of the most recent UNSAT-under-
        #: assumptions solve() (empty after SAT/UNKNOWN returns)
        self.conflict_assumptions: List[int] = []
        self._seen: List[int] = [0]

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def _ensure_var(self, var: int) -> None:
        if var <= self.num_vars:
            return
        old = self.num_vars
        grow = var - old
        self.level.extend([0] * grow)
        self.reason.extend([NO_REASON] * grow)
        self.activity.extend([0.0] * grow)
        self._heap_act.extend([-1.0] * grow)
        self._seen.extend([0] * grow)
        self.phase.extend([False] * grow)
        watches = self.watches
        grown = watches[:old + 1]
        grown.extend([] for _ in range(grow))  # positives old+1..var
        grown.extend([] for _ in range(grow))  # negatives -var..-(old+1)
        grown.extend(watches[old + 1:])        # negatives -old..-1
        self.watches = grown
        self.num_vars = var
        for v in range(old + 1, var + 1):
            self._heap_insert(v)
        # Negative indexing pins every slot's meaning to the list
        # length, so growth rebuilds the table — via slice copies: the
        # positive half keeps its positions, the negative half keeps
        # its distance from the end (callers add variables in bulk —
        # add_cnf ensures the max var first).
        litval = [0] * (2 * var + 1)
        prev = self._litval
        if old:
            litval[:old + 1] = prev[:old + 1]
            litval[-old:] = prev[-old:]
        self._litval = litval

    def _alloc(self, lits: List[int], lbd: int = 0) -> int:
        ref = len(self.c_offset)
        self.c_offset.append(len(self.arena))
        self.c_size.append(len(lits))
        self.c_lbd.append(lbd)
        self.arena.extend(lits)
        return ref

    def _watch_clause(self, ref: int) -> None:
        off = self.c_offset[ref]
        watches = self.watches
        watches[self.arena[off]].append(ref)
        watches[self.arena[off + 1]].append(ref)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add one problem clause; returns False if the database is
        trivially conflicting (see :meth:`add_clauses`)."""
        return self.add_clauses((lits,))

    def add_clauses(self, clauses: Sequence[Iterable[int]],
                    start: int = 0) -> bool:
        """Add the problem clauses ``clauses[start:]``; returns False
        once the database is trivially conflicting.

        Each clause is filtered against the level-0 assignment: a
        tautology or an already-satisfied clause is dropped, duplicate
        and level-0-false literals are removed, an empty result makes
        the solver UNSAT, and a unit is enqueued and propagated at once.
        May be called between solve() calls (incremental use); any
        leftover search state is rolled back to decision level 0 first.
        """
        if not self.ok:
            return False
        if start >= len(clauses):
            return True
        if self.trail_lim:
            self._backtrack(0)
        # The loop below runs once per fed literal (hundreds of
        # thousands per BMC unroll), so the var-growth check, the
        # clause allocation and the watch setup are inlined, and the
        # level-0 filter reads the literal-indexed table directly.
        # trail_lim stays empty here, so every assignment seen is a
        # level-0 fact.  A literal's value is tested before its
        # duplicates: a repeated or complementary literal of a level-0
        # var is dropped or satisfies the clause either way, so only
        # unassigned literals need the duplicate test, against the
        # (short) kept clause.
        num_vars = self.num_vars
        litval = self._litval
        watches = self.watches
        arena = self.arena
        offs = self.c_offset
        sizes = self.c_size
        lbds = self.c_lbd
        problem = self.clauses
        for lits in (clauses[start:] if start else clauses):
            clause = []
            for lit in lits:
                if (lit if lit > 0 else -lit) > num_vars or not lit:
                    if not lit:
                        raise SatError("literal 0 is not allowed")
                    self._ensure_var(lit if lit > 0 else -lit)
                    num_vars = self.num_vars
                    litval = self._litval
                    watches = self.watches
                val = litval[lit]
                if val:
                    if val == 1:
                        break  # already satisfied
                    continue  # already falsified at level 0 -> drop literal
                if lit in clause:
                    continue
                if -lit in clause:
                    break  # tautology
                clause.append(lit)
            else:
                size = len(clause)
                if size > 1:
                    ref = len(offs)
                    offs.append(len(arena))
                    sizes.append(size)
                    lbds.append(0)
                    arena.extend(clause)
                    problem.append(ref)
                    watches[clause[0]].append(ref)
                    watches[clause[1]].append(ref)
                    continue
                if not size or not self._enqueue(clause[0], NO_REASON) \
                        or self._propagate() >= 0:
                    self.ok = False
                    return False
        return True

    def add_cnf(self, cnf: Cnf, start: int = 0) -> bool:
        """Add the clauses ``cnf.clauses[start:]`` of a :class:`Cnf`
        formula, allocating all of its variables first."""
        self._ensure_var(cnf.num_vars)
        return self.add_clauses(cnf.clauses, start)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        # litval is literal-indexed (see _ensure_var), so the
        # sign-aware read is a single negative-index-capable lookup.
        return self._litval[lit]

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._litval[lit]
        if val == 1:
            return True
        if val == -1:
            return False
        var = abs(lit)
        litval = self._litval
        litval[lit] = 1
        litval[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause ref or -1.

        Watchlists are scanned in order; a clause's new watch is its
        first non-false literal past the two watched ones, and the
        false watch is always normalized into position 1.

        Each watchlist pass runs in two phases: until a watch actually
        moves, the list is unchanged and the scan writes nothing;
        compaction (shifting survivors down over freed slots) starts at
        the first move.  On the BMC workload ~85% of passes never move
        a watch, so the per-entry keep-write would be pure overhead.

        A binary clause never moves a watch, so both phases decide it
        from its other literal alone and leave the arena as it is; its
        literal order matters only when it is the conflict (a binary
        reason contributes one literal to analysis whatever its order),
        so a binary conflict is written in the normalized order
        ``[other, false_lit]`` that ``_analyze`` reads.
        """
        arena = self.arena
        offs = self.c_offset
        sizes = self.c_size
        watches = self.watches
        litval = self._litval
        level = self.level
        reason = self.reason
        trail = self.trail
        qhead = start = self.qhead
        conflict = NO_REASON
        level_now = len(self.trail_lim)
        ntrail = len(trail)
        while qhead < ntrail:
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            wl = watches[false_lit]
            if not wl:
                continue
            i = 0
            j = -1  # -1: fast phase, nothing moved, no compaction
            n = len(wl)
            while i < n:
                ref = wl[i]
                i += 1
                off = offs[ref]
                size = sizes[ref]
                first = arena[off]
                if size == 2:
                    if first == false_lit:
                        first = arena[off + 1]
                    val_first = litval[first]
                    if val_first == 1:
                        continue
                    if val_first == -1:
                        arena[off] = first
                        arena[off + 1] = false_lit
                        conflict = ref  # list untouched so far: keep as is
                        break
                else:
                    # Normalize so arena[off+1] is the false literal.
                    if first == false_lit:
                        first = arena[off + 1]
                        arena[off] = first
                        arena[off + 1] = false_lit
                    val_first = litval[first]
                    if val_first == 1:
                        continue
                    # Look for a new watch.
                    k = off + 2
                    end = off + size
                    moved = False
                    while k < end:
                        q = arena[k]
                        if litval[q] != -1:
                            arena[off + 1] = q
                            arena[k] = false_lit
                            watches[q].append(ref)
                            moved = True
                            break
                        k += 1
                    if moved:
                        j = i - 1  # freed slot; compaction takes over below
                        break
                    if val_first == -1:
                        conflict = ref  # list untouched so far: keep as is
                        break
                # Unit: enqueue first.
                litval[first] = 1
                litval[-first] = -1
                var = first if first > 0 else -first
                level[var] = level_now
                reason[var] = ref
                trail.append(first)
                ntrail += 1
            if j >= 0:
                # Compaction phase: identical scan, survivors shift down.
                while i < n:
                    ref = wl[i]
                    i += 1
                    off = offs[ref]
                    size = sizes[ref]
                    first = arena[off]
                    if size == 2:
                        if first == false_lit:
                            first = arena[off + 1]
                        val_first = litval[first]
                        wl[j] = ref
                        j += 1
                        if val_first == 1:
                            continue
                    else:
                        if first == false_lit:
                            first = arena[off + 1]
                            arena[off] = first
                            arena[off + 1] = false_lit
                        val_first = litval[first]
                        if val_first == 1:
                            wl[j] = ref
                            j += 1
                            continue
                        k = off + 2
                        end = off + size
                        moved = False
                        while k < end:
                            q = arena[k]
                            if litval[q] != -1:
                                arena[off + 1] = q
                                arena[k] = false_lit
                                watches[q].append(ref)
                                moved = True
                                break
                            k += 1
                        if moved:
                            continue
                        wl[j] = ref
                        j += 1
                    if val_first == -1:
                        # Conflict: keep remaining watches then report.
                        if size == 2:
                            arena[off] = first
                            arena[off + 1] = false_lit
                        while i < n:
                            wl[j] = wl[i]
                            j += 1
                            i += 1
                        conflict = ref
                        break
                    # Unit: enqueue first.
                    litval[first] = 1
                    litval[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = level_now
                    reason[var] = ref
                    trail.append(first)
                    ntrail += 1
                del wl[j:]
            if conflict >= 0:
                break
        self.qhead = qhead
        self.propagations += qhead - start
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int):
        """First-UIP analysis; returns (learned_clause, backtrack_level)."""
        arena = self.arena
        offs = self.c_offset
        sizes = self.c_size
        seen = self._seen
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        var_inc = self.var_inc
        learned = [0]  # placeholder for the asserting literal
        counter = 0
        lit = 0
        ref = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)
        while True:
            off = offs[ref]
            end = off + sizes[ref]
            if lit == 0:
                lits = arena[off:end]
            elif arena[off] == lit:
                lits = arena[off + 1:end]
            else:
                lits = [x for x in arena[off:end] if x != lit]
            for q in lits:
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    # Inlined VSIDS bump: one attribute hop per
                    # conflict instead of one method call per seen
                    # literal.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    if level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Select next literal to expand from the trail.
            while True:
                lit = trail[index]
                if seen[lit if lit > 0 else -lit]:
                    break
                index -= 1
            index -= 1
            var = lit if lit > 0 else -lit
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            ref = reason[var]
            assert ref >= 0
        # Clear the marks left on literals that stayed in the clause.
        for q in learned[1:]:
            seen[q if q > 0 else -q] = 0
        # Clause minimization: drop a literal whose reason's other
        # literals are all already (negated) in the learned clause or at
        # level 0 — the classic "local" self-subsumption test.
        learned_set = set(learned)
        reduced = [learned[0]]
        for q in learned[1:]:
            aq = q if q > 0 else -q
            rref = reason[aq]
            if rref < 0:
                reduced.append(q)
                continue
            off = offs[rref]
            end = off + sizes[rref]
            implied = True
            k = off
            while k < end:
                p = arena[k]
                k += 1
                if p != aq and p != -aq and p not in learned_set \
                        and level[p if p > 0 else -p] != 0:
                    implied = False
                    break
            if not implied:
                reduced.append(q)
        learned = reduced
        # Compute backtrack level.
        if len(learned) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if level[abs(learned[i])] > level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            bt_level = level[abs(learned[1])]
        return learned, bt_level

    def _clause_lbd(self, clause: Sequence[int]) -> int:
        levels = {self.level[abs(lit)] for lit in clause}
        return len(levels)

    def _backtrack(self, target_level: int) -> None:
        """Undo every level above ``target_level`` in one pass over the
        trail, and set ``qhead`` to the trail's end.  Only a var whose
        heap entry is stale (bumped, or popped, while it was assigned)
        is pushed again; see VsidsHeapMixin.  ``reason`` is left as it
        is: it is read only for assigned vars."""
        trail = self.trail
        trail_lim = self.trail_lim
        if len(trail_lim) > target_level:
            heap = self._heap
            heap_act = self._heap_act
            activity = self.activity
            heappush = heapq.heappush
            litval = self._litval
            phase = self.phase
            lim = trail_lim[target_level]
            for lit in trail[lim:]:
                litval[lit] = 0
                litval[-lit] = 0
                if lit > 0:
                    var = lit
                    phase[var] = True
                else:
                    var = -lit
                    phase[var] = False
                act = activity[var]
                if heap_act[var] != act:
                    heap_act[var] = act
                    heappush(heap, (-act, var))
            del trail[lim:]
            del trail_lim[target_level:]
            if len(heap) > 4 * self.num_vars + 16:
                self._heap_rebuild()
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # Learned clause DB management
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        if len(self.learned) < self.reduce_db_threshold:
            return
        lbd = self.c_lbd
        sizes = self.c_size
        scored = sorted(self.learned, key=lambda r: (lbd[r], sizes[r]))
        keep = set(scored[: len(scored) // 2])
        # A clause is locked while it is the reason of an assigned var.
        reason = self.reason
        locked = {reason[lit if lit > 0 else -lit] for lit in self.trail}
        removed = [r for r in self.learned
                   if r not in keep and r not in locked and sizes[r] > 2]
        if not removed:
            return
        self.reductions += 1
        removed_set = set(removed)
        self.learned = [r for r in self.learned if r not in removed_set]
        # A live clause sits in exactly the two watchlists of its first
        # two literals (the propagation invariant), so only the lists
        # actually containing removed clauses need rebuilding — not
        # every watchlist in the solver.
        arena = self.arena
        offs = self.c_offset
        touched = {}
        for ref in removed:
            off = offs[ref]
            touched.setdefault(arena[off], set()).add(ref)
            touched.setdefault(arena[off + 1], set()).add(ref)
            self.garbage += sizes[ref]
        watches = self.watches
        for lit, refs in touched.items():
            watches[lit] = [r for r in watches[lit] if r not in refs]
        if self.garbage * 2 > len(arena) and len(arena) > 1 << 16:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the literal arena without the garbage left by removed
        learned clauses.  Only ``arena`` and ``c_offset`` change: clause
        refs are stable, so watchlists and reason pointers need no
        remapping (and the search trajectory is untouched)."""
        offs = self.c_offset
        sizes = self.c_size
        old = self.arena
        new: List[int] = []
        for ref in self.clauses:
            off = offs[ref]
            offs[ref] = len(new)
            new.extend(old[off:off + sizes[ref]])
        for ref in self.learned:
            off = offs[ref]
            offs[ref] = len(new)
            new.extend(old[off:off + sizes[ref]])
        self.arena = new
        self.garbage = 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None,
              deadline: Optional[float] = None, keep_levels: int = 0) -> str:
        """Run CDCL search; returns SAT, UNSAT or UNKNOWN (budget hit).

        ``assumptions`` are literals treated as temporary decisions; on
        UNSAT caused by assumptions, :attr:`conflict_assumptions` holds a
        subset of failed assumptions.  ``deadline`` is an absolute
        ``time.perf_counter()`` instant: the search polls the clock
        every few conflicts and returns UNKNOWN once it is past due.

        ``keep_levels`` retains that many leading decision levels from
        the previous call instead of restarting at level 0.  Each
        assumption occupies exactly one decision level, and only a SAT
        exit leaves them on the trail, so the caller may keep the
        prefix the new assumption list shares with the last SAT
        answer's.  Verdicts are the same as with ``keep_levels=0``; the
        search trajectory may differ.
        """
        # Reset before any early return: a caller inspecting the
        # failed-assumption set after a timed-out call must not read
        # the previous query's core.
        self.conflict_assumptions = []
        if deadline is not None and time.perf_counter() >= deadline:
            return UNKNOWN
        if not self.ok:
            return UNSAT
        if keep_levels:
            keep_levels = min(keep_levels, len(self.trail_lim))
        self._backtrack(keep_levels if keep_levels else 0)
        conflict = self._propagate()
        if conflict >= 0:
            if self.trail_lim:
                # A conflict while kept assumption levels are still on
                # the trail (possible only if clauses were added since
                # the previous call) is not a global UNSAT: retry from
                # level 0 before concluding anything.
                self._backtrack(0)
                conflict = self._propagate()
            if conflict >= 0:
                self.ok = False
                return UNSAT
        assumptions = list(assumptions)
        for lit in assumptions:
            self._ensure_var(abs(lit))
        conflict_budget = max_conflicts if max_conflicts is not None else self.max_conflicts
        start_conflicts = self.conflicts
        restart_num = 1
        restart_limit = self.restart_base * luby(restart_num)
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return UNSAT
                learned, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], NO_REASON):
                        self.ok = False
                        return UNSAT
                else:
                    # Record the LBD now, while the literals still carry
                    # their conflict-time decision levels, instead of
                    # recomputing it from stale levels at reduce time.
                    ref = self._alloc(learned, lbd=self._clause_lbd(learned))
                    self.learned.append(ref)
                    self._watch_clause(ref)
                    self._enqueue(learned[0], ref)
                self.var_inc /= self.var_decay
                if conflict_budget is not None and self.conflicts - start_conflicts >= conflict_budget:
                    self._backtrack(0)
                    return UNKNOWN
                # Poll the wall clock only every 16 conflicts: a
                # perf_counter() call per conflict is measurable on the
                # hot path, and deadline precision is not.
                if deadline is not None and self.conflicts % 16 == 0 \
                        and time.perf_counter() >= deadline:
                    self._backtrack(0)
                    return UNKNOWN
                if conflicts_since_restart >= restart_limit:
                    restart_num += 1
                    restart_limit = self.restart_base * luby(restart_num)
                    conflicts_since_restart = 0
                    self._backtrack(0)
                self._reduce_db()
                continue
            # Place assumptions as pseudo-decisions first.
            if len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                val = self._value(lit)
                if val == 1:
                    # Already implied; introduce an empty decision level
                    # to keep the level <-> assumption index alignment.
                    self.trail_lim.append(len(self.trail))
                    continue
                if val == -1:
                    self.conflict_assumptions = self._analyze_final(lit)
                    self._backtrack(0)
                    return UNSAT
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, NO_REASON)
                continue
            var = self._pick_branch_var()
            if var == 0:
                return SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = var if self.phase[var] else -var
            self._enqueue(lit, NO_REASON)

    def _analyze_final(self, failed_lit: int) -> List[int]:
        """Compute a set of assumptions responsible for falsifying ``failed_lit``."""
        out = [failed_lit]
        seen = set()
        stack = [abs(failed_lit)]
        arena = self.arena
        offs = self.c_offset
        sizes = self.c_size
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            ref = self.reason[var]
            if ref < 0:
                if self.level[var] > 0:
                    out.append(var if self._litval[var] == 1 else -var)
            else:
                off = offs[ref]
                for lit in arena[off:off + sizes[ref]]:
                    if abs(lit) != var:
                        stack.append(abs(lit))
        return out

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, lit: int) -> bool:
        """Value of a literal in the satisfying assignment (after SAT)."""
        val = self._value(lit)
        # Unassigned variables are don't-cares; report False.
        return val == 1

    def model(self) -> List[int]:
        """The full model as a list of literals (after SAT)."""
        litval = self._litval
        return [var if litval[var] == 1 else -var
                for var in range(1, self.num_vars + 1)]

    def arena_bytes(self) -> int:
        """Approximate bytes held by the literal arena plus the header
        lists (pointer-sized slots: the arena and headers are flat
        Python lists, see the module docstring)."""
        return 8 * (len(self.arena) + len(self.c_offset)
                    + len(self.c_size) + len(self.c_lbd))
