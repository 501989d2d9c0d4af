"""Shared pieces of the CDCL solver in pure Python.

The solver itself is :class:`repro.sat.arena.ArenaSolver`, the proof
engine behind the formal property checker (the reproduction's stand-in
for JasperGold).  It implements the standard modern architecture:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with clause learning and minimization,
* VSIDS-style activity ordering with phase saving, served by a lazy
  max-heap (MiniSat's ``order_heap``; :class:`VsidsHeapMixin`),
* Luby-sequence restarts (:func:`luby`),
* learned-clause database reduction ordered by LBD (glue), with the
  LBD recorded at learn time,
* solving under assumptions (used for incremental BMC queries), one at
  a time or batched with a shared trail prefix
  (:class:`BatchedSolveMixin`).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from .cnf import Cnf

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def luby(i: int) -> int:
    """Return the i-th element (1-based) of the Luby restart sequence.

    The sequence is 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's
    iterative formulation, shifted to 1-based indexing).
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class VsidsHeapMixin:
    """VSIDS branch ordering.

    A lazy binary heap over VSIDS activity built on the C-implemented
    :mod:`heapq`: entries are ``(-activity, var)`` tuples snapshotted
    at push time, popped smallest-first, which is (activity desc,
    index asc) — the first strict maximum in index order.  Because
    that comparator is a *total* order, every valid heap arrangement
    pops the identical variable sequence, so the search trajectory does
    not depend on the heap's internal layout (pinned by
    ``tests/unit/test_sat_fuzz.py``).

    Laziness: VSIDS bumps touch only trail (assigned) variables, so a
    bump never repairs the heap.  ``_heap_act[var]`` is the activity
    snapshot of the var's live entry, or ``-1.0`` once
    ``_pick_branch_var`` has popped it; backtracking pushes a fresh
    entry for an unassigned var only when that snapshot is stale (the
    var was bumped, or its entry popped, while it was assigned).  So
    every unassigned var has exactly one current entry, and the pop
    order over the total order above is unchanged.  Superseded
    snapshots hold a strictly lower activity than the current entry
    (activity only grows between rescales, and a rescale rebuilds the
    heap), so they surface only once the var is assigned again, and are
    discarded then; a size trigger rebuilds the heap from the
    unassigned vars before duplicates accumulate beyond a small
    multiple of the variable count.
    """

    def _rescale_activity(self) -> None:
        # Rescaling multiplies every activity by the same factor, so
        # the selection order is preserved; the stored snapshots are
        # invalidated wholesale, so rebuild the heap outright.
        for i in range(1, self.num_vars + 1):
            self.activity[i] *= 1e-100
        self.var_inc *= 1e-100
        self._heap_rebuild()

    def _heap_rebuild(self) -> None:
        litval = self._litval
        activity = self.activity
        heap_act = self._heap_act
        heap = []
        for v in range(1, self.num_vars + 1):
            if litval[v] == 0:
                act = activity[v]
                heap_act[v] = act
                heap.append((-act, v))
            else:
                heap_act[v] = -1.0
        heapq.heapify(heap)
        self._heap = heap

    def _heap_insert(self, var: int) -> None:
        act = self.activity[var]
        self._heap_act[var] = act
        heapq.heappush(self._heap, (-act, var))

    def _pick_branch_var(self) -> int:
        # Lazy deletion: pop until an unassigned variable surfaces.  An
        # unassigned var always carries a current-snapshot entry, which
        # surfaces before any of its superseded ones; popping the live
        # entry of an assigned var marks it gone, so the var is pushed
        # again when backtracking unassigns it.
        litval = self._litval
        heap_act = self._heap_act
        heap = self._heap
        pop = heapq.heappop
        while heap:
            neg_act, var = pop(heap)
            if heap_act[var] == -neg_act:
                heap_act[var] = -1.0
            if litval[var] == 0:
                return var
        return 0


class BatchedSolveMixin:
    """``solve_batch`` over any core exposing ``solve(keep_levels=...)``.

    Consecutive assumption sets that share a prefix reuse the trail:
    each assumption occupies exactly one (pseudo-)decision level, so
    after a SAT answer the solver only backtracks to the first level
    where the next set's assumptions diverge, skipping re-propagation
    of the shared prefix.  Verdicts are identical to per-call
    ``solve(assumptions=...)`` (pinned by the fuzz suite); trajectories
    may legitimately differ.  ``batch_shared_levels`` /
    ``batch_assumption_levels`` count the reused and the total
    assumption levels (the fuzz suite checks them).
    """

    def solve_batch(self, assumption_sets: Sequence[Sequence[int]],
                    max_conflicts: Optional[int] = None,
                    deadline: Optional[float] = None,
                    on_result=None) -> List[str]:
        """Solve each assumption set in order; returns their statuses.

        ``on_result(index, status)`` fires after each set while its
        model (for SAT answers) is still intact, so callers can extract
        witnesses before the next set reuses the solver.
        """
        results: List[str] = []
        prev: Optional[List[int]] = None
        for assumptions in assumption_sets:
            assumptions = list(assumptions)
            keep = 0
            if prev is not None:
                for a, b in zip(prev, assumptions):
                    if a != b:
                        break
                    keep += 1
            self.batch_shared_levels += keep
            self.batch_assumption_levels += len(assumptions)
            status = self.solve(assumptions=assumptions,
                                max_conflicts=max_conflicts,
                                deadline=deadline, keep_levels=keep)
            results.append(status)
            if on_result is not None:
                on_result(len(results) - 1, status)
            # Only a SAT exit leaves the assumption levels on the trail
            # (UNSAT/UNKNOWN backtrack to level 0), so only then can the
            # next set inherit a prefix.
            prev = assumptions if status == SAT else None
        return results


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None):
    """One-shot convenience: solve a :class:`Cnf`, returning (status, solver)."""
    from .arena import ArenaSolver  # arena builds on this module's mixins
    solver = ArenaSolver()
    solver.add_cnf(cnf)
    status = solver.solve(assumptions=assumptions, max_conflicts=max_conflicts)
    return status, solver
