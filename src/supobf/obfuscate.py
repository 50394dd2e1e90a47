"""Minimum-state resilient supervisor synthesis.

The search climbs candidate state sizes.  For each size it enumerates all
behavior-preserving supervisors of exactly that reachable size (all-SAT
with blocking clauses over the transition function; the encoding's
symmetry breaking admits one model per isomorphism class, numbered
breadth-first as ``canonical_key`` numbers it), runs the
non-attackability check on each, and returns the canonically smallest
resilient candidate at the first size that has one.  Exhausting every
smaller size is what makes the returned supervisor minimum-state.

One solver serves the whole climb, and it grows with it: reaching size
``n``, the search encodes row ``n - 1`` and loads its clauses into the
solver, which then holds exactly ``n`` rows, and enumerates under the
single assumption ``c(n)``, the capacity literal of that size.  Learned
clauses carry over from one size to the next, and no row is loaded that
the climb does not reach.

The solver resolves each blocking clause as a conflict where the model
falsifies it, and the next solve goes on from the backjump level: each
model redoes only what the backjump undid, not the level of ``c(n)``.

Blocking clauses stay in the solver too.  That is sound: a model of size
``m`` is blocked on rows ``0..m-1``, whose edges stay inside those rows
or lead to the dump, so a model that repeats them reaches no row past
``m - 1``; at every larger size the symmetry breaking makes every row
reachable, so no model there repeats a blocked one.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from .automata import (PartialDFA, canonical_key, dual_marked_product,
                       reachable_states)
from .control import (AttackConstraint, ControlConstraint, Supervisor,
                      validate_damage)
from .attack import non_attackable
from .sat import SatSolver
from .satenc import (CnfInstance, VarTable, blocking_clause, decode_model, encode,
                     solve_instance)


class ObfuscationRequest(NamedTuple):
    plant: PartialDFA
    supervisor: Supervisor
    target_constraint: ControlConstraint
    attack: AttackConstraint
    damage: PartialDFA
    n_max: Optional[int] = None  # default: reachable size of the supervisor
    enumeration_limit: Optional[int] = None  # SAT models per size


class SizeTrace(NamedTuple):
    n: int
    candidates: int   # exact-size behavior-preserving supervisors
    resilient: int    # candidates that passed

    @property
    def tested(self) -> int:
        """Non-attackability checks run: one per candidate."""
        return self.candidates


class ObfuscationResult(NamedTuple):
    found: bool
    supervisor: Optional[Supervisor]
    size: Optional[int]
    n_max: int
    trace: list[SizeTrace]
    solver_stats: dict
    truncated: bool = False

    @property
    def candidates_tested(self) -> int:
        """Candidates verified over the whole climb: one per model."""
        return self.solver_stats["models"]


def check_enumeration_limit(limit: Optional[int]) -> None:
    """Reject a cap on models per size below 1, before any work."""
    if limit is not None and limit < 1:
        raise ValueError("the enumeration limit must be at least 1")


def iter_size_candidates(backend: SatSolver, vt: VarTable,
                         limit: Optional[int] = None
                         ) -> Iterator[tuple[tuple, PartialDFA]]:
    """Stream ``(canonical key, supervisor)`` for the behavior-preserving
    supervisors of exact reachable size ``vt.n``, one per isomorphism
    class, in solver order, from ``backend`` loaded with every row of
    ``vt``.

    Every solve runs under the assumption ``c(vt.n)``, and every model is
    one candidate: its rows are all reachable, in canonical order, so
    :func:`decode_model` reads it as states ``s0..s{n-1}`` and
    :func:`blocking_clause` blocks that supervisor before re-solving;
    the solver resolves that clause against the model and the next solve
    goes on from its backjump.  ``limit`` caps the models taken (callers
    check it with :func:`check_enumeration_limit`); the enumeration is
    truncated at it, and which models it took depends on the search.
    """
    assumptions = [vt.capacity_var(vt.n)]
    count = 0
    while (limit is None or count < limit) and backend.solve(assumptions):
        count += 1
        candidate = decode_model(backend.model(), vt)
        backend.add_clause(blocking_clause(candidate, vt))
        yield canonical_key(candidate), candidate


def behavior_preserving_supervisors(plant: PartialDFA, sup_aut: PartialDFA,
                                    constraint: ControlConstraint, n: int,
                                    limit: Optional[int] = None):
    """All behavior-preserving supervisors of exact reachable size ``n``,
    one per isomorphism class, canonically sorted; returns (supervisors,
    truncated)."""
    check_enumeration_limit(limit)
    product = dual_marked_product(plant, sup_aut)
    return enumerate_instance(*encode(n, product, constraint), limit)


def enumerate_instance(cnf: CnfInstance, vt: VarTable,
                       limit: Optional[int] = None):
    """:func:`behavior_preserving_supervisors` of exact size ``vt.n`` on an
    instance already encoded as ``(cnf, vt)``."""
    found = sorted(iter_size_candidates(solve_instance(cnf), vt, limit),
                   key=lambda kc: kc[0])
    return [c for _, c in found], limit is not None and len(found) == limit


def obfuscate(req: ObfuscationRequest,
              progress: Optional[Callable[[SizeTrace], None]] = None
              ) -> ObfuscationResult:
    """Search sizes 1..n_max for a minimum-state behavior-preserving,
    non-attackable supervisor over the target constraint."""
    plant = req.plant
    sup_aut = req.supervisor.automaton
    constraint = req.target_constraint
    req.attack.check_against(constraint)
    report = validate_damage(req.damage, plant, req.supervisor)
    if not report.ok:
        raise ValueError("damage validation failed: " + report.problem)

    n_max = req.n_max if req.n_max is not None else len(reachable_states(sup_aut))
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    check_enumeration_limit(req.enumeration_limit)

    product = dual_marked_product(plant, sup_aut)
    trace: list[SizeTrace] = []
    truncated = False
    winner = None  # (canonical key, supervisor)
    vt = VarTable(product.alphabet, constraint, product.marked)
    backend = None  # the one solver, created with row 0
    for n in range(1, n_max + 1):
        cnf, _ = encode(n, product, constraint, vt)  # adds row n - 1
        backend = solve_instance(cnf, backend)
        candidates = resilient = 0
        for key, cand in iter_size_candidates(backend, vt,
                                              req.enumeration_limit):
            candidates += 1
            candidate = Supervisor(cand, constraint)
            verdict = non_attackable(plant, candidate, req.damage, req.attack,
                                     validate=False)
            if verdict.non_attackable:
                resilient += 1
                if winner is None or key < winner[0]:
                    winner = (key, candidate)
        truncated = truncated or candidates == req.enumeration_limit
        row = SizeTrace(n, candidates, resilient)
        trace.append(row)
        if progress is not None:
            progress(row)
        if winner is not None:
            break
    # each model is one candidate, verified once
    solver_stats = dict(backend.stats, models=sum(r.candidates for r in trace))
    if winner is None:
        return ObfuscationResult(False, None, None, n_max, trace,
                                 solver_stats, truncated)
    return ObfuscationResult(True, winner[1], trace[-1].n, n_max, trace,
                             solver_stats, truncated)
