"""Minimum-state resilient supervisor synthesis.

The search climbs candidate state sizes.  For each size it enumerates all
behavior-preserving supervisors of exactly that reachable size (all-SAT
with blocking clauses over the reachable transition function), runs the
non-attackability check on each, and returns the canonically smallest
resilient candidate at the first size that has one.  Exhausting every
smaller size is what makes the returned supervisor minimum-state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .automata import (DualMarkedDFA, PartialDFA, canonical_key, complete,
                       dual_marked_product, reachable_states)
from .control import (AttackConstraint, ControlConstraint, Supervisor,
                      closed_loop, validate_damage)
from .attack import non_attackable
from .sat import SatSolver
from .satenc import blocking_clause, decode_model, encode, solve_instance


@dataclass
class ObfuscationRequest:
    plant: PartialDFA
    supervisor: Supervisor
    target_constraint: ControlConstraint
    attack: AttackConstraint
    damage: PartialDFA
    n_max: Optional[int] = None  # default: reachable size of the supervisor
    enumeration_limit: Optional[int] = None  # SAT models per size


@dataclass
class SizeTrace:
    n: int
    candidates: int   # exact-size behavior-preserving supervisors
    tested: int       # non-attackability checks run
    resilient: int    # candidates that passed


@dataclass
class ObfuscationResult:
    found: bool
    supervisor: Optional[Supervisor]
    size: Optional[int]
    n_max: int
    candidates_tested: int
    trace: list[SizeTrace]
    solver_stats: dict
    truncated: bool = False


@dataclass
class EnumerationStats:
    models: int = 0
    truncated: bool = False
    solver: Optional[SatSolver] = None


def iter_size_candidates(product: DualMarkedDFA, constraint: ControlConstraint,
                         n: int, limit: Optional[int] = None,
                         stats: Optional[EnumerationStats] = None
                         ) -> Iterator[tuple[tuple, PartialDFA]]:
    """Stream ``(canonical key, supervisor)`` for the behavior-preserving
    supervisors of exact reachable size ``n`` over the dual-marked
    ``product``, one per isomorphism class, in solver order.

    Every model is blocked on its reachable transition function before
    re-solving; models whose reachable part is smaller than ``n`` are
    blocked but not yielded (they were enumerated at their own size).
    ``limit`` caps the number of SAT models taken from the solver and
    must be at least 1.
    """
    if limit is not None and limit < 1:
        raise ValueError("the enumeration limit must be at least 1")
    if stats is None:
        stats = EnumerationStats()
    cnf, vt = encode(n, product, constraint)
    backend = solve_instance(cnf)
    stats.solver = backend
    seen = set()
    while backend.solve():
        stats.models += 1
        model = backend.model()
        decoded = decode_model(model, vt)
        backend.add_clause(blocking_clause(model, vt, decoded.rows))
        if len(decoded.rows) == n:
            key = canonical_key(decoded.automaton)
            if key not in seen:
                seen.add(key)
                yield key, decoded.automaton
        if limit is not None and stats.models >= limit:
            stats.truncated = True
            return


def behavior_preserving_supervisors(plant: PartialDFA, sup_aut: PartialDFA,
                                    constraint: ControlConstraint, n: int,
                                    limit: Optional[int] = None):
    """All behavior-preserving supervisors of exact reachable size ``n``,
    one per isomorphism class, canonically sorted; returns (supervisors,
    truncated)."""
    stats = EnumerationStats()
    product = dual_marked_product(complete(plant), complete(sup_aut))
    found = sorted(iter_size_candidates(product, constraint, n, limit, stats),
                   key=lambda kc: kc[0])
    return [c for _, c in found], stats.truncated


def obfuscate(req: ObfuscationRequest,
              progress: Optional[Callable[[SizeTrace], None]] = None
              ) -> ObfuscationResult:
    """Search sizes 1..n_max for a minimum-state behavior-preserving,
    non-attackable supervisor over the target constraint."""
    plant = req.plant
    sup_aut = req.supervisor.automaton
    constraint = req.target_constraint
    req.attack.check_against(constraint)
    report = validate_damage(req.damage, closed_loop(plant, req.supervisor),
                             plant=plant)
    if not report.ok:
        raise ValueError("damage validation failed: " + "; ".join(report.problems))

    n_max = req.n_max if req.n_max is not None else len(reachable_states(sup_aut))
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    product = dual_marked_product(complete(plant), complete(sup_aut))
    trace: list[SizeTrace] = []
    solver_stats = {"decisions": 0, "conflicts": 0, "propagations": 0,
                    "solves": 0, "models": 0}
    tested_total = 0
    truncated = False
    for n in range(1, n_max + 1):
        stats = EnumerationStats()
        row = SizeTrace(n, 0, 0, 0)
        winner = None  # (canonical key, supervisor)
        for key, cand in iter_size_candidates(product, constraint, n,
                                              req.enumeration_limit, stats):
            row.candidates += 1
            candidate = Supervisor(cand, constraint)
            row.tested += 1
            tested_total += 1
            verdict = non_attackable(plant, candidate, req.damage, req.attack,
                                     validate=False)
            if verdict.non_attackable:
                row.resilient += 1
                if winner is None or key < winner[0]:
                    winner = (key, candidate)
        for k in ("decisions", "conflicts", "propagations", "solves"):
            solver_stats[k] += stats.solver.stats[k]
        solver_stats["models"] += stats.models
        truncated = truncated or stats.truncated
        trace.append(row)
        if progress is not None:
            progress(row)
        if winner is not None:
            return ObfuscationResult(True, winner[1], n, n_max, tested_total,
                                     trace, solver_stats, truncated)
    return ObfuscationResult(False, None, None, n_max, tested_total, trace,
                             solver_stats, truncated)
