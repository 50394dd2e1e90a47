"""Every lemma and every UNSAT answer of the solver, checked by reverse
unit propagation (RUP: Goldberg & Novikov, DATE 2003).

The checker wraps the solver from outside.  ``add_clause`` and
``load_clauses`` give the axioms, ``_analyze`` gives each learned clause,
and a False ``solve`` gives the clause of its negated assumptions (the
empty clause without assumptions).  Before it joins the clauses, each
lemma and answer must be refuted: unit propagation over the clauses
before it, from its negation, must reach a conflict.  The minimum size
``obfuscate`` returns rests on such answers, so the check covers every
solver change that the brute-force oracles reach only at tiny sizes.
"""

import random
import weakref

import pytest

import supobf as S
from supobf.sat import SatSolver
from conftest import load_fixture, random_damaged_instance

FIXTURE_NAMES = ["atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri"]


class RupFailure(AssertionError):
    pass


def propagation_refutes(clauses, clause) -> bool:
    """True iff unit propagation over ``clauses`` from the negation of
    ``clause`` reaches a conflict."""
    true = {-lit for lit in clause}
    if any(-lit in true for lit in true):
        return True  # a tautology
    # the clauses that lose a literal when ``lit`` becomes true
    shrunk_by = {}
    for cl in clauses:
        for lit in cl:
            shrunk_by.setdefault(-lit, []).append(cl)
    queue = []

    def visit(cls) -> bool:
        """Queue the unit clauses of ``cls``; False on a falsified one."""
        for cl in cls:
            free = [lit for lit in cl if -lit not in true]
            if not free:
                return False
            if len(free) == 1 and free[0] not in true:
                queue.append(free[0])
        return True

    if not visit(clauses):
        return True
    while queue:
        lit = queue.pop()
        if -lit in true:
            return True
        if lit not in true:
            true.add(lit)
            if not visit(shrunk_by.get(lit, ())):
                return True
    return False


class RupChecker:
    """Installs the wrappers on :class:`SatSolver` and keeps, per solver,
    the clauses it has taken or proven so far."""

    def __init__(self, monkeypatch):
        self.clauses = weakref.WeakKeyDictionary()
        self.lemmas = self.answers = 0
        add_clause, load_clauses = SatSolver.add_clause, SatSolver.load_clauses
        analyze, solve = SatSolver._analyze, SatSolver.solve

        def checked_add_clause(solver, lits):
            lits = list(lits)
            self.axioms(solver, [lits])
            return add_clause(solver, lits)

        def checked_load_clauses(solver, clauses):
            clauses = list(clauses)
            self.axioms(solver, clauses)
            return load_clauses(solver, clauses)

        def checked_analyze(solver, conflict):
            learned, back = analyze(solver, conflict)
            self.check(solver, learned, "lemma")
            self.lemmas += 1
            return learned, back

        def checked_solve(solver, assumptions=()):
            assumptions = list(assumptions)
            sat = solve(solver, assumptions)
            if not sat:
                self.check(solver, [-lit for lit in assumptions], "answer")
                self.answers += 1
            return sat

        monkeypatch.setattr(SatSolver, "add_clause", checked_add_clause)
        monkeypatch.setattr(SatSolver, "load_clauses", checked_load_clauses)
        monkeypatch.setattr(SatSolver, "_analyze", checked_analyze)
        monkeypatch.setattr(SatSolver, "solve", checked_solve)

    def axioms(self, solver, clauses) -> None:
        # ``add_clause`` passes its clause on to ``load_clauses``, so a
        # clause may come twice; propagation does not mind
        self.clauses.setdefault(solver, []).extend(map(tuple, clauses))

    def check(self, solver, clause, kind: str) -> None:
        clauses = self.clauses.setdefault(solver, [])
        if not propagation_refutes(clauses, clause):
            raise RupFailure(f"{kind} {sorted(clause)} is not RUP "
                             f"over {len(clauses)} clauses")
        clauses.append(tuple(clause))


def fixture_request(name: str) -> S.ObfuscationRequest:
    pf = load_fixture(name)
    return S.ObfuscationRequest(pf.plant, pf.supervisor, pf.control,
                                pf.attack, pf.damage)


def obfuscation_requests(draws: int = 20):
    """``obfuscate`` requests on the six fixtures, then on seeded small
    draws.  A few draws have tens of thousands of candidates at a size, so
    the draws cap the models per size."""
    for name in FIXTURE_NAMES:
        yield fixture_request(name)
    rng = random.Random(2003)
    for _ in range(draws):
        plant, sup, damage, attack = random_damaged_instance(rng,
                                                             max_states=5)
        yield S.ObfuscationRequest(plant, sup, sup.constraint, attack, damage,
                                   enumeration_limit=200)


def test_propagation_refutes():
    clauses = [(1, 2), (-1, 3), (-2, 3)]
    assert propagation_refutes(clauses, [3])
    assert not propagation_refutes(clauses, [1])
    assert propagation_refutes(clauses, [1, -1])
    assert propagation_refutes(clauses + [()], [1])
    assert propagation_refutes([(1,), (-1,)], [])
    assert not propagation_refutes([(1, 2)], [])


def test_every_lemma_and_unsat_answer_of_obfuscate_is_rup(monkeypatch):
    rup = RupChecker(monkeypatch)
    sizes = [S.obfuscate(req).size for req in obfuscation_requests()]
    # the check ran on real work: UNSAT answers below the minimum and at
    # the end of each enumeration, lemmas from conflict analysis
    assert rup.answers >= 30 and rup.lemmas >= 500
    assert sizes[:len(FIXTURE_NAMES)] == [None, 1, 1, 2, 1, 2]


def test_rup_check_rejects_a_lemma_with_a_literal_dropped(monkeypatch):
    # dropping a literal makes a lemma stronger than what the clauses
    # imply; the checker must catch the first one that is not implied
    analyze = SatSolver._analyze

    def dropping(solver, conflict):
        learned, back = analyze(solver, conflict)
        if len(learned) > 2:
            learned = learned[:-1]
        return learned, back

    monkeypatch.setattr(SatSolver, "_analyze", dropping)
    RupChecker(monkeypatch)
    with pytest.raises(RupFailure, match="lemma"):
        for req in obfuscation_requests():
            S.obfuscate(req)


def test_rup_check_rejects_an_unsat_answer_given_early(monkeypatch):
    # example1 has a resilient supervisor of size 1, so the first solve is
    # satisfiable and no propagation refutes its assumption
    monkeypatch.setattr(SatSolver, "solve", lambda solver, assumptions=(): False)
    RupChecker(monkeypatch)
    with pytest.raises(RupFailure, match="answer"):
        S.obfuscate(fixture_request("example1"))
