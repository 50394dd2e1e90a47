import random

import pytest

import supobf as S
from supobf.sat import SatSolver
from supobf.satenc import VarTable
from conftest import (all_supervisor_automata, random_alphabet, random_plant,
                      random_supervisor_automaton)


def make_vt(n, events, controllable, observable, num_product=0):
    alph = S.Alphabet.make(events, controllable=controllable,
                           observable=observable)
    c = S.ControlConstraint.from_alphabet(alph)
    return VarTable(n, alph, c, num_product)


def product_of(pf):
    return S.dual_marked_product(S.complete(pf.plant),
                                 S.complete(pf.supervisor.automaton))


def naive_dpll(clauses, num_vars):
    """Tiny independent solver used to cross-check DIMACS exports."""
    def go(assignment):
        unit = None
        for cl in clauses:
            vals = [assignment.get(abs(l), None) if l > 0 else
                    (None if assignment.get(abs(l)) is None else not assignment[abs(l)])
                    for l in cl]
            if any(v is True for v in vals):
                continue
            unknown = [l for l, v in zip(cl, vals) if v is None]
            if not unknown:
                return None
            if len(unknown) == 1:
                unit = unknown[0]
                break
        if unit is not None:
            nxt = dict(assignment)
            nxt[abs(unit)] = unit > 0
            return go(nxt)
        for v in range(1, num_vars + 1):
            if v not in assignment:
                for b in (False, True):
                    nxt = dict(assignment)
                    nxt[v] = b
                    out = go(nxt)
                    if out is not None:
                        return out
                return None
        return assignment

    return go({})


# -- clause group shapes -----------------------------------------------------

def test_transition_clauses_counts_n1():
    vt = make_vt(1, ("a",), ("a",), ("a",))
    clauses = S.transition_function_clauses(vt)
    widths = sorted(len(c) for c in clauses)
    assert widths == [2, 2]
    alo = [c for c in clauses if all(l > 0 for l in c)]
    amo = [c for c in clauses if all(l < 0 for l in c)]
    assert len(alo) == 1 and len(alo[0]) == 2
    assert len(amo) == 1


def test_transition_clauses_counts_n2():
    vt = make_vt(2, ("a",), ("a",), ("a",))
    clauses = S.transition_function_clauses(vt)
    alo = [c for c in clauses if all(l > 0 for l in c)]
    amo = [c for c in clauses if all(l < 0 for l in c)]
    assert len(alo) == 2 and all(len(c) == 3 for c in alo)
    assert len(amo) == 6 and all(len(c) == 2 for c in amo)


def test_transition_clauses_no_observable_events():
    vt = make_vt(2, ("u",), (), ())
    assert S.transition_function_clauses(vt) == []
    assert vt.num_vars == 0


def test_controllability_clauses():
    # all uncontrollable events unobservable: nothing to emit
    vt = make_vt(2, ("u",), (), ())
    assert S.controllability_clauses(vt) == []
    # one uncontrollable observable event, n = 1: single disjunct
    vt = make_vt(1, ("a",), (), ("a",))
    assert S.controllability_clauses(vt) == [[vt.trans_var(0, "a", 0)]]
    # n = 2: one clause per row over the two live successors
    vt = make_vt(2, ("a", "b"), ("b",), ("a", "b"))
    clauses = S.controllability_clauses(vt)
    assert clauses == [[vt.trans_var(0, "a", 0), vt.trans_var(0, "a", 1)],
                       [vt.trans_var(1, "a", 0), vt.trans_var(1, "a", 1)]]


def test_trans_var_constants():
    vt = make_vt(2, ("a", "u"), ("a",), ("a",))
    # unobservable rows are self-loop constants
    assert vt.trans_var(0, "u", 0) is True
    assert vt.trans_var(0, "u", 1) is False
    assert vt.trans_var(1, "u", 1) is True
    # dump row is absorbing for every event
    assert vt.trans_var(2, "a", 2) is True
    assert vt.trans_var(2, "a", 0) is False
    assert vt.trans_var(2, "u", 2) is True
    assert isinstance(vt.trans_var(0, "a", 2), int)


def test_separation_structure_no_b_marks():
    alph = S.Alphabet.make(("a",), controllable=("a",))
    g = S.PartialDFA(alph, ("q0",), {(0, "a"): 0})
    s = S.PartialDFA(alph, ("x0",), {(0, "a"): 0})
    prod = S.dual_marked_product(S.complete(g), S.complete(s))
    assert prod.mark_b == frozenset()
    vt = VarTable(1, alph, S.ControlConstraint.from_alphabet(alph),
                  prod.n_states)
    clauses = S.separation_clauses(vt, prod)
    units = [c for c in clauses if len(c) == 1]
    # initial reachability plus one dump-row prohibition per A-marked state
    assert [vt.reach_var(0, prod.initial)] in units
    for y in prod.mark_a:
        assert [-vt.reach_var(1, y)] in units


def test_single_state_fixture_solution(single):
    prod = product_of(single)
    assert prod.n_states == 1
    cnf, vt = S.encode(1, prod, single.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    decoded = S.decode_model(backend.model(), vt)
    assert decoded.automaton.trans == {(0, "a"): 0}
    # of the two candidate assignments only the self-loop survives
    other = SatSolver()
    other.reserve(cnf.num_vars)
    for cl in cnf.clauses:
        other.add_clause(cl)
    other.add_clause([-vt.trans_var(0, "a", 0)])
    assert not other.solve()


def test_tri_bounds(tri):
    prod = product_of(tri)
    cnf1, _ = S.encode(1, prod, tri.control)
    assert not S.solve_instance(cnf1).solve()
    cnf2, vt2 = S.encode(2, prod, tri.control)
    backend = S.solve_instance(cnf2)
    assert backend.solve()
    decoded = S.decode_model(backend.model(), vt2)
    loop = S.closed_loop(tri.plant, tri.supervisor)
    eq, _ = S.language_equal(S.sync_product(tri.plant, decoded.automaton), loop)
    assert eq
    assert S.check_supervisor(decoded.automaton, tri.control) == []


def test_bulk_load_matches_clause_by_clause(tri, atk):
    # solve_instance loads with the effect of add_clause on each clause
    # in order, and on copies: the solver reorders its own literals
    for pf, n in ((tri, 2), (tri, 3), (atk, 3)):
        cnf, vt = S.encode(n, product_of(pf), pf.control)
        before = [list(cl) for cl in cnf.clauses]
        runs = []
        for bulk in (True, False):
            if bulk:
                backend = S.solve_instance(cnf)
            else:
                backend = SatSolver()
                backend.reserve(cnf.num_vars)
                for cl in cnf.clauses:
                    backend.add_clause(cl)
            models = []
            while len(models) < 40 and backend.solve(S.size_assumptions(vt, n)):
                model = backend.model()
                models.append(model)
                rows = S.decode_model(model, vt).rows
                backend.add_clause(S.blocking_clause(model, vt, rows))
            runs.append((models, backend.stats))
        assert runs[0] == runs[1]
        assert runs[0][0]
        assert cnf.clauses == before


def test_tri_unsat_at_1_matches_brute_force(tri):
    loop = S.closed_loop(tri.plant, tri.supervisor)
    found = False
    for cand in all_supervisor_automata(tri.plant.alphabet, tri.control, 1):
        eq, _ = S.language_equal(S.sync_product(tri.plant, cand), loop)
        found = found or eq
    assert not found


def test_decode_all_dump_row():
    alph = S.Alphabet.make(("a", "u"), controllable=("a",), observable=("a",))
    c = S.ControlConstraint.from_alphabet(alph)
    vt = VarTable(1, alph, c, 0)
    model = {vt.trans_var(0, "a", j): j == 1 for j in range(2)}
    decoded = S.decode_model(model, vt)
    assert decoded.automaton.trans == {(0, "u"): 0}
    assert decoded.rows == (0,)


def test_decode_rejects_double_successor():
    alph = S.Alphabet.make(("a",), controllable=("a",))
    vt = VarTable(1, alph, S.ControlConstraint.from_alphabet(alph), 0)
    model = {vt.trans_var(0, "a", 0): True, vt.trans_var(0, "a", 1): True}
    with pytest.raises(S.BackendError):
        S.decode_model(model, vt)


def test_blocking_clause_widths(tri, single):
    prod = product_of(single)
    cnf, vt = S.encode(1, prod, single.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    model = backend.model()
    decoded = S.decode_model(model, vt)
    assert len(S.blocking_clause(model, vt, decoded.rows)) == 1

    prod = product_of(tri)
    cnf, vt = S.encode(2, prod, tri.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    model = backend.model()
    decoded = S.decode_model(model, vt)
    assert len(decoded.rows) == 2
    clause = S.blocking_clause(model, vt, decoded.rows)
    assert len(clause) == 4  # two rows, two observable events
    # after blocking, the same reachable transition function never returns
    backend.add_clause(clause)
    seen = {tuple(sorted(decoded.automaton.trans.items()))}
    while backend.solve():
        model = backend.model()
        d = S.decode_model(model, vt)
        key = tuple(sorted(d.automaton.trans.items()))
        assert key not in seen
        seen.add(key)
        backend.add_clause(S.blocking_clause(model, vt, d.rows))


def test_soundness_on_random_instances():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        alph = random_alphabet(rng)
        constraint = S.ControlConstraint.from_alphabet(alph)
        plant = random_plant(rng, alph, 4)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 3)
        sup = S.Supervisor(sup_aut, constraint)
        prod = S.dual_marked_product(S.complete(plant), S.complete(sup_aut))
        n = rng.randint(1, 3)
        cnf, vt = S.encode(n, prod, constraint)
        backend = S.solve_instance(cnf)
        if not backend.solve():
            continue
        decoded = S.decode_model(backend.model(), vt)
        assert S.check_supervisor(decoded.automaton, constraint) == []
        eq, w = S.language_equal(S.sync_product(plant, decoded.automaton),
                                 S.closed_loop(plant, sup))
        assert eq, f"decoded candidate changes the closed loop on {w}"
        checked += 1
    assert checked >= 20


def test_completeness_on_tiny_instances():
    rng = random.Random(77)
    for _ in range(60):
        alph = random_alphabet(rng, max_events=2)
        constraint = S.ControlConstraint.from_alphabet(alph)
        plant = random_plant(rng, alph, 2)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 2)
        loop = S.sync_product(plant, sup_aut)
        for n in (1, 2):
            prod = S.dual_marked_product(S.complete(plant), S.complete(sup_aut))
            cnf, _ = S.encode(n, prod, constraint)
            sat = S.solve_instance(cnf).solve()
            brute = any(
                S.language_equal(S.sync_product(plant, cand), loop)[0]
                for cand in all_supervisor_automata(alph, constraint, n))
            assert sat == brute


def test_monotonicity_in_bound(tri, single):
    for pf in (tri, single):
        prod = product_of(pf)
        statuses = []
        for n in range(1, 5):
            cnf, _ = S.encode(n, prod, pf.control)
            statuses.append(S.solve_instance(cnf).solve())
        for a, b in zip(statuses, statuses[1:]):
            assert (not a) or b, f"SAT at some n but UNSAT at n+1: {statuses}"


def test_constant_folding_matches_explicit_encoding():
    # one observable and one unobservable event; compare against an
    # encoding where every transition variable is explicit and the
    # constants become unit clauses
    alph = S.Alphabet.make(("a", "u"), controllable=("a",), observable=("a",))
    constraint = S.ControlConstraint.from_alphabet(alph)
    plant = S.PartialDFA(alph, ("q0", "q1"),
                         {(0, "a"): 1, (0, "u"): 0, (1, "a"): 0})
    sup_aut = S.PartialDFA(alph, ("x0",), {(0, "a"): 0, (0, "u"): 0})
    prod = S.dual_marked_product(S.complete(plant), S.complete(sup_aut))
    n = 2
    cnf, vt = S.encode(n, prod, constraint)

    def count_models(clauses, num_vars, project):
        solver = SatSolver()
        solver.reserve(num_vars)
        for cl in clauses:
            solver.add_clause(cl)
        seen = set()
        while solver.solve():
            model = solver.model()
            seen.add(frozenset(v for v in project if model[v]))
            solver.add_clause([-v if model[v] else v for v in model])
            if len(seen) > 4000:
                raise AssertionError("runaway enumeration")
        return seen

    # explicit encoding: allocate vars for every (i, e, j) triple
    explicit = {}
    nxt = 1
    for i in range(n + 1):
        for e in alph.events:
            for j in range(n + 1):
                explicit[(i, e, j)] = nxt
                nxt += 1
    r_of = {}
    for i in range(n + 1):
        for y in range(prod.n_states):
            r_of[(i, y)] = nxt
            nxt += 1
    clauses = []
    for i in range(n):
        for e in ("a",):
            row = [explicit[(i, e, j)] for j in range(n + 1)]
            for x in range(len(row)):
                for yv in range(x + 1, len(row)):
                    clauses.append([-row[x], -row[yv]])
            clauses.append(row)
    # constants as unit clauses
    for i in range(n + 1):
        for e in alph.events:
            for j in range(n + 1):
                if i == n:
                    clauses.append([explicit[(i, e, j)] if j == n
                                    else -explicit[(i, e, j)]])
                elif e == "u":
                    clauses.append([explicit[(i, e, j)] if i == j
                                    else -explicit[(i, e, j)]])
    clauses.append([r_of[(0, prod.initial)]])
    for y1 in range(prod.n_states):
        for e in alph.events:
            y2 = prod.trans[(y1, e)]
            for i in range(n + 1):
                for j in range(n + 1):
                    if (i, y1) == (j, y2):
                        continue
                    clauses.append([-r_of[(i, y1)], -explicit[(i, e, j)],
                                    r_of[(j, y2)]])
    for y in prod.mark_a:
        clauses.append([-r_of[(n, y)]])
    for y in prod.mark_b:
        for i in range(n):
            clauses.append([-r_of[(i, y)]])

    shared_opt = [vt.trans_var(i, "a", j) for i in range(n) for j in range(n + 1)]
    shared_exp = [explicit[(i, "a", j)] for i in range(n) for j in range(n + 1)]
    # project to the t-variables plus all r-variables
    proj_opt = shared_opt + [vt.reach_var(i, y) for i in range(n + 1)
                             for y in range(prod.n_states)]
    proj_exp = shared_exp + [r_of[(i, y)] for i in range(n + 1)
                             for y in range(prod.n_states)]
    models_opt = count_models(cnf.clauses, cnf.num_vars, proj_opt)
    models_exp = count_models(clauses, nxt - 1, proj_exp)
    assert len(models_opt) == len(models_exp)

    def rename(models, tvars, rvars):
        order = {v: k for k, v in enumerate(tvars + rvars)}
        return {frozenset(order[v] for v in m) for m in models}

    assert rename(models_opt, shared_opt, proj_opt[len(shared_opt):]) == \
        rename(models_exp, shared_exp, proj_exp[len(shared_exp):])


# -- DIMACS ------------------------------------------------------------------

def test_export_dimacs_trivial_cases():
    assert S.export_dimacs(S.CnfInstance(0)) == "p cnf 0 0\n"
    assert S.export_dimacs(S.CnfInstance(1, [[1]])) == "p cnf 1 1\n1 0\n"


def test_dimacs_round_trip_and_external_solve(tri):
    prod = product_of(tri)
    cnf, vt = S.encode(2, prod, tri.control)
    text = S.export_dimacs(cnf, vt)
    assert f"c t 0 a 0 = {vt.trans_var(0, 'a', 0)}" in text
    assert f"c r 0 0 = {vt.reach_var(0, 0)}" in text
    parsed = S.parse_dimacs(text)
    assert parsed.num_vars == cnf.num_vars
    assert parsed.clauses == cnf.clauses
    model = naive_dpll(parsed.clauses, parsed.num_vars)
    assert model is not None
    for v in range(1, parsed.num_vars + 1):
        model.setdefault(v, False)
    decoded = S.decode_model(model, vt)
    eq, _ = S.language_equal(S.sync_product(tri.plant, decoded.automaton),
                             S.closed_loop(tri.plant, tri.supervisor))
    assert eq


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(ValueError):
        S.parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(ValueError):
        S.parse_dimacs("p cnf 1 2\n1 0\n")


def test_parse_dimacs_rejects_bad_clauses():
    with pytest.raises(ValueError, match="tautological"):
        S.parse_dimacs("p cnf 2 1\n1 2 -1 0\n")
    with pytest.raises(ValueError, match="outside"):
        S.parse_dimacs("p cnf 2 1\n1 -3 0\n")
    with pytest.raises(ValueError, match="repeated"):
        S.parse_dimacs("p cnf 1 1\n1 1 0\n")
    with pytest.raises(ValueError, match="repeated"):
        S.parse_dimacs("p cnf 2 1\n-2 1 -2 0\n")
    with pytest.raises(ValueError, match="negative"):
        S.parse_dimacs("p cnf -3 0\n")
    with pytest.raises(ValueError, match="negative"):
        S.parse_dimacs("p cnf 2 -1\n")
    assert S.parse_dimacs("p cnf 2 1\n1 -2 0\n").clauses == [[1, -2]]


def test_activation_literals_restrict_the_size(tri):
    prod = product_of(tri)
    cnf, vt = S.encode(3, prod, tri.control)
    u1, u2 = vt.activation_var(1), vt.activation_var(2)
    # allocated after every transition and reachability variable
    assert [u1, u2] == [cnf.num_vars - 1, cnf.num_vars]
    assert S.size_assumptions(vt, 1) == [-u1, -u2]
    assert S.size_assumptions(vt, 2) == [u1, -u2]
    assert S.size_assumptions(vt, 3) == [u1, u2]
    text = S.export_dimacs(cnf, vt)
    assert f"c u 1 = {u1}\nc u 2 = {u2}\n" in text
    backend = S.solve_instance(cnf)
    # tri needs two states: unsatisfiable at size 1 only
    assert not backend.solve(S.size_assumptions(vt, 1))
    assert backend.solve(S.size_assumptions(vt, 2))
    decoded = S.decode_model(backend.model(), vt)
    assert set(decoded.rows) <= {0, 1}
    for y in range(prod.n_states):
        assert not backend.model()[vt.reach_var(2, y)]
    assert backend.solve()
