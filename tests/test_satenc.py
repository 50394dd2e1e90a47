import random

import pytest

import supobf as S
from supobf.sat import SatSolver
from supobf.satenc import VarTable
from conftest import (all_supervisor_automata, grown_climb, load_fixture,
                      random_alphabet, random_plant,
                      random_supervisor_automaton, satisfiable_within)


def make_vt(n, events, controllable, observable, mark_a=frozenset()):
    c = S.ControlConstraint(frozenset(controllable), frozenset(observable))
    return grown_table(n, S.Alphabet(tuple(events)), c, mark_a)


def grown_table(n, alph, constraint, mark_a):
    """A variable table grown from empty to ``n`` rows."""
    vt = VarTable(alph, constraint, mark_a)
    for _ in range(n):
        vt.add_row()
    return vt


def product_of(pf):
    return S.dual_marked_product(pf.plant, pf.supervisor.automaton)


def b_pairs(prod):
    """The dual-marked product's unmarked states, its B-marked pairs."""
    return frozenset(range(prod.n_states)) - prod.marked


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
    t0, dump = vt.trans_var(0, "a", 0), vt.trans_var(0, "a", S.DUMP)
    # one at-most-one pair, and the at-least-one clause of capacity 1
    assert S.transition_function_clauses(vt, 0) == [
        [-t0, -dump], [-vt.capacity_var(1), t0, dump]]


def test_transition_clauses_counts_n2():
    vt = make_vt(2, ("a",), ("a",), ("a",))
    clauses = (S.transition_function_clauses(vt, 0)
               + S.transition_function_clauses(vt, 1))
    amo = [c for c in clauses if len(c) == 2]
    alo = [c for c in clauses if len(c) > 2]
    # the pairs of two rows over three targets each
    assert len(amo) == 6 and all(l < 0 for c in amo for l in c)
    # capacity 1 covers row 0, capacity 2 rows 0 and 1, each guarded
    assert [(c[0], len(c)) for c in alo] == [(-vt.capacity_var(1), 3),
                                             (-vt.capacity_var(2), 4),
                                             (-vt.capacity_var(2), 4)]
    # row 1 retires capacity 1
    assert clauses[-1] == [-vt.capacity_var(1)]


def test_transition_clauses_no_observable_events():
    vt = make_vt(2, ("u",), (), ())
    assert S.transition_function_clauses(vt, 0) == []
    assert S.transition_function_clauses(vt, 1) == [[-vt.capacity_var(1)]]
    assert vt.num_vars == 3  # c(1), then p(1, 0) and c(2)
    # no observable event discovers row 1: two rows are unsatisfiable
    p = vt.parent_var(1, 0)
    assert S.symmetry_clauses(vt, 1) == [[p], [-p]]


def test_controllability_clauses():
    # all uncontrollable events unobservable: nothing to emit
    vt = make_vt(2, ("u",), (), ())
    assert S.controllability_clauses(vt, 0) == []
    # one uncontrollable observable event: the row never moves to the dump
    vt = make_vt(1, ("a",), (), ("a",))
    assert S.controllability_clauses(vt, 0) == \
        [[-vt.trans_var(0, "a", S.DUMP)]]
    # two rows: one unit per row, for the uncontrollable event only
    vt = make_vt(2, ("a", "b"), ("b",), ("a", "b"))
    assert [S.controllability_clauses(vt, k) for k in (0, 1)] == \
        [[[-vt.trans_var(0, "a", S.DUMP)]], [[-vt.trans_var(1, "a", S.DUMP)]]]


def test_trans_var_constants():
    vt = make_vt(2, ("a", "u"), ("a",), ("a",))
    # unobservable rows are self-loop constants
    assert vt.trans_var(0, "u", 0) is True
    assert vt.trans_var(0, "u", 1) is False
    assert vt.trans_var(1, "u", 1) is True
    # dump row is absorbing for every event
    assert vt.trans_var(S.DUMP, "a", S.DUMP) is True
    assert vt.trans_var(S.DUMP, "a", 0) is False
    assert vt.trans_var(S.DUMP, "u", S.DUMP) is True
    assert isinstance(vt.trans_var(0, "a", S.DUMP), int)


def test_separation_structure_no_b_marks():
    alph = S.Alphabet(("a",))
    g = S.PartialDFA(alph, ("q0",), {(0, "a"): 0})
    s = S.PartialDFA(alph, ("x0",), {(0, "a"): 0})
    prod = S.dual_marked_product(g, s)
    assert b_pairs(prod) == frozenset()
    vt = grown_table(1, alph, S.ControlConstraint(frozenset("a"),
                                                  frozenset("a")),
                     prod.marked)
    # the dump row holds no A-marked state: a constant, not a unit clause
    assert vt.reach_var(S.DUMP, prod.initial) is False
    r0 = vt.reach_var(0, prod.initial)
    # initial reachability, then the one edge: its self-loop is a
    # tautology, and its move to the dump leads to a false r(DUMP, y0)
    assert S.separation_clauses(vt, prod, 0) == [
        [r0], [-r0, -vt.trans_var(0, "a", S.DUMP)]]


def test_separation_leaves_out_what_the_marking_units_decide(perf):
    # r(DUMP, y) on A-marked and r(i, y) on B-marked states, once false by
    # unit clauses, are constants of the table, and so is a true r(DUMP, y)
    # on B-marked states: the separation clauses read only the live rows'
    # r variables on A-marked states, and with row 0 the initial unit is
    # their only unit clause on r that is not negative
    prod = product_of(perf)
    assert prod.marked and b_pairs(prod)
    vt = grown_table(2, prod.alphabet, perf.control, prod.marked)
    live_a = {v for *_, v in vt.iter_reach_vars()}
    tvars = {v for *_, v in vt.iter_trans_vars()}
    for k in (0, 1):
        clauses = S.separation_clauses(vt, prod, k)
        assert clauses and all(abs(l) in live_a | tvars
                               for c in clauses for l in c)
        # past the initial unit, every clause starts with ¬r(i, y1)
        assert all(-c[0] in live_a for c in clauses[k == 0:])
        positive_units = [c for c in clauses if len(c) == 1 and c[0] > 0]
        assert positive_units == ([[vt.reach_var(0, prod.initial)]]
                                  if k == 0 else [])


def test_reach_vars_only_for_live_rows_on_a_marked_states(perf):
    prod = product_of(perf)
    assert b_pairs(prod)
    vt = grown_table(3, prod.alphabet, perf.control, prod.marked)
    # no dump-row or B-marked pair is allocated
    pairs = [(i, y) for i, y, _ in vt.iter_reach_vars()]
    assert pairs == [(i, y) for i in range(3) for y in sorted(prod.marked)]
    assert [v for *_, v in vt.iter_reach_vars()] == \
        [vt.reach_var(i, y) for i, y in pairs]
    # num_vars is t + r + p + c, and every variable is allocated once
    allocated = [[v for *_, v in it()]
                 for it in (vt.iter_trans_vars, vt.iter_reach_vars,
                            vt.iter_parent_vars, vt.iter_capacity_vars)]
    assert sorted(sum(allocated, [])) == list(range(1, vt.num_vars + 1))


def test_reach_var_constants(perf):
    prod = product_of(perf)
    vt = grown_table(2, prod.alphabet, perf.control, prod.marked)
    for y in b_pairs(prod):
        # false on a B-marked state at a live row, true at the dump row
        assert vt.reach_var(0, y) is False and vt.reach_var(1, y) is False
        assert vt.reach_var(S.DUMP, y) is True
    for y in prod.marked:
        assert vt.reach_var(S.DUMP, y) is False
        assert type(vt.reach_var(1, y)) is int
    with pytest.raises(S.AutomatonError):
        vt.reach_var(2, min(prod.marked))


def test_encode_rejects_a_table_built_for_another_constraint(example1):
    prod = product_of(example1)
    vt = VarTable(prod.alphabet, example1.control, prod.marked)
    other = S.ControlConstraint(frozenset(), example1.control.observable)
    with pytest.raises(S.AutomatonError, match="different constraint"):
        S.encode(1, prod, other, vt)
    assert vt.n == 0
    # the same product with one A-pair unmarked is another product
    unmarked = S.PartialDFA(prod.alphabet, prod.names, prod.trans,
                            prod.initial, prod.marked - {max(prod.marked)})
    with pytest.raises(S.AutomatonError, match="different product"):
        S.encode(1, unmarked, example1.control, vt)
    assert vt.n == vt.num_vars == 0
    # an equal constraint is the same constraint
    same = S.ControlConstraint(example1.control.controllable,
                               example1.control.observable)
    cnf, _ = S.encode(1, prod, same, vt)
    assert cnf.clauses == S.encode(1, prod, example1.control)[0].clauses[:-1]


def test_single_state_fixture_solution(single):
    prod = product_of(single)
    assert prod.n_states == 1
    cnf, vt = S.encode(1, prod, single.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    decoded = S.decode_model(backend.model(), vt)
    assert decoded.trans == {(0, "a"): 0}
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
    eq, _ = S.language_equal(S.sync_product(tri.plant, decoded), loop)
    assert eq
    assert S.check_supervisor(decoded, tri.control) == []


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
            while len(models) < 40 and backend.solve([vt.capacity_var(n)]):
                model = backend.model()
                models.append(model)
                backend.add_clause(
                    S.blocking_clause(S.decode_model(model, vt), vt))
            runs.append((models, backend.stats))
        assert runs[0] == runs[1]
        assert runs[0][0]
        assert cnf.clauses == before


def test_parent_variables_follow_the_breadth_first_numbering(atk, perf):
    # p(j, i) holds exactly when i is the smallest row with an edge into j:
    # no other parent is consistent with a model's transitions; and at four
    # rows, where monotone parents first matter, every model is numbered
    # breadth-first
    for pf in (atk, perf):
        cnf, vt = S.encode(4, product_of(pf), pf.control)
        backend = S.solve_instance(cnf)
        size = [vt.capacity_var(4)]
        models = 0
        while models < 60 and backend.solve(size):
            model = backend.model()
            decoded = S.decode_model(model, vt)
            assert S.reachable_states(decoded) == [0, 1, 2, 3]
            fixed = size + [v if model[v] else -v
                            for _, _, _, v in vt.iter_trans_vars()]
            for j, i, p in vt.iter_parent_vars():
                parent = min(k for k in range(j) for e in vt.observable
                             if model[vt.trans_var(k, e, j)])
                assert model[p] == (i == parent)
                if i != parent:
                    assert not backend.solve(fixed + [p])
            backend.add_clause(S.blocking_clause(decoded, vt))
            models += 1
        assert models == 60


def test_tri_unsat_at_1_matches_brute_force(tri):
    loop = S.closed_loop(tri.plant, tri.supervisor)
    found = False
    for cand in all_supervisor_automata(tri.plant.alphabet, tri.control, 1):
        eq, _ = S.language_equal(S.sync_product(tri.plant, cand), loop)
        found = found or eq
    assert not found


def test_decode_all_dump_row():
    alph = S.Alphabet(("a", "u"))
    c = S.ControlConstraint(frozenset("a"), frozenset("a"))
    vt = grown_table(1, alph, c, frozenset())
    model = {vt.trans_var(0, "a", j): j == S.DUMP for j in (0, S.DUMP)}
    decoded = S.decode_model(model, vt)
    assert decoded.trans == {(0, "u"): 0}
    assert decoded.names == ("s0",)


def test_decode_rejects_double_successor():
    alph = S.Alphabet(("a",))
    vt = grown_table(1, alph, S.ControlConstraint(frozenset("a"),
                                                  frozenset("a")), frozenset())
    model = {vt.trans_var(0, "a", 0): True,
             vt.trans_var(0, "a", S.DUMP): True}
    with pytest.raises(S.BackendError):
        S.decode_model(model, vt)


def test_blocking_clause_widths(tri, single):
    prod = product_of(single)
    cnf, vt = S.encode(1, prod, single.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    model = backend.model()
    assert len(S.blocking_clause(S.decode_model(model, vt), vt)) == 1

    prod = product_of(tri)
    cnf, vt = S.encode(2, prod, tri.control)
    backend = S.solve_instance(cnf)
    assert backend.solve()
    model = backend.model()
    decoded = S.decode_model(model, vt)
    assert decoded.names == ("s0", "s1")
    clause = S.blocking_clause(decoded, vt)
    assert len(clause) == 4  # two rows, two observable events
    # after blocking, the same reachable transition function never returns
    backend.add_clause(clause)
    seen = {tuple(sorted(decoded.trans.items()))}
    while backend.solve():
        model = backend.model()
        d = S.decode_model(model, vt)
        key = tuple(sorted(d.trans.items()))
        assert key not in seen
        seen.add(key)
        backend.add_clause(S.blocking_clause(d, vt))


@pytest.mark.parametrize("name", ["example1", "example1_obfuscated", "tri",
                                  "atk", "single", "perf"])
def test_blocking_clause_matches_the_model_scan(name):
    # the clause built from the decoded supervisor is, literal for literal,
    # the one a scan of the model for each row's true target gives
    pf = load_fixture(name)
    models = 0
    for n, backend, vt in grown_climb(product_of(pf), pf.control, 3):
        while models < 80 and backend.solve([vt.capacity_var(n)]):
            model = backend.model()
            scanned = []
            for i in range(vt.n):
                for e in vt.observable:
                    hit = next(j for j in vt.targets()
                               if model[vt.trans_var(i, e, j)])
                    scanned.append(-vt.trans_var(i, e, hit))
            clause = S.blocking_clause(S.decode_model(model, vt), vt)
            assert clause == scanned
            backend.add_clause(clause)
            models += 1
    assert models > 0


def test_soundness_on_random_instances():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        alph, constraint, _ = random_alphabet(rng)
        plant = random_plant(rng, alph, 4)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 3)
        sup = S.Supervisor(sup_aut, constraint)
        prod = S.dual_marked_product(plant, sup_aut)
        n = rng.randint(1, 3)
        cnf, vt = S.encode(n, prod, constraint)
        backend = S.solve_instance(cnf)
        if not backend.solve():
            continue
        decoded = S.decode_model(backend.model(), vt)
        assert S.check_supervisor(decoded, constraint) == []
        eq, w = S.language_equal(S.sync_product(plant, decoded),
                                 S.closed_loop(plant, sup))
        assert eq, f"decoded candidate changes the closed loop on {w}"
        checked += 1
    assert checked >= 20


def test_completeness_on_tiny_instances():
    rng = random.Random(77)
    for _ in range(60):
        alph, constraint, _ = random_alphabet(rng, max_events=2)
        plant = random_plant(rng, alph, 2)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 2)
        loop = S.sync_product(plant, sup_aut)
        for n in (1, 2):
            prod = S.dual_marked_product(plant, sup_aut)
            sat = satisfiable_within(prod, constraint, n)
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
    # encoding where every transition and reachability variable is
    # explicit and the constants become unit clauses, except the true
    # r(DUMP, y) on B-marked states, which it leaves free; the first
    # supervisor leaves every product state A-marked, the second disables
    # a at x1, which makes B-marked ones
    for sup_trans in ({(0, "a"): 0, (0, "u"): 0},
                      {(0, "a"): 1, (0, "u"): 0, (1, "u"): 1}):
        explicit_encoding_agrees(sup_trans)


def explicit_encoding_agrees(sup_trans):
    alph = S.Alphabet(("a", "u"))
    constraint = S.ControlConstraint(frozenset("a"), frozenset("a"))
    plant = S.PartialDFA(alph, ("q0", "q1"),
                         {(0, "a"): 1, (0, "u"): 0, (1, "a"): 0})
    names = tuple(f"x{x}" for x in range(1 + max(sup_trans.values())))
    sup_aut = S.PartialDFA(alph, names, sup_trans)
    prod = S.dual_marked_product(plant, sup_aut)
    assert bool(b_pairs(prod)) == (len(names) > 1)
    n = 2
    cnf, vt = S.encode(n, prod, constraint)
    # the groups that fold constants, without the symmetry-breaking
    # clauses: those keep one row numbering per class, which the explicit
    # encoding has no counterpart for; the unit c(n) fixes the capacity
    folded = [cl for k in range(n)
              for cl in (S.transition_function_clauses(vt, k)
                         + S.controllability_clauses(vt, k)
                         + S.separation_clauses(vt, prod, k))]
    folded.append([vt.capacity_var(n)])

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
            y2 = prod.trans.get((y1, e))
            if y2 is None:  # outside the plant
                continue
            for i in range(n + 1):
                for j in range(n + 1):
                    if (i, y1) == (j, y2):
                        continue
                    clauses.append([-r_of[(i, y1)], -explicit[(i, e, j)],
                                    r_of[(j, y2)]])
    for y in prod.marked:
        clauses.append([-r_of[(n, y)]])
    for y in b_pairs(prod):
        for i in range(n):
            clauses.append([-r_of[(i, y)]])

    # the explicit encoding numbers the dump row n
    def row(i):
        return S.DUMP if i == n else i

    shared_opt = [vt.trans_var(i, "a", row(j))
                  for i in range(n) for j in range(n + 1)]
    shared_exp = [explicit[(i, "a", j)] for i in range(n) for j in range(n + 1)]
    # project to the t-variables plus the r-variables of the live rows on
    # A-marked states, the only ones the table allocates
    live_a = [(i, y) for i in range(n) for y in sorted(prod.marked)]
    proj_opt = shared_opt + [vt.reach_var(i, y) for i, y in live_a]
    proj_exp = shared_exp + [r_of[pair] for pair in live_a]
    models_opt = count_models(folded, cnf.num_vars, proj_opt)
    models_exp = count_models(clauses, nxt - 1, proj_exp)
    assert len(models_opt) == len(models_exp)
    # the true constants extend every explicit model
    assert count_models(clauses + [[r_of[(n, y)]] for y in b_pairs(prod)],
                        nxt - 1, proj_exp) == models_exp

    def rename(models, tvars, rvars):
        order = {v: k for k, v in enumerate(tvars + rvars)}
        return {frozenset(order[v] for v in m) for m in models}

    assert rename(models_opt, shared_opt, proj_opt[len(shared_opt):]) == \
        rename(models_exp, shared_exp, proj_exp[len(shared_exp):])


def untrimmed_product(plant, sup_aut):
    """Breadth-first product of the plant and the supervisor over the
    whole alphabet, read with ``step``, ``None`` standing for the dump of
    each, the plant's dump pairs included: ``(n_states, trans, mark_a,
    mark_b)``."""
    def step(aut, state, e):
        return None if state is None else aut.step(state, e)

    start = (plant.initial, sup_aut.initial)
    index, order, trans = {start: 0}, [start], {}
    for y, (q, x) in enumerate(order):
        for e in plant.alphabet.events:
            pair = (step(plant, q, e), step(sup_aut, x, e))
            trans[(y, e)] = index.setdefault(pair, len(order))
            if trans[(y, e)] == len(order):
                order.append(pair)
    alive = [y for y, (q, _) in enumerate(order) if q is not None]
    return (len(order), trans,
            {y for y in alive if order[y][1] is not None},
            {y for y in alive if order[y][1] is None})


def t_projected_models(clauses, num_vars, tvars):
    """The transition-variable parts of every model."""
    solver = SatSolver()
    solver.reserve(num_vars)
    for cl in clauses:
        solver.add_clause(cl)
    seen = set()
    while solver.solve():
        model = solver.model()
        seen.add(frozenset(v for v in tvars if model[v]))
        solver.add_clause([-v if model[v] else v for v in tvars])
    return seen


def test_trimmed_product_keeps_the_models_of_the_all_pairs_encoding():
    # the naive encoding: every row pair along every edge of the untrimmed
    # product, the plant's dump pairs included, with the same transition
    # and symmetry clauses; projected onto t, the models must agree
    rng = random.Random(4711)
    trimmed = nonempty = 0
    for _ in range(40):
        alph, constraint, _ = random_alphabet(rng, max_events=3)
        plant = random_plant(rng, alph, 4)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 3)
        prod = S.dual_marked_product(plant, sup_aut)
        n_all, trans, mark_a, mark_b = untrimmed_product(plant, sup_aut)
        trimmed += prod.n_states < n_all
        for n in (1, 2):
            cnf, vt = S.encode(n, prod, constraint)
            rows = vt.targets()
            r = {(i, y): cnf.num_vars + 1 + k * n_all + y
                 for k, i in enumerate(rows) for y in range(n_all)}
            naive = [cl for k in range(n)
                     for cl in (S.transition_function_clauses(vt, k)
                                + S.controllability_clauses(vt, k)
                                + S.symmetry_clauses(vt, k))]
            naive += [[vt.capacity_var(n)], [r[(0, 0)]]]
            naive += [[-r[(S.DUMP, y)]] for y in mark_a]
            naive += [[-r[(i, y)]] for y in mark_b for i in range(n)]
            for (y1, e), y2 in trans.items():
                for i in rows:
                    for j in rows:
                        t = vt.trans_var(i, e, j)
                        if t is not False and (i, y1) != (j, y2):
                            naive.append([-r[(i, y1)], r[(j, y2)]]
                                         + ([] if t is True else [-t]))
            tvars = [v for *_, v in vt.iter_trans_vars()]
            models = t_projected_models(cnf.clauses, cnf.num_vars, tvars)
            assert models == t_projected_models(naive, max(r.values()), tvars)
            nonempty += bool(models)
    assert trimmed >= 20 and nonempty >= 40


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
    assert f"c p 1 0 = {vt.parent_var(1, 0)}" in text
    assert f"c t 0 a -1 = {vt.trans_var(0, 'a', S.DUMP)}" in text
    # reachability comment lines only for the allocated pairs: live rows
    # on A-marked states
    assert "\nc r -1 " not in text
    assert [l for l in text.splitlines() if l.startswith("c r ")] == \
        [f"c r {i} {y} = {v}" for i, y, v in vt.iter_reach_vars()]
    assert len(prod.marked) < prod.n_states
    # the capacity of size 2 is asserted, so every model has two rows
    assert text.endswith(f"\n{vt.capacity_var(2)} 0\n")
    parsed = S.parse_dimacs(text)
    assert parsed.num_vars == cnf.num_vars
    assert parsed.clauses == cnf.clauses
    # every model, solved outside the package and blocked on its
    # transition variables
    tvars = [v for *_, v in vt.iter_trans_vars()]
    clauses, decoded_all = list(parsed.clauses), []
    while (model := naive_dpll(clauses, parsed.num_vars)) is not None:
        for v in range(1, parsed.num_vars + 1):
            model.setdefault(v, False)
        decoded = S.decode_model(model, vt)
        assert S.reachable_states(decoded) == [0, 1]
        eq, _ = S.language_equal(S.sync_product(tri.plant, decoded),
                                 S.closed_loop(tri.plant, tri.supervisor))
        assert eq
        decoded_all.append(decoded.trans)
        clauses.append([-v if model[v] else v for v in tvars])
    # the same two supervisors, in the same order, as an encoding with an
    # r variable for every (row, product state) pair gives
    assert decoded_all == [{(0, "a"): 1, (1, "a"): 1, (1, "b"): 0},
                           {(0, "a"): 1, (1, "a"): 0, (1, "b"): 0}]


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


def test_capacity_literals_restrict_the_size(tri):
    # a table grown row by row: each row's clauses load into the solver
    # that holds the earlier ones, the newest capacity literal selects the
    # size, and the retired ones admit no model
    prod = product_of(tri)
    vt = VarTable(prod.alphabet, tri.control, prod.marked)
    backend, grown, answers = None, [], []
    for n in (1, 2, 3):
        cnf, same = S.encode(n, prod, tri.control, vt)
        assert same is vt and vt.n == n
        # allocated last, with row n - 1
        assert vt.capacity_var(n) == vt.num_vars == cnf.num_vars
        grown += cnf.clauses
        backend = S.solve_instance(cnf, backend)
        answers.append(backend.solve([vt.capacity_var(n)]))
        if answers[-1]:
            decoded = S.decode_model(backend.model(), vt)
            assert S.reachable_states(decoded) == list(range(n))
        for m in range(1, n):
            assert not backend.solve([vt.capacity_var(m)])
    # tri needs two states
    assert answers == [False, True, True]
    # the same builder run to 3 rows, closed by the unit clause c(3)
    fresh, fresh_vt = S.encode(3, prod, tri.control)
    assert fresh.clauses == grown + [[vt.capacity_var(3)]]
    assert fresh_vt.num_vars == vt.num_vars
    assert list(fresh_vt.iter_trans_vars()) == list(vt.iter_trans_vars())
    text = S.export_dimacs(fresh, fresh_vt)
    assert "".join(f"c cap {m} = {vt.capacity_var(m)}\n"
                   for m in (1, 2, 3)) in text
    assert "\nc u " not in text
