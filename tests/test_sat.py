import itertools
import json
import random
from pathlib import Path

import pytest

import supobf as S
from supobf.sat import _UNSET, SatSolver

TRAJECTORY = Path(__file__).resolve().parent / "golden" / "sat_trajectory.json"


def brute_force_sat(num_vars, clauses):
    """All satisfying assignments, as frozensets of true variables."""
    models = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(any(assignment[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            models.append(frozenset(v for v, b in assignment.items() if b))
    return set(models)


def check_model(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def test_trivial_sat_and_unsat():
    s = SatSolver()
    s.add_clause([1, 2])
    s.add_clause([-1])
    assert s.solve()
    m = s.model()
    assert m[2] and not m[1]
    s.add_clause([-2])
    assert not s.solve()


def test_empty_clause_is_unsat():
    s = SatSolver()
    s.add_clause([])
    assert not s.solve()


def test_tautology_and_duplicates_ignored():
    s = SatSolver()
    s.add_clause([1, -1])
    s.add_clause([2, 2, 2])
    assert s.solve()
    assert s.model()[2]


def test_pigeonhole_unsat():
    # 3 pigeons, 2 holes: var(p, h) = p * 2 + h + 1
    s = SatSolver()
    for p in range(3):
        s.add_clause([p * 2 + 1, p * 2 + 2])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                s.add_clause([-(p1 * 2 + h + 1), -(p2 * 2 + h + 1)])
    assert not s.solve()


def test_random_instances_against_brute_force():
    rng = random.Random(99)
    for _ in range(120):
        num_vars = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 14)):
            width = rng.randint(1, 3)
            clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                      for _ in range(width)]
            clauses.append(clause)
        expected = brute_force_sat(num_vars, clauses)
        s = SatSolver()
        s.reserve(num_vars)
        for cl in clauses:
            s.add_clause(cl)
        got = s.solve()
        assert got == bool(expected)
        if got:
            assert check_model(s.model(), clauses)


def test_blocking_enumeration_is_exhaustive():
    rng = random.Random(41)
    for _ in range(40):
        num_vars = rng.randint(1, 5)
        clauses = []
        for _ in range(rng.randint(0, 8)):
            width = rng.randint(1, 3)
            clauses.append([rng.choice([1, -1]) * rng.randint(1, num_vars)
                            for _ in range(width)])
        expected = brute_force_sat(num_vars, clauses)
        s = SatSolver()
        s.reserve(num_vars)
        for cl in clauses:
            s.add_clause(cl)
        found = set()
        while s.solve():
            model = s.model()
            key = frozenset(v for v, b in model.items() if b)
            assert key not in found, "enumeration repeated a model"
            found.add(key)
            s.add_clause([-v if model[v] else v for v in model])
        assert found == expected


def test_deterministic_model_sequence():
    def run():
        s = SatSolver()
        s.reserve(4)
        s.add_clause([1, 2, 3])
        s.add_clause([-2, 4])
        out = []
        for _ in range(5):
            if not s.solve():
                break
            model = s.model()
            out.append(tuple(sorted(v for v, b in model.items() if b)))
            s.add_clause([-v if model[v] else v for v in model])
        return out, s.stats

    first, stats1 = run()
    second, stats2 = run()
    assert first == second
    assert stats1 == stats2


def test_model_total_over_reserved_vars():
    s = SatSolver()
    s.reserve(5)
    s.add_clause([1])
    assert s.solve()
    assert set(s.model()) == {1, 2, 3, 4, 5}


def test_bad_literal_rejected():
    s = SatSolver()
    with pytest.raises(ValueError):
        s.add_clause([0])


@pytest.mark.parametrize("lit", [True, False])
def test_bool_literal_rejected(lit):
    # the encoder folds constant literals to True and False; one that
    # escaped the fold must not pass as variable 1 (or as 0)
    # every literal is checked before any variable is reserved
    s = SatSolver()
    for call, lits in ((s.add_clause, [lit]), (s.solve, [lit]),
                       (s.add_clause, [2, lit]), (s.solve, [3, lit])):
        with pytest.raises(ValueError, match="bad literal"):
            call(lits)
        assert s.num_vars == 0 and type(s.num_vars) is int


def random_cnf(rng, max_vars, max_clauses):
    num_vars = rng.randint(1, max_vars)
    clauses = [[rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 3))]
               for _ in range(rng.randint(0, max_clauses))]
    return num_vars, clauses


def random_assumptions(rng, num_vars):
    return [rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(0, num_vars))]


def consistent(model_true, assumptions):
    return all((abs(l) in model_true) == (l > 0) for l in assumptions)


def test_assumptions_against_brute_force():
    rng = random.Random(7)
    for _ in range(80):
        num_vars, clauses = random_cnf(rng, 6, 14)
        expected = brute_force_sat(num_vars, clauses)
        s = SatSolver()
        s.reserve(num_vars)
        for cl in clauses:
            s.add_clause(cl)
        # several calls on one solver: learned clauses carry over
        for _ in range(6):
            assumptions = random_assumptions(rng, num_vars)
            want = any(consistent(m, assumptions) for m in expected)
            assert s.solve(assumptions) == want
            if want:
                model = s.model()
                assert check_model(model, clauses)
                assert all(model[abs(l)] == (l > 0) for l in assumptions)
        assert s.solve() == bool(expected)


def test_failed_assumption_keeps_solver_usable():
    s = SatSolver()
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    assert not s.solve([1, -3])
    assert s.solve()
    assert s.solve([1])
    model = s.model()
    assert model[1] and model[2] and model[3]
    assert not s.solve([-3, 1])
    assert s.solve([-3])
    assert not s.model()[1]


def test_assumption_falsified_at_root():
    s = SatSolver()
    s.add_clause([1, 2])
    s.add_clause([-3])
    assert not s.solve([2, 3])
    assert not s.solve([1, -1])  # contradictory assumptions
    assert s.solve([-1])
    model = s.model()
    assert model[2] and not model[3]
    assert s.solve()


def test_clauses_added_between_solves_under_assumptions():
    # a clause false on the trail after a solve is resolved as a conflict
    # there and the trail kept, any other clause goes in at the root, and
    # the next call goes on from the trail under the same assumptions or
    # reuses the shared prefix of its assumptions; every answer must
    # still match brute force
    rng = random.Random(2003)
    for case in range(220):
        if case < 120:
            num_vars, clauses = random_cnf(rng, 6, 10)
            fixed = []
        else:
            # three variables fixed at the root by unit clauses; clauses
            # resolved as conflicts keep their root-false literals
            num_vars = 6
            fixed = [rng.choice([1, -1]) * v
                     for v in rng.sample(range(1, num_vars + 1), 3)]
            clauses = ([[lit] for lit in fixed]
                       + well_formed_clauses(rng, num_vars, rng.randint(0, 5)))
        s = SatSolver()
        s.reserve(num_vars)
        for cl in clauses:
            s.add_clause(cl)
        assumptions = random_assumptions(rng, num_vars)
        for _ in range(8):
            roll = rng.random()
            if roll < 0.3:
                assumptions = random_assumptions(rng, num_vars)
            elif roll < 0.6:  # same prefix, new tail
                cut = rng.randint(0, len(assumptions))
                assumptions = (assumptions[:cut]
                               + random_assumptions(rng, num_vars)[:2])
            expected = brute_force_sat(num_vars, clauses)
            want = any(consistent(m, assumptions) for m in expected)
            assert s.solve(assumptions) == want
            if want:
                model = s.model()
                assert check_model(model, clauses)
                assert all(model[abs(l)] == (l > 0) for l in assumptions)
            roll = rng.random()
            if want and roll < 0.4:  # block the model
                clause = [-v if model[v] else v for v in model]
            elif fixed and roll < 0.9:
                # two literals false at the root, sometimes one true there,
                # and one or two free literals, in any order
                false1, false2, true = rng.sample(fixed, 3)
                free = [v for v in range(1, num_vars + 1)
                        if v not in {abs(lit) for lit in fixed}]
                clause = ([-false1, -false2]
                          + ([true] if rng.random() < 0.3 else [])
                          + [rng.choice([1, -1]) * v
                             for v in rng.sample(free, rng.randint(1, 2))])
                rng.shuffle(clause)
            elif roll < 0.6:
                clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)]
            else:
                clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                          for _ in range(rng.randint(2, 3))]
            clauses.append(clause)
            s.add_clause(clause)
        assert s.solve() == bool(brute_force_sat(num_vars, clauses))


def well_formed_clauses(rng, num_vars, count):
    """Clauses of one to three distinct variables, as ``load_clauses``
    requires."""
    return [[rng.choice([1, -1]) * v
             for v in rng.sample(range(1, num_vars + 1),
                                 rng.randint(1, min(3, num_vars)))]
            for _ in range(count)]


def test_load_clauses_after_solving_against_brute_force():
    # a solver that has solved under assumptions and taken blocking
    # clauses reserves new variables and loads a second batch at the
    # root, as a grown encoding loads its next row; a unit clause of the
    # first batch gives a root value that the second batch's clauses
    # touch, satisfied by it or falsified, and some batches end in a unit
    # that propagates to a conflict; every answer, and the set of all
    # models afterwards, must match brute force
    rng = random.Random(3141)
    for _ in range(150):
        num_vars = rng.randint(2, 6)
        unit = rng.choice([1, -1]) * rng.randint(1, num_vars)
        clauses = well_formed_clauses(rng, num_vars, rng.randint(0, 8))
        clauses.insert(rng.randint(0, len(clauses)), [unit])
        s = S.solve_instance(S.CnfInstance(num_vars, clauses))
        for _ in range(rng.randint(1, 4)):
            assumptions = random_assumptions(rng, num_vars)
            want = any(consistent(m, assumptions)
                       for m in brute_force_sat(num_vars, clauses))
            assert s.solve(assumptions) == want
            if want:
                model = s.model()
                block = [-v if model[v] else v
                         for v in rng.sample(sorted(model),
                                             rng.randint(1, num_vars))]
                clauses.append(block)
                s.add_clause(block)
        old = num_vars
        num_vars += rng.randint(1, 3)
        batch = well_formed_clauses(rng, num_vars, rng.randint(0, 6))
        new = range(old + 1, num_vars + 1)
        for sign, least in ((1, 0), (-1, 1)):
            lits = [sign * unit] + [rng.choice([1, -1]) * v for v in
                                    rng.sample(new, rng.randint(least,
                                                                len(new)))]
            batch.insert(rng.randint(0, len(batch)), lits)
        if len(new) >= 2 and rng.random() < 0.3:
            # a unit whose propagation at the root meets a conflict
            v, w = rng.sample(new, 2)
            batch += [[v, w], [v, -w], [-v]]
        clauses += batch
        s.reserve(num_vars)
        s.load_clauses(batch)
        expected = brute_force_sat(num_vars, clauses)
        for _ in range(3):
            assumptions = random_assumptions(rng, num_vars)
            want = any(consistent(m, assumptions) for m in expected)
            assert s.solve(assumptions) == want
            if want:
                model = s.model()
                assert check_model(model, clauses)
                assert all(model[abs(l)] == (l > 0) for l in assumptions)
        found = set()
        while s.solve():
            model = s.model()
            found.add(frozenset(v for v, b in model.items() if b))
            s.add_clause([-v if model[v] else v for v in model])
        assert found == expected


def test_blocking_keeps_the_assumption_levels():
    # assumption 1 implies 2..41; after a blocking clause over the free
    # variables 42 and 43, the next call under the same assumption does
    # not propagate the implications again
    s = SatSolver()
    for v in range(2, 42):
        s.add_clause([-1, v])
    s.reserve(43)
    assert s.solve([1])
    first = s.stats["propagations"]
    assert first >= 40
    model = s.model()
    s.add_clause([-v if model[v] else v for v in (42, 43)])
    assert s.solve([1])
    assert s.stats["propagations"] - first < 5
    model = s.model()
    assert all(model[v] for v in range(1, 42))
    assert model[42] or model[43]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_blocking_conflicts_keep_the_trail(m):
    # assumption 1 implies 2..41, and 42..41+m are free; each blocking
    # clause is resolved where the model falsifies it, and the next call
    # goes on from the backjump level, so enumerating all 2**m models
    # decides each free variable about once per model, and the
    # implications are propagated once
    s = SatSolver()
    for v in range(2, 42):
        s.add_clause([-1, v])
    s.reserve(41 + m)
    found = set()
    while s.solve([1]):
        model = s.model()
        assert all(model[v] for v in range(1, 42))
        found.add(tuple(model[v] for v in range(42, 42 + m)))
        s.add_clause([-v if model[v] else v for v in model])
    assert len(found) == 2 ** m
    assert s.stats["decisions"] <= 2 ** m + m
    # each asserting literal is assigned at its backjump, not propagated
    assert 40 <= s.stats["propagations"] < 80


def test_blocking_clause_false_on_the_assumption_levels():
    # assumption 1 implies every other variable along a chain, so the
    # model has no decision and its blocking clause is false on the
    # assumption level alone: resolved there, it leaves the negated
    # assumption at the root, and the next call under it fails with no
    # decision, no conflict and no propagation of the chain
    num_vars = 12
    clauses = ([[-v, v + 1] for v in range(1, num_vars)]
               + [[-3, -5, 7], [2, 4, -6]])
    s = SatSolver()
    for cl in clauses:
        s.add_clause(cl)
    assert s.solve([1])
    model = s.model()
    assert all(model.values())
    block = [-v for v in model]
    clauses.append(block)
    s.add_clause(block)
    before = dict(s.stats)
    assert not s.solve([1])
    assert s.stats == dict(before, solves=before["solves"] + 1)
    # the solver still answers every other call as brute force does
    expected = brute_force_sat(num_vars, clauses)
    rng = random.Random(21)
    for _ in range(30):
        assumptions = random_assumptions(rng, num_vars)
        want = any(consistent(m, assumptions) for m in expected)
        assert s.solve(assumptions) == want
        if want:
            model = s.model()
            assert check_model(model, clauses)
            assert all(model[abs(l)] == (l > 0) for l in assumptions)


def test_blocking_enumeration_across_assumption_sets():
    # round-robin over assumption sets with global blocking clauses, the
    # way a size climb shares one solver: every model of every set is
    # found exactly once
    rng = random.Random(43)
    for _ in range(40):
        num_vars, clauses = random_cnf(rng, 5, 8)
        expected = brute_force_sat(num_vars, clauses)
        sets = [random_assumptions(rng, num_vars) for _ in range(3)]
        s = SatSolver()
        s.reserve(num_vars)
        for cl in clauses:
            s.add_clause(cl)
        found = set()
        live = list(sets)
        k = 0
        while live:
            assumptions = live[k % len(live)]
            if not s.solve(assumptions):
                live.remove(assumptions)
                continue
            model = s.model()
            key = frozenset(v for v, b in model.items() if b)
            assert key not in found, "enumeration repeated a model"
            assert consistent(key, assumptions)
            found.add(key)
            s.add_clause([-v if model[v] else v for v in model])
            k += 1
        assert found == {m for m in expected
                         if any(consistent(m, a) for a in sets)}


def threshold_3cnf(rng, num_vars):
    """Random 3-CNF with three distinct variables per clause, near the
    satisfiability threshold of about 4.26 clauses per variable."""
    count = round(4.26 * num_vars) + rng.randint(-4, 2)
    return [[rng.choice([1, -1]) * v
             for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(count)]


def models_by_bitmask(num_vars, clauses):
    """:func:`brute_force_sat` for larger instances: assignment ``i``
    makes variable ``v`` true iff bit ``v - 1`` of ``i`` is set, and each
    clause is the OR of its literals' masks over all assignments."""
    size = 1 << num_vars
    every = (1 << size) - 1
    true_at = [0] + [sum(1 << i for i in range(size) if i >> (v - 1) & 1)
                     for v in range(1, num_vars + 1)]
    sat = every
    for clause in clauses:
        hit = 0
        for lit in clause:
            mask = true_at[abs(lit)]
            hit |= mask if lit > 0 else every ^ mask
        sat &= hit
    return {frozenset(v for v in range(1, num_vars + 1) if i >> (v - 1) & 1)
            for i in range(size) if sat >> i & 1}


def test_models_by_bitmask_matches_brute_force():
    rng = random.Random(4260)
    for _ in range(100):
        num_vars, clauses = random_cnf(rng, 6, 14)
        assert models_by_bitmask(num_vars, clauses) == \
            brute_force_sat(num_vars, clauses)


def test_threshold_3cnf_against_brute_force():
    # 3-CNF with 8-10 variables near the threshold reaches conflict
    # analysis far more often than the tiny instances above; each solver
    # answers under assumptions, then enumerates every model with
    # blocking clauses, which keeps clauses and watches moving
    rng = random.Random(4261)
    analyze = SatSolver._analyze
    analyzed = 0

    def counted(self, conflict):
        nonlocal analyzed
        analyzed += 1
        return analyze(self, conflict)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SatSolver, "_analyze", counted)
        for _ in range(40):
            num_vars = rng.randint(8, 10)
            clauses = threshold_3cnf(rng, num_vars)
            expected = models_by_bitmask(num_vars, clauses)
            s = SatSolver()
            s.reserve(num_vars)
            for cl in clauses:
                s.add_clause(cl)
            for _ in range(4):
                assumptions = assumption_set(rng, num_vars)
                want = any(consistent(m, assumptions) for m in expected)
                assert s.solve(assumptions) == want
                if want:
                    model = s.model()
                    assert check_model(model, clauses)
                    assert all(model[abs(l)] == (l > 0) for l in assumptions)
            found = set()
            while s.solve():
                model = s.model()
                key = frozenset(v for v, b in model.items() if b)
                assert key not in found, "enumeration repeated a model"
                found.add(key)
                s.add_clause([-v if model[v] else v for v in model])
            assert found == expected
    # 306 at this seed (308 with the activity limit at 3.0); the instances
    # of test_assumptions_against_brute_force reach it twice in all
    assert analyzed >= 250


def assumption_set(rng, num_vars):
    return [rng.choice([1, -1]) * v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))]


@pytest.mark.parametrize("act_limit", [3.0, 0.5],
                         ids=["act_limit_3", "act_limit_0.5"])
@pytest.mark.parametrize("test", [
    test_assumptions_against_brute_force,
    test_threshold_3cnf_against_brute_force,
    test_blocking_enumeration_across_assumption_sets,
    test_load_clauses_after_solving_against_brute_force,
], ids=lambda test: test.__name__[len("test_"):])
def test_brute_force_answers_under_forced_rescales(monkeypatch, test,
                                                   act_limit):
    # the same answers when a low activity limit makes the solver rescale
    # its activities and rebuild its branching heap: 3.0 mid-search where
    # a variable gathers enough bumps, 0.5 at every solver's first
    # analysed conflict, since the first bump is 1.0 (the assumption
    # test's tiny instances reach conflict analysis twice in all)
    monkeypatch.setattr("supobf.sat._ACT_LIMIT", act_limit)
    rescale = SatSolver._rescale
    rescales = 0

    def counted(self):
        nonlocal rescales
        rescales += 1
        rescale(self)

    monkeypatch.setattr(SatSolver, "_rescale", counted)
    test()
    if act_limit < 1.0:
        assert rescales > 0


@pytest.mark.parametrize("act_limit", [None, 3.0],
                         ids=["default", "act_limit_3"])
def test_branching_picks_the_most_active_unassigned_variable(monkeypatch,
                                                             act_limit):
    # at every decision the branching heap yields the unassigned variable
    # of highest activity, the lowest index on ties, including after a
    # rescale, across assumptions, blocking clauses, variables reserved
    # between solves and clauses loaded after solving
    if act_limit is not None:
        monkeypatch.setattr("supobf.sat._ACT_LIMIT", act_limit)
    pick = SatSolver._pick_variable
    seen = {"picks": 0, "after_rescale": 0}

    def checked(self):
        free = [(-self._activity[v], v) for v in range(1, self.num_vars + 1)
                if self._value[v] == _UNSET]
        got = pick(self)
        assert got == (min(free)[1] if free else None)
        seen["picks"] += 1
        seen["after_rescale"] += self._act_inc < 1.0
        return got

    monkeypatch.setattr(SatSolver, "_pick_variable", checked)
    rng = random.Random(1979)

    def three_cnf(num_vars, count):
        return [[rng.choice([1, -1]) * v
                 for v in rng.sample(range(1, num_vars + 1), 3)]
                for _ in range(count)]

    for _ in range(60):
        num_vars = rng.randint(10, 24)
        clauses = three_cnf(num_vars, 4 * num_vars)
        if rng.random() < 0.5:
            s = S.solve_instance(S.CnfInstance(num_vars, clauses))
        else:
            s = SatSolver()
            s.reserve(num_vars)
            for cl in clauses:
                s.add_clause(cl)
        for step in range(12):
            if s.solve(assumption_set(rng, num_vars)):
                model = s.model()
                s.add_clause([-v if model[v] else v
                              for v in rng.sample(sorted(model), 6)])
            if step % 4 == 3:
                old = num_vars
                num_vars += 2
                s.reserve(num_vars)
                s.load_clauses(three_cnf(num_vars, 6)
                               + [[old + 1, -(old + 2)]])
    assert seen["picks"] >= 1000
    if act_limit is not None:
        assert seen["after_rescale"] >= 500


def sat_trajectory():
    """Answers, models and final statistics of seeded solver runs.

    Each of eight runs loads a random 3-CNF near the satisfiability
    threshold, with two unit clauses among its clauses, through
    ``solve_instance`` (odd seeds) or clause by clause (even seeds), then
    solves 30 times under three rotating sets of up to three assumptions.
    After each model it adds a clause that blocks the model's values on
    the first 12 variables, a random clause, a unit clause or a clause
    over a new variable.  A model is written as one character per
    variable, ``1`` for true."""
    out = []
    for seed in range(8):
        rng = random.Random(seed)
        num_vars = rng.randint(60, 90)
        clauses = [[rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, num_vars + 1), 3)]
                   for _ in range(int(num_vars * 3.8))]
        for _ in range(2):
            clauses.insert(rng.randrange(len(clauses)),
                           [rng.choice([1, -1]) * rng.randint(1, num_vars)])
        if seed % 2:
            s = S.solve_instance(S.CnfInstance(num_vars, clauses))
        else:
            s = SatSolver()
            s.reserve(num_vars)
            for cl in clauses:
                s.add_clause(cl)
        sets = [assumption_set(rng, num_vars) for _ in range(3)]
        runs = []
        for step in range(30):
            assumptions = sets[step % 3]
            if step == 20:  # an assumption over a variable no clause has
                assumptions = assumptions + [-(s.num_vars + 1)]
            if not s.solve(assumptions):
                runs.append(None)
                sets[step % 3] = assumption_set(rng, num_vars)
                continue
            model = s.model()
            runs.append("".join("1" if model[v] else "0"
                                for v in range(1, len(model) + 1)))
            roll = rng.random()
            if roll < 0.6:
                s.add_clause([-v if model[v] else v for v in range(1, 13)])
            elif roll < 0.8:
                s.add_clause([rng.choice([1, -1]) * rng.randint(1, num_vars)
                              for _ in range(3)])
            elif roll < 0.9:
                s.add_clause([rng.choice([1, -1]) * rng.randint(1, num_vars)])
            else:
                s.add_clause([s.num_vars + 1,
                              rng.choice([1, -1]) * rng.randint(1, num_vars)])
        out.append({"seed": seed, "runs": runs, "stats": dict(s.stats)})
    return out


@pytest.mark.parametrize("half, act_limit",
                         [("default", None), ("act_limit_50", 50.0)],
                         ids=["default", "act_limit_50"])
def test_search_trajectory_matches_golden(monkeypatch, half, act_limit):
    """The same decisions, conflicts, propagations and models as the runs
    recorded under ``half`` in the golden file.  ``act_limit_50`` runs
    with ``supobf.sat._ACT_LIMIT`` at 50.0, low enough to reach the
    activity rescale.

    To capture a half again, run ``sat_trajectory()`` under the same
    patch and store its result under that key alone, with the file
    written as ``json.dumps(golden, indent=1)`` (no final newline), so
    that the diff shows which half moved."""
    if act_limit is not None:
        monkeypatch.setattr("supobf.sat._ACT_LIMIT", act_limit)
    golden = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    assert sat_trajectory() == golden[half]
