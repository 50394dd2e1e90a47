import itertools
import json
import random
from pathlib import Path

import pytest

import supobf as S
from supobf.sat import SatSolver

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
    # a clause added after a solve keeps the assumption levels on the
    # trail when it can, and the next call reuses the shared prefix of
    # its assumptions; every answer must still match brute force
    rng = random.Random(2003)
    for _ in range(120):
        num_vars, clauses = random_cnf(rng, 6, 10)
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
            elif roll < 0.6:
                clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)]
            else:
                clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                          for _ in range(rng.randint(2, 3))]
            clauses.append(clause)
            s.add_clause(clause)
        assert s.solve() == bool(brute_force_sat(num_vars, clauses))


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


def assumption_set(rng, num_vars):
    return [rng.choice([1, -1]) * v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))]


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


def test_search_trajectory_matches_golden(monkeypatch):
    # the same decisions, conflicts, propagations and models as the runs
    # recorded in the golden file; a low activity limit reaches the rescale
    golden = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    assert sat_trajectory() == golden["default"]
    monkeypatch.setattr("supobf.sat._ACT_LIMIT", 50.0)
    assert sat_trajectory() == golden["act_limit_50"]
