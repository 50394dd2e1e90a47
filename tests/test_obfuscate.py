import importlib
import random

import pytest

import supobf as S
import supobf.cli
from supobf.obfuscate import iter_size_candidates
from conftest import (FIXTURES, all_supervisor_automata, grown_climb,
                      load_fixture, random_attack_instance, strings_upto)


def exact_size_brute_force(plant, sup, constraint, n):
    """All n-state supervisor transition functions with exactly n reachable
    states that preserve the closed loop, keyed canonically."""
    loop = S.closed_loop(plant, sup)
    out = {}
    for cand in all_supervisor_automata(plant.alphabet, constraint, n):
        if len(S.reachable_states(cand)) != n:
            continue
        eq, _ = S.language_equal(S.sync_product(plant, cand), loop)
        if eq:
            out[S.canonical_key(cand)] = cand
    return out


def test_supbp_tri_sizes(tri):
    sups, truncated = S.behavior_preserving_supervisors(
        tri.plant, tri.supervisor.automaton, tri.control, 1)
    assert sups == [] and not truncated
    sups, _ = S.behavior_preserving_supervisors(
        tri.plant, tri.supervisor.automaton, tri.control, 2)
    assert sups
    loop = S.closed_loop(tri.plant, tri.supervisor)
    for cand in sups:
        assert len(S.reachable_states(cand)) == 2
        assert S.check_supervisor(cand, tri.control) == []
        eq, _ = S.language_equal(S.sync_product(tri.plant, cand), loop)
        assert eq


def test_supbp_single_state_fixture(single):
    sups, _ = S.behavior_preserving_supervisors(
        single.plant, single.supervisor.automaton, single.control, 1)
    assert len(sups) == 1
    assert sups[0].trans == {(0, "a"): 0}


def test_supbp_matches_brute_force(tri, single):
    # the fixtures, then seeded draws, until 20 satisfiable sizes are
    # compared; a size is compared while brute force has at most 4096
    # transition functions to try
    def cases():
        for pf in (tri, single):
            yield pf.plant, pf.supervisor, pf.control
        rng = random.Random(4711)
        for _ in range(200):
            inst = random_attack_instance(rng, max_states=3)
            if inst is not None:
                yield inst[0], inst[1], inst[1].constraint

    satisfiable = 0
    for plant, sup, constraint in cases():
        observable = [e for e in plant.alphabet.events
                      if e in constraint.observable]
        for n in (1, 2, 3):
            if (n + 1) ** (n * len(observable)) > 4096:
                break
            expected = exact_size_brute_force(plant, sup, constraint, n)
            got, _ = S.behavior_preserving_supervisors(
                plant, sup.automaton, constraint, n)
            # each supervisor is one SAT model, so the model count equals
            # the class count and every class comes exactly once
            assert [S.canonical_key(c) for c in got] == sorted(expected)
            satisfiable += bool(expected)
        if satisfiable >= 20:
            break
    assert satisfiable >= 20


def test_supbp_output_sorted_and_duplicate_free(tri, perf):
    for pf in (tri, perf):
        sups, _ = S.behavior_preserving_supervisors(
            pf.plant, pf.supervisor.automaton, pf.control, 2)
        keys = [S.canonical_key(c) for c in sups]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        labeled = [tuple(sorted(c.trans.items())) for c in sups]
        assert len(set(labeled)) == len(labeled)


def test_supbp_enumeration_limit(tri):
    sups, truncated = S.behavior_preserving_supervisors(
        tri.plant, tri.supervisor.automaton, tri.control, 2, limit=1)
    assert truncated
    assert len(sups) <= 1


def min_preserving_size(pf, n_max):
    """First size in [1, n_max] with a behavior-preserving supervisor."""
    for n in range(1, n_max + 1):
        sups, _ = S.behavior_preserving_supervisors(
            pf.plant, pf.supervisor.automaton, pf.control, n, limit=1)
        if sups:
            return n
    return None


def first_traced_size(pf, n_max):
    """First size with candidates in the trace of ``obfuscate``."""
    req = S.ObfuscationRequest(pf.plant, pf.supervisor, pf.control,
                               pf.attack, pf.damage, n_max=n_max)
    return next(r.n for r in S.obfuscate(req).trace if r.candidates)


def test_min_preserving_size(tri, single):
    assert first_traced_size(tri, 4) == 2
    assert first_traced_size(single, 3) == 1


def test_min_preserving_size_matches_linear_scan(perf):
    assert first_traced_size(perf, 6) == min_preserving_size(perf, 6) == 2


def test_obfuscate_example1(example1):
    req = S.ObfuscationRequest(example1.plant, example1.supervisor,
                               example1.control, example1.attack,
                               example1.damage)
    res = S.obfuscate(req)
    assert res.found and res.size == 1
    winner = res.supervisor
    assert S.check_supervisor(winner.automaton, example1.control) == []
    eq, _ = S.language_equal(S.closed_loop(example1.plant, winner),
                             S.closed_loop(example1.plant, example1.supervisor))
    assert eq
    verdict = S.non_attackable(example1.plant, winner, example1.damage,
                               example1.attack)
    assert verdict.non_attackable
    # the replacement no longer distinguishes ac from acd in its commands
    x_ac = winner.automaton.run(["a", "c"])
    x_acd = winner.automaton.run(["a", "c", "d"])
    assert S.control_command(winner, x_ac) == S.control_command(winner, x_acd)


def test_obfuscate_without_attack_surface(tri):
    req = S.ObfuscationRequest(tri.plant, tri.supervisor, tri.control,
                               tri.attack, tri.damage)
    res = S.obfuscate(req)
    assert res.found and res.size == 2
    assert res.trace[0].candidates == 0  # size 1 infeasible
    assert res.trace[1].resilient == res.trace[1].tested


def test_obfuscate_not_found(atk):
    req = S.ObfuscationRequest(atk.plant, atk.supervisor, atk.control,
                               atk.attack, atk.damage, n_max=3)
    res = S.obfuscate(req)
    assert not res.found and res.supervisor is None
    assert [r.n for r in res.trace] == [1, 2, 3]
    assert all(r.resilient == 0 for r in res.trace)
    assert res.trace[1].candidates > 0  # plenty of candidates, all attackable


def test_obfuscate_deterministic(perf):
    def run():
        req = S.ObfuscationRequest(perf.plant, perf.supervisor, perf.control,
                                   perf.attack, perf.damage)
        res = S.obfuscate(req)
        return (res.found, res.size, res.supervisor.automaton.trans,
                [(r.n, r.candidates, r.tested, r.resilient) for r in res.trace],
                res.solver_stats)

    assert run() == run()


def test_obfuscate_minimality_brute_force(perf, example1):
    # confirm no strictly smaller valid supervisor is both
    # behavior-preserving and non-attackable
    for pf, expected in ((perf, 2), (example1, 1)):
        req = S.ObfuscationRequest(pf.plant, pf.supervisor, pf.control,
                                   pf.attack, pf.damage)
        res = S.obfuscate(req)
        assert res.found and res.size == expected
        loop = S.closed_loop(pf.plant, pf.supervisor)
        for n in range(1, res.size):
            for cand in all_supervisor_automata(pf.plant.alphabet,
                                                pf.control, n):
                eq, _ = S.language_equal(S.sync_product(pf.plant, cand), loop)
                if not eq:
                    continue
                verdict = S.non_attackable(pf.plant,
                                           S.Supervisor(cand, pf.control),
                                           pf.damage, pf.attack,
                                           validate=False)
                assert not verdict.non_attackable


def test_limit_below_one_rejected(tri, perf):
    for limit in (0, -1):
        with pytest.raises(ValueError):
            S.behavior_preserving_supervisors(
                tri.plant, tri.supervisor.automaton, tri.control, 2,
                limit=limit)
        req = S.ObfuscationRequest(perf.plant, perf.supervisor, perf.control,
                                   perf.attack, perf.damage,
                                   enumeration_limit=limit)
        with pytest.raises(ValueError):
            S.obfuscate(req)


def test_limit_below_one_is_rejected_before_encoding(monkeypatch, tri, perf):
    # the limit is checked before any instance is encoded, on the
    # obfuscate path and on both synth-bp paths
    def encode(*args, **kwargs):
        raise AssertionError("encode called with a limit below 1")

    for mod in (importlib.import_module("supobf.obfuscate"), supobf.cli):
        monkeypatch.setattr(mod, "encode", encode)
    req = S.ObfuscationRequest(perf.plant, perf.supervisor, perf.control,
                               perf.attack, perf.damage, enumeration_limit=0)
    with pytest.raises(ValueError, match="enumeration limit"):
        S.obfuscate(req)
    with pytest.raises(ValueError, match="enumeration limit"):
        S.behavior_preserving_supervisors(
            tri.plant, tri.supervisor.automaton, tri.control, 2, limit=0)
    assert supobf.cli.main(["synth-bp", str(FIXTURES / "tri.prob"), "-n", "2",
                            "--limit", "0"]) == 2


def test_obfuscate_rejects_invalid_damage(atk):
    bad = S.totalize(S.PartialDFA(atk.plant.alphabet, ("z0",), {}, 0,
                                  frozenset({0})))
    req = S.ObfuscationRequest(atk.plant, atk.supervisor, atk.control,
                               atk.attack, bad)
    with pytest.raises(ValueError):
        S.obfuscate(req)


def test_obfuscate_checks_the_damage_alphabet_before_encoding(monkeypatch,
                                                              example1):
    # example1's damage automaton over its events in the other order
    module = importlib.import_module("supobf.obfuscate")
    calls = []

    def counting_encode(*args):
        calls.append(args[0])
        return S.encode(*args)

    monkeypatch.setattr(module, "encode", counting_encode)
    h = example1.damage
    flipped = S.Alphabet(tuple(reversed(h.alphabet.events)))
    req = S.ObfuscationRequest(
        example1.plant, example1.supervisor, example1.control,
        example1.attack,
        S.PartialDFA(flipped, h.names, h.trans, h.initial, h.marked))
    with pytest.raises(S.AutomatonError) as info:
        S.obfuscate(req)
    assert str(info.value) == \
        "plant, supervisor and damage must share an alphabet"
    assert calls == []


def test_obfuscate_randomized_minimality():
    rng = random.Random(2718)
    done = 0
    while done < 12:
        inst = random_attack_instance(rng, max_states=3)
        if inst is None:
            continue
        plant, sup, damage, attack = inst
        constraint = sup.constraint
        req = S.ObfuscationRequest(plant, sup, constraint, attack, damage,
                                   n_max=2)
        res = S.obfuscate(req)
        loop = S.closed_loop(plant, sup)
        if res.found:
            eq, _ = S.language_equal(S.closed_loop(plant, res.supervisor), loop)
            assert eq
            assert S.non_attackable(plant, res.supervisor, damage, attack,
                                    validate=False).non_attackable
        # exhaustive confirmation over every size the search rejected
        limit = res.size if res.found else req.n_max + 1
        for n in range(1, limit):
            for cand in all_supervisor_automata(plant.alphabet, constraint, n):
                eq, _ = S.language_equal(S.sync_product(plant, cand), loop)
                if not eq:
                    continue
                verdict = S.non_attackable(plant, S.Supervisor(cand, constraint),
                                           damage, attack, validate=False)
                assert not verdict.non_attackable
        done += 1


def test_shared_climb_matches_fresh_encodings():
    # one solver grown row by row, blocking clauses kept across sizes,
    # yields the same classes at every size as a fresh encoding of that
    # size
    rng = random.Random(1618)
    n_max, limit = 4, 60
    compared = 0
    for _ in range(40):
        inst = random_attack_instance(rng, max_states=3)
        if inst is None:
            continue
        plant, sup, _, _ = inst
        constraint = sup.constraint
        product = S.dual_marked_product(plant, sup.automaton)
        for n, backend, vt in grown_climb(product, constraint, n_max):
            shared = [key for key, _ in iter_size_candidates(backend, vt,
                                                             limit)]
            fresh, truncated = S.behavior_preserving_supervisors(
                plant, sup.automaton, constraint, n, limit)
            if len(shared) == limit or truncated:
                continue
            assert sorted(shared) == [S.canonical_key(c) for c in fresh]
            compared += 1
    assert compared >= 100


def test_every_model_is_its_canonical_form():
    # the symmetry breaking leaves one model per isomorphism class, numbered
    # breadth-first as canonical_key numbers it: every candidate of size n
    # reaches rows 0..n-1 in order, and no class comes twice
    rng = random.Random(2911)
    cases = [(pf.plant, pf.supervisor.automaton, pf.control)
             for pf in map(load_fixture, ("example1", "example1_obfuscated",
                                          "tri", "atk", "single", "perf"))]
    while len(cases) < 36:
        inst = random_attack_instance(rng, max_states=3)
        if inst is not None:
            cases.append((inst[0], inst[1].automaton, inst[1].constraint))
    yielded = 0
    for plant, sup_aut, constraint in cases:
        product = S.dual_marked_product(plant, sup_aut)
        events = plant.alphabet.events
        for n, backend, vt in grown_climb(product, constraint, 3):
            keys = []
            for key, aut in iter_size_candidates(backend, vt, 150):
                assert S.reachable_states(aut) == list(range(n))
                assert aut.names == tuple(f"s{i}" for i in range(n))
                assert key == (n, tuple(sorted(
                    (i, events.index(e), j)
                    for (i, e), j in aut.trans.items())))
                keys.append(key)
            assert len(set(keys)) == len(keys)
            yielded += len(keys)
    assert yielded >= 500


@pytest.mark.parametrize("name, n_max, rows", [
    ("example1", None, [1]),      # minimum 1, n_max 5
    ("example1", 8, [1]),
    ("tri", 8, [1, 2]),           # minimum 2
    ("perf", None, [1, 2]),       # minimum 2, n_max 6
    ("atk", None, [1, 2]),        # not found, n_max 2
])
def test_instance_grows_with_the_climb(monkeypatch, name, n_max, rows):
    # one solver per call, grown by one row per size climbed, so the rows
    # loaded are the sizes climbed and no more
    module = importlib.import_module("supobf.obfuscate")
    grown, solvers = [], []

    def recording_encode(n, product, constraint, vt):
        cnf, vt = S.encode(n, product, constraint, vt)
        grown.append(vt.n)
        return cnf, vt

    def recording_load(cnf, backend):
        backend = S.solve_instance(cnf, backend)
        solvers.append(backend)
        return backend

    monkeypatch.setattr(module, "encode", recording_encode)
    monkeypatch.setattr(module, "solve_instance", recording_load)
    pf = load_fixture(name)
    res = S.obfuscate(S.ObfuscationRequest(pf.plant, pf.supervisor,
                                           pf.control, pf.attack, pf.damage,
                                           n_max=n_max))
    assert grown == rows == [r.n for r in res.trace]
    assert len(set(map(id, solvers))) == 1
    assert res.solver_stats == dict(solvers[0].stats,
                                    models=sum(r.candidates
                                               for r in res.trace))
