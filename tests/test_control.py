import random

import pytest

import supobf as S
import supobf.control
from conftest import (marked_strings_upto, random_alphabet, random_damage,
                      random_plant, random_supervisor_automaton, shortlex,
                      strings_upto)


def test_control_constraint_normality():
    with pytest.raises(S.AutomatonError,
                       match="controllable events must be observable"):
        S.ControlConstraint(frozenset("a"), frozenset())
    c = S.ControlConstraint(frozenset("a"), frozenset("ab"))
    alph = S.Alphabet(("a", "b", "c"))
    assert c.uncontrollable(alph) == frozenset({"b", "c"})
    assert c.unobservable(alph) == frozenset({"c"})


def test_attack_constraint_invariants():
    with pytest.raises(S.AutomatonError,
                       match="attackable events must be attacker-observable"):
        S.AttackConstraint(frozenset("a"), frozenset())
    ac = S.AttackConstraint(frozenset("a"), frozenset("ab"))
    ac.check_against(S.ControlConstraint(frozenset("a"), frozenset("ab")))
    with pytest.raises(S.AutomatonError,
                       match="attackable events must be controllable"):
        ac.check_against(S.ControlConstraint(frozenset(), frozenset("ab")))
    with pytest.raises(S.AutomatonError,
                       match="attacker-observable events must be observable"):
        ac.check_against(S.ControlConstraint(frozenset("a"), frozenset("a")))


def test_check_supervisor_vacuous_constraints():
    alph = S.Alphabet(("a", "b"))
    c = S.ControlConstraint(frozenset("ab"), frozenset("ab"))
    s = S.PartialDFA(alph, ("x0",), {})
    assert S.check_supervisor(s, c) == []


def test_check_supervisor_tri_valid(tri):
    assert S.check_supervisor(tri.supervisor.automaton, tri.control) == []


def test_check_supervisor_violations():
    alph = S.Alphabet(("a", "u"))
    c = S.ControlConstraint(frozenset("a"), frozenset("a"))
    # u is unobservable (hence uncontrollable): moving on it breaks the
    # normal form, omitting it breaks controllability
    s = S.PartialDFA(alph, ("x0", "x1"), {(0, "u"): 1, (1, "u"): 1})
    bad = S.check_supervisor(s, c)
    assert S.Violation(0, "u", "O") in bad
    with pytest.raises(S.AutomatonError):
        S.Supervisor(s, c)
    missing = S.PartialDFA(alph, ("x0",), {})
    bad = S.check_supervisor(missing, c)
    assert bad == [S.Violation(0, "u", "C")]


def test_control_command_full_and_quoted(example1, tri):
    sup = example1.supervisor
    assert S.control_command(sup, sup.automaton.run(["a", "c"])) == \
        frozenset({"a", "b", "d"})
    assert S.control_command(sup, sup.automaton.run(["a", "c", "d"])) == \
        frozenset({"b"})
    full = S.Supervisor(S.PartialDFA(S.Alphabet(("a",)), ("x0",),
                                     {(0, "a"): 0}),
                        S.ControlConstraint(frozenset("a"), frozenset("a")))
    assert S.control_command(full, 0) == frozenset({"a"})
    assert tri.supervisor.automaton.step(0, "a") == 1
    assert S.control_command(tri.supervisor, 1) == frozenset({"a", "b"})


def test_control_command_superset_of_uncontrollable():
    rng = random.Random(3)
    for _ in range(30):
        alph, c, _ = random_alphabet(rng)
        aut = random_supervisor_automaton(rng, alph, c)
        sup = S.Supervisor(aut, c)
        for x in range(aut.n_states):
            assert c.uncontrollable(alph) <= S.control_command(sup, x)


def test_closed_loop_everything_enabled(tri):
    alph = tri.plant.alphabet
    free = S.Supervisor(
        S.PartialDFA(alph, ("x0",), {(0, "a"): 0, (0, "b"): 0}),
        tri.control)
    loop = S.closed_loop(tri.plant, free)
    eq, _ = S.language_equal(loop, tri.plant)
    assert eq


def test_closed_loop_tri_and_atk(tri, atk):
    loop = S.closed_loop(tri.plant, tri.supervisor)
    assert strings_upto(loop, 3) == {(), ("a",), ("a", "b"), ("a", "b", "a")}
    loop = S.closed_loop(atk.plant, atk.supervisor)
    assert strings_upto(loop, 3) == {(), ("a",)}


def test_closed_loop_language_property():
    rng = random.Random(17)
    for _ in range(25):
        alph, c, _ = random_alphabet(rng)
        g = random_plant(rng, alph)
        sup = S.Supervisor(random_supervisor_automaton(rng, alph, c), c)
        loop = S.closed_loop(g, sup)
        bound = min(g.n_states * sup.n_states, 5)
        assert strings_upto(loop, bound) == (
            strings_upto(g, bound) & strings_upto(sup.automaton, bound))


def test_validate_damage_empty_marking_passes(tri):
    report = S.validate_damage(tri.damage, tri.plant, tri.supervisor)
    assert report.ok and report.witness is None


def test_validate_damage_atk_passes(atk):
    report = S.validate_damage(atk.damage, atk.plant, atk.supervisor)
    assert report.ok
    assert S.stray_damage_string(atk.damage, atk.plant) is None


def test_validate_damage_epsilon_marked_fails(atk):
    alph = atk.plant.alphabet
    h = S.totalize(S.PartialDFA(alph, ("z0",), {}, 0, frozenset({0})))
    report = S.validate_damage(h, atk.plant, atk.supervisor)
    assert not report.ok and report.witness == ()


def reaches_damage(h: S.PartialDFA, g: S.PartialDFA, sup: S.Supervisor):
    """Whether a breadth-first walk over the (plant, supervisor, damage)
    triples, read through ``step``, reaches a marked damage state."""
    start = (g.initial, sup.automaton.initial, h.initial)
    seen, queue = {start}, [start]
    for q, x, z in queue:
        if h.is_marked(z):
            return True
        for ev in g.alphabet.events:
            q2, x2 = g.step(q, ev), sup.automaton.step(x, ev)
            if q2 is not None and x2 is not None:
                core = (q2, x2, h.step(z, ev))
                if core not in seen:
                    seen.add(core)
                    queue.append(core)
    return False


def test_validate_damage_witness_is_the_first_in_shortlex_order():
    # the damage string reported is the first closed-loop string marked
    # by the damage automaton, by length, then alphabet index; a check
    # that passes leaves no marked damage state reachable
    rng = random.Random(9090)
    checked = passed = 0
    for _ in range(300):
        alph, c, _ = random_alphabet(rng)
        g = random_plant(rng, alph)
        sup = S.Supervisor(random_supervisor_automaton(rng, alph, c), c)
        h = random_damage(rng, alph)
        report = S.validate_damage(h, g, sup)
        if report.ok:
            assert not reaches_damage(h, g, sup)
            passed += 1
            continue
        w = report.witness
        loop = S.closed_loop(g, sup)
        damaging = {s for s in strings_upto(loop, len(w))
                    if h.is_marked(h.run(s))}
        assert min(damaging, key=shortlex(alph)) == w
        checked += 1
    assert checked >= 40 and passed >= 40


def test_validate_damage_requires_marking_and_totality(atk):
    alph = atk.plant.alphabet
    partial = S.PartialDFA(alph, ("z0",), {}, 0, frozenset())
    report = S.validate_damage(partial, atk.plant, atk.supervisor)
    assert not report.ok and "total" in report.problem
    unmarked = S.PartialDFA(alph, ("z0",),
                            {(0, e): 0 for e in alph.events}, 0, None)
    with pytest.raises(S.AutomatonError):
        S.validate_damage(unmarked, atk.plant, atk.supervisor)


def test_damage_check_builds_no_closed_loop(monkeypatch, example1):
    # the damage check walks the (plant, supervisor, damage) triples
    # itself: neither entry point builds the closed loop as a product
    calls = []
    product = supobf.control.sync_product
    monkeypatch.setattr(supobf.control, "sync_product",
                        lambda *args: calls.append(args) or product(*args))
    pf = example1
    verdict = S.non_attackable(pf.plant, pf.supervisor, pf.damage, pf.attack,
                               validate=True)
    result = S.obfuscate(S.ObfuscationRequest(
        pf.plant, pf.supervisor, pf.control, pf.attack, pf.damage))
    assert not verdict.non_attackable and result.found
    assert calls == []


def test_stray_damage_string_outside_the_plant(atk):
    alph = atk.plant.alphabet
    # marks "a a", which the closed loop avoids but the plant cannot even
    # generate: validation passes, and the string is reported as stray
    h = S.totalize(S.PartialDFA(alph, ("z0", "z1", "z2"),
                                {(0, "a"): 1, (1, "a"): 2}, 0,
                                frozenset({2})))
    assert S.validate_damage(h, atk.plant, atk.supervisor).ok
    assert S.stray_damage_string(h, atk.plant) == ("a", "a")


def test_no_stray_damage_string_in_example1(example1):
    # example1's damage automaton marks exactly the plant's damage strings
    report = S.validate_damage(example1.damage, example1.plant,
                               example1.supervisor)
    assert report.ok
    assert S.stray_damage_string(example1.damage, example1.plant) is None


def test_stray_damage_string_is_the_first_in_shortlex_order():
    # against brute force: the first string, by length, then alphabet
    # index, that the damage automaton marks and the plant cannot generate
    rng = random.Random(2718)
    checked = 0
    for _ in range(200):
        alph, _, _ = random_alphabet(rng)
        g = random_plant(rng, alph)
        h = random_damage(rng, alph)
        w = S.stray_damage_string(h, g)
        bound = 4 if w is None else len(w)
        stray = marked_strings_upto(h, bound) - strings_upto(g, bound)
        if w is None:
            assert not stray
            continue
        assert min(stray, key=shortlex(alph)) == w
        checked += 1
    assert checked >= 40
