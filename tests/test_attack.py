import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import supobf as S
import supobf.attack
import supobf.control
from supobf.attack import (determinize_and_label, generalized_product,
                           project_attacker_view)
from supobf.automata import explore
from supobf.problemfile import ProblemFile, emit_problem
from conftest import (load_fixture, random_alphabet, random_attack_instance,
                      random_damage, random_damaged_instance, random_plant,
                      random_supervisor_automaton, view_items)


def permute_states(aut: S.PartialDFA, perm: list[int]) -> S.PartialDFA:
    """Relabel state i as perm[i]."""
    names = [""] * aut.n_states
    for i, name in enumerate(aut.names):
        names[perm[i]] = name
    trans = {(perm[s], e): perm[d] for (s, e), d in aut.trans.items()}
    marked = None if aut.marked is None else frozenset(perm[q] for q in aut.marked)
    return S.PartialDFA(aut.alphabet, tuple(names), trans, perm[aut.initial],
                        marked)


def test_generalized_product_no_attackable_events(tri):
    gp = generalized_product(tri.plant, tri.supervisor, tri.damage, tri.attack)
    assert gp.attack == {}


def test_generalized_product_atk(atk):
    gp = generalized_product(atk.plant, atk.supervisor, atk.damage, atk.attack)
    assert gp.cores[0] == (0, 0, 0)
    assert 0 in gp.attack["k"][0]  # success verdict from the start state


def test_generalized_product_enabled_attack_event_has_no_verdict():
    # the supervisor enables k where the plant can fire it: no verdict edge
    alph = S.Alphabet(("k",))
    con = S.ControlConstraint(frozenset("k"), frozenset("k"))
    plant = S.PartialDFA(alph, ("q0", "q1"), {(0, "k"): 1})
    sup = S.Supervisor(S.PartialDFA(alph, ("x0", "x1"), {(0, "k"): 1}), con)
    damage = S.totalize(S.PartialDFA(alph, ("z0", "z1"), {(0, "k"): 1}, 0,
                                     frozenset({1})))
    gp = generalized_product(plant, sup, damage,
                             S.AttackConstraint(frozenset("k"), frozenset("k")))
    assert gp.attack == {"k": (set(), set())}


def explored_generalized_product(g, sup, h, ac):
    """The generalized product as a successor function passed to
    ``explore``, with the moves projected to the attacker view and the
    attack verdicts filled in second passes: the reference for the
    numbering and the view's insertion order of the flat loop.  It reads
    each control command through ``step`` over the alphabet."""
    seen = {ev: ev if ev in ac.attacker_observable else None
            for ev in sup.constraint.observable}
    aut = sup.automaton
    commands = [tuple(sorted(ev for ev in aut.alphabet.events
                             if aut.step(x, ev) is not None))
                for x in range(aut.n_states)]
    g_rows, x_rows, h_rows = g.delta, aut.delta, h.delta

    def successors(core):
        q, x, z = core
        x_row, h_row = x_rows[x], h_rows[z]
        out = []
        for ev, q2 in g_rows[q].items():
            x2 = x_row.get(ev)
            if x2 is None:
                continue
            key = (ev, (seen[ev], commands[x2]) if ev in seen else None)
            out.append((key, (q2, x2, h_row[ev])))
        return out

    order, trans = explore((g.initial, aut.initial, h.initial), successors)
    eps, moves = {}, {}
    for (src, (ev, obs)), dst in trans.items():
        if obs is None:
            eps.setdefault(src, []).append(dst)
        else:
            moves.setdefault(src, {}).setdefault(obs, []).append(dst)
    attack = {ev: (set(), set()) for ev in g.alphabet.events
              if ev in ac.attackable}
    for src, (q, x, z) in enumerate(order):
        for ev, (success, failure) in attack.items():
            if ev in g_rows[q] and ev not in x_rows[x]:
                (success if h_rows[z][ev] in h.marked else failure).add(src)
    return order, (eps, moves), attack


def test_generalized_product_numbers_as_explore_does():
    # subset indices, witnesses and the ``check --dot`` labels all rest on
    # the cores' numbering and on the insertion order of the view
    fixtures = [load_fixture(name) for name in
                ("atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri")]
    instances = [(pf.plant, pf.supervisor, pf.damage, pf.attack)
                 for pf in fixtures]
    rng = random.Random(6161)
    instances += [random_damaged_instance(rng, max_states=5)
                  for _ in range(200)]
    verdicts = 0
    for plant, sup, damage, attack in instances:
        gp = generalized_product(plant, sup, damage, attack)
        order, view, verdict = explored_generalized_product(plant, sup,
                                                             damage, attack)
        assert gp.cores == tuple(order)
        assert view_items(gp.eps, gp.moves) == view_items(*view)
        assert list(gp.attack.items()) == list(verdict.items())
        verdicts += sum(len(success) + len(failure)
                        for success, failure in verdict.values())
    assert verdicts >= 100


def explored_subset_construction(gp, g, sup, h, ac, stop_at_label):
    """The subset construction as a successor function passed to
    ``explore``: the reference for the numbering, the ``trans`` order and
    the labels of the flat loop.  Each label is read from the cores
    through ``step``, never from ``gp.attack``.  Stopped, it is the prefix
    through the first labelled set and that set's discovering edge."""
    eps, moves = gp.eps, gp.moves
    aut = sup.automaton

    def closure(states):
        seen, stack = set(states), list(states)
        while stack:
            for w in eps.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def successors(cur):
        targets = {}
        for v in cur:
            for obs, dsts in moves.get(v, {}).items():
                targets.setdefault(obs, set()).update(dsts)
        return [(obs, closure(targets[obs]))
                for obs in sorted(targets, key=lambda o: (o[0] or "", o[1]))]

    def damages(cur, ev):
        """Whether firing ``ev`` damages, per core of ``cur`` where the
        plant can and the supervisor does not enable it."""
        return {h.is_marked(h.step(z, ev))
                for q, x, z in (gp.cores[v] for v in cur)
                if g.step(q, ev) is not None and aut.step(x, ev) is None}

    order, trans = explore(closure([0]), successors)
    attackable = [ev for ev in g.alphabet.events if ev in ac.attackable]
    labels = [frozenset(ev for ev in attackable if damages(cur, ev) == {True})
              for cur in order]
    if stop_at_label and any(labels):
        last = next(i for i, lab in enumerate(labels) if lab)
        edges = list(trans.items())
        # the start has no discovering edge
        cut = last and 1 + next(k for k, (_, dst) in enumerate(edges)
                                if dst == last)
        order, trans, labels = (order[:last + 1], dict(edges[:cut]),
                                labels[:last + 1])
    return order, trans, labels


def test_subset_construction_numbers_as_explore_does():
    # the flat loop must number, order and label the knowledge sets as
    # the construction through ``explore`` does, stopped or not
    fixtures = [load_fixture(name) for name in
                ("atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri")]
    instances = [(pf.plant, pf.supervisor, pf.damage, pf.attack)
                 for pf in fixtures]
    rng = random.Random(6262)
    instances += [random_damaged_instance(rng, max_states=5)
                  for _ in range(200)]
    stopped_short = 0
    for plant, sup, damage, attack in instances:
        gp = generalized_product(plant, sup, damage, attack)
        sizes = []
        for stop in (False, True):
            sub = determinize_and_label(gp, stop_at_label=stop)
            order, trans, labels = explored_subset_construction(
                gp, plant, sup, damage, attack, stop)
            assert sub.subsets == tuple(order)
            assert list(sub.trans.items()) == list(trans.items())
            assert sub.labels == tuple(labels)
            sizes.append(len(order))
        stopped_short += sizes[1] < sizes[0]
    assert stopped_short >= 15


def test_generalized_product_requires_total_marked_damage(atk):
    partial = S.PartialDFA(atk.plant.alphabet, ("z0",), {}, 0, frozenset())
    with pytest.raises(S.AutomatonError):
        generalized_product(atk.plant, atk.supervisor, partial, atk.attack)


def test_attacker_projection_unobservable_only():
    alph = S.Alphabet(("u",))
    con = S.ControlConstraint(frozenset(), frozenset())
    plant = S.PartialDFA(alph, ("q0", "q1"), {(0, "u"): 1, (1, "u"): 0})
    sup = S.Supervisor(S.PartialDFA(alph, ("x0",), {(0, "u"): 0}), con)
    damage = S.totalize(S.PartialDFA(alph, ("z0",), {}, 0, frozenset()))
    gp = generalized_product(plant, sup, damage,
                             S.AttackConstraint(frozenset(), frozenset()))
    view = project_attacker_view(gp)
    assert view.moves == {}
    assert view.eps  # every transition became an epsilon move


def test_attacker_projection_atk_command_update(atk):
    gp = generalized_product(atk.plant, atk.supervisor, atk.damage, atk.attack)
    view = project_attacker_view(gp)
    # a is supervisor-observable but attacker-invisible: it surfaces as a
    # command-only observation
    assert any(obs[0] is None for out in view.moves.values() for obs in out)


def test_determinize_singletons_without_epsilon(atk):
    gp = generalized_product(atk.plant, atk.supervisor, atk.damage, atk.attack)
    sub = determinize_and_label(project_attacker_view(gp))
    assert all(len(y) == 1 for y in sub.subsets)
    assert sub.subsets[0] == frozenset({0})
    assert sub.labels[0] == frozenset({"k"})


def test_label_blocked_by_failure_state():
    # two plant branches with the same attacker view: one damaging, one not
    alph = S.Alphabet(("a", "b", "k"))
    con = S.ControlConstraint(frozenset(alph.events), frozenset(alph.events))
    plant = S.PartialDFA(alph, ("q0", "qa", "qb", "qd", "qx"),
                         {(0, "a"): 1, (0, "b"): 2, (1, "k"): 3, (2, "k"): 4})
    sup_aut = S.PartialDFA(alph, ("x0", "x1"), {(0, "a"): 1, (0, "b"): 1})
    sup = S.Supervisor(sup_aut, con)
    damage = S.totalize(S.PartialDFA(
        alph, ("z0", "za", "zb", "zd"),
        {(0, "a"): 1, (0, "b"): 2, (1, "k"): 3}, 0, frozenset({3})))
    ac = S.AttackConstraint(frozenset("k"), frozenset("k"))
    gp = generalized_product(plant, sup, damage, ac)
    sub = determinize_and_label(project_attacker_view(gp))
    # a and b are attacker-invisible and lead to the same command, so the
    # estimate contains both continuations; the failing branch vetoes k
    merged = [y for y in sub.subsets if len(y) == 2]
    assert merged, "expected a two-state knowledge set"
    assert all(not sub.labels[sub.subsets.index(y)] for y in merged)
    verdict = S.non_attackable(plant, sup, damage, ac)
    assert verdict.non_attackable


def test_non_attackable_no_attackable_events(tri):
    verdict = S.non_attackable(tri.plant, tri.supervisor, tri.damage, tri.attack)
    assert verdict.non_attackable and verdict.witness is None


def test_non_attackable_atk_witness(atk):
    verdict = S.non_attackable(atk.plant, atk.supervisor, atk.damage, atk.attack)
    assert not verdict.non_attackable
    assert verdict.witness.observations == ()
    assert verdict.witness.event == "k"


def test_non_attackable_example1(example1, example1_obfuscated):
    v1 = S.non_attackable(example1.plant, example1.supervisor,
                          example1.damage, example1.attack)
    assert not v1.non_attackable
    # observation path: command update after a, attacker-visible c with its
    # command, then the command update that betrays d
    obs = v1.witness.observations
    assert [o[0] for o in obs] == [None, "c", None]
    assert obs[1][1] == ("a", "b", "d")
    assert obs[2][1] == ("b",)
    assert v1.witness.event == "a'"
    v2 = S.non_attackable(example1_obfuscated.plant,
                          example1_obfuscated.supervisor,
                          example1_obfuscated.damage,
                          example1_obfuscated.attack)
    assert v2.non_attackable


def test_equal_commands_merge_attacker_estimates(example1, example1_obfuscated):
    # with the original supervisor the command update after d differs from
    # the one after a, so the attacker's estimate after the third
    # observation is a singleton; the obfuscated one reuses the same
    # command and the two continuations collapse into one knowledge set
    def subsets_after_ac(pf):
        gp = generalized_product(pf.plant, pf.supervisor, pf.damage, pf.attack)
        sub = determinize_and_label(project_attacker_view(gp))
        # walk: initial --(ε,V(a))--> --(c,V(ac))--> then branch
        y1 = sub.trans[(0, (None, ("b", "c", "d")))]
        y2 = sub.trans[(y1, ("c", ("a", "b", "d")))]
        return {obs: sub.subsets[dst]
                for (src, obs), dst in sub.trans.items() if src == y2}

    original = subsets_after_ac(example1)
    assert len(original) == 2  # (ε,{a,b,d}) and (ε,{b}) are distinct events
    assert all(len(subset) == 1 for subset in original.values())

    obfuscated = subsets_after_ac(example1_obfuscated)
    assert list(obfuscated) == [(None, ("a", "b", "d"))]
    assert len(next(iter(obfuscated.values()))) == 2


def test_non_attackable_validates_damage(atk):
    bad = S.totalize(S.PartialDFA(atk.plant.alphabet, ("z0",), {}, 0,
                                  frozenset({0})))
    with pytest.raises(S.AutomatonError):
        S.non_attackable(atk.plant, atk.supervisor, bad, atk.attack)


@pytest.mark.parametrize("marked, total, verify_error, obfuscate_error", [
    ({1}, False, (S.AutomatonError, "damage automaton is not total"),
     (ValueError, "damage validation failed: damage automaton is not total")),
    (None, False,
     (S.AutomatonError, "damage automaton needs an explicit marked set"),
     (S.AutomatonError, "damage automaton needs an explicit marked set")),
    ({1}, True, (S.AutomatonError, "closed loop reaches a damage string"),
     (ValueError,
      "damage validation failed: closed loop reaches a damage string")),
], ids=["partial_and_reached", "unmarked_partial_and_reached",
        "reached_only"])
def test_first_damage_fault_reported(atk, marked, total, verify_error,
                                     obfuscate_error):
    # z1 is reached by the closed-loop string "a"; the first fault in
    # validation order is the one reported, by both entry points
    h = S.PartialDFA(atk.plant.alphabet, ("z0", "z1"), {(0, "a"): 1}, 0,
                     None if marked is None else frozenset(marked))
    if total:
        h = S.totalize(h)
    assert S.is_total(h) == total
    req = S.ObfuscationRequest(atk.plant, atk.supervisor, atk.control,
                               atk.attack, h)
    for call, (kind, message) in (
            (lambda: S.non_attackable(atk.plant, atk.supervisor, h,
                                      atk.attack), verify_error),
            (lambda: S.obfuscate(req), obfuscate_error)):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is kind
        assert str(info.value) == message


def test_alphabet_mismatch_reported_before_the_damage_faults(atk):
    # the supervisor's alphabet lists atk's events in the other order and
    # the damage automaton has no marked set: the alphabet check comes
    # first, in both entry points
    flipped = S.Alphabet(tuple(reversed(atk.plant.alphabet.events)))
    x = atk.supervisor.automaton
    sup = S.Supervisor(S.PartialDFA(flipped, x.names, x.trans, x.initial),
                       atk.control)
    h = S.PartialDFA(atk.plant.alphabet, ("z0",),
                     {(0, e): 0 for e in atk.plant.alphabet.events}, 0, None)
    req = S.ObfuscationRequest(atk.plant, sup, atk.control, atk.attack, h)
    for call in (lambda: S.non_attackable(atk.plant, sup, h, atk.attack),
                 lambda: S.obfuscate(req)):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is S.AutomatonError
        assert str(info.value) == "operands must share an alphabet"


def test_product_input_errors_come_before_a_reached_damage_string(atk):
    # "a" reaches the marked z1 in the closed loop, and either the damage
    # automaton lists the events in another order or the attack
    # constraint names an event the supervisor cannot control: the
    # product's input check fails before the damage check reads its cores
    alph = atk.plant.alphabet
    flipped = S.Alphabet(tuple(reversed(alph.events)))
    reaching = [S.totalize(S.PartialDFA(a, ("z0", "z1"), {(0, "a"): 1}, 0,
                                        frozenset({1})))
                for a in (alph, flipped)]
    foreign = S.AttackConstraint(frozenset({"e"}), frozenset({"e"}))
    with pytest.raises(S.AutomatonError,
                       match="^closed loop reaches a damage string$"):
        S.non_attackable(atk.plant, atk.supervisor, reaching[0], atk.attack)
    for h, ac, message in (
            (reaching[1], atk.attack,
             "plant, supervisor and damage must share an alphabet"),
            (reaching[0], foreign, "attackable events must be controllable")):
        with pytest.raises(S.AutomatonError) as info:
            S.non_attackable(atk.plant, atk.supervisor, h, ac)
        assert str(info.value) == message


def test_check_tests_the_damage_automaton_once(monkeypatch, example1):
    # the product checks totality, and the damage check relies on it
    calls = []
    for mod in (supobf.control, supobf.attack):
        def counted(h, name=mod.__name__, is_total=mod.is_total):
            calls.append(name)
            return is_total(h)
        monkeypatch.setattr(mod, "is_total", counted)
    pf = example1
    S.non_attackable(pf.plant, pf.supervisor, pf.damage, pf.attack,
                     validate=True)
    assert calls == ["supobf.attack"]


def test_damage_check_on_the_product_cores_matches_the_walk():
    # given the product's cores the damage check scans them and walks only
    # to find the witness: its report, and the check's error, are the
    # walk's
    rng = random.Random(3131)
    passed = failed = 0
    for _ in range(300):
        alph, c, ac = random_alphabet(rng, with_attack=True)
        g = random_plant(rng, alph)
        sup = S.Supervisor(random_supervisor_automaton(rng, alph, c), c)
        h = random_damage(rng, alph)
        walked = S.validate_damage(h, g, sup)
        gp = generalized_product(g, sup, h, ac)
        assert S.validate_damage(h, g, sup, gp.cores) == walked
        if walked.ok:
            S.non_attackable(g, sup, h, ac, validate=True)
            passed += 1
            continue
        with pytest.raises(S.AutomatonError) as info:
            S.non_attackable(g, sup, h, ac, validate=True)
        assert str(info.value) == walked.problem
        failed += 1
    assert passed >= 40 and failed >= 40


def test_oracle_atk(atk):
    r = S.attackable_by_search(atk.plant, atk.supervisor, atk.damage,
                               atk.attack, 3)
    assert r.attackable and r.conclusive
    assert r.witness == ((), "k")
    assert r.strings_seen == 2


def test_oracle_no_attackable_events(tri):
    r = S.attackable_by_search(tri.plant, tri.supervisor, tri.damage,
                               tri.attack, 5)
    assert not r.attackable


def test_oracle_example1(example1, example1_obfuscated):
    r = S.attackable_by_search(example1.plant, example1.supervisor,
                               example1.damage, example1.attack, 8)
    assert r.attackable and r.witness == (("a", "c", "d"), "a'")
    r2 = S.attackable_by_search(example1_obfuscated.plant,
                                example1_obfuscated.supervisor,
                                example1_obfuscated.damage,
                                example1_obfuscated.attack, 8)
    assert not r2.attackable and r2.conclusive


def test_oracle_inconclusive_on_truncation(example1):
    r = S.attackable_by_search(example1_plant_with_loop(example1),
                               example1.supervisor, example1.damage,
                               example1.attack, 50, budget=5)
    assert not r.exhausted


def example1_plant_with_loop(pf):
    plant = pf.plant
    trans = dict(plant.trans)
    trans[(plant.run(["a", "d"]), "a")] = plant.initial  # cycle back
    return S.PartialDFA(plant.alphabet, plant.names, trans, plant.initial)


def test_differential_random_suite():
    rng = random.Random(4242)
    conclusive = 0
    for _ in range(120):
        inst = random_attack_instance(rng)
        if inst is None:
            continue
        plant, sup, damage, attack = inst
        verdict = S.non_attackable(plant, sup, damage, attack, validate=False)
        # the check path, which the CLI takes, reads the same verdict
        checked = S.non_attackable(plant, sup, damage, attack, validate=True)
        assert checked.non_attackable == verdict.non_attackable
        assert checked.witness == verdict.witness
        bound = plant.n_states * sup.n_states * damage.n_states + 2
        oracle = S.attackable_by_search(plant, sup, damage, attack, bound)
        if not oracle.conclusive:
            continue
        conclusive += 1
        assert oracle.attackable == (not verdict.non_attackable), \
            f"oracle={oracle} witness={verdict.witness}"
    assert conclusive >= 60


def test_attackable_verdicts_confirmed_by_the_oracle():
    # the random suites above draw few attackable instances; these draws
    # give many, and the oracle must find an attack within twice the
    # witness's observation count plus one for every attackable verdict
    rng = random.Random(777)
    confirmed = 0
    for _ in range(400):
        plant, sup, damage, attack = random_damaged_instance(rng,
                                                             max_states=4)
        verdict = S.non_attackable(plant, sup, damage, attack)
        if verdict.non_attackable:
            continue
        bound = 2 * (len(verdict.witness.observations) + 1)
        oracle = S.attackable_by_search(plant, sup, damage, attack, bound)
        assert oracle.attackable, f"witness={verdict.witness}"
        confirmed += 1
        if confirmed == 25:
            break
    assert confirmed == 25


def observed_cores(plant, sup, damage, attack, observations):
    """The (plant, supervisor, damage) states reached by the closed-loop
    strings whose attacker observation is exactly ``observations``, found
    by searching strings as ``attackable_by_search`` does (strings that
    reach the same states with the same observation count once)."""
    aut = sup.automaton
    observable = sup.constraint.observable
    commands = [tuple(sorted(aut.enabled(x))) for x in range(aut.n_states)]
    start = (plant.initial, aut.initial, damage.initial, 0)
    seen = {start}
    stack = [start]
    while stack:
        q, x, z, k = stack.pop()
        for ev in plant.alphabet.events:
            q2, x2 = plant.step(q, ev), aut.step(x, ev)
            if q2 is None or x2 is None:
                continue
            if ev in observable:
                seen_ev = ev if ev in attack.attacker_observable else None
                if observations[k:k + 1] != ((seen_ev, commands[x2]),):
                    continue
                node = (q2, x2, damage.step(z, ev), k + 1)
            else:
                node = (q2, x2, damage.step(z, ev), k)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return {(q, x, z) for q, x, z, k in seen if k == len(observations)}


def assert_witness_replays(plant, sup, damage, attack, verdict):
    """The witness's knowledge set is what its observations reach, and its
    event damages from every member where the plant can take it and the
    supervisor disables it, of which there is at least one."""
    w = verdict.witness
    cores = observed_cores(plant, sup, damage, attack, w.observations)
    assert cores == {verdict.product.cores[i] for i in w.subset}, w
    disabled = [z for q, x, z in cores if plant.step(q, w.event) is not None
                and sup.automaton.step(x, w.event) is None]
    assert disabled, w
    assert all(damage.is_marked(damage.step(z, w.event)) for z in disabled), w


def test_attackable_witnesses_replay_by_brute_force():
    # the draws of test_attackable_verdicts_confirmed_by_the_oracle
    rng = random.Random(777)
    replayed = 0
    for _ in range(400):
        inst = random_damaged_instance(rng, max_states=4)
        verdict = S.non_attackable(*inst)
        if verdict.non_attackable:
            continue
        assert_witness_replays(*inst, verdict)
        replayed += 1
        if replayed == 25:
            break
    assert replayed == 25


def test_witness_skips_a_set_with_a_failure_core():
    # a and b are attacker-invisible and issue the same command, so the
    # first knowledge set mixes a core where k damages (after a) with one
    # where it fails (after b); only c, seen by the attacker, separates
    # them, and k damages after a c
    alph = S.Alphabet(("a", "b", "c", "k"))
    con = S.ControlConstraint(frozenset(alph.events), frozenset(alph.events))
    plant = S.PartialDFA(alph, ("q0", "qa", "qb", "qc", "qd", "qx", "qe"),
                         {(0, "a"): 1, (0, "b"): 2, (1, "c"): 3, (1, "k"): 4,
                          (2, "k"): 5, (3, "k"): 6})
    sup = S.Supervisor(S.PartialDFA(alph, ("x0", "x1", "x2"),
                                    {(0, "a"): 1, (0, "b"): 1, (1, "c"): 2}),
                       con)
    damage = S.totalize(S.PartialDFA(
        alph, ("z0", "za", "zb", "zc", "zd"),
        {(0, "a"): 1, (0, "b"): 2, (1, "c"): 3, (1, "k"): 4, (3, "k"): 4},
        0, frozenset({4})))
    ac = S.AttackConstraint(frozenset("k"), frozenset("ck"))
    verdict = S.non_attackable(plant, sup, damage, ac)
    assert not verdict.non_attackable
    assert_witness_replays(plant, sup, damage, ac, verdict)
    assert verdict.witness.observations == ((None, ("c",)), ("c", ()))
    assert verdict.witness.event == "k"


DESCRIBE_INSTANCES = """
import random
from conftest import random_attack_instance

def aut(p):
    marked = None if p.marked is None else sorted(p.marked)
    return p.names, sorted(p.trans.items()), p.initial, marked

rng = random.Random(4242)
for _ in range(20):
    inst = random_attack_instance(rng)
    if inst is None:
        print(None)
        continue
    plant, sup, damage, attack = inst
    c = sup.constraint
    print(plant.alphabet.events, sorted(c.controllable), sorted(c.observable),
          sorted(attack.attackable), sorted(attack.attacker_observable),
          aut(plant), aut(sup.automaton), aut(damage))
"""


def test_random_instances_independent_of_hash_seed():
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", DESCRIBE_INSTANCES],
                              env=env, cwd=tests_dir, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 20
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("generator, seed, max_states, digest", [
    (random_attack_instance, 4242, 4,
     "c47f80ae565650fc51b21ecd4610366420bd00e2a14ab83a987ccd5f37ef508a"),
    (random_attack_instance, 2024, 3,
     "1ad75509938d1dbaa29f27ebcd12a0ac37bc71b2b61e040d5b8cb336dee727e7"),
    (random_damaged_instance, 777, 4,
     "64fc17dcc1f71ebfd01b06599486f9214dfd00f51ddda45e7413f076c00b659f"),
    (random_damaged_instance, 99, 5,
     "1fbfcea681856ac8ea5783a2532f7b33e85d279cf4a8fba1e2f4317fbb6ccebc"),
], ids=["attack-4242", "attack-2024", "damaged-777", "damaged-99"])
def test_random_instances_are_pinned(generator, seed, max_states, digest):
    # the differential suites check what these generators draw: the
    # problem text of the first 50 draws is fixed, flags included
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(50):
        inst = generator(rng, max_states=max_states)
        if inst is None:
            h.update(b"None\n")
            continue
        plant, sup, damage, attack = inst
        pf = ProblemFile(plant.alphabet, plant, sup, damage, sup.constraint,
                         attack)
        h.update(emit_problem(pf).encode())
    assert h.hexdigest() == digest


def test_verdict_invariant_under_state_renaming(example1, atk, perf):
    rng = random.Random(31)
    for pf in (example1, atk, perf):
        base = S.non_attackable(pf.plant, pf.supervisor, pf.damage,
                                pf.attack).non_attackable
        n = pf.supervisor.automaton.n_states
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            renamed = S.Supervisor(permute_states(pf.supervisor.automaton, perm),
                                   pf.supervisor.constraint)
            got = S.non_attackable(pf.plant, renamed, pf.damage,
                                   pf.attack).non_attackable
            assert got == base


def test_monotone_damage_reduction(example1, atk, perf):
    # shrinking the damage marking can only help the defender
    for pf in (example1, atk, perf):
        base = S.non_attackable(pf.plant, pf.supervisor, pf.damage, pf.attack)
        for drop in sorted(pf.damage.marked):
            smaller = S.PartialDFA(pf.damage.alphabet, pf.damage.names,
                                   pf.damage.trans, pf.damage.initial,
                                   pf.damage.marked - {drop})
            got = S.non_attackable(pf.plant, pf.supervisor, smaller, pf.attack,
                                   validate=False)
            if base.non_attackable:
                assert got.non_attackable


def test_subset_states_match_oracle_observation_classes(atk, example1):
    # every reachable knowledge set equals the set of product states the
    # oracle's observation grouping discovers for some observation
    for pf in (atk, example1):
        gp = generalized_product(pf.plant, pf.supervisor, pf.damage, pf.attack)
        sub = determinize_and_label(project_attacker_view(gp))
        core_sets = {frozenset(gp.cores[v] for v in y) for y in sub.subsets}

        sup = pf.supervisor.automaton
        observable = pf.supervisor.constraint.observable
        commands = {x: tuple(sorted(sup.enabled(x))) for x in range(sup.n_states)}
        groups = {}
        frontier = [(pf.plant.initial, sup.initial, pf.damage.initial, ())]
        seen = set(frontier)
        groups[()] = {frontier[0][:3]}
        for _ in range(8):
            nxt = []
            for (q, x, z, obs) in frontier:
                for ev in pf.plant.alphabet.events:
                    q2, x2 = pf.plant.step(q, ev), sup.step(x, ev)
                    if q2 is None or x2 is None:
                        continue
                    z2 = pf.damage.step(z, ev)
                    if ev in observable:
                        seen_ev = ev if ev in pf.attack.attacker_observable else None
                        obs2 = obs + ((seen_ev, commands[x2]),)
                    else:
                        obs2 = obs
                    node = (q2, x2, z2, obs2)
                    if node not in seen:
                        seen.add(node)
                        groups.setdefault(obs2, set()).add((q2, x2, z2))
                        nxt.append(node)
            frontier = nxt
        grouped_sets = {frozenset(v) for v in groups.values()}
        assert grouped_sets <= core_sets


def test_subset_dot_highlights_labels(atk):
    gp = generalized_product(atk.plant, atk.supervisor, atk.damage, atk.attack)
    sub = determinize_and_label(project_attacker_view(gp))
    dot = S.subset_to_dot(sub, gp)
    assert "lightcoral" in dot and "attack: k" in dot


def first_labelled_witness(full: S.SubsetAutomaton, gp: S.GPAutomaton):
    """Witness read off a full construction: the labelled set of lowest
    breadth-first index, reached through each set's first incoming edge;
    None when no set is labelled."""
    parents = {}
    for (src, obs), dst in full.trans.items():
        if dst != 0:
            parents.setdefault(dst, (src, obs))
    for i, lab in enumerate(full.labels):
        if lab:
            path = []
            cur = i
            while cur != 0:
                cur, obs = parents[cur]
                path.append(obs)
            return S.AttackWitness(tuple(reversed(path)), full.subsets[i],
                                   min(lab))
    return None


def test_early_stop_matches_full_construction():
    fixtures = [load_fixture(name) for name in
                ("atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri")]
    instances = [(pf.plant, pf.supervisor, pf.damage, pf.attack)
                 for pf in fixtures]
    rng = random.Random(5150)
    instances += [random_damaged_instance(rng, max_states=5)
                  for _ in range(200)]
    attackable = stopped_short = 0
    for plant, sup, damage, attack in instances:
        verdict = S.non_attackable(plant, sup, damage, attack)
        gp = verdict.product
        full = determinize_and_label(project_attacker_view(gp))
        early = verdict.subset_automaton
        n = len(early.subsets)
        assert early.subsets == full.subsets[:n]
        assert early.labels == full.labels[:n]
        early_trans = list(early.trans.items())
        assert early_trans == list(full.trans.items())[:len(early_trans)]
        expected = first_labelled_witness(full, gp)
        assert verdict.witness == expected
        assert verdict.non_attackable == (expected is None)
        if verdict.non_attackable:
            assert early == full
        attackable += not verdict.non_attackable
        stopped_short += n < len(full.subsets)
    assert attackable >= 30
    # a full construction that stopped early as well would pass the above
    assert stopped_short >= 20


def test_subset_construction_ignores_the_order_of_view_successors():
    # the view keeps the product's moves in recording order; the subset
    # construction must read each successor list, and each state's
    # observations, as a set
    fixtures = [load_fixture(name) for name in
                ("atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri")]
    instances = [(pf.plant, pf.supervisor, pf.damage, pf.attack)
                 for pf in fixtures]
    rng = random.Random(4242)
    instances += [random_damaged_instance(rng, max_states=5)
                  for _ in range(200)]
    shuffler = random.Random(77)
    reordered = 0

    def mixed(items):
        nonlocal reordered
        out = list(items)
        shuffler.shuffle(out)
        reordered += out != list(items)
        return out

    for plant, sup, damage, attack in instances:
        gp = generalized_product(plant, sup, damage, attack)
        shuffled = gp._replace(
            eps={v: mixed(dsts) for v, dsts in gp.eps.items()},
            moves={v: {obs: mixed(dsts) for obs, dsts in mixed(out.items())}
                   for v, out in gp.moves.items()})
        for stop in (False, True):
            a = determinize_and_label(gp, stop_at_label=stop)
            b = determinize_and_label(shuffled, stop_at_label=stop)
            assert a.subsets == b.subsets
            assert list(a.trans.items()) == list(b.trans.items())
            assert a.labels == b.labels
    assert reordered >= 100


def test_verdict_construction_ends_at_the_witness(atk, example1):
    for pf in (atk, example1):
        verdict = S.non_attackable(pf.plant, pf.supervisor, pf.damage,
                                   pf.attack)
        sub = verdict.subset_automaton
        assert sub.subsets[-1] == verdict.witness.subset
        assert [bool(lab) for lab in sub.labels] == \
            [False] * (len(sub.labels) - 1) + [True]
