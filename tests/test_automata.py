import dataclasses
import random

import pytest

import supobf as S
from supobf.automata import explore
from conftest import (random_alphabet, random_damage, random_damaged_instance,
                      random_plant, shortlex, strings_upto, view_items)


def simple_alphabet(*events):
    return S.Alphabet(events)


def test_alphabet_invariants():
    with pytest.raises(S.AutomatonError, match="nonempty"):
        S.Alphabet(())
    with pytest.raises(S.AutomatonError, match="duplicate"):
        S.Alphabet(("a", "a"))
    with pytest.raises(S.AutomatonError, match="bad event name"):
        S.Alphabet(("a b",))
    with pytest.raises(S.AutomatonError, match="bad event name"):
        S.Alphabet(("#a",))
    # the event flags belong to the constraints (see test_control.py)
    assert [f.name for f in dataclasses.fields(S.Alphabet)] == ["events"]


def test_partial_dfa_validation():
    alph = simple_alphabet("a")
    with pytest.raises(S.AutomatonError):
        S.PartialDFA(alph, ("p",), {(0, "a"): 3})
    with pytest.raises(S.AutomatonError):
        S.PartialDFA(alph, ("p",), {(0, "z"): 0})
    with pytest.raises(S.AutomatonError):
        S.PartialDFA(alph, ("p",), {}, initial=2)


def test_sync_product_idempotent():
    alph = simple_alphabet("a", "b")
    p = S.PartialDFA(alph, ("u", "v", "w"), {(0, "a"): 1, (1, "b"): 0})
    q = S.sync_product(p, p)
    eq, _ = S.language_equal(q, p)
    assert eq
    assert q.n_states == 2  # unreachable w is pruned


def test_sync_product_tri_closed_loop(tri):
    loop = S.sync_product(tri.plant, tri.supervisor.automaton)
    expected = {(), ("a",), ("a", "b"), ("a", "b", "a"), ("a", "b", "a", "b")}
    assert strings_upto(loop, 4) == expected


def test_sync_product_empty_absorption():
    alph = simple_alphabet("a")
    dead = S.PartialDFA(alph, ("d",))
    live = S.PartialDFA(alph, ("l",), {(0, "a"): 0})
    prod = S.sync_product(dead, live)
    assert prod.n_states == 1 and not prod.trans


def test_sync_product_membership_property():
    rng = random.Random(11)
    for _ in range(30):
        alph = random_alphabet(rng)[0]
        a = random_plant(rng, alph)
        b = random_plant(rng, alph)
        prod = S.sync_product(a, b)
        bound = min(a.n_states * b.n_states, 6)
        la, lb = strings_upto(a, bound), strings_upto(b, bound)
        assert strings_upto(prod, bound) == (la & lb)


def test_sync_product_distinct_alphabets_raise():
    left = S.PartialDFA(simple_alphabet("a"), ("l0", "l1"), {(0, "a"): 1})
    right = S.PartialDFA(simple_alphabet("b"), ("r0", "r1"), {(0, "b"): 1})
    # the same events in another order are another alphabet too
    ab = S.PartialDFA(simple_alphabet("a", "b"), ("p",))
    ba = S.PartialDFA(simple_alphabet("b", "a"), ("p",))
    for a, b in ((left, right), (right, left), (ab, ba)):
        with pytest.raises(S.AutomatonError, match="share an alphabet"):
            S.sync_product(a, b)


def test_dual_marked_product_tri(tri):
    gds = S.dual_marked_product(tri.plant, tri.supervisor.automaton)
    # a partial automaton marked on its A-pairs, with pairs named as the
    # closed loop names them
    assert isinstance(gds, S.PartialDFA)
    assert gds.names == ("(q0,x0)", "(q1,x1)", "(q2,dump)")
    assert gds.marked == frozenset({0, 1})
    # the B-marked pair is reached by the string "b"
    state = gds.trans[(0, "b")]
    assert gds.names[state] == "(q2,dump)" and state not in gds.marked
    # it renders and emits like any automaton: A-pairs as marked states
    dot = S.to_dot(gds, "product")
    assert 'n0 [label="(q0,x0)" shape=doublecircle];' in dot
    assert 'n1 [label="(q1,x1)" shape=doublecircle];' in dot
    assert 'n2 [label="(q2,dump)" shape=circle];' in dot
    section = S.emit_automaton_section("product", gds)
    assert section.splitlines()[1:4] == [
        "states: (q0,x0) (q1,x1) (q2,dump)", "initial: (q0,x0)",
        "marked: (q0,x0) (q1,x1)"]
    assert "(q0,x0) b (q2,dump)" in section.splitlines()


def test_dual_marked_product_empty_b_marks():
    alph = simple_alphabet("a")
    g = S.PartialDFA(alph, ("q0",), {(0, "a"): 0})
    s = S.PartialDFA(alph, ("x0",), {(0, "a"): 0})  # L(s) = L(g)
    gds = S.dual_marked_product(g, s)
    assert gds.marked == frozenset({0}) and gds.n_states == 1
    assert gds.names == ("(q0,x0)",)


def test_dual_marked_product_marking_property():
    rng = random.Random(23)
    for _ in range(30):
        alph = random_alphabet(rng)[0]
        g = random_plant(rng, alph, 3)
        s = random_plant(rng, alph, 3)
        gds = S.dual_marked_product(g, s)
        bound = 5
        lg, ls = strings_upto(g, bound), strings_upto(s, bound)
        frontier = [((), 0)]
        seen = {((), 0)}
        for _ in range(bound + 1):
            nxt = []
            for string, y in frontier:
                in_a = y in gds.marked
                in_b = y not in gds.marked
                assert in_a == (string in lg and string in ls)
                assert in_b == (string in lg and string not in ls)
                # named by its components, the supervisor's dump as "dump"
                x = s.run(string)
                assert gds.names[y] == (f"({g.names[g.run(string)]},"
                                        f"{'dump' if x is None else s.names[x]})")
                if len(string) < bound:
                    for ev in alph.events:
                        # the product is defined exactly on the plant's
                        # strings
                        nxt_y = gds.trans.get((y, ev))
                        assert (nxt_y is not None) == (string + (ev,) in lg)
                        if nxt_y is None:
                            continue
                        node = (string + (ev,), nxt_y)
                        if node not in seen:
                            seen.add(node)
                            nxt.append(node)
            frontier = nxt


def test_language_equal_reflexive(tri):
    eq, w = S.language_equal(tri.plant, tri.plant)
    assert eq and w is None


def test_language_equal_witness_shortest():
    alph = simple_alphabet("a", "b")
    ab = S.PartialDFA(alph, ("u", "v"), {(0, "a"): 1, (1, "b"): 0})
    extra = S.PartialDFA(alph, ("u", "v"),
                         {(0, "a"): 1, (1, "b"): 0, (0, "b"): 0})
    eq, w = S.language_equal(ab, extra)
    assert not eq and w == ("b",)


def test_language_equal_brute_force_agreement():
    rng = random.Random(5)
    for _ in range(60):
        alph = random_alphabet(rng)[0]
        a = random_plant(rng, alph, 3)
        b = random_plant(rng, alph, 3)
        eq, w = S.language_equal(a, b)
        bound = a.n_states * b.n_states
        brute = strings_upto(a, bound) == strings_upto(b, bound)
        assert eq == brute
        if not eq:
            assert S.accepts(a, w) != S.accepts(b, w)


def test_language_equal_witness_is_the_first_in_shortlex_order():
    # the witness is the first string of the symmetric difference by
    # length, then alphabet index, not only some shortest one
    rng = random.Random(8080)
    checked = 0
    for _ in range(80):
        alph = random_alphabet(rng)[0]
        a = random_plant(rng, alph, 3)
        b = random_plant(rng, alph, 3)
        eq, w = S.language_equal(a, b)
        if eq:
            continue
        diff = strings_upto(a, len(w)) ^ strings_upto(b, len(w))
        assert min(diff, key=shortlex(alph)) == w
        checked += 1
    assert checked >= 40


def test_accepts_epsilon_and_unknown_event(tri):
    assert S.accepts(tri.plant, ())
    assert S.accepts(tri.plant, ("a", "b"))
    loop = S.closed_loop(tri.plant, tri.supervisor)
    assert not S.accepts(loop, ("b",))
    with pytest.raises(S.AutomatonError):
        S.accepts(tri.plant, ("nope",))


def test_totalize_preserves_marking():
    alph = simple_alphabet("a")
    h = S.PartialDFA(alph, ("z0", "z1"), {(0, "a"): 1}, 0, frozenset({1}))
    t = S.totalize(h)
    assert S.is_total(t)
    assert t.marked == frozenset({1})
    assert S.accepts(t, ("a",), marked=True)
    assert not S.accepts(t, ("a", "a"), marked=True)
    assert t.names == ("z0", "z1", "sink")
    # the sink's name is primed until it is free
    named = S.PartialDFA(alph, ("sink", "z1"), {(0, "a"): 1})
    total = S.totalize(named)
    assert total.names == ("sink", "z1", "sink'")
    # with every state marked, the original states stay marked
    assert total.marked == frozenset({0, 1})
    # a total input is returned as it is
    assert S.totalize(total) is total


def test_canonical_key_isomorphism_invariance():
    alph = simple_alphabet("a", "b")
    p = S.PartialDFA(alph, ("u", "v", "w"),
                     {(0, "a"): 1, (1, "b"): 2, (2, "a"): 0})
    # relabel states by the permutation 0->0, 1->2, 2->1
    q = S.PartialDFA(alph, ("u", "w", "v"),
                     {(0, "a"): 2, (2, "b"): 1, (1, "a"): 0})
    assert S.canonical_key(p) == S.canonical_key(q)
    r = S.PartialDFA(alph, ("u", "v", "w"),
                     {(0, "a"): 1, (1, "b"): 2, (2, "b"): 0})
    assert S.canonical_key(p) != S.canonical_key(r)


def test_to_dot_outputs(tri):
    dot = S.to_dot(tri.plant)
    assert dot.startswith("digraph") and "q0" in dot


def test_explore_order_and_transitions():
    # yielded out of label order, with a self-loop (t a t) and edges back
    # to states already discovered (t b s, u a t)
    graph = {"s": [("b", "u"), ("a", "t")],
             "t": [("a", "t"), ("b", "s")],
             "u": [("c", "w"), ("a", "t")],
             "w": []}
    calls = []

    def successors(state):
        calls.append(state)
        return iter(graph[state])

    order, trans = explore("s", successors)
    assert order == ["s", "u", "t", "w"]
    assert calls == order  # each state expanded once, in discovery order
    assert list(trans.items()) == [((0, "b"), 1), ((0, "a"), 2),
                                   ((1, "c"), 3), ((1, "a"), 2),
                                   ((2, "a"), 2), ((2, "b"), 0)]
    assert explore(7, lambda q: ()) == ([7], {})


def _reinserted(p, items):
    return S.PartialDFA(p.alphabet, p.names, dict(items), p.initial, p.marked)


def shuffled_copy(rng, p):
    """``p`` with its ``trans`` dict filled in a random order."""
    items = list(p.trans.items())
    rng.shuffle(items)
    return _reinserted(p, items)


def alphabet_ordered_copy(p):
    """``p`` with its ``trans`` dict filled state by state, in alphabet
    order within each state."""
    return _reinserted(p, sorted(p.trans.items(), key=lambda kv: (
        kv[0][0], p.alphabet.events.index(kv[0][1]))))


def test_delta_rows_follow_the_alphabet_whatever_the_insertion_order():
    rng = random.Random(1066)
    unordered_rows = 0
    for _ in range(60):
        p = shuffled_copy(rng, random_plant(rng, random_alphabet(rng)[0], 6))
        for q in range(p.n_states):
            moves = [(ev, p.step(q, ev)) for ev in p.alphabet.events
                     if p.step(q, ev) is not None]
            assert list(p.delta[q].items()) == moves
            assert p.enabled(q) == frozenset(ev for ev, _ in moves)
            inserted = [ev for (src, ev) in p.trans if src == q]
            unordered_rows += inserted != [ev for ev, _ in moves]
    # the shuffle must put many rows out of alphabet order
    assert unordered_rows >= 30


def test_products_do_not_depend_on_the_insertion_order_of_trans():
    rng = random.Random(1067)
    for _ in range(40):
        plant, sup, damage, attack = random_damaged_instance(rng, 5)
        # a damage automaton the closed loop may reach, for the witness
        reached = random_damage(rng, plant.alphabet, 5)
        views = []
        for copy in (alphabet_ordered_copy,
                     lambda p: shuffled_copy(rng, p)):
            g, x, h, r = (copy(a) for a in (plant, sup.automaton, damage,
                                            reached))
            s = S.Supervisor(x, sup.constraint)
            loop = S.sync_product(g, x)
            witness = S.validate_damage(r, g, s).witness
            dm = S.dual_marked_product(g, x)
            gp = S.generalized_product(g, s, h, attack)
            views.append((
                loop.names, list(loop.trans.items()), loop.marked,
                dm.names, list(dm.trans.items()), dm.marked,
                gp.names, gp.cores, view_items(gp.eps, gp.moves),
                list(gp.attack.items()), witness,
                S.canonical_key(x), S.reachable_states(x)))
        assert views[0] == views[1]
