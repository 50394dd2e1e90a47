import itertools
import random
from pathlib import Path

import pytest

import supobf as S

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> S.ProblemFile:
    return S.load_problem(str(FIXTURES / f"{name}.prob"))


@pytest.fixture(scope="session")
def example1():
    return load_fixture("example1")


@pytest.fixture(scope="session")
def example1_obfuscated():
    return load_fixture("example1_obfuscated")


@pytest.fixture(scope="session")
def tri():
    return load_fixture("tri")


@pytest.fixture(scope="session")
def atk():
    return load_fixture("atk")


@pytest.fixture(scope="session")
def single():
    return load_fixture("single")


@pytest.fixture(scope="session")
def perf():
    return load_fixture("perf")


# ---------------------------------------------------------------------------
# brute-force language helpers (string level, independent of the product
# constructions under test)

def view_items(eps, moves):
    """An attacker view's successor lists in insertion order, at every
    level, for comparing views exactly."""
    return (list(eps.items()),
            [(src, list(out.items())) for src, out in moves.items()])


def strings_upto(aut: S.PartialDFA, maxlen: int) -> set[tuple[str, ...]]:
    """All strings of L(aut) with length <= maxlen, by tree walk."""
    out = {()}
    frontier = [((), aut.initial)]
    for _ in range(maxlen):
        nxt = []
        for string, state in frontier:
            for ev in aut.alphabet.events:
                dst = aut.step(state, ev)
                if dst is not None:
                    s2 = string + (ev,)
                    out.add(s2)
                    nxt.append((s2, dst))
        frontier = nxt
    return out


def shortlex(alphabet: S.Alphabet):
    """Sort key of strings over ``alphabet``: length first, then the
    events' alphabet indices."""
    return lambda string: (len(string),
                           [alphabet.events.index(e) for e in string])


def marked_strings_upto(aut: S.PartialDFA, maxlen: int) -> set[tuple[str, ...]]:
    out = set()
    frontier = [((), aut.initial)]
    if aut.is_marked(aut.initial):
        out.add(())
    for _ in range(maxlen):
        nxt = []
        for string, state in frontier:
            for ev in aut.alphabet.events:
                dst = aut.step(state, ev)
                if dst is not None:
                    s2 = string + (ev,)
                    if aut.is_marked(dst):
                        out.add(s2)
                    nxt.append((s2, dst))
        frontier = nxt
    return out


def all_supervisor_automata(alphabet: S.Alphabet,
                            constraint: S.ControlConstraint, n: int):
    """Every n-state partial transition function satisfying the supervisor
    constraints: observable events map to a state or stay undefined
    (uncontrollable ones must be defined), unobservable events self-loop."""
    obs = [e for e in alphabet.events if e in constraint.observable]
    unobs = [e for e in alphabet.events if e not in constraint.observable]
    slots = [(x, e) for x in range(n) for e in obs]
    choice_sets = []
    for _, e in slots:
        if e not in constraint.controllable:
            choice_sets.append(list(range(n)))
        else:
            choice_sets.append([None] + list(range(n)))
    for combo in itertools.product(*choice_sets):
        trans = {}
        for (x, e), dst in zip(slots, combo):
            if dst is not None:
                trans[(x, e)] = dst
        for x in range(n):
            for e in unobs:
                trans[(x, e)] = x
        yield S.PartialDFA(alphabet, tuple(f"s{i}" for i in range(n)), trans)


def grown_climb(product: S.PartialDFA, constraint: S.ControlConstraint,
                n_max: int):
    """Yield ``(n, backend, vt)`` for n = 1..n_max: one solver that takes
    row n - 1 at each size, as ``obfuscate`` grows it."""
    vt = S.VarTable(product.alphabet, constraint, product.marked)
    backend = None
    for n in range(1, n_max + 1):
        cnf, _ = S.encode(n, product, constraint, vt)
        backend = S.solve_instance(cnf, backend)
        yield n, backend, vt


def satisfiable_within(product: S.PartialDFA,
                       constraint: S.ControlConstraint, n: int) -> bool:
    """Whether some behavior-preserving supervisor has at most ``n``
    reachable states: each size of a grown climb solved under its
    capacity literal."""
    return any(backend.solve([vt.capacity_var(m)])
               for m, backend, vt in grown_climb(product, constraint, n))


# ---------------------------------------------------------------------------
# randomized instance generators (deterministic under a seeded Random)

def random_alphabet(rng: random.Random, max_events: int = 4,
                    with_attack: bool = False):
    """A random ``(alphabet, control, attack)``; without ``with_attack``
    the attack constraint is empty."""
    # draws follow the order of ``events``, never of a set, so the result
    # does not depend on PYTHONHASHSEED
    k = rng.randint(1, max_events)
    events = tuple("abcd"[:k])
    observable = frozenset(e for e in events if rng.random() < 0.8)
    controllable = frozenset(e for e in events
                             if e in observable and rng.random() < 0.7)
    if with_attack:
        attacker_observable = frozenset(e for e in events
                                        if e in observable
                                        and rng.random() < 0.6)
        attackable = frozenset(e for e in events
                               if e in controllable
                               and e in attacker_observable
                               and rng.random() < 0.7)
    else:
        attacker_observable = frozenset()
        attackable = frozenset()
    return (S.Alphabet(events), S.ControlConstraint(controllable, observable),
            S.AttackConstraint(attackable, attacker_observable))


def random_plant(rng: random.Random, alphabet: S.Alphabet,
                 max_states: int = 5, acyclic: bool = False) -> S.PartialDFA:
    n = rng.randint(1, max_states)
    trans = {}
    for q in range(n):
        for ev in alphabet.events:
            if rng.random() < 0.55:
                if acyclic:
                    if q + 1 < n:
                        trans[(q, ev)] = rng.randint(q + 1, n - 1)
                else:
                    trans[(q, ev)] = rng.randrange(n)
    return S.PartialDFA(alphabet, tuple(f"q{i}" for i in range(n)), trans)


def random_supervisor_automaton(rng: random.Random, alphabet: S.Alphabet,
                                constraint: S.ControlConstraint,
                                max_states: int = 4) -> S.PartialDFA:
    n = rng.randint(1, max_states)
    trans = {}
    for x in range(n):
        for ev in alphabet.events:
            if ev not in constraint.observable:
                trans[(x, ev)] = x
            elif ev not in constraint.controllable:
                trans[(x, ev)] = rng.randrange(n)
            elif rng.random() < 0.7:
                trans[(x, ev)] = rng.randrange(n)
    return S.PartialDFA(alphabet, tuple(f"x{i}" for i in range(n)), trans)


def random_damage(rng: random.Random, alphabet: S.Alphabet,
                  max_states: int = 4) -> S.PartialDFA:
    """Random total automaton with a sparse marked set."""
    n = rng.randint(1, max_states)
    trans = {(z, ev): rng.randrange(n)
             for z in range(n) for ev in alphabet.events}
    marked = frozenset(z for z in range(n) if rng.random() < 0.25)
    return S.PartialDFA(alphabet, tuple(f"z{i}" for i in range(n)), trans,
                        0, marked)


def random_attack_instance(rng: random.Random, max_states: int = 4,
                           acyclic_bias: float = 0.7, max_tries: int = 60):
    """A full (plant, supervisor, damage, attack) instance that passes
    damage validation, or None when sampling keeps failing."""
    for _ in range(max_tries):
        alphabet, constraint, attack = random_alphabet(rng, with_attack=True)
        plant = random_plant(rng, alphabet, max_states,
                             acyclic=rng.random() < acyclic_bias)
        sup_aut = random_supervisor_automaton(rng, alphabet, constraint,
                                              max_states)
        sup = S.Supervisor(sup_aut, constraint)
        damage = random_damage(rng, alphabet, max_states)
        report = S.validate_damage(damage, plant, sup)
        if report.ok:
            return plant, sup, damage, attack
    return None


def supervisor_damage(rng: random.Random, sup: S.Supervisor,
                      p_damage: float = 0.5) -> S.PartialDFA:
    """Damage automaton shaped like the supervisor: a copy of it plus a
    marked damaged sink and an unmarked safe sink.  Each event the
    supervisor disables at a state leads to the damaged sink with
    probability ``p_damage`` and to the safe sink otherwise, so the closed
    loop never reaches the damaged sink and damage validation passes."""
    aut = sup.automaton
    events = aut.alphabet.events
    k = aut.n_states
    damaged, safe = k, k + 1
    trans = {}
    for x in range(k):
        for ev in events:
            dst = aut.step(x, ev)
            if dst is None:
                dst = damaged if rng.random() < p_damage else safe
            trans[(x, ev)] = dst
    for sink in (damaged, safe):
        for ev in events:
            trans[(sink, ev)] = sink
    names = tuple(f"z{x}" for x in range(k)) + ("damaged", "safe")
    return S.PartialDFA(aut.alphabet, names, trans, aut.initial,
                        frozenset({damaged}))


def random_damaged_instance(rng: random.Random, max_states: int = 4):
    """A (plant, supervisor, damage, attack) instance over an alphabet with
    at least one attackable event, its damage from
    :func:`supervisor_damage`.  Far more of these draws are attackable
    than of :func:`random_attack_instance`'s."""
    alphabet, constraint, attack = random_alphabet(rng, with_attack=True)
    while not attack.attackable:
        alphabet, constraint, attack = random_alphabet(rng, with_attack=True)
    plant = random_plant(rng, alphabet, max_states)
    sup = S.Supervisor(random_supervisor_automaton(rng, alphabet, constraint,
                                                   max_states), constraint)
    return plant, sup, supervisor_damage(rng, sup), attack
