"""Supervisory-control layer: constraints, supervisor validity, closed loop.

The constraints alone hold the event flags: :class:`ControlConstraint` the
supervisor's, :class:`AttackConstraint` the attacker's, which
:meth:`AttackConstraint.check_against` ties to the supervisor's.

A supervisor realization must have every uncontrollable event defined at
every state (controllability) and every unobservable event as a self-loop
(the normal form of observability).  The control command at a state is the
set of events defined there; by the two constraints it always contains all
uncontrollable events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .automata import (Alphabet, AutomatonError, PartialDFA, explore,
                       is_total, path_labels, sync_product)


@dataclass(frozen=True)
class ControlConstraint:
    """Controllable and observable event sets, with the normality
    requirement that controllable events are observable."""

    controllable: frozenset[str]
    observable: frozenset[str]

    def __post_init__(self):
        if not self.controllable <= self.observable:
            raise AutomatonError("controllable events must be observable")

    def uncontrollable(self, alphabet: Alphabet) -> frozenset[str]:
        return frozenset(alphabet.events) - self.controllable

    def unobservable(self, alphabet: Alphabet) -> frozenset[str]:
        return frozenset(alphabet.events) - self.observable

    def check_events(self, alphabet: Alphabet) -> None:
        unknown = (self.controllable | self.observable) - set(alphabet.events)
        if unknown:
            raise AutomatonError(f"constraint events not in alphabet: {sorted(unknown)}")


@dataclass(frozen=True)
class AttackConstraint:
    """Events the attacker can enable and events it can observe."""

    attackable: frozenset[str]
    attacker_observable: frozenset[str]

    def __post_init__(self):
        if not self.attackable <= self.attacker_observable:
            raise AutomatonError("attackable events must be attacker-observable")

    def check_against(self, constraint: ControlConstraint) -> None:
        if not self.attackable <= constraint.controllable:
            raise AutomatonError("attackable events must be controllable")
        if not self.attacker_observable <= constraint.observable:
            raise AutomatonError("attacker-observable events must be observable")


class Violation(NamedTuple):
    state: int
    event: str
    kind: str  # "C" (controllability) or "O" (observability normal form)


def check_supervisor(s: PartialDFA, c: ControlConstraint) -> list[Violation]:
    """All (state, event) pairs violating controllability or the
    observability normal form.  Empty list means the automaton is a valid
    supervisor realization over ``c``."""
    c.check_events(s.alphabet)
    uncontrollable = c.uncontrollable(s.alphabet)
    unobservable = c.unobservable(s.alphabet)
    out = []
    for x in range(s.n_states):
        for ev in s.alphabet.events:
            dst = s.step(x, ev)
            if ev in uncontrollable and dst is None:
                out.append(Violation(x, ev, "C"))
            elif ev in unobservable and dst is not None and dst != x:
                out.append(Violation(x, ev, "O"))
    return out


@dataclass(frozen=True)
class Supervisor:
    """A valid supervisor realization paired with its control constraint.

    Construction fails when the automaton violates the constraint; use
    :func:`check_supervisor` to inspect violations first.
    """

    automaton: PartialDFA
    constraint: ControlConstraint

    def __post_init__(self):
        bad = check_supervisor(self.automaton, self.constraint)
        if bad:
            detail = ", ".join(f"({self.automaton.names[v.state]},{v.event},{v.kind})"
                               for v in bad[:5])
            raise AutomatonError(f"invalid supervisor: {detail}"
                                 + (" ..." if len(bad) > 5 else ""))

    @property
    def n_states(self) -> int:
        return self.automaton.n_states


def control_command(s: Supervisor, x: int) -> frozenset[str]:
    """Events the supervisor enables at state ``x``; always a superset of
    the uncontrollable events."""
    if not 0 <= x < s.automaton.n_states:
        raise AutomatonError(f"state {x} out of range")
    return s.automaton.enabled(x)


def closed_loop(g: PartialDFA, s: Supervisor) -> PartialDFA:
    """Plant under supervision: the reachable synchronous product."""
    return sync_product(g, s.automaton)


class DamageReport(NamedTuple):
    """The first problem :func:`validate_damage` found, if any."""

    problem: Optional[str] = None
    witness: Optional[tuple[str, ...]] = None

    @property
    def ok(self) -> bool:
        return self.problem is None


def validate_damage(h: PartialDFA, g: PartialDFA, s: Supervisor,
                    cores: Optional[tuple] = None) -> DamageReport:
    """Check a damage automaton against the plant ``g`` under ``s``.

    The plant and supervisor must share an alphabet and ``h`` needs a
    marked set; then the check passes iff ``h`` is total and no
    closed-loop string reaches a marked state of ``h``.  The witness is
    the first such string in shortlex order over ``h``'s alphabet, found
    by a flat breadth-first walk over the (plant, supervisor, damage)
    triples in :func:`explore`'s order that keeps only each triple's
    discovering edge, all :func:`path_labels` reads.  A check that passes
    raises last if ``h``'s alphabet is not the plant's.  Given the
    ``cores`` of the generalized product of the same automata, exactly
    the triples the walk reaches, it relies on the input checks that
    product made and walks only if a core's damage state is marked.
    """
    sup = s.automaton
    if cores is not None:
        if h.marked.isdisjoint({z for _, _, z in cores}):
            return DamageReport()
    elif g.alphabet.events != sup.alphabet.events:
        raise AutomatonError("operands must share an alphabet")
    elif h.marked is None:
        raise AutomatonError("damage automaton needs an explicit marked set")
    elif not is_total(h):
        return DamageReport("damage automaton is not total")
    g_rows, x_rows, h_rows, marked = g.delta, sup.delta, h.delta, h.marked
    # ``order`` grows while it is walked, which makes it the queue; the
    # first marked triple taken off it is the first one discovered
    order = [(g.initial, sup.initial, h.initial)]
    seen = set(order)
    trans = {}
    for src, (q, x, z) in enumerate(order):
        if z in marked:
            return DamageReport("closed loop reaches a damage string",
                                path_labels(trans, src))
        g_row, x_row = g_rows[q], x_rows[x]
        for ev, z2 in h_rows[z].items():
            if (q2 := g_row.get(ev)) is None or (x2 := x_row.get(ev)) is None:
                continue
            if (core := (q2, x2, z2)) not in seen:
                seen.add(core)
                trans[(src, ev)] = len(order)
                order.append(core)
    if h.alphabet.events != g.alphabet.events:
        raise AutomatonError(
            "plant, supervisor and damage must share an alphabet")
    return DamageReport()


def stray_damage_string(h: PartialDFA,
                        g: PartialDFA) -> Optional[tuple[str, ...]]:
    """The first string in shortlex order over ``h``'s alphabet that ``h``
    marks and the plant ``g`` cannot generate, or None: the path to the
    first stray pair that a full exploration discovers.  The verification
    ignores such strings; ``supobf validate`` warns about them."""
    g_rows, h_rows = g.delta, h.delta

    # None stands for the plant once it has died, and stays None
    def successors(pair):
        q, z = pair
        g_row = g_rows[q] if q is not None else {}
        return [(ev, (g_row.get(ev), z2)) for ev, z2 in h_rows[z].items()]

    order, trans = explore((g.initial, h.initial), successors)
    for i, (q, z) in enumerate(order):
        if q is None and h.is_marked(z):
            return path_labels(trans, i)
    return None
