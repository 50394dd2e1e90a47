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

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .automata import (Alphabet, AutomatonError, PartialDFA, complete,
                       is_total, sync_product)


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


@dataclass
class DamageReport:
    ok: bool
    problems: list[str] = field(default_factory=list)
    witness: Optional[tuple[str, ...]] = None
    warnings: list[str] = field(default_factory=list)


def validate_damage(h: PartialDFA, loop: PartialDFA,
                    plant: Optional[PartialDFA] = None) -> DamageReport:
    """Check a damage automaton against a closed loop.

    Requires a marked set on ``h``; passes iff ``h`` is total and no string
    of the closed-loop language reaches a marked state of ``h``.  When the
    plant is supplied, marked strings that the plant cannot generate are
    reported as a warning (the verification algorithms ignore them).
    """
    if h.marked is None:
        raise AutomatonError("damage automaton needs an explicit marked set")
    report = DamageReport(ok=True)
    if not is_total(h):
        report.ok = False
        report.problems.append("damage automaton is not total")
        return report
    witness = _marked_reach(loop, h)
    if witness is not None:
        report.ok = False
        report.problems.append("closed loop reaches a damage string")
        report.witness = witness
    if plant is not None:
        # a marked h-string the plant cannot generate ends with the
        # completed plant in its dump state
        stray = _marked_reach(complete(plant).inner, h,
                              alive=lambda q: q == plant.n_states)
        if stray is not None:
            report.warnings.append(
                f"damage string not generable by the plant: {' '.join(stray) or 'ε'}")
    return report


def _marked_reach(left: PartialDFA, h: PartialDFA, alive=None):
    """Shortest string tracked by both automata that is marked in ``h``,
    the first such string in shortlex order over ``h``'s alphabet;
    ``alive`` optionally filters the left component's states."""
    marked = h.marked if h.marked is not None else range(h.n_states)
    start = (left.initial, h.initial)
    if h.initial in marked and (alive is None or alive(left.initial)):
        return ()
    left_rows, h_rows = left.delta, h.delta
    # breadth-first over the pairs; ``parent`` holds the edge that
    # discovered each pair, and ``order`` is the queue
    parent = {start: None}
    order = [start]
    for pair in order:
        ql, qh = pair
        left_row = left_rows[ql]
        for ev, nh in h_rows[qh].items():
            nl = left_row.get(ev)
            if nl is None:
                continue
            if nh in marked and (alive is None or alive(nl)):
                path = [ev]
                while parent[pair] is not None:
                    pair, ev = parent[pair]
                    path.append(ev)
                return tuple(reversed(path))
            nxt = (nl, nh)
            if nxt not in parent:
                parent[nxt] = (pair, ev)
                order.append(nxt)
    return None
