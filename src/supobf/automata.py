"""Deterministic partial finite automata over one alphabet: products,
canonical forms.  Every automaton is a :class:`PartialDFA`, the
dual-marked product too, which reads the plant and the supervisor as
given and is marked on its A-pairs.  Walks read the per-state ``delta``
rows; ``step`` stays for the reference checks the tests compare them
against.

All values are immutable after construction; functions return fresh
automata and never mutate their inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, Sequence


class AutomatonError(ValueError):
    """Structurally invalid alphabet, automaton or operation input."""


def _check_event_name(name: str) -> None:
    # a problem file reads '#' as a comment and a line that starts with
    # '[' as a section header, and event names start lines there
    if (not name or any(ch.isspace() for ch in name) or "#" in name
            or name.startswith("[")):
        raise AutomatonError(f"bad event name: {name!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered event set; its order numbers every walk.  The event flags
    belong to the constraints of :mod:`supobf.control`."""

    events: tuple[str, ...]

    def __post_init__(self):
        if not self.events:
            raise AutomatonError("alphabet must be nonempty")
        for e in self.events:
            _check_event_name(e)
        if len(set(self.events)) != len(self.events):
            raise AutomatonError("duplicate event names")


@dataclass(frozen=True)
class PartialDFA:
    """Deterministic partial automaton over an :class:`Alphabet`.

    States are integers ``0 .. len(names)-1``; ``names`` holds display
    names.  ``marked is None`` means every state is marked (the common,
    non-marking case).  The transition map must not be mutated after
    construction: :attr:`delta` caches a table built from it.
    """

    alphabet: Alphabet
    names: tuple[str, ...]
    trans: dict = field(default_factory=dict)  # (state, event) -> state
    initial: int = 0
    marked: Optional[frozenset[int]] = None

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise AutomatonError("automaton needs at least one state")
        if not 0 <= self.initial < n:
            raise AutomatonError(f"initial state {self.initial} out of range")
        evs = set(self.alphabet.events)
        for (src, ev), dst in self.trans.items():
            if not (0 <= src < n and 0 <= dst < n):
                raise AutomatonError(f"transition ({src},{ev},{dst}) out of range")
            if ev not in evs:
                raise AutomatonError(f"transition on unknown event {ev!r}")
        if self.marked is not None and not all(0 <= q < n for q in self.marked):
            raise AutomatonError("marked state out of range")

    @property
    def n_states(self) -> int:
        return len(self.names)

    @cached_property
    def delta(self) -> tuple[dict[str, int], ...]:
        """Per-state successor table: ``delta[q]`` maps each event defined
        at ``q`` to its successor, in alphabet order whatever the insertion
        order of ``trans``, since walks that read it number their states in
        that order.  Built on first use and kept."""
        # bucket the moves by event, then fill the rows event by event
        by_event = {ev: [] for ev in self.alphabet.events}
        for (src, ev), dst in self.trans.items():
            by_event[ev].append((src, dst))
        rows = tuple({} for _ in self.names)
        for ev, moves in by_event.items():
            for src, dst in moves:
                rows[src][ev] = dst
        return rows

    def step(self, state: int, event: str) -> Optional[int]:
        return self.trans.get((state, event))

    def run(self, seq: Iterable[str]) -> Optional[int]:
        """State reached from the initial state, or None if the run dies."""
        state = self.initial
        for ev in seq:
            if ev not in self.alphabet.events:
                raise AutomatonError(f"unknown event {ev!r}")
            state = self.trans.get((state, ev))
            if state is None:
                return None
        return state

    def enabled(self, state: int) -> frozenset[str]:
        return frozenset(self.delta[state])

    def is_marked(self, state: int) -> bool:
        return self.marked is None or state in self.marked


def totalize(p: PartialDFA) -> PartialDFA:
    """Make the transition map total by adding a non-marked absorbing sink,
    named ``sink`` (primed until the name is free), preserving the original
    marked set.  Used for damage automata."""
    if is_total(p):
        return p
    sink_name = "sink"
    while sink_name in p.names:
        sink_name += "'"
    n = p.n_states
    marked = p.marked if p.marked is not None else range(n)
    # every undefined move of ``p`` goes to the sink, state ``n``
    trans = dict(p.trans)
    for q in range(n):
        for ev in p.alphabet.events:
            trans.setdefault((q, ev), n)
    for ev in p.alphabet.events:
        trans[(n, ev)] = n
    return PartialDFA(p.alphabet, p.names + (sink_name,), trans, p.initial,
                      frozenset(marked))


def is_total(p: PartialDFA) -> bool:
    return all((q, ev) in p.trans
               for q in range(p.n_states) for ev in p.alphabet.events)


def explore(start: Hashable,
            successors: Callable[[Hashable], Iterable[tuple[Hashable, Hashable]]]
            ) -> tuple[list, dict]:
    """Breadth-first exploration of the states reachable from ``start``.

    ``successors(state)`` yields ``(label, target)`` pairs.  Returns
    ``(order, trans)``: the reachable states in discovery order, and
    ``trans[(i, label)] = j`` for every pair yielded at ``order[i]``, with
    ``order[j]`` its target, inserted in the order the pairs were yielded.
    Products, subset automata and their renderings all inherit their
    numbering from this order.  ``validate_damage``,
    ``generalized_product`` and ``determinize_and_label`` write this loop
    out flat, in the same order; a check that passes walks the triples
    once, in the product, whose cores the damage check then scans.  The
    callbacks and per-state lists of pairs would cost the product about
    a third of its time.
    """
    index = {start: 0}
    order = [start]
    trans = {}
    # ``order`` grows while it is walked, which makes it the queue
    for src, state in enumerate(order):
        for label, target in successors(state):
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
            trans[(src, label)] = dst
    return order, trans


def path_labels(trans: dict, state: int) -> tuple:
    """Labels of the path from the start of an :func:`explore` to state
    number ``state``, read off its ``trans``: each state's first incoming
    edge in insertion order is the one that discovered it, so the path is
    the breadth-first one, a shortest path."""
    parents = {}
    for (src, label), dst in trans.items():
        parents.setdefault(dst, (src, label))
    path = []
    while state != 0:
        state, label = parents[state]
        path.append(label)
    return tuple(reversed(path))


def sync_product(a: PartialDFA, b: PartialDFA) -> PartialDFA:
    """Synchronous product over one alphabet, keeping only reachable pairs.

    The result is marked only if at least one operand carries a marked
    set, in which case a pair is marked when both components are.
    """
    if a.alphabet.events != b.alphabet.events:
        raise AutomatonError("operands must share an alphabet")
    # every event is shared: walk the left row, in alphabet order
    a_rows, b_rows = a.delta, b.delta

    def successors(pair):
        b_row = b_rows[pair[1]]
        return [(ev, (na, nb)) for ev, na in a_rows[pair[0]].items()
                if (nb := b_row.get(ev)) is not None]

    order, trans = explore((a.initial, b.initial), successors)
    names = tuple(f"({a.names[pa]},{b.names[pb]})" for pa, pb in order)
    if a.marked is None and b.marked is None:
        marked = None
    else:
        marked = frozenset(i for i, (pa, pb) in enumerate(order)
                           if a.is_marked(pa) and b.is_marked(pb))
    return PartialDFA(a.alphabet, names, trans, 0, marked)


def dual_marked_product(g: PartialDFA, s: PartialDFA) -> PartialDFA:
    """Product of a plant ``g`` and a supervisor ``s`` over L(G), marked
    on the pairs that witness the two languages to be separated.  It walks
    the plant's moves only: a separating supervisor may do anything on the
    strings outside L(G).  Where ``s`` has no move the pair goes to the
    supervisor's dump, index ``s.n_states``, named ``dump``, which keeps
    every move.  So the marked pairs, the A-pairs, reach the strings of
    L(G)∩L(S), and the unmarked ones, the B-pairs, those of L(G)−L(S).
    Pairs are named ``(q,x)``, as :func:`sync_product` names them."""
    if g.alphabet.events != s.alphabet.events:
        raise AutomatonError("operands must share an alphabet")
    dump = s.n_states
    # the dump's row is empty, so every event leads back to it
    g_rows, s_rows = g.delta, s.delta + ({},)

    def successors(pair):
        s_row = s_rows[pair[1]]
        return [(ev, (ng, s_row.get(ev, dump)))
                for ev, ng in g_rows[pair[0]].items()]

    order, trans = explore((g.initial, s.initial), successors)
    s_names = s.names + ("dump",)
    names = tuple(f"({g.names[pg]},{s_names[ps]})" for pg, ps in order)
    marked = frozenset(i for i, (_, ps) in enumerate(order) if ps != dump)
    return PartialDFA(g.alphabet, names, trans, 0, marked)


def language_equal(a: PartialDFA, b: PartialDFA):
    """Decide L(a) = L(b) for automata over the same alphabet.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is
    a shortest string in the symmetric difference (found by breadth-first
    search over the product of the two, ``None`` standing for each dump).
    """
    if a.alphabet.events != b.alphabet.events:
        raise AutomatonError("operands must share an alphabet")
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (pa, pb), path = queue.popleft()
        for ev in a.alphabet.events:
            na = a.step(pa, ev) if pa is not None else None
            nb = b.step(pb, ev) if pb is not None else None
            if na is None and nb is None:
                continue
            if na is None or nb is None:
                return False, path + (ev,)
            if (na, nb) not in seen:
                seen.add((na, nb))
                queue.append(((na, nb), path + (ev,)))
    return True, None


def accepts(a: PartialDFA, seq: Sequence[str], marked: bool = False) -> bool:
    """Membership of ``seq`` in L(a), or in L_m(a) when ``marked`` is set."""
    state = a.run(seq)
    if state is None:
        return False
    return a.is_marked(state) if marked else True


def _successors(p: PartialDFA):
    """Successor function of ``p`` for :func:`explore` over its ``delta``
    rows, labelled by the event's index in the alphabet."""
    index = {ev: k for k, ev in enumerate(p.alphabet.events)}
    rows = p.delta
    return lambda q: [(index[ev], dst) for ev, dst in rows[q].items()]


def reachable_states(p: PartialDFA) -> list[int]:
    """Reachable states in breadth-first order."""
    return explore(p.initial, _successors(p))[0]


def canonical_key(p: PartialDFA) -> tuple:
    """Canonical form of the reachable part under breadth-first renumbering.

    Two automata over the same alphabet get the same key exactly when the
    reachable parts are isomorphic (respecting the initial state).  Keys
    are totally ordered, so they double as a deterministic sort key.
    """
    order, trans = explore(p.initial, _successors(p))
    return (len(order), tuple(sorted((i, k, j) for (i, k), j in trans.items())))


def _dot_quote(*lines: str) -> str:
    """A DOT quoted string of ``lines``, escaped and joined by DOT's
    ``\\n`` line break."""
    return '"' + "\\n".join(line.replace("\\", "\\\\").replace('"', '\\"')
                           for line in lines) + '"'


def to_dot(p: PartialDFA, title: str = "automaton") -> str:
    """Graphviz rendering of a partial automaton; marked states are drawn
    as double circles."""
    lines = [f"digraph {_dot_quote(title)} {{", "  rankdir=LR;",
             "  __init__ [shape=point];"]
    for i, name in enumerate(p.names):
        shape = "doublecircle" if p.marked is not None and i in p.marked else "circle"
        lines.append(f"  n{i} [label={_dot_quote(name)} shape={shape}];")
    lines.append(f"  __init__ -> n{p.initial};")
    grouped = {}
    for (src, ev), dst in sorted(p.trans.items(), key=lambda kv: (kv[0][0], kv[1], kv[0][1])):
        grouped.setdefault((src, dst), []).append(ev)
    for (src, dst), evs in grouped.items():
        lines.append(f"  n{src} -> n{dst} [label={_dot_quote(','.join(evs))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
