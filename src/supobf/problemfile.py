"""Text format for problem instances.

A problem file declares the alphabet, the flag sets and three automata::

    [alphabet]
    a b c
    [controllable]
    a c
    [observable]
    a b c
    [attackable]
    c
    [attacker-observable]
    c
    [plant]
    states: q0 q1
    initial: q0
    trans:
    q0 a q1
    [supervisor]
    ...
    [damage]
    states: z0 z1
    initial: z0
    marked: z1
    auto-complete: true
    trans:
    z0 c z1

``#`` starts a comment, tokens are whitespace separated, and a line
that starts with ``[`` is a section header, so no event or state name
starts with ``[``.  Automaton sections take ``states:``, ``initial:``,
optional ``marked:`` (an empty list is meaningful: no marked states) and
optional ``auto-complete: true`` to add a non-marked absorbing sink,
each at most once.  Everything after ``trans:`` is one transition per line.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .automata import Alphabet, AutomatonError, PartialDFA, totalize
from .control import AttackConstraint, ControlConstraint, Supervisor

_EVENT_SECTIONS = ("alphabet", "controllable", "observable", "attackable",
                   "attacker-observable")
_AUTOMATON_SECTIONS = ("plant", "supervisor", "damage")


class ParseError(ValueError):
    """Input error at ``line``, or in the file as a whole when ``line`` is
    None (a missing section)."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ProblemFile(NamedTuple):
    alphabet: Alphabet
    plant: PartialDFA
    supervisor: Supervisor
    damage: PartialDFA
    control: ControlConstraint
    attack: AttackConstraint


def _tokenize(text: str):
    """(line number, tokens) for every non-empty line, comments stripped."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line.split()


def _split_sections(text: str):
    """``(sections, headers)``: each section's (line number, tokens) lines
    and the line number of its header."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    headers: dict[str, int] = {}
    current = None
    for no, toks in _tokenize(text):
        if toks[0].startswith("["):
            header = " ".join(toks)
            if not header.endswith("]"):
                raise ParseError(no, f"malformed section header {header!r}")
            name = header[1:-1].strip()
            if name not in _EVENT_SECTIONS + _AUTOMATON_SECTIONS:
                raise ParseError(no, f"unknown section [{name}]")
            if name in sections:
                raise ParseError(no, f"duplicate section [{name}]")
            sections[name] = []
            headers[name] = no
            current = name
        elif current is None:
            raise ParseError(no, f"content before any section: {' '.join(toks)}")
        else:
            sections[current].append((no, toks))
    return sections, headers


def _event_list(sections, name, alphabet_events=None) -> list[str]:
    if name not in sections:
        raise ParseError(None, f"missing section [{name}]")
    events = [tok for _, toks in sections[name] for tok in toks]
    if alphabet_events is not None:
        for no, toks in sections[name]:
            for tok in toks:
                if tok not in alphabet_events:
                    raise ParseError(no, f"event {tok!r} not declared in [alphabet]")
    return events


def _parse_automaton(sections, headers, name: str,
                     alphabet: Alphabet) -> PartialDFA:
    if name not in sections:
        raise ParseError(None, f"missing section [{name}]")
    lines = sections[name]
    states: Optional[list[str]] = None
    initial: Optional[str] = None
    marked: Optional[list[str]] = None
    auto_complete = False
    trans_lines: list[tuple[int, list[str]]] = []
    in_trans = False
    header_line = lines[0][0] if lines else headers[name]
    key_line: dict[str, int] = {}
    for no, toks in lines:
        if in_trans:
            trans_lines.append((no, toks))
            continue
        key = toks[0]
        if key in key_line:
            raise ParseError(no, f"repeated {key} in [{name}]")
        key_line[key] = no
        if key == "states:":
            states = toks[1:]
            if not states:
                raise ParseError(no, "states: needs at least one state")
            if len(set(states)) != len(states):
                raise ParseError(no, "duplicate state names")
            for s in states:
                # a transition line that starts with it would read as a
                # section header
                if s.startswith("["):
                    raise ParseError(no, f"state name {s!r} starts with '['")
        elif key == "initial:":
            if len(toks) != 2:
                raise ParseError(no, "initial: needs exactly one state")
            initial = toks[1]
        elif key == "marked:":
            marked = toks[1:]
        elif key == "auto-complete:":
            if toks[1:] not in (["true"], ["false"]):
                raise ParseError(no, "auto-complete: takes true or false")
            auto_complete = toks[1] == "true"
        elif key == "trans:":
            if toks[1:]:
                raise ParseError(no, "trans: takes no inline tokens")
            in_trans = True
        else:
            raise ParseError(no, f"unknown key {key!r} in [{name}]")
    if states is None:
        raise ParseError(header_line, f"[{name}] is missing states:")
    if initial is None:
        raise ParseError(header_line, f"[{name}] is missing initial:")
    index = {s: i for i, s in enumerate(states)}
    if initial not in index:
        raise ParseError(key_line["initial:"],
                         f"initial state {initial!r} not declared")
    trans = {}
    for no, toks in trans_lines:
        if len(toks) != 3:
            raise ParseError(no, f"transition needs 3 tokens, got {len(toks)}")
        src, ev, dst = toks
        if src not in index:
            raise ParseError(no, f"state {src!r} not declared")
        if dst not in index:
            raise ParseError(no, f"state {dst!r} not declared")
        if ev not in alphabet.events:
            raise ParseError(no, f"event {ev!r} not declared in [alphabet]")
        if (index[src], ev) in trans:
            raise ParseError(no, f"duplicate transition from {src!r} on {ev!r}")
        trans[(index[src], ev)] = index[dst]
    marked_set = None
    if marked is not None:
        for s in marked:
            if s not in index:
                raise ParseError(key_line["marked:"],
                                 f"marked state {s!r} not declared")
        marked_set = frozenset(index[s] for s in marked)
    aut = PartialDFA(alphabet, tuple(states), trans, index[initial], marked_set)
    if auto_complete:
        aut = totalize(aut)
    return aut


def _alphabet_fault_line(sections, headers, message: str) -> int:
    """The first line of [alphabet] whose events, with those above it,
    fail with ``message``: the line of the first bad or repeated event,
    or the header of an empty section."""
    events = []
    for no, toks in sections["alphabet"]:
        events += toks
        try:
            Alphabet(tuple(events))
        except AutomatonError as exc:
            if str(exc) == message:
                return no
    return headers["alphabet"]


def parse_problem(text: str, repair_selfloops: bool = False) -> ProblemFile:
    """Parse and validate a problem file.

    ``repair_selfloops`` adds the unobservable self-loops the supervisor
    normal form mandates when the input omits them.
    """
    sections, headers = _split_sections(text)
    events = _event_list(sections, "alphabet")
    flags = {name: frozenset(_event_list(sections, name, set(events)))
             for name in _EVENT_SECTIONS[1:]}
    try:
        alphabet = Alphabet(tuple(events))
        control = ControlConstraint(flags["controllable"], flags["observable"])
        attack = AttackConstraint(flags["attackable"],
                                  flags["attacker-observable"])
        attack.check_against(control)
    except AutomatonError as exc:
        # "<subject> events must be <bound>": at the subject's first event
        # outside the bound; else an [alphabet] fault
        subject, _, bound = str(exc).partition(" events must be ")
        if bound:
            line = next(no for no, toks in sections[subject]
                        if not flags[bound].issuperset(toks))
        else:
            line = _alphabet_fault_line(sections, headers, str(exc))
        raise ParseError(line, str(exc)) from exc

    plant = _parse_automaton(sections, headers, "plant", alphabet)
    sup_aut = _parse_automaton(sections, headers, "supervisor", alphabet)
    damage = _parse_automaton(sections, headers, "damage", alphabet)

    if repair_selfloops:
        sup_aut = add_unobservable_selfloops(sup_aut, control)
    supervisor = Supervisor(sup_aut, control)
    return ProblemFile(alphabet, plant, supervisor, damage, control, attack)


def add_unobservable_selfloops(aut: PartialDFA,
                               constraint: ControlConstraint) -> PartialDFA:
    # state by state, in alphabet order
    unobservable = [ev for ev in aut.alphabet.events
                    if ev not in constraint.observable]
    missing = {(x, ev): x for x in range(aut.n_states) for ev in unobservable
               if (x, ev) not in aut.trans}
    if not missing:
        return aut
    trans = dict(aut.trans)
    trans.update(missing)
    return PartialDFA(aut.alphabet, aut.names, trans, aut.initial, aut.marked)


def load_problem(path: str, repair_selfloops: bool = False) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), repair_selfloops)


def emit_automaton_section(name: str, aut: PartialDFA) -> str:
    lines = [f"[{name}]", "states: " + " ".join(aut.names),
             f"initial: {aut.names[aut.initial]}"]
    if aut.marked is not None:
        lines.append("marked: " + " ".join(aut.names[q] for q in sorted(aut.marked)))
    lines.append("trans:")
    for src, row in enumerate(aut.delta):
        lines.extend(f"{aut.names[src]} {ev} {aut.names[dst]}"
                     for ev, dst in row.items())
    return "\n".join(lines) + "\n"


def emit_problem(pf: ProblemFile) -> str:
    events = pf.alphabet.events
    def ordered(group):
        return " ".join(e for e in events if e in group)
    parts = [
        "[alphabet]", " ".join(events),
        "[controllable]", ordered(pf.control.controllable),
        "[observable]", ordered(pf.control.observable),
        "[attackable]", ordered(pf.attack.attackable),
        "[attacker-observable]", ordered(pf.attack.attacker_observable),
    ]
    text = "\n".join(parts) + "\n"
    text += emit_automaton_section("plant", pf.plant)
    text += emit_automaton_section("supervisor", pf.supervisor.automaton)
    text += emit_automaton_section("damage", pf.damage)
    return text
