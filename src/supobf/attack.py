"""Non-attackability verification for command-eavesdropping attackers.

Pipeline: build the generalized product of plant, supervisor and damage
automaton, which records each move as the attacker sees it, with the
control command (:func:`~supobf.control.control_command`) the supervisor
issues at the move's target, and each attack event's success and failure
cores; check the damage automaton against the product's cores, so a check
that passes walks the (plant, supervisor, damage) triples once; then
determinize the view with epsilon closure, label each knowledge set with
the attack events that are guaranteed to succeed from it, and stop at the
first labelled set.

The attacker sees a pair per supervisor-observable event: the event itself
when it is attacker-observable (else an epsilon placeholder) and the fresh
control command.  Supervisor-unobservable events produce no observation at
all and are handled by epsilon closure.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .automata import (AutomatonError, PartialDFA, _dot_quote, is_total,
                       path_labels)
from .control import (AttackConstraint, Supervisor, control_command,
                      validate_damage)

Command = tuple[str, ...]          # sorted event tuple
ObsEvent = tuple[Optional[str], Command]   # (seen event or None, command)


class GPAutomaton(NamedTuple):
    """Generalized product over core states (plant, supervisor, damage),
    numbered breadth-first from the initial core 0.

    ``eps`` and ``moves`` are the closed-loop moves as the attacker sees
    them: bare supervisor-unobservable moves are epsilon moves, observable
    ones keep their (seen event, command) pair and may turn
    nondeterministic.  Successor lists keep the order in which the product
    found its moves and may repeat a state; the subset construction reads
    them as sets.

    ``attack`` maps each attackable event, in alphabet order, to the cores
    where it is plant-possible and supervisor-disabled, split in two sets:
    those where firing it inflicts damage (success sink) and those where
    it does not (failure sink)."""

    cores: tuple[tuple[int, int, int], ...]
    eps: dict          # core -> list of epsilon successors
    moves: dict        # core -> {ObsEvent: list of successors}
    attack: dict       # event -> (success cores, failure cores)
    component_names: tuple     # plant, supervisor and damage state names

    @property
    def n_states(self) -> int:
        return len(self.cores)

    @property
    def names(self) -> tuple[str, ...]:
        """Display name of each core, formatted on each read."""
        g, x, h = self.component_names
        return tuple(f"({g[q]},{x[s]},{h[z]})" for q, s, z in self.cores)


def generalized_product(g: PartialDFA, s: Supervisor,
                        h: PartialDFA, ac: AttackConstraint) -> GPAutomaton:
    """Reachable part of the three-way product with attack verdicts.

    A flat breadth-first loop that numbers the cores as :func:`explore`
    would, appends each move to the attacker view as it finds it, and
    records each core's attack verdicts, by event, as it leaves the
    queue.  An observable move into supervisor state ``x`` shows the
    attacker the sorted control command of ``x``."""
    sup = s.automaton
    if g.alphabet.events != sup.alphabet.events:
        raise AutomatonError("operands must share an alphabet")
    if h.marked is None:
        raise AutomatonError("damage automaton needs an explicit marked set")
    if not is_total(h):
        raise AutomatonError("damage automaton is not total")
    if h.alphabet.events != g.alphabet.events:
        raise AutomatonError("plant, supervisor and damage must share an alphabet")
    ac.check_against(s.constraint)

    # what the attacker sees of each supervisor-observable event
    seen = {ev: ev if ev in ac.attacker_observable else None
            for ev in s.constraint.observable}
    commands = [tuple(sorted(control_command(s, x)))
                for x in range(sup.n_states)]
    g_rows, h_rows, marked = g.delta, h.delta, h.marked
    attack = {ev: (set(), set()) for ev in g.alphabet.events
              if ev in ac.attackable}
    # per supervisor state: event -> (target, observation or None for epsilon)
    x_moves = [{ev: (x2, (seen[ev], commands[x2]) if ev in seen else None)
                for ev, x2 in row.items()} for row in sup.delta]
    disabled = [[ev for ev in attack if ev not in row] for row in sup.delta]

    # ``order`` grows while it is walked, which makes it the queue
    start = (g.initial, sup.initial, h.initial)
    index = {start: 0}
    order = [start]
    eps, moves = {}, {}
    for src, (q, x, z) in enumerate(order):
        g_row, h_row, x_row = g_rows[q], h_rows[z], x_moves[x]
        for ev, q2 in g_row.items():
            move = x_row.get(ev)
            if move is None:
                continue
            target = (q2, move[0], h_row[ev])
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
            if move[1] is None:
                eps.setdefault(src, []).append(dst)
            else:
                moves.setdefault(src, {}).setdefault(move[1], []).append(dst)
        for ev in disabled[x]:
            if ev in g_row:
                success, failure = attack[ev]
                (success if h_row[ev] in marked else failure).add(src)
    return GPAutomaton(tuple(order), eps, moves, attack,
                       (g.names, sup.names, h.names))


def project_attacker_view(gp: GPAutomaton) -> GPAutomaton:
    """The product itself, which records the attacker's view; the call
    stays for the tracer's ``attack.view`` span and
    ``tests/test_span_names.py``."""
    return gp


class SubsetAutomaton(NamedTuple):
    """Determinized attacker view, numbered in breadth-first order from
    the initial knowledge set 0.
    ``labels[i]`` is the set of attack events that succeed from knowledge
    set ``i``: some member state turns the event into damage and no other
    member turns it into a detected failure.  A construction stopped at
    its first labelled set holds a prefix of the full one's ``subsets``,
    ``trans`` (in insertion order) and ``labels``."""

    subsets: tuple[frozenset[int], ...]
    trans: dict        # (subset index, ObsEvent) -> subset index
    labels: tuple[frozenset[str], ...]


def _closure(states, eps) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        v = stack.pop()
        for w in eps.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def determinize_and_label(gp: GPAutomaton, *,
                          stop_at_label: bool = False) -> SubsetAutomaton:
    """Subset construction with epsilon closure, labelling each knowledge
    set as it is discovered: a flat breadth-first loop in the order of
    :func:`~supobf.automata.explore`, each set's observations sorted.
    With ``stop_at_label`` it ends right after the edge that discovers the
    first set with a non-empty label, which is then the last set."""
    moves, eps = gp.moves, gp.eps  # a tuple field read costs more
    # an event without a success core can label no set
    verdicts = [(ev, success, failure)
                for ev, (success, failure) in gp.attack.items() if success]

    def label(cur) -> frozenset[str]:
        return frozenset(ev for ev, success, failure in verdicts
                         if not success.isdisjoint(cur)
                         and failure.isdisjoint(cur))

    start = _closure([0], eps)
    index = {start: 0}
    order, trans, labels = [start], {}, [label(start)]
    # ``order`` grows while it is walked, which makes it the queue; under
    # ``stop_at_label`` a labelled newest set ends the walk, and since sets
    # are labelled when found, that is right after its discovering edge
    for src, cur in enumerate(order):
        if stop_at_label and labels[-1]:
            break
        targets: dict[ObsEvent, set[int]] = {}
        for v in cur:
            for obs, dsts in moves.get(v, {}).items():
                targets.setdefault(obs, set()).update(dsts)
        for obs in sorted(targets, key=lambda o: (o[0] or "", o[1])):
            target = _closure(targets[obs], eps)
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
                labels.append(label(target))
            trans[(src, obs)] = dst
            if stop_at_label and labels[-1]:
                break
    return SubsetAutomaton(tuple(order), trans, tuple(labels))


class AttackWitness(NamedTuple):
    """A shortest observation sequence to a labelled knowledge set, the
    set itself (indices into the verdict's ``product``) and the least
    event of its label."""

    observations: tuple[ObsEvent, ...]
    subset: frozenset[int]
    event: str


class AttackVerdict(NamedTuple):
    """Outcome of :func:`non_attackable`.  ``subset_automaton`` is the
    construction the verdict was read from: on an attackable verdict it
    stops at the witness set (its last set), on a non-attackable one it is
    complete.  ``product`` holds the cores its knowledge sets index."""

    non_attackable: bool
    witness: Optional[AttackWitness] = None
    subset_automaton: Optional[SubsetAutomaton] = None
    product: Optional[GPAutomaton] = None


def non_attackable(g: PartialDFA, s: Supervisor, h: PartialDFA,
                   ac: AttackConstraint, validate: bool = True) -> AttackVerdict:
    """True verdict iff every reachable attacker knowledge set has an empty
    attack label.  On the false verdict, the witness carries a shortest
    observation sequence to the first labelled set in breadth-first order
    and the least event of its label."""
    gp = generalized_product(g, s, h, ac)
    if validate:
        report = validate_damage(h, g, s, gp.cores)
        if not report.ok:
            raise AutomatonError(report.problem)
    sub = determinize_and_label(project_attacker_view(gp),
                                stop_at_label=True)
    last = len(sub.subsets) - 1
    if not sub.labels[last]:
        return AttackVerdict(True, None, sub, gp)
    witness = AttackWitness(path_labels(sub.trans, last), sub.subsets[last],
                            min(sub.labels[last]))
    return AttackVerdict(False, witness, sub, gp)


class OracleResult(NamedTuple):
    attackable: bool
    conclusive: bool
    exhausted: bool
    witness: Optional[tuple[tuple[str, ...], str]] = None
    strings_seen: int = 0


def attackable_by_search(g: PartialDFA, s: Supervisor, h: PartialDFA,
                         ac: AttackConstraint, len_bound: int,
                         budget: int = 200_000) -> OracleResult:
    """Bounded brute-force attackability check, used as a test oracle.

    Enumerates closed-loop strings up to ``len_bound``, replays the
    attacker observation of each, groups strings by observation and looks
    for a string and attackable event such that the continuation is
    damaging while every observation-equivalent, plant-possible
    continuation is damaging too.

    The verdict is conclusive when a witness was found or the whole
    closed-loop language was exhausted within the bound and budget; for
    cyclic loops at large bounds the search is truncated and reported
    inconclusive.

    The differential tests compare :func:`non_attackable` against this
    search, so it reads every move through ``step`` and never through the
    per-state ``delta`` tables that the products walk: a fault in those
    tables cannot reach both sides.
    """
    if len_bound < 1:
        raise AutomatonError("length bound must be at least 1")
    if not is_total(h) or h.marked is None:
        raise AutomatonError("damage automaton must be total and marked")
    sup = s.automaton
    observable = s.constraint.observable
    commands = tuple(tuple(sorted(ev for ev in sup.alphabet.events
                                  if sup.step(x, ev) is not None))
                     for x in range(sup.n_states))

    # nodes are (plant, supervisor, damage, observation); several strings
    # can share a node and are interchangeable for the check
    start = (g.initial, sup.initial, h.initial, ())
    rep: dict[tuple, tuple[str, ...]] = {start: ()}
    groups: dict[tuple, set[tuple[int, int, int]]] = {(): {start[:3]}}
    frontier = [start]
    exhausted = True
    seen_count = 1
    for _ in range(len_bound):
        if not frontier:
            break
        nxt_frontier = []
        for (q, x, z, obs) in frontier:
            string = rep[(q, x, z, obs)]
            for ev in g.alphabet.events:
                q2 = g.step(q, ev)
                x2 = sup.step(x, ev)
                if q2 is None or x2 is None:
                    continue
                z2 = h.step(z, ev)
                if ev in observable:
                    seen = ev if ev in ac.attacker_observable else None
                    obs2 = obs + ((seen, commands[x2]),)
                else:
                    obs2 = obs
                node = (q2, x2, z2, obs2)
                if node in rep:
                    continue
                if seen_count >= budget:
                    exhausted = False
                    continue
                rep[node] = string + (ev,)
                groups.setdefault(obs2, set()).add((q2, x2, z2))
                nxt_frontier.append(node)
                seen_count += 1
        frontier = nxt_frontier
    # strings of exactly len_bound length that remain extensible
    if any(g.step(q, ev) is not None and sup.step(x, ev) is not None
           for q, x, _, _ in frontier for ev in g.alphabet.events):
        exhausted = False

    attackable = [e for e in g.alphabet.events if e in ac.attackable]
    for node, string in sorted(rep.items(), key=lambda kv: (len(kv[1]), kv[1])):
        q, x, z, obs = node
        cls = groups[obs]
        for ev in attackable:
            if g.step(q, ev) is None:
                continue
            if sup.step(x, ev) is not None:
                continue
            if not h.is_marked(h.step(z, ev)):
                continue
            # every observation-equivalent, plant-possible continuation
            # must be damaging as well
            if all(g.step(q2, ev) is None or h.is_marked(h.step(z2, ev))
                   for q2, _, z2 in cls):
                return OracleResult(True, True, exhausted, (string, ev), seen_count)
    return OracleResult(False, exhausted, exhausted, None, seen_count)


def subset_to_dot(sub: SubsetAutomaton, gp: GPAutomaton) -> str:
    """Graphviz rendering of the determinized attacker view; labeled
    knowledge sets are highlighted."""
    def fmt_obs(obs: ObsEvent) -> str:
        seen, cmd = obs
        return f"({seen or 'ε'},{{{','.join(cmd)}}})"

    lines = ['digraph "attacker-view" {', "  rankdir=LR;",
             "  __init__ [shape=point];"]
    names = gp.names
    for i, subset in enumerate(sub.subsets):
        members = "{" + ",".join(names[v] for v in sorted(subset)) + "}"
        if sub.labels[i]:
            label = _dot_quote(members,
                               "attack: " + ",".join(sorted(sub.labels[i])))
            lines.append(f"  n{i} [label={label} style=filled fillcolor=lightcoral];")
        else:
            lines.append(f"  n{i} [label={_dot_quote(members)}];")
    lines.append("  __init__ -> n0;")
    for (src, obs), dst in sorted(sub.trans.items(),
                                  key=lambda kv: (kv[0][0], kv[1], str(kv[0][1]))):
        lines.append(f"  n{src} -> n{dst} [label={_dot_quote(fmt_obs(obs))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
