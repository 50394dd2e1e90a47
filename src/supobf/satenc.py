"""CNF encoding of bounded behavior-preserving supervisor existence.

The encoding searches for an ``n``-state supervisor (plus an implicit dump
state with index ``n``) whose completion separates the two marked
languages of a dual-marked product automaton, while satisfying the
controllability and observability constraints of the target control
constraint.

Variables:

* transition variables ``t(i, e, j)``: candidate state ``i`` moves to
  ``j`` on event ``e``.  Only observable events at non-dump rows are real
  solver variables; unobservable events are compile-time self-loop
  constants and the dump row is constantly absorbing.
* reachability variables ``r(i, y)``: lower bounds on reachability of the
  pair (candidate state ``i``, product state ``y``) in the synchronization
  of the candidate's completion with the product.
* parent variables ``p(j, i)`` for rows ``0 <= i < j < n``: ``i`` is the
  smallest row with an edge into ``j``.
* row-activation variables ``u(j)`` for rows ``1 <= j < n``: "row ``j``
  is usable".  Row 0 is always live; without an observable event no
  other row is reachable and no ``p`` or ``u`` variable is allocated.
  Solving under ``size_assumptions(vt, m)`` restricts one ``n``-row
  instance to the rows ``0..m-1``, so several sizes of a climb share one
  solver.

The symmetry-breaking clauses admit only the breadth-first numbering
that ``canonical_key`` uses, so projected onto the transition variables
an instance has one model per isomorphism class: with ``u`` left free,
one per supervisor class of at most ``n`` reachable states, ``u(j)``
holding exactly on the rows reached, which form a prefix; under
``size_assumptions(vt, m)``, one per class of exactly ``m`` reachable
states.

Clause groups:

* transition-function clauses: per row, at-most-one (pairwise) and
  at-least-one successor over ``j in [0, n]``;
* controllability clauses: uncontrollable observable events must have a
  non-dump successor;
* separation clauses: reachability propagation from the initial pair,
  no dump row on A-marked product states, no live row on B-marked ones;
* activation clauses: a disabled row has no reachable pair
  (``¬r(j, y) ∨ u(j)``) and only self-loops (``u(j) ∨ t(j, e, j)``), so
  ``¬u(j)`` fixes the row by propagation alone;
* symmetry-breaking clauses (Ulyantsev, Zakirzyanov & Shalyto, LATA
  2015, for the encoding of Heule & Verwer, ICGI 2010): a usable row has
  a parent, parents are monotone in the row, and siblings are ordered by
  the smallest event on their edges from the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .automata import AutomatonError, DualMarkedDFA, PartialDFA, explore
from .control import ControlConstraint
from .sat import BackendError, SatSolver

Clause = list[int]


@dataclass
class CnfInstance:
    """Clauses over variables ``1..num_vars``, each well formed: distinct
    non-zero literals within that range, none together with its negation.
    The encoder's clauses are so by construction; :func:`parse_dimacs`,
    where outside input arrives, checks its clauses, and
    :func:`solve_instance` relies on it."""

    num_vars: int
    clauses: list[Clause] = field(default_factory=list)


class VarTable:
    """Variable numbering for one encoding instance.

    Transition variables are allocated first (row, then alphabet order,
    then successor), reachability variables after (row, then product-state
    order), then parent variables (child row, then parent row), and
    row-activation variables last (row order), so emitted DIMACS files are
    reproducible.
    """

    def __init__(self, n: int, alphabet, constraint: ControlConstraint,
                 num_product_states: int = 0):
        if n < 1:
            raise AutomatonError("state bound must be at least 1")
        constraint.check_events(alphabet)
        self.n = n
        self.alphabet = alphabet
        self.constraint = constraint
        self.num_product_states = num_product_states
        self.observable = [e for e in alphabet.events if e in constraint.observable]
        self.unobservable = [e for e in alphabet.events
                             if e not in constraint.observable]
        self._t: dict[tuple[int, str, int], int] = {}
        nxt = 1
        for i in range(n):
            for e in self.observable:
                for j in range(n + 1):
                    self._t[(i, e, j)] = nxt
                    nxt += 1
        self._r_base = nxt
        nxt += (n + 1) * num_product_states
        # p(j, i) and u(j) for rows 1..n-1; without an observable event no
        # row past 0 is reachable, and the table allocates neither
        self._u_rows = n - 1 if self.observable else 0
        self._p_base = nxt
        nxt += self._u_rows * (self._u_rows + 1) // 2
        self._u_base = nxt - 1
        nxt += self._u_rows
        self.num_vars = nxt - 1

    def trans_var(self, i: int, event: str, j: int) -> Union[int, bool]:
        """Variable index for t(i, event, j), or a boolean constant for the
        unobservable rows and the dump row."""
        if i == self.n:
            return j == self.n
        if event not in self.constraint.observable:
            return i == j
        return self._t[(i, event, j)]

    def reach_var(self, i: int, y: int) -> int:
        if not (0 <= i <= self.n and 0 <= y < self.num_product_states):
            raise AutomatonError(f"r({i},{y}) out of range")
        return self._r_base + i * self.num_product_states + y

    def parent_var(self, j: int, i: int) -> int:
        if not (1 <= j <= self._u_rows and 0 <= i < j):
            raise AutomatonError(f"p({j},{i}) out of range")
        return self._p_base + j * (j - 1) // 2 + i

    def activation_var(self, j: int) -> int:
        if not 1 <= j <= self._u_rows:
            raise AutomatonError(f"u({j}) out of range")
        return self._u_base + j

    def iter_trans_vars(self):
        for (i, e, j), v in self._t.items():
            yield i, e, j, v

    def iter_reach_vars(self):
        for i in range(self.n + 1):
            for y in range(self.num_product_states):
                yield i, y, self.reach_var(i, y)

    def iter_parent_vars(self):
        for j in range(1, self._u_rows + 1):
            for i in range(j):
                yield j, i, self.parent_var(j, i)

    def iter_activation_vars(self):
        for j in range(1, self._u_rows + 1):
            yield j, self.activation_var(j)


def size_assumptions(vt: VarTable, n: int) -> list[int]:
    """Assumptions that restrict the instance to rows ``0..n-1``:
    ``u(j)`` for ``j < n`` and ``¬u(j)`` for ``j >= n``."""
    if not 1 <= n <= vt.n:
        raise AutomatonError(f"size {n} outside 1..{vt.n}")
    return [v if j < n else -v for j, v in vt.iter_activation_vars()]


def transition_function_clauses(vt: VarTable) -> list[Clause]:
    """Per observable row: pairwise at-most-one and at-least-one successor,
    making the completed candidate's map a total function."""
    out = []
    n = vt.n
    for i in range(n):
        for e in vt.observable:
            row = [vt.trans_var(i, e, j) for j in range(n + 1)]
            for a in range(len(row)):
                for b in range(a + 1, len(row)):
                    out.append([-row[a], -row[b]])
            out.append(list(row))
    return out


def controllability_clauses(vt: VarTable) -> list[Clause]:
    """Uncontrollable observable events need a live (non-dump) successor
    in every row; unobservable ones are self-loop constants already."""
    out = []
    events = [e for e in vt.observable if e not in vt.constraint.controllable]
    for i in range(vt.n):
        for e in events:
            out.append([vt.trans_var(i, e, j) for j in range(vt.n)])
    return out


def separation_clauses(vt: VarTable, product: DualMarkedDFA) -> list[Clause]:
    """Reachability propagation plus the two marking prohibitions.

    For every candidate row pair (i, j), product edge y1 -e-> y2:
    ``r(i,y1) ∧ t(i,e,j) → r(j,y2)``, with constant transition variables
    folded away; then ``¬r(n, y)`` on A-marked states and ``¬r(i, y)`` for
    live rows on B-marked states.
    """
    if vt.num_product_states != product.n_states:
        raise AutomatonError("variable table sized for a different product")
    n = vt.n
    size = product.n_states
    base = vt.reach_var(0, 0)  # r(i, y) is base + i * size + y
    # per event, the (i, j, t) edges of the candidate's completion that
    # can occur, as (r(i, 0), r(j, 0), t, i == j)
    edges = {e: [(base + i * size, base + j * size, t, i == j)
                 for i in range(n + 1) for j in range(n + 1)
                 for t in (vt.trans_var(i, e, j),) if t is not False]
             for e in product.alphabet.events}
    trans = product.trans
    out = [[base + product.initial]]
    for y1 in range(size):
        for e, triples in edges.items():
            y2 = trans[(y1, e)]
            loop = y1 == y2
            for ri, rj, t, same in triples:
                if same and loop:
                    continue  # a tautology
                if t is True:
                    out.append([-(ri + y1), rj + y2])
                else:
                    out.append([-(ri + y1), -t, rj + y2])
    for y in sorted(product.mark_a):
        out.append([-(base + n * size + y)])
    for y in sorted(product.mark_b):
        for i in range(n):
            out.append([-(base + i * size + y)])
    return out


def activation_clauses(vt: VarTable) -> list[Clause]:
    """For every row ``j >= 1``: ``¬r(j, y) ∨ u(j)`` for each product state
    and ``u(j) ∨ t(j, e, j)`` for each observable event."""
    out = []
    for j, u in vt.iter_activation_vars():
        for y in range(vt.num_product_states):
            out.append([-vt.reach_var(j, y), u])
        for e in vt.observable:
            out.append([u, vt.trans_var(j, e, j)])
    return out


def symmetry_clauses(vt: VarTable) -> list[Clause]:
    """Breadth-first numbering of the usable rows, over the observable
    events in alphabet order (unobservable self-loops and the dump row do
    not discover rows), for every row ``j >= 1`` and parent ``i < j``:

    * ``p(j, i) → ∨_e t(i, e, j)`` and ``p(j, i) → ¬t(k, e, j)`` for
      ``k < i``: a parent is the smallest row with an edge into ``j``;
    * ``u(j) → ∨_i p(j, i)``: a usable row has a parent, so it is
      discovered from a smaller row and the usable rows are the reachable
      ones;
    * ``t(i, e, j) → ∨_{k <= i} p(j, k)``: implied by the clauses above,
      and kept because it propagates a bound on the parent from an edge;
    * ``p(j + 1, i) → ∨_{k <= i} p(j, k)``: parents are monotone;
    * ``p(j, i) ∧ t(i, e, j + 1) → ∨_{e' < e} t(i, e', j)``: ``i`` has an
      edge into ``j + 1``, so it is that row's parent too, and the
      smallest event from ``i`` to ``j`` comes before every event from
      ``i`` to ``j + 1``.
    """
    out = []
    obs = vt.observable
    for j, u in vt.iter_activation_vars():
        parents = [vt.parent_var(j, i) for i in range(j)]
        out.append([-u] + parents)
        for i, p in enumerate(parents):
            into = [vt.trans_var(i, e, j) for e in obs]
            out.append([-p] + into)
            out.extend([-t] + parents[:i + 1] for t in into)
            out.extend([-p, -vt.trans_var(k, e, j)] for k in range(i) for e in obs)
            if j + 1 < vt.n:
                out.extend([-p, -vt.trans_var(i, e, j + 1)] + into[:x]
                           for x, e in enumerate(obs))
        if j + 1 < vt.n:
            out.extend([-vt.parent_var(j + 1, i)] + parents[:i + 1]
                       for i in range(j + 1))
    return out


def encode(n: int, product: DualMarkedDFA,
           constraint: ControlConstraint) -> tuple[CnfInstance, VarTable]:
    """Full instance: satisfiable iff an ``n``-bounded behavior-preserving
    supervisor over ``constraint`` exists; under ``size_assumptions(vt, m)``
    iff an ``m``-bounded one exists, and then its models, projected onto
    the transition variables, are the breadth-first numbered supervisors
    of exactly ``m`` reachable states, one per isomorphism class."""
    vt = VarTable(n, product.alphabet, constraint, product.n_states)
    clauses = (transition_function_clauses(vt) + controllability_clauses(vt)
               + separation_clauses(vt, product) + activation_clauses(vt)
               + symmetry_clauses(vt))
    return CnfInstance(vt.num_vars, clauses), vt


@dataclass(frozen=True)
class DecodedSupervisor:
    """Candidate read back from a model: the reachable part only, with
    states renamed ``s<original row>``."""

    automaton: PartialDFA
    rows: tuple[int, ...]  # original candidate rows, ascending


def decode_model(model: dict[int, bool], vt: VarTable) -> DecodedSupervisor:
    """Translate a model into a partial supervisor automaton.

    Successors into the dump row become undefined transitions; unobservable
    events self-loop everywhere (the variable table carries the target
    constraint); only rows reachable from row 0 are kept.
    """
    n = vt.n
    trans_full: dict[tuple[int, str], int] = {}
    for i in range(n):
        for e in vt.observable:
            hits = [j for j in range(n + 1) if model[vt.trans_var(i, e, j)]]
            if len(hits) != 1:
                raise BackendError(f"row ({i},{e}) has {len(hits)} successors")
            if hits[0] < n:
                trans_full[(i, e)] = hits[0]
    rows, _ = explore(0, lambda i: ((e, trans_full[(i, e)])
                                    for e in vt.observable
                                    if (i, e) in trans_full))
    order = sorted(rows)
    remap = {i: k for k, i in enumerate(order)}
    trans = {(remap[i], e): remap[j]
             for (i, e), j in trans_full.items() if i in remap}
    for k in range(len(order)):
        for e in vt.unobservable:
            trans[(k, e)] = k
    aut = PartialDFA(vt.alphabet, tuple(f"s{i}" for i in order), trans, 0, None)
    return DecodedSupervisor(aut, tuple(order))


def blocking_clause(model: dict[int, bool], vt: VarTable,
                    rows: Iterable[int]) -> Clause:
    """Clause forbidding every model that repeats this model's transition
    function on the given (reachable) candidate rows."""
    out = []
    for i in rows:
        for e in vt.observable:
            hit = next(j for j in range(vt.n + 1) if model[vt.trans_var(i, e, j)])
            out.append(-vt.trans_var(i, e, hit))
    return out


def solve_instance(cnf: CnfInstance) -> SatSolver:
    """Load an instance into the in-tree solver in one pass at the root
    (``SatSolver.load_clauses``, whose precondition every
    :class:`CnfInstance` meets) and return it, ready for solve()/blocking.
    The solver copies the clauses, so ``cnf`` stays as it was."""
    backend = SatSolver()
    backend.reserve(cnf.num_vars)
    backend.load_clauses(cnf.clauses)
    return backend


def export_dimacs(cnf: CnfInstance, vt: Optional[VarTable] = None) -> str:
    """Standard DIMACS text; with a variable table, one comment line per
    allocated variable (``c t <row> <event> <row>`` / ``c r <row> <y>`` /
    ``c p <row> <parent>`` / ``c u <row>``)."""
    lines = []
    if vt is not None:
        for i, e, j, v in vt.iter_trans_vars():
            lines.append(f"c t {i} {e} {j} = {v}")
        for i, y, v in vt.iter_reach_vars():
            lines.append(f"c r {i} {y} = {v}")
        for j, i, v in vt.iter_parent_vars():
            lines.append(f"c p {j} {i} = {v}")
        for j, v in vt.iter_activation_vars():
            lines.append(f"c u {j} = {v}")
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    num_vars = 0
    num_clauses = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            if num_vars < 0 or num_clauses < 0:
                raise ValueError(f"negative count in DIMACS header: {line!r}")
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(pending)
    if num_clauses is not None and num_clauses != len(clauses):
        raise ValueError(f"header announced {num_clauses} clauses, found {len(clauses)}")
    for cl in clauses:
        lits = set(cl)
        if len(lits) != len(cl):
            raise ValueError(f"repeated literal in clause: {cl}")
        if any(-l in lits for l in lits):
            raise ValueError(f"tautological clause: {cl}")
        if any(abs(l) > num_vars for l in cl):
            raise ValueError(f"literal outside the header's {num_vars} variables: {cl}")
    return CnfInstance(num_vars, clauses)
