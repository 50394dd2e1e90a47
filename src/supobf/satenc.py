"""CNF encoding of bounded behavior-preserving supervisor existence.

The encoding searches for an ``n``-state supervisor (plus an implicit dump
state, the row ``DUMP``) whose completion separates the two marked
languages of a dual-marked product automaton, while satisfying the
controllability and observability constraints of the target control
constraint.  The product is a partial automaton whose marked states are
its A-marked pairs; the unmarked ones are B-marked.

An instance grows one row at a time: :meth:`VarTable.add_row` allocates
the variables of row ``k``, and the clause groups below give the clauses
row ``k`` adds, over those variables and the earlier rows' only.  So a
solver loaded with rows ``0..k-1`` takes row ``k`` as a batch of new
clauses, and :func:`encode` with a table extends it; without one it
builds rows ``0..n-1`` in the same way.

Variables:

* transition variables ``t(i, e, j)``: candidate row ``i`` moves to row
  ``j`` or to ``DUMP`` on event ``e``.  Only observable events at rows
  other than the dump are real solver variables; unobservable events are
  compile-time self-loop constants and the dump row is constantly
  absorbing.  Row ``k`` brings ``t(k, e, j)`` for ``j`` in ``0..k`` and
  ``DUMP``, and the new target column ``t(i, e, k)`` for ``i < k``.
* reachability variables ``r(i, y)``: lower bounds on reachability of the
  pair (candidate row ``i``, product state ``y``) in the synchronization
  of the candidate's completion with the product, over the plant's
  strings only.  Only a live row and an A-marked ``y`` have one; the rest
  are compile-time constants: false on a B-marked ``y`` and on the dump
  row at an A-marked one, true on the dump row at a B-marked one (nothing
  refutes it, and from a B-marked state the product moves only to
  B-marked ones, so setting it true extends any model).
* parent variables ``p(k, i)`` for ``i < k``: ``i`` is the smallest row
  with an edge into ``k``.
* capacity variables ``c(m)``, one per row, ``c(k + 1)`` coming with row
  ``k``: "the instance has ``m`` rows".  The at-least-one successor
  clauses of the instance's current size are guarded by it; row ``k``
  retires ``c(k)`` with the unit clause ``¬c(k)``.  A grown instance is
  solved under the assumption ``c(n)``; :func:`encode` without a table
  asserts it as a unit clause.

The symmetry-breaking clauses admit only the breadth-first numbering
that ``canonical_key`` uses, and every row must be reached, so projected
onto the transition variables an ``n``-row instance under ``c(n)`` has
one model per isomorphism class of supervisors with exactly ``n``
reachable states.

Clause groups, each for one row ``k``, in the order :func:`encode` emits
them (unit clauses early, so that loading folds them into what follows):

* controllability clauses: an uncontrollable observable event never
  leads row ``k`` to the dump (``¬t(k, e, DUMP)``);
* transition-function clauses: pairwise at-most-one over each row's
  successors (the pairs with the new target ``k``, and row ``k``'s own),
  the at-least-one successor clause of every row ``0..k`` over the
  targets ``0..k`` and ``DUMP``, guarded by ``c(k + 1)``, and ``¬c(k)``;
* separation clauses: with row 0 the initial pair ``r(0, y0)``; then
  reachability propagation along the row pairs that involve ``k``, with
  constant literals folded away, which leaves the live rows' edges from
  A-marked states;
* symmetry-breaking clauses (Ulyantsev, Zakirzyanov & Shalyto, LATA
  2015, for the encoding of Heule & Verwer, ICGI 2010): row ``k`` has a
  parent, and between rows ``k - 1`` and ``k`` parents are monotone and
  siblings are ordered by the smallest event on their edges from the
  parent.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .automata import AutomatonError, PartialDFA
from .control import ControlConstraint
from .sat import BackendError, SatSolver

Clause = list[int]

DUMP = -1  # the row index of the dump state, in every table


class CnfInstance(NamedTuple):
    """Clauses over variables ``1..num_vars``, each well formed: distinct
    non-zero literals within that range, none together with its negation.
    The encoder's clauses are so by construction; :func:`parse_dimacs`,
    where outside input arrives, checks its clauses, and
    :func:`solve_instance` relies on it."""

    num_vars: int
    clauses: Sequence[Clause] = ()


class VarTable:
    """Variable numbering of an instance, empty when made and grown one
    row at a time by :meth:`add_row`; ``n`` is its row count.

    Each row's variables are allocated together, in the order the
    module docstring lists them: the new target column (row, then
    alphabet order), the row's own transition variables (alphabet order,
    then successor ``0..k``, ``DUMP``), its reachability variables (one
    per state of ``mark_a``, the product's marked set, its A-marked
    states, in state order; :meth:`reach_var` gives the other pairs'
    constants), its parent variables (parent order) and its capacity
    variable.  Numbering depends on the row count and ``mark_a`` only, so
    two tables grown to the same size number alike and emitted DIMACS
    files are reproducible.
    """

    def __init__(self, alphabet, constraint: ControlConstraint,
                 mark_a: frozenset[int]):
        constraint.check_events(alphabet)
        self.n = 0
        self.num_vars = 0
        self.alphabet = alphabet
        self.constraint = constraint
        self.mark_a = frozenset(mark_a)
        self.observable = [e for e in alphabet.events if e in constraint.observable]
        self.unobservable = [e for e in alphabet.events
                             if e not in constraint.observable]
        self._t: dict[tuple[int, str, int], int] = {}
        # an A-marked state's place in a live row's r block
        self._a = {y: x for x, y in enumerate(sorted(self.mark_a))}
        self._r: dict[int, int] = {}  # live row -> its first r variable
        self._p: dict[tuple[int, int], int] = {}
        self._c: list[int] = []  # c(m) at m - 1

    def _new(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_row(self) -> int:
        """Allocate the variables of the next row and return its index."""
        k = self.n
        self.n += 1
        for e in self.observable:
            for i in range(k):
                self._t[(i, e, k)] = self._new()
        for e in self.observable:
            for j in self.targets():
                self._t[(k, e, j)] = self._new()
        self._r[k] = self.num_vars + 1
        self.num_vars += len(self._a)
        for i in range(k):
            self._p[(k, i)] = self._new()
        self._c.append(self._new())
        return k

    def targets(self) -> list[int]:
        """The successors a row can have: ``0..n-1``, then ``DUMP``."""
        return [*range(self.n), DUMP]

    def trans_var(self, i: int, event: str, j: int) -> Union[int, bool]:
        """Variable index for t(i, event, j), or a boolean constant for the
        unobservable events and the dump row."""
        if i == DUMP:
            return j == DUMP
        if event not in self.constraint.observable:
            return i == j
        return self._t[(i, event, j)]

    def reach_var(self, i: int, y: int) -> Union[int, bool]:
        """Variable index for r(i, y) on a live row and an A-marked state,
        else a constant: true on the dump row at a B-marked state."""
        if i != DUMP and i not in self._r:
            raise AutomatonError(f"r({i},{y}) out of range")
        if y not in self._a:
            return i == DUMP
        return i != DUMP and self._r[i] + self._a[y]

    def parent_var(self, j: int, i: int) -> int:
        if (j, i) not in self._p:
            raise AutomatonError(f"p({j},{i}) out of range")
        return self._p[(j, i)]

    def capacity_var(self, m: int) -> int:
        if not 1 <= m <= self.n:
            raise AutomatonError(f"c({m}) out of range")
        return self._c[m - 1]

    def iter_trans_vars(self):
        for (i, e, j), v in self._t.items():
            yield i, e, j, v

    def iter_reach_vars(self):
        for i, base in self._r.items():
            for y, x in self._a.items():
                yield i, y, base + x

    def iter_parent_vars(self):
        for (j, i), v in self._p.items():
            yield j, i, v

    def iter_capacity_vars(self):
        for m, v in enumerate(self._c, 1):
            yield m, v


def transition_function_clauses(vt: VarTable, k: int) -> list[Clause]:
    """Row ``k``'s share of a total successor function: the at-most-one
    pairs with the new target ``k`` and among row ``k``'s successors, the
    at-least-one successor clause of every row ``0..k`` guarded by
    ``c(k + 1)``, and ``¬c(k)``, which retires the previous capacity."""
    targets = [*range(k + 1), DUMP]
    cap = -vt.capacity_var(k + 1)
    amo, alo = [], []
    for i in range(k + 1):
        for e in vt.observable:
            row = [vt.trans_var(i, e, j) for j in targets]
            alo.append([cap] + row)
            if i < k:  # the pairs with the new target
                new = row[k]
                amo.extend([-t, -new] for t in row if t != new)
            else:
                amo.extend([-row[a], -row[b]] for a in range(len(row))
                           for b in range(a + 1, len(row)))
    if k:
        alo.append([-vt.capacity_var(k)])
    return amo + alo


def controllability_clauses(vt: VarTable, k: int) -> list[Clause]:
    """Uncontrollable observable events never lead row ``k`` to the dump;
    with the at-least-one clauses they have a live successor.
    Unobservable ones are self-loop constants already."""
    return [[-vt.trans_var(k, e, DUMP)] for e in vt.observable
            if e not in vt.constraint.controllable]


def separation_clauses(vt: VarTable, product: PartialDFA,
                       k: int) -> list[Clause]:
    """Row ``k``'s reachability propagation: with row 0 first the unit
    clause ``r(0, y0)`` (the initial pair is A-marked), then, for every
    row pair (i, j) that involves ``k`` and product edge y1 -e-> y2,
    ``r(i,y1) ∧ t(i,e,j) → r(j,y2)``, with constant ``t`` and ``r``
    literals folded away: a clause with a true literal is dropped, a
    false literal is left out.  That leaves the live rows' edges from
    A-marked states."""
    if vt.mark_a != product.marked:
        raise AutomatonError("variable table built for a different product")
    place, base = vt._a, vt._r
    # per event, the edges of the candidate's completion that can occur
    # from a live row and involve row k, as (first r of i, of j or None for
    # the dump, t, i == j); the dump row's clauses all hold by its r
    # constants, since only B-marked states follow a B-marked one
    edges = {e: [(base[i], base.get(j), t, i == j)
                 for i in range(k + 1) for j in (*range(k + 1), DUMP)
                 if (i == k or j == k)
                 and (t := vt.trans_var(i, e, j)) is not False]
             for e in product.alphabet.events}
    out = [[vt.reach_var(0, product.initial)]] if k == 0 else []
    # the product's edges in (state, event) order
    for (y1, e), y2 in product.trans.items():
        p1 = place.get(y1)
        if p1 is None:
            continue  # r(i, y1) is false on a B-marked state
        p2 = place.get(y2)
        for ri, rj, t, same in edges[e]:
            if rj is None or p2 is None:
                if rj is None and p2 is None:
                    continue  # r(DUMP, y2) is true on a B-marked state
                out.append([-(ri + p1)] if t is True else [-(ri + p1), -t])
            elif same and p1 == p2:
                continue  # a tautology
            elif t is True:
                out.append([-(ri + p1), rj + p2])
            else:
                out.append([-(ri + p1), -t, rj + p2])
    return out


def symmetry_clauses(vt: VarTable, k: int) -> list[Clause]:
    """Breadth-first numbering of the rows, over the observable events in
    alphabet order (unobservable self-loops and the dump row do not
    discover rows).  For row ``k >= 1`` and parent ``i < k``:

    * ``∨_i p(k, i)``: row ``k`` has a parent, so it is discovered from a
      smaller row and every row is reachable;
    * ``p(k, i) → ∨_e t(i, e, k)`` and ``p(k, i) → ¬t(m, e, k)`` for
      ``m < i``: a parent is the smallest row with an edge into ``k``;
    * ``t(i, e, k) → ∨_{m <= i} p(k, m)``: implied by the clauses above,
      and kept because it propagates a bound on the parent from an edge;

    and between rows ``j = k - 1`` and ``k``, for ``k >= 2``:

    * ``p(j, i) ∧ t(i, e, k) → ∨_{e' < e} t(i, e', j)``: ``i`` has an
      edge into ``k``, so it is that row's parent too, and the smallest
      event from ``i`` to ``j`` comes before every event from ``i`` to
      ``k``;
    * ``p(k, i) → ∨_{m <= i} p(j, m)``: parents are monotone.

    Without an observable event, ``p(k, i) → ⊥`` leaves row ``k`` no
    parent, and an instance of two or more rows is unsatisfiable.
    """
    if k == 0:
        return []
    obs = vt.observable
    parents = [vt.parent_var(k, i) for i in range(k)]
    out = [list(parents)]
    for i, p in enumerate(parents):
        into = [vt.trans_var(i, e, k) for e in obs]
        out.append([-p] + into)
        out.extend([-t] + parents[:i + 1] for t in into)
        out.extend([-p, -vt.trans_var(m, e, k)] for m in range(i) for e in obs)
    if k >= 2:
        j = k - 1
        earlier = [vt.parent_var(j, i) for i in range(j)]
        for i, p in enumerate(earlier):
            into = [vt.trans_var(i, e, j) for e in obs]
            out.extend([-p, -vt.trans_var(i, e, k)] + into[:x]
                       for x, e in enumerate(obs))
        out.extend([-parents[i]] + earlier[:i + 1] for i in range(k))
    return out


def encode(n: int, product: PartialDFA, constraint: ControlConstraint,
           vt: Optional[VarTable] = None) -> tuple[CnfInstance, VarTable]:
    """Clauses of the rows up to ``n``, with their table.

    Without ``vt``: the whole ``n``-row instance, with the unit clause
    ``c(n)``.  It is satisfiable iff an ``n``-bounded behavior-preserving
    supervisor over ``constraint`` exists, and its models, projected onto
    the transition variables, are the breadth-first numbered supervisors
    of exactly ``n`` reachable states, one per isomorphism class.

    With ``vt``, which must be built for ``product`` and ``constraint``
    (both checked before the table grows): the table is extended in place
    to ``n`` rows and only the added rows' clauses are returned, without
    the unit ``c(n)``, so a solver holding the table's earlier clauses can
    take them and grow again later.  Solved under the assumption ``c(n)``,
    it then has the models above.
    """
    if n < 1:
        raise AutomatonError("state bound must be at least 1")
    fresh = vt is None
    if fresh:
        vt = VarTable(product.alphabet, constraint, product.marked)
    elif constraint != vt.constraint:
        raise AutomatonError("variable table built for a different constraint")
    elif vt.mark_a != product.marked:
        raise AutomatonError("variable table built for a different product")
    clauses = []
    while vt.n < n:
        k = vt.add_row()
        clauses += (controllability_clauses(vt, k)
                    + transition_function_clauses(vt, k)
                    + separation_clauses(vt, product, k)
                    + symmetry_clauses(vt, k))
    if fresh:
        clauses.append([vt.capacity_var(n)])
    return CnfInstance(vt.num_vars, clauses), vt


def decode_model(model: dict[int, bool], vt: VarTable) -> PartialDFA:
    """Translate a model into its supervisor: the rows ``0..vt.n-1``, as
    states ``s0..``.

    Successors into the dump row become undefined transitions, and
    unobservable events self-loop everywhere (the variable table carries
    the target constraint).  Under ``c(vt.n)`` the symmetry breaking
    makes every row reachable and numbers the rows breadth-first, so the
    result is the model's canonical supervisor as it stands.
    """
    targets = vt.targets()
    trans: dict[tuple[int, str], int] = {}
    for i in range(vt.n):
        for e in vt.observable:
            hits = [j for j in targets if model[vt.trans_var(i, e, j)]]
            if len(hits) != 1:
                raise BackendError(f"row ({i},{e}) has {len(hits)} successors")
            if hits[0] != DUMP:
                trans[(i, e)] = hits[0]
    for i in range(vt.n):
        for e in vt.unobservable:
            trans[(i, e)] = i
    return PartialDFA(vt.alphabet, tuple(f"s{i}" for i in range(vt.n)), trans,
                      0, None)


def blocking_clause(candidate: PartialDFA, vt: VarTable) -> Clause:
    """Clause forbidding every model that repeats the transition function
    of ``candidate``, a supervisor :func:`decode_model` read off a model,
    on the rows ``0..vt.n-1``."""
    trans = candidate.trans
    return [-vt.trans_var(i, e, trans.get((i, e), DUMP))
            for i in range(vt.n) for e in vt.observable]


def solve_instance(cnf: CnfInstance,
                   backend: Optional[SatSolver] = None) -> SatSolver:
    """Load an instance into ``backend`` (by default a new in-tree solver)
    in one pass at the root (``SatSolver.load_clauses``, whose
    precondition every :class:`CnfInstance` meets) and return it, ready
    for solve()/blocking.  A solver that has solved before takes the
    clauses of new rows this way, its learned and blocking clauses kept.
    The solver copies the clauses, so ``cnf`` stays as it was."""
    if backend is None:
        backend = SatSolver()
    backend.reserve(cnf.num_vars)
    backend.load_clauses(cnf.clauses)
    return backend


def export_dimacs(cnf: CnfInstance, vt: Optional[VarTable] = None) -> str:
    """Standard DIMACS text; with a variable table, one comment line per
    allocated variable (``c t <row> <event> <row>`` / ``c r <row> <y>``,
    live rows on A-marked states only / ``c p <row> <parent>`` /
    ``c cap <size>``, the dump row written as ``-1``)."""
    lines = []
    if vt is not None:
        for i, e, j, v in vt.iter_trans_vars():
            lines.append(f"c t {i} {e} {j} = {v}")
        for i, y, v in vt.iter_reach_vars():
            lines.append(f"c r {i} {y} = {v}")
        for j, i, v in vt.iter_parent_vars():
            lines.append(f"c p {j} {i} = {v}")
        for m, v in vt.iter_capacity_vars():
            lines.append(f"c cap {m} = {v}")
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
