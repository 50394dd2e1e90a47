"""Small deterministic CDCL solver used as the default backend.

The backend contract expected by the encoding layer:

* ``add_clause(lits)``: clauses may be added at any time, including after
  a satisfiable ``solve()`` (blocking clauses for model enumeration).  It
  checks the literals, non-zero ``int``s and never ``bool``s, all before
  it reserves any variable, as ``solve`` does, then takes one of two
  paths.  A clause whose every literal is false on the trail, as a
  blocking clause is under the model it blocks, is resolved as a
  conflict where it is false (all-solutions practice: Toda & Soh,
  "Implementing efficient all solutions SAT solvers", ACM JEA 2016): it
  is watched on its two highest-level literals, the solver backtracks
  to the highest of their levels, learns the first-UIP clause, backjumps,
  assigns the learned clause's asserting literal and keeps that trail.
  Such a clause false at the root makes the solver permanently
  unsatisfiable; one false only on assumption levels is resolved there
  too, so the next call under those assumptions fails without a
  decision.  Every other clause goes to ``load_clauses``, the one place
  that folds root values in;
* ``load_clauses(clauses)``: bulk loading at the root, the one way a
  clause enters there.  It skips ``add_clause``'s checks, so every
  clause must be well formed: distinct non-zero literals over the
  reserved variables ``1..num_vars``, no literal together with its
  negation (what ``parse_dimacs`` enforces and the encoder produces).
  It folds the root values in: a clause a root value satisfies is
  skipped, literals false at the root are dropped, and what is left is
  attached as a copy, or, a single literal, assigned at the root and
  propagated; an empty clause makes the solver unsatisfiable.  A solver
  that has solved before takes new clauses this way too, after
  ``reserve`` for their new variables;
* ``solve(assumptions=())``: returns True/False.  The assumptions are
  literals that hold for this call only (MiniSat style, Eén & Sörensson,
  "An Extensible SAT-solver", SAT 2003): each one takes its own decision
  level, in order, before any free decision, and a level whose literal is
  already true adds no assignment.  False under assumptions leaves the
  solver usable: only a conflict without assumptions makes it
  permanently unsatisfiable.  Learned and added clauses stay in the
  solver from one call to the next, and so does the trail: a call under
  the last call's assumption list goes on from it as a blocking conflict
  left it, so enumerating under a fixed set redoes only what each
  backjump undid; a call under another list keeps the levels of its
  leading assumptions that match.  On True, ``model()`` yields a total
  assignment over every variable mentioned so far;
* ``stats``: ``decisions``; ``propagations``, the assignments unit
  propagation makes (an asserting literal assigned at a backjump is not
  one); ``solves``; and ``conflicts``, those propagation meets inside
  ``solve`` plus the clauses ``add_clause`` resolves as conflicts;
* runs are deterministic: identical clause and assumption sequences
  produce identical models and statistics.

Conflict analysis is first-UIP with activity-based branching (decayed
scores, lowest index wins ties) and false-first polarity.  Each decision
takes the unassigned variable of highest activity.  The branching heap
holds ``(-activity, variable)`` keys, and every unassigned variable has
one live entry there, its current key (the flag ``_queued``): reserving
a variable queues it, a bump in conflict analysis (always of an
assigned variable) makes its entry stale, and a backtrack queues the
variables it unassigns that have no live entry.  A pick drops stale
entries and the live entries of assigned variables, so an empty heap
means a total assignment.  When a bump takes an activity past
``_ACT_LIMIT``, every activity is scaled down and the heap is rebuilt
from the unassigned variables at their new keys.  There are no restarts;
the solver is complete without them and the instances produced by the
encoder are desk-scale.

Layout: values and watch lists are indexed by the signed literal itself.
Both lists have ``2 * num_vars + 1`` entries ordered ``[unused, +1 ..
+num_vars, -num_vars .. -1]``, so Python's negative indexing maps ``-v``
to its own slot; new variables are inserted in the middle.  A literal's
value is one index (``_TRUE``, ``_FALSE`` or ``_UNSET``), and watch
lists and reasons hold the clause lists themselves.  Levels, reasons and
activities stay indexed by variable.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Optional


class BackendError(RuntimeError):
    """The SAT backend broke its contract (e.g. partial model)."""


_UNSET = 0
_TRUE = 1
_FALSE = -1
_ACT_DECAY = 1.0 / 0.95
_ACT_LIMIT = 1e100


def _check_literals(lits: list) -> None:
    for lit in lits:
        # ``True`` is an int too: an encoder constant left unfolded
        if type(lit) is not int or lit == 0:
            raise ValueError(f"bad literal {lit!r}")


class SatSolver:
    def __init__(self):
        self.num_vars = 0
        self._watches: list[list[list[int]]] = [[]]  # literal-indexed
        self._value: list[int] = [_UNSET]            # literal-indexed
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._activity: list[float] = [0.0]
        self._seen: list[bool] = [False]  # conflict analysis scratch
        self._heap: list[tuple[float, int]] = []
        self._queued: list[bool] = [False]  # a live entry in _heap
        self._act_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat = False
        self._assumed: list[int] = []  # assumptions of the last solve()
        self.stats = {"decisions": 0, "conflicts": 0, "propagations": 0,
                      "solves": 0}

    # -- variable/value plumbing -------------------------------------------

    def reserve(self, v: int) -> None:
        """Declare the variables up to ``v``, so models cover them even
        when no clause mentions them."""
        old = self.num_vars
        if v <= old:
            return
        grow = v - old
        # the slots of +old+1 .. +v and -v .. -old-1 go between +old and -old
        self._value[old + 1:old + 1] = [_UNSET] * (2 * grow)
        self._watches[old + 1:old + 1] = [[] for _ in range(2 * grow)]
        self._level += [0] * grow
        self._reason += [None] * grow
        self._activity += [0.0] * grow
        self._seen += [False] * grow
        self._queued += [True] * grow
        for u in range(old + 1, v + 1):
            heappush(self._heap, (0.0, u))
        self.num_vars = v

    def _assign(self, lit: int, reason: Optional[list[int]]) -> None:
        self._value[lit] = _TRUE
        self._value[-lit] = _FALSE
        v = lit if lit > 0 else -lit
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    # -- clause management -------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; the module docstring gives its two paths."""
        lits = list(lits)
        _check_literals(lits)  # before any variable is reserved
        seen = set()
        clause = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            self.reserve(lit if lit > 0 else -lit)
            clause.append(lit)
        value = self._value
        if not clause or any(value[lit] != _FALSE for lit in clause):
            self.load_clauses([clause])  # well formed now
            return
        # false on the trail, as a blocking clause under its model: a
        # conflict, watched on its two highest-level literals
        level = self._level
        clause.sort(key=lambda lit: level[abs(lit)], reverse=True)
        top = level[abs(clause[0])]
        if top == 0:
            self._unsat = True
            return
        self._backtrack(top)
        if len(clause) > 1:
            self._attach(clause)
        self.stats["conflicts"] += 1
        self._learn(clause)

    def load_clauses(self, clauses: Iterable[list[int]]) -> None:
        """Add well-formed clauses at the root (see the module docstring
        for the precondition); the solver keeps its own copies, since it
        reorders literals in place.  Drops the trail a previous ``solve``
        kept."""
        self._backtrack(0)
        value = self._value
        value_of = value.__getitem__
        watches = self._watches
        for cl in clauses:
            # every assigned literal is at the root here
            if not any(map(value_of, cl)):
                clause = cl[:]
            elif _TRUE in map(value_of, cl):
                continue  # satisfied at the root
            else:
                clause = [lit for lit in cl if value[lit] == _UNSET]
            if len(clause) > 1:
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            elif clause:
                # a unit: it holds from the root on
                self._assign(clause[0], None)
                if self._propagate() is not None:
                    self._unsat = True
            else:
                self._unsat = True

    def _attach(self, clause: list[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # -- search ------------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation from ``_qhead``; returns a conflicting clause."""
        trail = self._trail
        qhead = self._qhead
        if qhead == len(trail):
            return None
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        cur = len(self._trail_lim)
        props = 0
        conflict = None
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            kept = 0
            moved = 0
            # moved watches go to other lists, so ws only changes behind
            # the loop: ws[kept] is a visited slot
            for clause in ws:
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                # clause[1] == falsified now
                if value[first] == _TRUE:
                    ws[kept] = clause
                    kept += 1
                    continue
                n = len(clause)
                if n > 2:
                    # a new watch: the first literal from clause[2] on that
                    # is not false (most clauses are ternary)
                    k = 2
                    if n > 3:
                        while k < n - 1 and value[clause[k]] == _FALSE:
                            k += 1
                    lit = clause[k]
                    if value[lit] != _FALSE:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        moved += 1
                        continue
                ws[kept] = clause
                kept += 1
                if value[first] == _FALSE:
                    conflict = clause
                    break
                value[first] = _TRUE
                value[-first] = _FALSE
                v = first if first > 0 else -first
                level[v] = cur
                reason[v] = clause
                trail.append(first)
                props += 1
            # the moved watches sit in ws[kept:kept + moved]; on a conflict
            # the unvisited ones after them stay
            del ws[kept:kept + moved]
            if conflict is not None:
                break
        self._qhead = qhead
        stats = self.stats
        stats["propagations"] += props
        if conflict is not None:
            stats["conflicts"] += 1
        return conflict

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the backjump level."""
        level = self._level
        reason = self._reason
        seen = self._seen
        activity = self._activity
        queued = self._queued
        trail = self._trail
        inc = self._act_inc
        act_limit = _ACT_LIMIT
        learned = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        clause = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue  # the literal just resolved on
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # bump the activity, which makes v's heap entry stale
                    # (v is assigned: the backtrack queues it again)
                    activity[v] += inc
                    queued[v] = False
                    if activity[v] > act_limit:
                        inc *= 1e-100
                        self._rescale()
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            lit = trail[idx]
            while not seen[lit if lit > 0 else -lit]:
                idx -= 1
                lit = trail[idx]
            v = lit if lit > 0 else -lit
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[v]
            idx -= 1
        self._act_inc = inc
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # the literals below the current level are the only marks left
        back = 0
        for q in learned[1:]:
            v = q if q > 0 else -q
            seen[v] = False
            if level[v] > back:
                back = level[v]
        # watch a literal from the backjump level in second position
        for k in range(1, len(learned)):
            q = learned[k]
            if level[q if q > 0 else -q] == back:
                learned[1], learned[k] = q, learned[1]
                break
        return learned, back

    def _learn(self, conflict: list[int]) -> None:
        """Resolve ``conflict``, false with a literal at the current level:
        backjump, assert the learned clause, decay the activities."""
        learned, back = self._analyze(conflict)
        self._backtrack(back)
        if len(learned) == 1:
            self._assign(learned[0], None)
        else:
            self._attach(learned)
            self._assign(learned[0], learned)
        self._act_inc *= _ACT_DECAY

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        mark = trail_lim[level]
        trail = self._trail
        value = self._value
        activity = self._activity
        queued = self._queued
        heap = self._heap
        # levels and reasons are read only while assigned: they stay
        for lit in trail[mark:]:
            value[lit] = _UNSET
            value[-lit] = _UNSET
            v = lit if lit > 0 else -lit
            if not queued[v]:
                queued[v] = True
                heappush(heap, (-activity[v], v))
        del trail[mark:]
        del trail_lim[level:]
        if self._qhead > mark:
            self._qhead = mark

    def _rescale(self) -> None:
        """Scale every activity down and rebuild the heap from the
        unassigned variables at their new keys."""
        activity = self._activity
        value = self._value
        n = self.num_vars
        for u in range(1, n + 1):
            activity[u] *= 1e-100
        free = [u for u in range(1, n + 1) if value[u] == _UNSET]
        self._heap[:] = [(-activity[u], u) for u in free]
        heapify(self._heap)
        queued = self._queued  # in place: _analyze holds this list
        queued[:] = [False] * (n + 1)
        for u in free:
            queued[u] = True

    def _pick_variable(self) -> Optional[int]:
        """The unassigned variable with the highest activity, the lowest
        index on ties; None when every variable is assigned."""
        heap = self._heap
        value = self._value
        activity = self._activity
        queued = self._queued
        while heap:
            key, v = heappop(heap)
            if key != -activity[v]:
                continue  # pushed before a bump
            queued[v] = False
            if value[v] == _UNSET:
                return v
        return None

    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Search for a model in which every literal of ``assumptions``
        holds; see the module docstring for the contract."""
        assumptions = list(assumptions)
        _check_literals(assumptions)  # before any variable is reserved
        for lit in assumptions:
            self.reserve(abs(lit))
        self.stats["solves"] += 1
        if self._unsat:
            return False
        if assumptions != self._assumed:
            # keep the levels of the last call's assumptions that start
            # this call's list; under the same list the whole trail stays
            keep = 0
            limit = min(len(self._trail_lim), len(self._assumed),
                        len(assumptions))
            while keep < limit and assumptions[keep] == self._assumed[keep]:
                keep += 1
            self._backtrack(keep)
            self._assumed = assumptions
        value = self._value
        trail = self._trail
        trail_lim = self._trail_lim
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not trail_lim:
                    self._unsat = True
                    return False
                self._learn(conflict)
                continue
            level = len(trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                val = value[lit]
                if val == _FALSE:
                    return False  # the assumptions contradict the clauses
                trail_lim.append(len(trail))
                if val == _UNSET:
                    self._assign(lit, None)
                continue
            v = self._pick_variable()
            if v is None:
                return True
            self.stats["decisions"] += 1
            trail_lim.append(len(trail))
            self._assign(-v, None)  # false-first polarity

    def model(self) -> dict[int, bool]:
        value = self._value
        out = {}
        for v in range(1, self.num_vars + 1):
            if value[v] == _UNSET:
                raise BackendError(f"variable {v} unassigned in model")
            out[v] = value[v] == _TRUE
        return out
