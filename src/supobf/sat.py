"""Small deterministic CDCL solver used as the default backend.

The backend contract expected by the encoding layer:

* ``add_clause(lits)``: clauses may be added at any time, including after
  a satisfiable ``solve()`` (blocking clauses for model enumeration);
* ``load_clauses(clauses)``: bulk loading at the root, with the effect of
  ``add_clause`` on each clause in order.  It skips ``add_clause``'s
  checks, so every clause must be well formed: distinct non-zero
  literals over the reserved variables ``1..num_vars``, no literal
  together with its negation (what ``parse_dimacs`` enforces and the
  encoder produces).  A clause of two or more literals none of which is
  assigned at the root is attached as a copy; the others (unit clauses,
  clauses touching a root value) go through ``add_clause``;
* ``solve(assumptions=())``: returns True/False.  The assumptions are
  literals that hold for this call only (MiniSat style, Eén & Sörensson,
  "An Extensible SAT-solver", SAT 2003): each one takes its own decision
  level, in order, before any free decision, and a level whose literal is
  already true adds no assignment.  False under assumptions leaves the
  solver usable: only a conflict without assumptions makes it
  permanently unsatisfiable.  Learned and added clauses stay in the
  solver from one call to the next.  The assumption levels of a call
  stay on the trail after it: a clause added next keeps them when two of
  its literals are not false there, and the next call reuses those of
  its leading assumptions that match, so blocking models one by one
  under a fixed assumption set does not re-propagate the set each time.
  On True, ``model()`` yields a total assignment over every variable
  mentioned so far;
* runs are deterministic: identical clause and assumption sequences
  produce identical models and statistics.

Conflict analysis is first-UIP with activity-based branching (decayed
scores, lowest index wins ties) and false-first polarity.  There are no
restarts; the solver is complete without them and the instances produced
by the encoder are desk-scale.

Layout: values and watch lists are indexed by the signed literal itself.
Both lists have ``2 * num_vars + 1`` entries ordered ``[unused, +1 ..
+num_vars, -num_vars .. -1]``, so Python's negative indexing maps ``-v``
to its own slot; new variables are inserted in the middle.  A literal's
value is one index (``_TRUE``, ``_FALSE`` or ``_UNSET``), and watch
lists and reasons hold the clause lists themselves.  Levels, reasons and
activities stay indexed by variable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Optional


class BackendError(RuntimeError):
    """The SAT backend broke its contract (e.g. partial model)."""


_UNSET = 0
_TRUE = 1
_FALSE = -1
_ACT_DECAY = 1.0 / 0.95
_ACT_LIMIT = 1e100


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
        self._act_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat = False
        self._assumed: list[int] = []  # assumptions of the last solve()
        self.stats = {"decisions": 0, "conflicts": 0, "propagations": 0,
                      "solves": 0}

    # -- variable/value plumbing -------------------------------------------

    def reserve(self, num_vars: int) -> None:
        """Pre-declare variables so models cover them even when unmentioned."""
        self._ensure_var(num_vars)

    def _ensure_var(self, v: int) -> None:
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
        """Add a clause; call between solves to block models incrementally."""
        # drop the free decisions; the levels of the last call's
        # assumptions stay (decision level k holds assumption k - 1)
        self._backtrack(len(self._assumed))
        value = self._value
        level = self._level
        seen = set()
        clause = []
        for lit in lits:
            if lit == 0 or not isinstance(lit, int):
                raise ValueError(f"bad literal {lit!r}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            v = lit if lit > 0 else -lit
            self._ensure_var(v)
            val = value[lit]
            if val != _UNSET and level[v] == 0:
                if val == _TRUE:
                    return  # satisfied at root
                continue  # falsified at root, drop the literal
            clause.append(lit)
        if not clause:
            self._unsat = True
            return
        if len(clause) > 1:
            if self._trail_lim:
                # watch two literals that are not false on the kept
                # assumption levels; without two, add the clause at the root
                free = [k for k, lit in enumerate(clause)
                        if value[lit] != _FALSE]
                if len(free) < 2:
                    self._backtrack(0)
                elif free[:2] != [0, 1]:
                    a, b = free[:2]
                    clause = ([clause[a], clause[b]]
                              + [l for k, l in enumerate(clause)
                                 if k not in (a, b)])
            self._attach(clause)
            return
        # a unit clause holds from the root on; its literal is unassigned
        # there, since root values were folded in above
        self._backtrack(0)
        self._assign(clause[0], None)
        if self._propagate() is not None:
            self._unsat = True

    def load_clauses(self, clauses: Iterable[list[int]]) -> None:
        """Add well-formed clauses at the root (see the module docstring
        for the precondition); the solver keeps its own copies, since it
        reorders literals in place.  Drops the assumption levels a previous
        ``solve`` kept."""
        self._backtrack(0)
        value = self._value
        watches = self._watches
        root = self._trail  # every assignment on it is at the root here
        for cl in clauses:
            if len(cl) > 1:
                for lit in cl if root else ():
                    if value[lit] != _UNSET:
                        break
                else:
                    clause = cl[:]
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
                    continue
            # a unit clause, or one with a root value: add_clause folds it in
            self.add_clause(cl)

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
            i = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
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
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != _FALSE:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        break
                else:
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
            # the moved watches sit in ws[kept:i]; on a conflict the
            # unvisited ones after them stay
            del ws[kept:i]
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
        heap = self._heap
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
                    # bump the activity; rescale all of them past the limit
                    activity[v] += inc
                    if activity[v] > act_limit:
                        for u in range(1, self.num_vars + 1):
                            activity[u] *= 1e-100
                        inc *= 1e-100
                    heappush(heap, (-activity[v], v))
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

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        mark = trail_lim[level]
        trail = self._trail
        value = self._value
        activity = self._activity
        heap = self._heap
        # levels and reasons are read only while assigned: they stay
        for lit in trail[mark:]:
            value[lit] = _UNSET
            value[-lit] = _UNSET
            v = lit if lit > 0 else -lit
            heappush(heap, (-activity[v], v))
        del trail[mark:]
        del trail_lim[level:]
        if self._qhead > mark:
            self._qhead = mark

    def _pick_variable(self) -> Optional[int]:
        heap = self._heap
        value = self._value
        while heap:
            v = heappop(heap)[1]
            if value[v] == _UNSET:
                return v
        for v in range(1, self.num_vars + 1):
            if value[v] == _UNSET:
                return v
        return None

    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """Search for a model in which every literal of ``assumptions``
        holds; see the module docstring for the contract."""
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0 or not isinstance(lit, int):
                raise ValueError(f"bad literal {lit!r}")
            self._ensure_var(abs(lit))
        self.stats["solves"] += 1
        if self._unsat:
            return False
        # keep the levels of the last call's assumptions that start this
        # call's list too; they are still fully propagated
        keep = 0
        limit = min(len(self._trail_lim), len(self._assumed), len(assumptions))
        while keep < limit and assumptions[keep] == self._assumed[keep]:
            keep += 1
        self._backtrack(keep)
        self._assumed = assumptions
        if not self._trail_lim and self._propagate() is not None:
            self._unsat = True
            return False
        value = self._value
        trail = self._trail
        trail_lim = self._trail_lim
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not trail_lim:
                    self._unsat = True
                    return False
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learned) == 1:
                    self._assign(learned[0], None)
                else:
                    self._attach(learned)
                    self._assign(learned[0], learned)
                self._act_inc *= _ACT_DECAY
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
