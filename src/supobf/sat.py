"""Small deterministic CDCL solver used as the default backend.

The backend contract expected by the encoding layer:

* ``add_clause(lits)``: clauses may be added at any time, including after
  a satisfiable ``solve()`` (blocking clauses for model enumeration);
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
"""

from __future__ import annotations

import heapq
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
        self.clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._value: list[int] = [0]        # 1-indexed, sign-coded
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._activity: list[float] = [0.0]
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
        while self.num_vars < v:
            self.num_vars += 1
            self._value.append(_UNSET)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            heapq.heappush(self._heap, (0.0, self.num_vars))

    def _lit_value(self, lit: int) -> int:
        v = self._value[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit: int, reason: Optional[int]) -> None:
        v = abs(lit)
        self._value[v] = _TRUE if lit > 0 else _FALSE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _bump(self, v: int) -> None:
        self._activity[v] += self._act_inc
        if self._activity[v] > _ACT_LIMIT:
            for u in range(1, self.num_vars + 1):
                self._activity[u] *= 1e-100
            self._act_inc *= 1e-100
        heapq.heappush(self._heap, (-self._activity[v], v))

    # -- clause management -------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; call between solves to block models incrementally."""
        # drop the free decisions; the levels of the last call's
        # assumptions stay (decision level k holds assumption k - 1)
        self._backtrack(len(self._assumed))
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
            self._ensure_var(abs(lit))
            val = self._lit_value(lit)
            if val == _TRUE and self._level[abs(lit)] == 0:
                return  # satisfied at root
            if val == _FALSE and self._level[abs(lit)] == 0:
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
                        if self._lit_value(lit) != _FALSE]
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

    def _attach(self, clause: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(idx)
        self._watches.setdefault(clause[1], []).append(idx)
        return idx

    # -- search ------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            falsified = -lit
            watchers = self._watches.get(falsified, [])
            kept = []
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] == falsified now
                if self._lit_value(clause[0]) == _TRUE:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != _FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                first = clause[0]
                if self._lit_value(first) == _FALSE:
                    kept.extend(watchers[i:])
                    self._watches[falsified] = kept
                    self.stats["conflicts"] += 1
                    return ci
                self._assign(first, ci)
                self.stats["propagations"] += 1
            self._watches[falsified] = kept
        return None

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the backjump level."""
        learned = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause = self.clauses[conflict]
        idx = len(self._trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue  # the literal just resolved on
                v = abs(q)
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self._level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            lit = self._trail[idx]
            v = abs(lit)
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self._reason[v]]
            idx -= 1
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        back = max(self._level[abs(q)] for q in learned[1:])
        # watch a literal from the backjump level in second position
        for k in range(1, len(learned)):
            if self._level[abs(learned[k])] == back:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        mark = self._trail_lim[level]
        for lit in self._trail[mark:]:
            v = abs(lit)
            self._value[v] = _UNSET
            self._reason[v] = None
            heapq.heappush(self._heap, (-self._activity[v], v))
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, mark)

    def _pick_variable(self) -> Optional[int]:
        while self._heap:
            _, v = heapq.heappop(self._heap)
            if self._value[v] == _UNSET:
                return v
        for v in range(1, self.num_vars + 1):
            if self._value[v] == _UNSET:
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
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self._trail_lim:
                    self._unsat = True
                    return False
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learned) == 1:
                    self._assign(learned[0], None)
                else:
                    ci = self._attach(learned)
                    self._assign(learned[0], ci)
                self._act_inc *= _ACT_DECAY
                continue
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                val = self._lit_value(lit)
                if val == _FALSE:
                    return False  # the assumptions contradict the clauses
                self._trail_lim.append(len(self._trail))
                if val == _UNSET:
                    self._assign(lit, None)
                continue
            v = self._pick_variable()
            if v is None:
                return True
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._assign(-v, None)  # false-first polarity

    def model(self) -> dict[int, bool]:
        out = {}
        for v in range(1, self.num_vars + 1):
            if self._value[v] == _UNSET:
                raise BackendError(f"variable {v} unassigned in model")
            out[v] = self._value[v] == _TRUE
        return out
