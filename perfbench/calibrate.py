"""Calibration piece: a fixed slice of pure-Python work that the benchmark
times next to every call and every set-up, to measure the host's speed of
the moment.

The host is shared: its speed changes by up to 2x within seconds to
minutes, and CPU time slows with wall time (no steal time is reported),
so neither clock removes the change.  The piece runs code of the kinds
the program runs -- a subset construction over frozensets and dicts, as
in the attack layer, and a clause scan over lists of ints, as in the SAT
layer -- so it slows with the program.  Its work is the same on every
commit: it uses nothing of the program under test.

``scaled(seconds, piece_seconds)`` turns a measured time into reference
seconds: the time the same work would take on a host on which one piece
takes ``REF_PIECE_S``.
"""

from __future__ import annotations

import random
import time

# one piece's time on the host the benchmark was written on (2 vCPU Intel
# Xeon, Python 3.11.7) in its quiet stretches, about its 10th percentile
REF_PIECE_S = 0.011

_rng = random.Random(7)
_STATES, _EVENTS = 22, 3
_NFA = {(s, a): frozenset(_rng.sample(range(_STATES), 2))
        for s in range(_STATES) for a in range(_EVENTS)}
_VARS = 60
_CLAUSES = [[_rng.choice((1, -1)) * _rng.randrange(1, _VARS) for _ in range(3)]
            for _ in range(300)]


def _subsets() -> int:
    start = frozenset([0])
    seen = {start}
    todo = [start]
    while todo:
        S = todo.pop()
        for a in range(_EVENTS):
            T = frozenset().union(*(_NFA[(s, a)] for s in S))
            if T not in seen:
                seen.add(T)
                todo.append(T)
    return len(seen)


def _clause_scan() -> int:
    free_total = 0
    for r in range(80):
        val = [0] * (_VARS + 1)
        for i in range(1, _VARS + 1, 2 + r % 3):
            val[i] = 1 if (i + r) % 2 else -1
        for clause in _CLAUSES:
            free = 0
            for lit in clause:
                v = val[abs(lit)]
                if v == 0:
                    free += 1
                elif (v > 0) == (lit > 0):
                    break
            else:
                free_total += free
    return free_total


def piece() -> float:
    """Seconds one calibration piece takes now."""
    start = time.perf_counter()
    _subsets()
    _clause_scan()
    return time.perf_counter() - start


def scaled(seconds: float, piece_seconds: float) -> float:
    """``seconds`` measured while a piece took ``piece_seconds``, in
    reference seconds."""
    return seconds * REF_PIECE_S / piece_seconds
