"""Spans around the program's public functions, recorded from outside it,
and the per-layer metrics computed from them.

``patched(tracer)`` replaces each traced function where its callers look it
up: the names ``obfuscate.py`` and ``attack.py`` import from the other
modules, the module attributes the benchmark calls through, and
``SatSolver.solve`` on the class.  The package attribute
``supobf.obfuscate`` is the function, so modules are taken from
``sys.modules``.  A function that no longer exists is skipped.  A metric
whose spans were never opened in the traced batch is reported absent
rather than as 0, unless its layer is one the workload never reaches.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory as [name, start, end, parent, call] plus
    integer counters.  While ``active`` is false the wrappers only pass
    calls through (the benchmark's own answer checks run then)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.call = 0
        self.active = True

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.call])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out


def _count_product(t, result):
    t.counts["automata.product_states"] += result.n_states


def _count_encode(t, result):
    cnf, _ = result
    t.counts["satenc.cnf_vars"] += cnf.num_vars
    t.counts["satenc.cnf_clauses"] += len(cnf.clauses)


def _count_gp(t, result):
    t.counts["attack.gp_cores"] += result.n_states


def _count_subsets(t, result):
    t.counts["attack.knowledge_sets"] += len(result.subsets)


def _count_verify(t, result):
    t.counts["attack.verify_calls"] += 1


def _count_obfuscate(t, result):
    t.counts["obfuscate.sizes_tried"] += len(result.trace)
    for row in result.trace:
        t.counts["obfuscate.candidates"] += row.candidates
        t.counts["obfuscate.tested"] += row.tested
        t.counts["obfuscate.resilient"] += row.resilient


# (module, attribute, span name, counter)
TARGETS = [
    ("supobf.problemfile", "parse_problem", "problemfile.parse", None),
    ("supobf.obfuscate", "validate_damage", "control.validate", None),
    ("supobf.obfuscate", "closed_loop", "control.validate", None),
    ("supobf.attack", "validate_damage", "control.validate", None),
    ("supobf.attack", "closed_loop", "control.validate", None),
    ("supobf.obfuscate", "dual_marked_product", "automata.product", _count_product),
    ("supobf.obfuscate", "canonical_key", "automata.canonical_key", None),
    ("supobf.obfuscate", "encode", "satenc.encode", _count_encode),
    ("supobf.obfuscate", "decode_model", "satenc.decode", None),
    ("supobf.obfuscate", "blocking_clause", "satenc.decode", None),
    ("supobf.obfuscate", "solve_instance", "sat.load", None),
    ("supobf.obfuscate", "non_attackable", "attack.verify", _count_verify),
    ("supobf.attack", "non_attackable", "attack.verify", _count_verify),
    ("supobf.attack", "annotate_supervisor", "attack.gp", None),
    ("supobf.attack", "generalized_product", "attack.gp", _count_gp),
    ("supobf.attack", "project_attacker_view", "attack.view", None),
    ("supobf.attack", "determinize_and_label", "attack.subset", _count_subsets),
    ("supobf.obfuscate", "obfuscate", "obfuscate", _count_obfuscate),
]


def _wrap(tracer: Tracer, fn, name: str, count):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, result)
        return result
    return traced


def _wrap_solve(tracer: Tracer, solve):
    def traced(self, *args, **kwargs):
        if not tracer.active:
            return solve(self, *args, **kwargs)
        before = dict(self.stats)
        idx = tracer.open("sat.solve")
        try:
            sat = solve(self, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.spans[idx][0] = "sat.solve_sat" if sat else "sat.solve_unsat"
        c = tracer.counts
        c["sat.solves"] += 1
        c["sat.models"] += bool(sat)
        for k in ("conflicts", "decisions", "propagations"):
            c["sat." + k] += self.stats.get(k, 0) - before.get(k, 0)
        return sat
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    for mod_name, attr, name, count in TARGETS:
        mod = sys.modules.get(mod_name)
        if mod is None or not hasattr(mod, attr):
            continue
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, count))
    solver = getattr(sys.modules.get("supobf.sat"), "SatSolver", None)
    if solver is not None and hasattr(solver, "solve"):
        saved.append((solver, "solve", solver.solve))
        solver.solve = _wrap_solve(tracer, solver.solve)
    try:
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


# per-layer times: metric -> span name whose self time it is
LAYER_TIMES = {
    "problemfile.parse_s": "problemfile.parse",
    "control.validate_s": "control.validate",
    "automata.product_s": "automata.product",
    "automata.canonical_key_s": "automata.canonical_key",
    "satenc.encode_s": "satenc.encode",
    "satenc.decode_s": "satenc.decode",
    "sat.load_s": "sat.load",
    "sat.solve_unsat_s": "sat.solve_unsat",
    "sat.solve_sat_s": "sat.solve_sat",
    "attack.gp_s": "attack.gp",
    "attack.view_s": "attack.view",
    "attack.subset_s": "attack.subset",
    "attack.self_s": "attack.verify",
    "obfuscate.self_s": "obfuscate",
}
SOLVE = ("sat.solve_sat", "sat.solve_unsat")
# per-layer counters: metric -> the spans whose wrapper counts it
LAYER_COUNTS = {
    "automata.product_states": ("automata.product",),
    "satenc.cnf_vars": ("satenc.encode",),
    "satenc.cnf_clauses": ("satenc.encode",),
    "sat.solves": SOLVE,
    "sat.models": SOLVE,
    "sat.conflicts": SOLVE,
    "sat.decisions": SOLVE,
    "sat.propagations": SOLVE,
    "attack.verify_calls": ("attack.verify",),
    "attack.gp_cores": ("attack.gp",),
    "attack.knowledge_sets": ("attack.subset",),
    "obfuscate.sizes_tried": ("obfuscate",),
}
# ratios: metric -> the spans that feed it
LAYER_RATIOS = {
    "sat.models_per_s": ("sat.solve_sat",),
    "obfuscate.resilient_ratio": ("obfuscate",),
    "obfuscate.unique_ratio": ("sat.solve_sat",),
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float,
                  unreached: tuple[str, ...] = ()) -> dict:
    """Per-layer metrics of one traced batch.  A metric none of whose
    spans was opened is left out (absent), except in the ``unreached``
    layers, where it reads 0."""
    selfs = tracer.self_times()
    c = tracer.counts
    ratios = {
        "sat.models_per_s": (_ratio(c["sat.models"],
                                    selfs.get("sat.solve_sat", 0.0)), "1/s"),
        "obfuscate.resilient_ratio": (
            _ratio(c["obfuscate.resilient"], c["obfuscate.tested"]), "ratio"),
        "obfuscate.unique_ratio": (
            _ratio(c["obfuscate.candidates"], c["sat.models"]), "ratio"),
    }
    found = {}
    for metric, span in LAYER_TIMES.items():
        found[metric] = (selfs.get(span, 0.0), "s"), (span,)
    for metric, spans in LAYER_COUNTS.items():
        found[metric] = (c[metric], "count"), spans
    for metric, spans in LAYER_RATIOS.items():
        found[metric] = ratios[metric], spans
    opened = {span[0] for span in tracer.spans}
    out = {}
    for metric, ((value, unit), spans) in found.items():
        if not opened.isdisjoint(spans):
            out[metric] = (value, unit)
        elif metric.split(".")[0] in unreached:
            out[metric] = (0, unit)
    call_spans = sum(v for k, v in selfs.items() if k != "problemfile.parse")
    out["trace.self_sum_s"] = (call_spans, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    return out
