"""supobf benchmark: one workload, one seed, one process, no threads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload enum --seed 1 --seconds 30 --trace 0

The seed picks the workload's batch of generated ``.prob`` texts (see
``workloads.py``).  Then

1. with ``--trace 0``, the batch runs back to back (a closed loop with one
   caller) until ``--seconds`` have passed, at least ``MIN_REPS`` batches
   ran and at least ``MIN_SAMPLES`` calls are timed, every answer checked
   against the recorded one.  Before every batch the program is set up
   ``SETUPS_PER_BATCH`` times: a fresh ``import supobf`` plus
   ``parse_problem`` of every input.  A calibration piece
   (``calibrate.py``) is timed before every call and every set-up, and
   each batch's times are scaled by its pieces to reference seconds.
   ``wall_s`` and ``setup_s`` are the medians over the batches of the
   scaled batch time and the scaled mean set-up time, ``call_p50_s`` and
   ``call_p90_s`` quantiles of the scaled call times;
2. with ``--trace 1``, untraced and traced batches alternate, and the run
   reports the per-layer metrics of the traced ones plus the tracing
   overhead.

A human-readable table goes to stdout first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from calibrate import REF_PIECE_S, piece, scaled
from program import load_program
from tracing import Tracer, layer_metrics, patched
from workloads import (WORKLOADS, check_answer, check_hashseed, load_pool,
                       obfuscation_answer, select_batch, verdict_answer)

SETUPS_PER_BATCH = 5
MIN_REPS = 5      # batches, so that their median skips slow stretches
MIN_TRACED = 2     # untraced and traced batch pairs in a traced run
MIN_SAMPLES = 100  # so that at least 10 calls lie beyond p90
SPANS_DIR = ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(batch):
    """(seconds, program, parsed problems) of one set-up: a fresh
    ``import supobf`` plus ``parse_problem`` of every input.  The previous
    set-up's program is collected first; afterwards every live object is
    moved out of the collector's reach (``gc.freeze``), so a collection
    during a call costs what it would cost the program alone."""
    gc.unfreeze()
    gc.collect()
    start = time.perf_counter()
    S = load_program(fresh=True)
    problems = [S.parse_problem(inp.text) for inp in batch]
    seconds = time.perf_counter() - start
    gc.freeze()
    return seconds, S, problems


def setup_and_run(kind, batch, failures):
    """``SETUPS_PER_BATCH`` set-ups, then one pass over the batch with the
    last one's program: (set-up seconds, their pieces' seconds, per-call
    seconds, their pieces' seconds)."""
    setups, setup_pieces = [], []
    for _ in range(SETUPS_PER_BATCH):
        setup_pieces.append(piece())
        seconds, S, problems = setup(batch)
        setups.append(seconds)
    pieces: list[float] = []
    times = run_batch(make_call(S, kind), batch, problems, failures,
                      pieces=pieces)
    return setups, setup_pieces, times, pieces


def make_call(S, kind):
    """(call, answer): the library entry point behind ``check`` or
    ``obfuscate``, looked up at call time so trace wrappers are seen, and
    the answer extraction that runs outside the timed region."""
    attack = sys.modules["supobf.attack"]
    obf = sys.modules["supobf.obfuscate"]
    if kind == "check":
        def call(pf):
            return attack.non_attackable(pf.plant, pf.supervisor, pf.damage,
                                         pf.attack, validate=True)
        return call, lambda pf, out: verdict_answer(out)

    def call(pf):
        return obf.obfuscate(S.ObfuscationRequest(
            pf.plant, pf.supervisor, pf.control, pf.attack, pf.damage))
    return call, lambda pf, out: obfuscation_answer(S, pf, out)


def run_batch(call, batch, problems, failures, tracer=None, pieces=None):
    """Per-call seconds for one pass over the batch.  A call that raises or
    answers wrongly is appended to ``failures``.  With a ``pieces`` list, a
    calibration piece is timed before each call and appended to it."""
    run, answer_of = call
    times = []
    for i, (inp, pf) in enumerate(zip(batch, problems)):
        if tracer is not None:
            tracer.call = i
        if pieces is not None:
            pieces.append(piece())
        # every call starts from the same collector state, whichever
        # calls the seed put before it
        gc.collect()
        start = time.perf_counter()
        try:
            out = run(pf)
        except Exception as exc:  # a failed call is counted, not fatal
            times.append(time.perf_counter() - start)
            failures.append(f"draw {inp.draw}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        try:
            wrong = check_answer(answer_of(pf, out), inp.expected)
        except Exception as exc:  # a malformed result is a wrong answer
            wrong = [f"answer check raised {type(exc).__name__}: {exc}"]
        if tracer is not None:
            tracer.active = True
        if wrong:
            failures.append(f"draw {inp.draw}: " + "; ".join(wrong))
    return times


def timed(args, kind, batch):
    failures: list[str] = []
    setups, reps, samples = [], [], []
    start = now = time.perf_counter()
    last = 0.0  # the previous batch with its set-ups, pieces and checks
    while True:
        elapsed = now - start
        if (len(reps) >= MIN_REPS and len(samples) >= MIN_SAMPLES
                and elapsed + last > args.seconds):
            break
        rep = setup_and_run(kind, batch, failures)
        last, now = time.perf_counter() - now, time.perf_counter()
        reps.append(rep)
        setups.extend(rep[0])
        samples.extend(rep[2])
    # each batch's times in reference seconds, scaled by the mean of the
    # calibration pieces timed among them; the median over the batches
    # skips the stretches where the host slowed one kind of work more
    # than the other (NOTES.md)
    batch_s = [scaled(sum(t), statistics.fmean(p)) for _, _, t, p in reps]
    setup_s = [scaled(statistics.fmean(s), statistics.fmean(p))
               for s, p, _, _ in reps]
    call_s = [scaled(x, statistics.fmean(p)) for _, _, t, p in reps for x in t]
    pieces = [x for _, _, _, p in reps for x in p]
    deciles = statistics.quantiles(call_s, n=10)
    metrics = {
        "wall_s": (statistics.median(batch_s), "s"),
        "call_p50_s": (statistics.median(call_s), "s"),
        "call_p90_s": (deciles[8], "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    info = {"batches": len(reps), "calls per batch": len(batch),
            "set-ups": len(setups),
            "calibration piece (median)": f"{statistics.median(pieces):.6g} s,"
            f" reference {REF_PIECE_S:.6g} s",
            "measured batch time (median)":
                f"{statistics.median(sum(t) for _, _, t, _ in reps):.6g} s",
            "measured set-up time (median)": f"{statistics.median(setups):.6g} s",
            "call samples": len(call_s),
            "samples beyond p90": sum(t > deciles[8] for t in call_s),
            "failed_frac": len(failures) / len(samples)}
    return metrics, len(samples), failures, info


def traced(args, kind, batch, unreached):
    failures: list[str] = []
    _, S, problems = setup(batch)
    call = make_call(S, kind)
    plain, runs, spans = [], [], None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = plain[-1] + runs[-1][0] if runs else 0.0
        if len(runs) >= MIN_TRACED and elapsed + last > args.seconds:
            break
        plain.append(sum(run_batch(call, batch, problems, failures)))
        tracer = Tracer()
        with patched(tracer):
            parse = sys.modules["supobf.problemfile"].parse_problem
            parsed = [parse(inp.text) for inp in batch]
            wall = sum(run_batch(call, batch, parsed, failures, tracer))
        runs.append((wall, layer_metrics(tracer, wall, unreached)))
        if spans is None:
            spans = tracer.spans
    first = runs[0][1]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "count":
            metrics[name] = (value, unit)
            if any(r[1][name][0] != value for r in runs):
                print(f"warning: counter {name} differs between batches",
                      file=sys.stderr)
        else:
            metrics[name] = (statistics.median(r[1][name][0] for r in runs), unit)
    untraced = statistics.median(plain)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (metrics["trace.wall_s"][0] / untraced - 1.0), "%")
    write_spans(args, spans)
    attempted = len(batch) * 2 * len(runs)
    info = {"traced batches": len(runs), "calls per batch": len(batch),
            "failed_frac": len(failures) / attempted}
    return metrics, attempted, failures, info


def write_spans(args, spans) -> None:
    """Spans of the first traced batch, one JSON list per line:
    [name, start, end, parent index, call index]."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    batch = select_batch(w, load_pool(w.name), args.seed)
    check_hashseed(w, [inp.draw for inp in batch])
    if args.trace:
        metrics, attempted, failures, info = traced(args, w.call, batch,
                                                    w.unreached)
    else:
        metrics, attempted, failures, info = timed(args, w.call, batch)
    print(f"# workload {w.name}, seed {args.seed}, trace {args.trace}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    for f in failures[:10]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
