"""Rebuild the draw pools and expected answers: ``pools/<workload>.json``.

Usage, from the repository root::

    python3 perfbench/record.py enum climb verify

Draws are scanned in index order.  Each draw is run once under a time
cap; the acceptance rule of its workload (``RULES``) then keeps it or
records why it was skipped.  The answers of kept draws are cross-checked
with ``attackable_by_search`` wherever that oracle is conclusive.  Once
enough draws are kept, all of them are timed in ``ROUNDS`` interleaved
rounds, each round running every kept draw once, and each draw's time is
its fastest.  A slow stretch of a shared host then slows one round of
every draw instead of every timing of a few draws.  The kept draws,
sorted by that time, are paired with a neighbour within
``PAIR_TOLERANCE``; if that gives fewer pairs than a batch needs, the
scan goes on and all kept draws are timed again.  Kept draws left
without a partner are listed as skipped.

The pools are recorded once, at the commit whose answers they fix; a
later commit that changes an answer is wrong, not the pool.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time

from workloads import (POOLS, WORKLOADS, check_hashseed, digest,
                       obfuscation_answer, verdict_answer)
from gen import draw
from program import load_program

ORACLE_BOUND = 12
ORACLE_BUDGET = 50_000

# (per-call cap in seconds, accept(work) -> skip reason or None)
RULES = {
    "enum": (0.7, lambda w: (
        "climbs fewer than 4 sizes" if w["sizes_tried"] < 4 else None)),
    "climb": (1.0, lambda w: (
        "climbs fewer than 3 sizes" if w["sizes_tried"] < 3 else
        "more than 8 SAT models" if w["models"] > 8 else
        "dual-marked product under 150 states" if w["product_states"] < 150
        else None)),
    "verify": (0.4, lambda w: (
        "generalized product under 50 cores" if w["gp_cores"] < 50 else None)),
}
# the fixed verify call: the first draw with this many knowledge sets
# whose call ends within the cap
STRESS_KNOWLEDGE_SETS = 20_000
STRESS_CAP = 8.0
# interleaved timing rounds over all kept draws; pairing uses each draw's
# fastest time, the least disturbed by other load on the machine
ROUNDS = 10
# largest relative difference between the recorded times of a pair
PAIR_TOLERANCE = 0.04


class _Cap(Exception):
    pass


def _alarm(signum, frame):
    raise _Cap()


def run_call(S, kind, pf, cap):
    """(seconds, answer, work, supervisor) of one call, or None past
    ``cap``; the supervisor is the one the answer says is resilient or
    not: the input's for ``check``, the returned one for ``obfuscate``."""
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        start = time.perf_counter()
        if kind == "check":
            out = S.non_attackable(pf.plant, pf.supervisor, pf.damage,
                                   pf.attack, validate=True)
        else:
            out = S.obfuscate(S.ObfuscationRequest(
                pf.plant, pf.supervisor, pf.control, pf.attack, pf.damage))
        seconds = time.perf_counter() - start
    except _Cap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if kind == "check":
        gp = S.generalized_product(pf.plant, S.annotate_supervisor(pf.supervisor),
                                   pf.damage, pf.attack)
        work = {"gp_cores": gp.n_states,
                "knowledge_sets": len(out.subset_automaton.subsets)}
        return seconds, verdict_answer(out), work, pf.supervisor
    product = S.dual_marked_product(S.complete(pf.plant),
                                    S.complete(pf.supervisor.automaton))
    work = {"sizes_tried": len(out.trace), "models": out.solver_stats["models"],
            "product_states": product.n_states}
    return seconds, obfuscation_answer(S, pf, out), work, out.supervisor


def oracle(S, kind, pf, sup, answer):
    """'agrees' or 'inconclusive'; raises on a conclusive disagreement."""
    if kind == "check":
        program_says = answer["attackable"]
    elif answer["found"]:
        # the synthesized supervisor must be non-attackable
        program_says = False
    else:
        return "inconclusive"
    res = S.attackable_by_search(pf.plant, sup, pf.damage, pf.attack,
                                 ORACLE_BOUND, ORACLE_BUDGET)
    if not res.conclusive:
        return "inconclusive"
    if res.attackable != program_says:
        raise SystemExit(f"oracle disagrees: program {program_says}, "
                         f"oracle {res.attackable}")
    return "agrees"


def record(S, name):
    w = WORKLOADS[name]
    cap, rule = RULES[name]
    kept, fixed, skipped, parsed = [], [], [], {}
    i = 0
    want = 2 * w.pairs
    while True:
        while len(kept) < want or len(fixed) < w.fixed:
            d = draw(w.family, i)
            entry = {"draw": i, "sha256": digest(d.text)}
            stress = len(fixed) < w.fixed
            limit = STRESS_CAP if stress else cap
            pf = S.parse_problem(d.text)
            out = run_call(S, w.call, pf, limit) if d.attackable else None
            target = kept
            if not d.attackable:
                reason = "no attackable event"
            elif out is None:
                reason = f"call over the {limit} s cap"
            elif stress and out[2]["knowledge_sets"] >= STRESS_KNOWLEDGE_SETS:
                target, reason = fixed, None
            elif out[0] > cap:
                reason = f"call took {out[0]:.2f} s, over the {cap} s cap"
            else:
                reason = rule(out[2])
            if reason is None:
                _, answer, work, sup = out
                entry.update(answer=answer, work=work,
                             oracle=oracle(S, w.call, pf, sup, answer))
                target.append(entry)
                parsed[i] = (pf, 10 * limit)
                print(name, i, answer, work, flush=True)
            else:
                skipped.append({"draw": i, "reason": reason})
            i += 1
        time_rounds(S, w.call, fixed + kept, parsed)
        found = len(pair_up(kept)[0])
        print(name, f"{len(kept)} kept draws give {found} pairs", flush=True)
        if found >= w.pairs:
            break
        want = len(kept) + 2 * (w.pairs - found)

    pairs, unpaired = pair_up(kept)
    skipped += [{"draw": e["draw"], "reason": "no other kept draw within "
                 f"{PAIR_TOLERANCE:.0%} of its recorded time"} for e in unpaired]
    skipped += [{"draw": e["draw"], "reason": "pair beyond the batch size"}
                for p in pairs[w.pairs:] for e in p]
    pairs = pairs[:w.pairs]
    pool = {
        "workload": name,
        "recorded_with": f"supobf {S.__version__}",
        "call": w.call,
        "family": w.family.__dict__,
        "rule": RULE_TEXT[name] + "; time all kept draws in "
                f"{ROUNDS} interleaved rounds (recorded: each draw's "
                "fastest), sort by that time, pair neighbours whose times "
                f"differ by at most {PAIR_TOLERANCE:.0%}, scan on until "
                f"there are {w.pairs} pairs",
        "fixed": fixed,
        "pairs": pairs,
        "skipped": sorted(skipped, key=lambda e: e["draw"]),
    }
    check_hashseed(w, [e["draw"] for e in fixed + kept])
    with open(POOLS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


def time_rounds(S, kind, entries, parsed):
    """Set each entry's ``seconds`` to its fastest call over ``ROUNDS``
    rounds, every round calling every entry once."""
    best = {e["draw"]: float("inf") for e in entries}
    # the parsed problems held for the rounds stay out of the collector's
    # reach, as the benchmark keeps its own objects
    gc.freeze()
    for _ in range(ROUNDS):
        for e in entries:
            pf, limit = parsed[e["draw"]]
            best[e["draw"]] = min(best[e["draw"]],
                                  run_call(S, kind, pf, limit)[0])
    gc.unfreeze()
    for e in entries:
        e["seconds"] = round(best[e["draw"]], 4)


def pair_up(kept):
    """Greedy pairing of time-sorted neighbours within ``PAIR_TOLERANCE``:
    (pairs in time order, draws left without a partner)."""
    kept = sorted(kept, key=lambda e: (e["seconds"], e["draw"]))
    pairs, unpaired = [], []
    k = 0
    while k < len(kept):
        if (k + 1 < len(kept) and kept[k + 1]["seconds"]
                <= kept[k]["seconds"] * (1 + PAIR_TOLERANCE)):
            pairs.append(kept[k:k + 2])
            k += 2
        else:
            unpaired.append(kept[k])
            k += 1
    return pairs, unpaired


RULE_TEXT = {
    "enum": "scan draws 0,1,2,...; skip draws without an attackable event, "
            "calls over 0.7 s, and calls that climb fewer than 4 sizes",
    "climb": "scan draws 0,1,2,...; skip draws without an attackable event, "
             "calls over 1.0 s, calls that climb fewer than 3 sizes, calls "
             "with more than 8 SAT models, and dual-marked products under "
             "150 states",
    "verify": "scan draws 0,1,2,...; the fixed call is the first draw with "
              "at least 20000 knowledge sets that ends within 8 s; then skip "
              "draws without an attackable event, calls over 0.4 s and "
              "generalized products under 50 cores",
}


if __name__ == "__main__":
    S = load_program()
    signal.signal(signal.SIGALRM, _alarm)
    for name in sys.argv[1:] or list(WORKLOADS):
        record(S, name)
