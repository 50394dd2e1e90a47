"""Workload definitions, per-seed batch selection and answer checking.

Each workload is a pool of generated draws recorded in ``pools/<name>.json``
by ``record.py``: the acceptance rule, the expected answer of every pooled
draw, the skipped draws with their reasons, and the pairing used by the
seed.  Pooled draws come in pairs matched on their recorded call time;
``--seed`` picks one draw of every pair, so every seed runs different
inputs of nearly the same total cost.  A workload can also name
``fixed`` draws that every seed runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from gen import Family, draw

POOLS = Path(__file__).resolve().parent / "pools"


@dataclass(frozen=True)
class Workload:
    """A batch holds ``fixed + pairs`` calls.  Batches of 15 or 25 calls
    put the pooled p50 and p90 in the middle of one call's block of
    repeated samples, so each quantile reads one call's time instead of
    interpolating between two neighbouring calls."""

    name: str
    call: str          # "obfuscate" or "check"
    family: Family
    pairs: int         # calls per batch drawn from matched pairs
    fixed: int = 0     # calls per batch that every seed runs
    # layers the workload's entry point never reaches: their per-layer
    # metrics read 0, so every traced result names every metric
    unreached: tuple[str, ...] = ()


WORKLOADS = {
    # ~10-state plants under 6-state supervisors: every call climbs to
    # size 4, 5 or 6, proving the smaller sizes UNSAT and enumerating all
    # models at the sizes with candidates, with blocking clauses
    "enum": Workload("enum", "obfuscate",
                     Family(plant_states=10, sup_states=6, events=3,
                            p_plant_edge=0.6, p_sup_edge=0.6,
                            p_observable=0.9, p_controllable=0.7,
                            p_attacker_observable=0.7, p_attackable=0.8),
                     pairs=15),
    # ~100-state plants under 3-state supervisors: a large product and CNF
    # at every size, but easy SAT calls and one or two models
    "climb": Workload("climb", "obfuscate",
                      Family(plant_states=100, sup_states=3, events=4,
                             p_plant_edge=0.5, p_sup_edge=0.6,
                             p_observable=0.9, p_controllable=0.7,
                             p_attacker_observable=0.7, p_attackable=0.8),
                      pairs=15),
    # ~60-state plants under 7-state supervisors with partial observation:
    # mostly small subset constructions plus one large fixed one
    "verify": Workload("verify", "check",
                       Family(plant_states=60, sup_states=7, events=5,
                              p_plant_edge=0.5, p_sup_edge=0.6,
                              p_observable=0.7, p_controllable=0.7,
                              p_attacker_observable=0.4, p_attackable=0.9),
                       pairs=24, fixed=1,
                       unreached=("automata", "satenc", "sat", "obfuscate")),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pool(name: str) -> dict:
    with open(POOLS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Input:
    draw: int
    text: str
    expected: dict


def select_batch(w: Workload, pool: dict, seed: int) -> list[Input]:
    """The batch for ``seed``: the fixed draws plus one draw of every
    matched pair, in pool order, so the garbage collector meets the calls
    in the same order on every seed.  Regenerates each text and checks it
    against the digest recorded with its expected answer."""
    rng = random.Random(seed)
    entries = list(pool["fixed"])
    entries += [pair[rng.randrange(2)] for pair in pool["pairs"]]
    batch = []
    for e in entries:
        text = draw(w.family, e["draw"]).text
        if digest(text) != e["sha256"]:
            raise RuntimeError(f"{w.name} draw {e['draw']}: generated text "
                               "differs from the recorded one")
        batch.append(Input(e["draw"], text, e["answer"]))
    return batch


def check_hashseed(w: Workload, draws) -> None:
    """Generate ``draws`` in two child processes, under PYTHONHASHSEED 0
    and 1; both must print the digests this process computes."""
    want = "".join(f"{d} {digest(draw(w.family, d).text)}\n" for d in draws)
    cmd = [sys.executable, str(Path(__file__).with_name("gen.py")), w.name]
    cmd += [str(d) for d in draws]
    for seed in ("0", "1"):
        out = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED=seed),
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        if out != want:
            raise SystemExit(f"{w.name}: generated bytes depend on "
                             "PYTHONHASHSEED")


# -- answer checking ------------------------------------------------------
#
# Checks read only what later optimisations keep: verdicts, witness events
# and lengths, found flags, sizes, and the returned supervisor's language,
# constraint and resilience.  Supervisor identity and state names are not
# compared.


def check_answer(answer: dict, expected: dict) -> list[str]:
    """Differences from the expected answer, plus any problem found in the
    returned supervisor; empty when the call was right."""
    out = [f"{k}: got {answer.get(k)!r}, expected {v!r}"
           for k, v in expected.items() if answer.get(k) != v]
    if "problem" in answer:
        out.append(answer["problem"])
    return out


def verdict_answer(verdict) -> dict:
    if verdict.non_attackable:
        return {"attackable": False}
    w = verdict.witness
    return {"attackable": True, "event": w.event,
            "witness_len": len(w.observations)}


def _reachable(aut) -> int:
    seen = {aut.initial}
    stack = [aut.initial]
    while stack:
        x = stack.pop()
        for e in aut.alphabet.events:
            y = aut.trans.get((x, e))
            if y is not None and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def same_closed_loop(plant, sup, new_sup) -> bool:
    """Pair BFS over (plant, supervisor, new supervisor): the closed-loop
    languages agree iff at every reachable triple each plant-possible
    event is enabled by both supervisors or by neither."""
    start = (plant.initial, sup.initial, new_sup.initial)
    seen = {start}
    stack = [start]
    while stack:
        q, x, y = stack.pop()
        for e in plant.alphabet.events:
            q2 = plant.trans.get((q, e))
            if q2 is None:
                continue
            x2 = sup.trans.get((x, e))
            y2 = new_sup.trans.get((y, e))
            if (x2 is None) != (y2 is None):
                return False
            if x2 is not None and (q2, x2, y2) not in seen:
                seen.add((q2, x2, y2))
                stack.append((q2, x2, y2))
    return True


def obfuscation_answer(S, pf, result) -> dict:
    """Found flag and size, plus the problems found in the returned
    supervisor: its reachable size, its closed-loop language, the target
    control constraint and resilience, the last two checked with the
    program's own ``check_supervisor`` and ``non_attackable``."""
    answer = {"found": result.found, "size": result.size}
    if result.found:
        sup = result.supervisor
        if _reachable(sup.automaton) != result.size:
            answer["problem"] = "reachable size differs from the reported size"
        elif not same_closed_loop(pf.plant, pf.supervisor.automaton,
                                  sup.automaton):
            answer["problem"] = "closed-loop language differs from the input's"
        elif S.check_supervisor(sup.automaton, pf.control):
            answer["problem"] = "violates the target control constraint"
        elif not S.non_attackable(pf.plant, sup, pf.damage, pf.attack,
                                  validate=False).non_attackable:
            answer["problem"] = "returned supervisor is attackable"
    return answer
