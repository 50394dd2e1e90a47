"""Seeded problem generator for the benchmark.

Every draw walks ``alphabet.events`` (a tuple) and ``range`` loops only,
never a set or frozenset, so the emitted ``.prob`` bytes depend on the
seed alone and not on ``PYTHONHASHSEED``.  The generator needs nothing
from ``supobf``: the program under test only ever receives the text.

Damage model shared by every family: the damage automaton is a copy of
the supervisor plus two absorbing sinks, a marked damaged sink and a safe
sink.  Each event the supervisor disables at a state leads to the damaged
sink with probability ``p_damage`` and to the safe sink otherwise, so the
closed loop never reaches the damaged sink and damage validation always
passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """Parameters of one random instance family."""

    plant_states: int
    sup_states: int
    events: int
    p_plant_edge: float      # chance a plant (state, event) is defined
    p_sup_edge: float        # chance a supervisor enables a controllable event
    p_observable: float
    p_controllable: float    # among observable events
    p_attacker_observable: float  # among observable events
    p_attackable: float      # among controllable, attacker-observable events
    p_damage: float = 0.5


EVENT_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Draw:
    """One generated instance: the problem text plus the draw's flags."""

    text: str
    attackable: tuple[str, ...]


def draw(family: Family, seed: int) -> Draw:
    """Problem text for draw ``seed`` of ``family``."""
    rng = random.Random(seed)
    events = tuple(EVENT_NAMES[:family.events])
    observable, controllable, att_obs, attackable = [], [], [], []
    for e in events:
        # four draws per event whatever the outcome, so one flag never
        # shifts the random stream of the next event
        r_obs, r_ctrl, r_aobs, r_att = (rng.random() for _ in range(4))
        if r_obs >= family.p_observable:
            continue
        observable.append(e)
        is_ctrl = r_ctrl < family.p_controllable
        is_aobs = r_aobs < family.p_attacker_observable
        if is_ctrl:
            controllable.append(e)
        if is_aobs:
            att_obs.append(e)
        if is_ctrl and is_aobs and r_att < family.p_attackable:
            attackable.append(e)

    n = family.plant_states
    plant = {}
    for q in range(n):
        for e in events:
            if rng.random() < family.p_plant_edge:
                plant[(q, e)] = rng.randrange(n)

    k = family.sup_states
    sup = {}
    for x in range(k):
        for e in events:
            if e not in observable:
                sup[(x, e)] = x
            elif e not in controllable:
                sup[(x, e)] = rng.randrange(k)
            elif rng.random() < family.p_sup_edge:
                sup[(x, e)] = rng.randrange(k)

    dmg, safe = f"z{k}", f"z{k + 1}"
    damage = {}
    for x in range(k):
        for e in events:
            if (x, e) in sup:
                damage[(f"z{x}", e)] = f"z{sup[(x, e)]}"
            else:
                damage[(f"z{x}", e)] = dmg if rng.random() < family.p_damage else safe
    for sink in (dmg, safe):
        for e in events:
            damage[(sink, e)] = sink

    lines = ["[alphabet]", " ".join(events),
             "[controllable]", " ".join(controllable),
             "[observable]", " ".join(observable),
             "[attackable]", " ".join(attackable),
             "[attacker-observable]", " ".join(att_obs),
             "[plant]", "states: " + " ".join(f"q{i}" for i in range(n)),
             "initial: q0", "trans:"]
    lines += [f"q{q} {e} q{d}" for (q, e), d in plant.items()]
    lines += ["[supervisor]", "states: " + " ".join(f"x{i}" for i in range(k)),
              "initial: x0", "trans:"]
    lines += [f"x{x} {e} x{d}" for (x, e), d in sup.items()]
    lines += ["[damage]",
              "states: " + " ".join(f"z{i}" for i in range(k + 2)),
              "initial: z0", f"marked: {dmg}", "trans:"]
    lines += [f"{z} {e} {d}" for (z, e), d in damage.items()]
    return Draw("\n".join(lines) + "\n", tuple(attackable))


if __name__ == "__main__":
    # python3 gen.py <workload> <draw>...: one sha256 per draw, used to
    # check that the bytes do not depend on PYTHONHASHSEED
    import sys

    from workloads import WORKLOADS, digest

    family = WORKLOADS[sys.argv[1]].family
    for d in sys.argv[2:]:
        print(d, digest(draw(family, int(d)).text))
