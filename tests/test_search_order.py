"""``obfuscate``'s answer does not depend on the solver's search.

Each model is one isomorphism class of candidates, and the winner is the
least canonical key at the minimum size.  So found, size, the winner and
each size's candidate and resilient counts must come out the same under
any branching order; only the effort may move.  The test perturbs the
choice of decision variable from outside, as ``tests/test_rup.py`` wraps
the solver, and compares each run with a plain one.  A change to the
search (restarts, phase saving, new clauses) must keep this test green.
"""

import random
from heapq import heappush

import supobf as S
from supobf.sat import _UNSET, SatSolver
from conftest import load_fixture, random_damaged_instance

FIXTURE_NAMES = ["atk", "example1", "example1_obfuscated", "perf", "single",
                 "tri"]


def requests(draws: int):
    """The six fixtures, then seeded small draws; the draws cap the
    models per size, since a few have thousands of candidates."""
    for name in FIXTURE_NAMES:
        pf = load_fixture(name)
        yield S.ObfuscationRequest(pf.plant, pf.supervisor, pf.control,
                                   pf.attack, pf.damage)
    rng = random.Random(1137)
    for _ in range(draws):
        plant, sup, damage, attack = random_damaged_instance(rng,
                                                             max_states=4)
        yield S.ObfuscationRequest(plant, sup, sup.constraint, attack, damage,
                                   enumeration_limit=200)


def perturb_picks(monkeypatch, rng: random.Random, share: float = 0.3):
    """Make about ``share`` of the solver's decisions take a random
    unassigned variable instead of the most active one."""
    pick = SatSolver._pick_variable

    def perturbed(solver):
        v = pick(solver)
        if v is None or rng.random() >= share:
            return v
        value = solver._value
        w = rng.choice([u for u in range(1, solver.num_vars + 1)
                        if value[u] == _UNSET])
        if w != v:
            # ``v`` stays unassigned, so it needs its live heap entry back
            heappush(solver._heap, (-solver._activity[v], v))
            solver._queued[v] = True
        return w

    monkeypatch.setattr(SatSolver, "_pick_variable", perturbed)


def outcome(result: S.ObfuscationResult):
    winner = (sorted(result.supervisor.automaton.trans.items())
              if result.found else None)
    return (result.found, result.size, winner,
            [(row.n, row.candidates, row.resilient) for row in result.trace])


def test_obfuscate_does_not_depend_on_the_branching_order(monkeypatch):
    plain = [S.obfuscate(req) for req in requests(40)]
    perturb_picks(monkeypatch, random.Random(31))
    perturbed = [S.obfuscate(req) for req in requests(40)]
    compared = moved = 0
    for a, b in zip(plain, perturbed, strict=True):
        # under the cap, which models a run takes depends on the search
        if a.truncated or b.truncated:
            continue
        assert outcome(a) == outcome(b)
        compared += 1
        moved += a.solver_stats != b.solver_stats
    assert compared >= 40
    # the perturbation must reach the search, not only be installed
    assert moved >= 5
