"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import supobf as S
from supobf.cli import main as cli_main
from conftest import (FIXTURES, all_supervisor_automata, load_fixture,
                      marked_strings_upto, random_alphabet,
                      random_attack_instance, random_plant,
                      random_supervisor_automaton, satisfiable_within,
                      strings_upto)
from test_attack import permute_states


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_attack_scenario(example1, example1_obfuscated):
    started = time.perf_counter()
    sup = example1.supervisor
    facts = []
    facts.append(S.control_command(sup, sup.automaton.run(["a", "c"]))
                 == frozenset({"a", "b", "d"}))
    facts.append(S.control_command(sup, sup.automaton.run(["a", "c", "d"]))
                 == frozenset({"b"}))
    sup2 = example1_obfuscated.supervisor
    cmd_ac = S.control_command(sup2, sup2.automaton.run(["a", "c"]))
    cmd_acd = S.control_command(sup2, sup2.automaton.run(["a", "c", "d"]))
    facts.append(cmd_ac == cmd_acd == frozenset({"a", "b", "d"}))
    # the damage state is reached exactly by an attack event right after
    # the leaky observation sequence
    bad = marked_strings_upto(example1.damage, 8)
    facts.append(bad == {("a", "c", "d", "a'"), ("b", "a", "c", "d", "a'")})
    facts.append(all(s[-1] == "a'" and s[-4:-1] == ("a", "c", "d")
                     for s in bad))

    v1 = S.non_attackable(example1.plant, sup, example1.damage,
                          example1.attack)
    v2 = S.non_attackable(example1_obfuscated.plant, sup2,
                          example1_obfuscated.damage,
                          example1_obfuscated.attack)
    eq, _ = S.language_equal(S.closed_loop(example1.plant, sup),
                             S.closed_loop(example1_obfuscated.plant, sup2))
    elapsed = time.perf_counter() - started
    ok = (all(facts) and not v1.non_attackable and v2.non_attackable
          and eq and elapsed < 1.0)
    report(1, ok, f"attack scenario fixture (facts={all(facts)}, "
                  f"S attackable={not v1.non_attackable}, "
                  f"S' resilient={v2.non_attackable}, preserved={eq}, "
                  f"{elapsed:.3f}s)")


def test_criterion_2_encoding_soundness():
    rng = random.Random(60601)
    generated = solved = failures = 0
    while generated < 220:
        generated += 1
        alph, constraint, _ = random_alphabet(rng, max_events=4)
        plant = random_plant(rng, alph, max_states=5)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 4)
        sup = S.Supervisor(sup_aut, constraint)
        n = rng.randint(1, 4)
        prod = S.dual_marked_product(plant, sup_aut)
        cnf, vt = S.encode(n, prod, constraint)
        backend = S.solve_instance(cnf)
        if not backend.solve():
            continue
        solved += 1
        decoded = S.decode_model(backend.model(), vt)
        if S.check_supervisor(decoded, constraint) != []:
            failures += 1
            continue
        eq, _ = S.language_equal(S.sync_product(plant, decoded),
                                 S.closed_loop(plant, sup))
        if not eq:
            failures += 1
    ok = failures == 0 and generated >= 200 and solved >= 80
    report(2, ok, f"encoding soundness on {generated} instances "
                  f"({solved} satisfiable, {failures} failures)")


def test_criterion_3_encoding_completeness():
    rng = random.Random(30303)
    checked = mismatches = 0
    for _ in range(80):
        alph, constraint, _ = random_alphabet(rng, max_events=2)
        plant = random_plant(rng, alph, max_states=2)
        sup_aut = random_supervisor_automaton(rng, alph, constraint, 2)
        loop = S.sync_product(plant, sup_aut)
        for n in (1, 2):
            prod = S.dual_marked_product(plant, sup_aut)
            sat = satisfiable_within(prod, constraint, n)
            brute = any(
                S.language_equal(S.sync_product(plant, cand), loop)[0]
                for cand in all_supervisor_automata(alph, constraint, n))
            checked += 1
            if sat != brute:
                mismatches += 1
    ok = mismatches == 0 and checked == 160
    report(3, ok, f"encoding completeness, {checked} bound checks, "
                  f"{mismatches} mismatches")


def test_criterion_4_all_sat_exactness(tri, single):
    mismatches = 0
    for pf, sizes in ((tri, (1, 2, 3)), (single, (1, 2))):
        loop = S.closed_loop(pf.plant, pf.supervisor)
        for n in sizes:
            expected = set()
            for cand in all_supervisor_automata(pf.plant.alphabet,
                                                pf.control, n):
                if len(S.reachable_states(cand)) != n:
                    continue
                if S.language_equal(S.sync_product(pf.plant, cand), loop)[0]:
                    expected.add(S.canonical_key(cand))
            got, truncated = S.behavior_preserving_supervisors(
                pf.plant, pf.supervisor.automaton, pf.control, n)
            if truncated or {S.canonical_key(c) for c in got} != expected:
                mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"all-SAT enumeration matches brute force "
                  f"({mismatches} size mismatches)")


def test_criterion_5_verification_differential():
    rng = random.Random(50505)
    instances = conclusive = disagreements = 0
    while instances < 110:
        inst = random_attack_instance(rng, max_states=4)
        if inst is None:
            continue
        instances += 1
        plant, sup, damage, attack = inst
        verdict = S.non_attackable(plant, sup, damage, attack, validate=False)
        bound = plant.n_states * sup.n_states * damage.n_states + 2
        oracle = S.attackable_by_search(plant, sup, damage, attack, bound)
        if not oracle.conclusive:
            continue
        conclusive += 1
        if oracle.attackable == verdict.non_attackable:
            disagreements += 1
    ok = disagreements == 0 and conclusive >= 60
    report(5, ok, f"differential verification on {instances} instances "
                  f"({conclusive} conclusive, {disagreements} disagreements)")


def test_criterion_6_metamorphic(example1, example1_obfuscated, tri, atk,
                                 single, perf):
    fixtures = [example1, example1_obfuscated, tri, atk, single, perf]
    violations = []
    no_attack = S.AttackConstraint(frozenset(), frozenset())
    for pf in fixtures:
        v = S.non_attackable(pf.plant, pf.supervisor, pf.damage, no_attack,
                             validate=False)
        if not v.non_attackable:
            violations.append("empty attackable set")
        unmarked = S.PartialDFA(pf.damage.alphabet, pf.damage.names,
                                pf.damage.trans, pf.damage.initial,
                                frozenset())
        v = S.non_attackable(pf.plant, pf.supervisor, unmarked, pf.attack,
                             validate=False)
        if not v.non_attackable:
            violations.append("empty damage marking")
    rng = random.Random(606)
    for pf in fixtures:
        base = S.non_attackable(pf.plant, pf.supervisor, pf.damage,
                                pf.attack, validate=False).non_attackable
        n = pf.supervisor.automaton.n_states
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            renamed = S.Supervisor(
                permute_states(pf.supervisor.automaton, perm),
                pf.supervisor.constraint)
            got = S.non_attackable(pf.plant, renamed, pf.damage, pf.attack,
                                   validate=False).non_attackable
            if got != base:
                violations.append(f"renaming flipped the verdict ({perm})")
    ok = not violations
    report(6, ok, f"metamorphic suite ({len(violations)} violations)"
                  + (f": {violations[:3]}" if violations else ""))


def test_criterion_7_minimality(example1, perf):
    rng = random.Random(70707)
    violations = 0
    cases = []
    for pf in (example1, perf):
        req = S.ObfuscationRequest(pf.plant, pf.supervisor, pf.control,
                                   pf.attack, pf.damage)
        res = S.obfuscate(req)
        cases.append((pf.plant, pf.supervisor, pf.damage, pf.attack, res))
    done = 0
    while done < 10:
        inst = random_attack_instance(rng, max_states=3)
        if inst is None:
            continue
        plant, sup, damage, attack = inst
        req = S.ObfuscationRequest(plant, sup, sup.constraint, attack, damage,
                                   n_max=2)
        res = S.obfuscate(req)
        if not res.found:
            continue
        cases.append((plant, sup, damage, attack, res))
        done += 1
    for plant, sup, damage, attack, res in cases:
        if not res.found:
            violations += 1
            continue
        loop = S.closed_loop(plant, sup)
        for n in range(1, res.size):
            for cand in all_supervisor_automata(plant.alphabet,
                                                sup.constraint, n):
                if not S.language_equal(S.sync_product(plant, cand), loop)[0]:
                    continue
                v = S.non_attackable(plant, S.Supervisor(cand, sup.constraint),
                                     damage, attack, validate=False)
                if v.non_attackable:
                    violations += 1
    ok = violations == 0
    report(7, ok, f"minimality confirmed on {len(cases)} instances "
                  f"({violations} violations)")


def test_criterion_8_determinism_and_round_trips(tmp_path, tri):
    diffs = []
    # byte-identical machine-readable summaries
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = cli_main(["obfuscate", str(FIXTURES / "perf.prob"),
                         "--json", str(target)])
        if code != 0:
            diffs.append("obfuscate exit code")
    if a.read_bytes() != b.read_bytes():
        diffs.append("summary bytes differ")
    for line in json.loads(a.read_text())["trace"]:
        if line["n"] == 2 and line["candidates"] == 0:
            diffs.append("empty trace")
    # problem file round trips
    from supobf.problemfile import emit_problem, parse_problem
    for name in ("example1", "example1_obfuscated", "tri", "atk", "single",
                 "perf"):
        pf = load_fixture(name)
        back = parse_problem(emit_problem(pf))
        if (back.plant.trans != pf.plant.trans
                or back.supervisor.automaton.trans != pf.supervisor.automaton.trans
                or back.damage.trans != pf.damage.trans
                or back.damage.marked != pf.damage.marked):
            diffs.append(f"{name} round trip")
    # DIMACS round trips
    prod = S.dual_marked_product(tri.plant, tri.supervisor.automaton)
    cnf, vt = S.encode(2, prod, tri.control)
    parsed = S.parse_dimacs(S.export_dimacs(cnf, vt))
    if parsed.clauses != cnf.clauses or parsed.num_vars != cnf.num_vars:
        diffs.append("DIMACS round trip")
    ok = not diffs
    report(8, ok, "determinism and round trips"
                  + (f" ({diffs})" if diffs else " (0 diffs)"))


def test_criterion_9_performance_smoke(perf):
    assert perf.plant.n_states == 8
    assert perf.supervisor.n_states == 6
    assert perf.damage.n_states == 6
    assert len(perf.alphabet.events) == 5
    started = time.perf_counter()
    req = S.ObfuscationRequest(perf.plant, perf.supervisor, perf.control,
                               perf.attack, perf.damage, n_max=6)
    res = S.obfuscate(req)
    elapsed = time.perf_counter() - started
    ok = res.found and elapsed < 60.0
    report(9, ok, f"obfuscation on the 8/6/6-state instance took "
                  f"{elapsed:.2f}s (size {res.size})")
