"""Command-line interface.

Exit codes: 0 for success (and for the non-attackable / found verdicts),
1 for the attackable / not-found verdicts, 2 for any input or validation
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .automata import dual_marked_product, is_total, to_dot
from .attack import (attackable_by_search, determinize_and_label,
                     non_attackable, subset_to_dot)
from .control import closed_loop, stray_damage_string, validate_damage
from .obfuscate import (ObfuscationRequest, check_enumeration_limit,
                        enumerate_instance, obfuscate)
from .problemfile import (ProblemFile, emit_automaton_section, emit_problem,
                          load_problem, parse_problem)
from .satenc import encode, export_dimacs

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _fmt_obs(obs) -> str:
    seen, cmd = obs
    return f"({seen or 'ε'}, {{{','.join(cmd)}}})"


def _check_writable(*paths) -> None:
    """Fail on an output path that cannot be written before any work is
    done.  Opening for appending changes no file, and a file that the
    probe created is removed again."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def _load(args) -> ProblemFile:
    return load_problem(args.file, repair_selfloops=args.repair_selfloops)


def cmd_validate(args) -> int:
    pf = _load(args)
    report = validate_damage(pf.damage, pf.plant, pf.supervisor)
    # a damage automaton that is not total is not searched for stray strings
    stray = (stray_damage_string(pf.damage, pf.plant)
             if is_total(pf.damage) else None)
    if stray is not None:
        print("warning: damage string not generable by the plant: "
              + (" ".join(stray) or "ε"), file=sys.stderr)
    if not report.ok:
        print(f"error: {report.problem}", file=sys.stderr)
        if report.witness is not None:
            print("  damage string in the closed loop: "
                  + (" ".join(report.witness) or "ε"), file=sys.stderr)
        return EXIT_ERROR
    print(f"ok: plant {pf.plant.n_states} states, "
          f"supervisor {pf.supervisor.n_states} states, "
          f"damage {pf.damage.n_states} states")
    return EXIT_OK


def cmd_closed_loop(args) -> int:
    pf = _load(args)
    loop = closed_loop(pf.plant, pf.supervisor)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(loop, title="closed-loop"))
    sys.stdout.write(emit_automaton_section("closed-loop", loop))
    return EXIT_OK


def cmd_check(args) -> int:
    pf = _load(args)
    _check_writable(args.dot)
    verdict = non_attackable(pf.plant, pf.supervisor, pf.damage, pf.attack)
    if args.dot:
        # only an attackable verdict's construction stopped short of the end
        gp, sub = verdict.product, verdict.subset_automaton
        if not verdict.non_attackable:
            sub = determinize_and_label(gp)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(subset_to_dot(sub, gp))
    if verdict.non_attackable:
        print("non-attackable")
        return EXIT_OK
    print("attackable")
    if args.witness and verdict.witness is not None:
        for obs in verdict.witness.observations:
            print(_fmt_obs(obs))
        print(f"ATTACK {verdict.witness.event}")
    return EXIT_NEGATIVE


def cmd_synth_bp(args) -> int:
    pf = _load(args)
    check_enumeration_limit(args.limit)
    product = dual_marked_product(pf.plant, pf.supervisor.automaton)
    cnf, vt = encode(args.n, product, pf.control)
    # the enumeration may run for long: the instance is written first
    if args.dimacs:
        with open(args.dimacs, "w", encoding="utf-8") as fh:
            fh.write(export_dimacs(cnf, vt))
    sups, truncated = enumerate_instance(cnf, vt, args.limit)
    print(f"# {len(sups)} behavior-preserving supervisor(s) of size {args.n}"
          + (" (truncated)" if truncated else ""))
    for i, sup in enumerate(sups):
        print(f"# candidate {i}")
        sys.stdout.write(emit_automaton_section("supervisor", sup))
    return EXIT_OK


def cmd_obfuscate(args) -> int:
    # read once, so that the digest describes the bytes that were parsed
    with open(args.file, "rb") as fh:
        data = fh.read()
    pf = parse_problem(data.decode("utf-8"), args.repair_selfloops)
    _check_writable(args.out, args.json)
    started = time.perf_counter()
    req = ObfuscationRequest(pf.plant, pf.supervisor, pf.control, pf.attack,
                             pf.damage, n_max=args.nmax,
                             enumeration_limit=args.limit)

    def report(row):
        print(f"size {row.n}: {row.candidates} candidate(s), "
              f"{row.tested} tested, {row.resilient} resilient",
              file=sys.stderr)

    result = obfuscate(req, progress=report)
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)

    summary = {
        "command": "obfuscate",
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "options": {"nmax": result.n_max, "limit": args.limit},
        "found": result.found,
        "size": result.size,
        "candidates_tested": result.candidates_tested,
        "truncated": result.truncated,
        "trace": [{"n": r.n, "candidates": r.candidates, "tested": r.tested,
                   "resilient": r.resilient} for r in result.trace],
        "effort": result.solver_stats,
        "supervisor": None,
    }
    if result.found:
        aut = result.supervisor.automaton
        summary["supervisor"] = {
            "states": list(aut.names),
            "initial": aut.names[aut.initial],
            "trans": sorted([aut.names[s], e, aut.names[d]]
                            for (s, e), d in aut.trans.items()),
        }
    # write the files before the report, so a file that cannot be written
    # leaves stdout empty
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if not result.found:
        print(f"not found up to size {result.n_max}")
        return EXIT_NEGATIVE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_problem(pf._replace(supervisor=result.supervisor)))
    print(f"found: {result.size}-state resilient behavior-preserving supervisor")
    sys.stdout.write(emit_automaton_section("supervisor",
                                            result.supervisor.automaton))
    return EXIT_OK


def cmd_oracle(args) -> int:
    pf = _load(args)
    bound = args.bound
    if bound is None:
        bound = (pf.plant.n_states * pf.supervisor.n_states
                 * pf.damage.n_states + 2)
    result = attackable_by_search(pf.plant, pf.supervisor, pf.damage,
                                  pf.attack, bound)
    tag = "" if result.conclusive else " (inconclusive)"
    if result.attackable:
        print("attackable" + tag)
        if result.witness is not None:
            string, ev = result.witness
            print("  after: " + (" ".join(string) or "ε"))
            print(f"  ATTACK {ev}")
        return EXIT_NEGATIVE
    print("non-attackable" + tag)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supobf",
        description="Verify and synthesize supervisors resilient against "
                    "command-eavesdropping actuator-enablement attackers.")
    parser.add_argument("--repair-selfloops", action="store_true",
                        help="add missing unobservable self-loops to the "
                             "supervisor while loading")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and damage validation")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("closed-loop", help="emit the supervised plant")
    p.add_argument("file")
    p.add_argument("--dot", help="also write a Graphviz rendering")
    p.set_defaults(func=cmd_closed_loop)

    p = sub.add_parser("check", help="non-attackability verification")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true",
                   help="print the attacker observation path on failure")
    p.add_argument("--dot", help="write the attacker-view automaton")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth-bp",
                       help="enumerate exact-size behavior-preserving supervisors")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True, help="exact state count")
    p.add_argument("--limit", type=int,
                   help="cap on SAT models per size (at least 1)")
    p.add_argument("--dimacs", help="dump the CNF instance")
    p.set_defaults(func=cmd_synth_bp)

    p = sub.add_parser("obfuscate",
                       help="minimum-state resilient behavior-preserving supervisor")
    p.add_argument("file")
    p.add_argument("--nmax", type=int,
                   help="largest size to try (default: supervisor size)")
    p.add_argument("--limit", type=int,
                   help="cap on SAT models per size (at least 1)")
    p.add_argument("--out", help="write a problem file with the new supervisor")
    p.add_argument("--json", help="write a machine-readable summary")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("oracle", help="bounded brute-force attackability check")
    p.add_argument("file")
    p.add_argument("--bound", type=int, help="string length bound")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
