import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

import supobf as S
import supobf.attack
import supobf.cli
from supobf.cli import main
from conftest import FIXTURES, load_fixture

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_NAMES = ["atk", "example1", "example1_obfuscated", "perf", "single", "tri"]


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.prob")


def test_validate_ok(capsys):
    assert main(["validate", fixture("example1")]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("[alphabet]\na\n[plant]\nstates: q0\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_exit_codes(capsys):
    assert main(["check", fixture("atk")]) == 1
    assert main(["check", fixture("tri")]) == 0
    assert main(["check", fixture("example1")]) == 1
    assert main(["check", fixture("example1_obfuscated")]) == 0


def test_check_witness_output(capsys):
    assert main(["check", fixture("example1"), "--witness"]) == 1
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "attackable"
    assert lines[1] == "(ε, {b,c,d})"
    assert lines[2] == "(c, {a,b,d})"
    assert lines[3] == "(ε, {b})"
    assert lines[4] == "ATTACK a'"


def test_check_dot_renders_the_verdict(tmp_path, capsys):
    dot = tmp_path / "view.dot"
    assert main(["check", fixture("atk"), "--dot", str(dot)]) == 1
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "attack: k" in text and "fillcolor=lightcoral" in text
    pf = load_fixture("atk")
    gp = S.generalized_product(pf.plant, pf.supervisor, pf.damage, pf.attack)
    sub = S.determinize_and_label(gp)
    assert dot.read_bytes() == S.subset_to_dot(sub, gp).encode("utf-8")


@pytest.mark.parametrize("name, constructions", [
    ("tri", 1), ("single", 1), ("example1_obfuscated", 1),
    ("atk", 2), ("example1", 2), ("perf", 2)])
def test_check_dot_reuses_a_complete_construction(name, constructions,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    # a non-attackable verdict's subset construction ran to completion and
    # is drawn as it is; an attackable one stopped at its witness and is
    # built again in full for the drawing
    calls = []
    original = supobf.attack.determinize_and_label

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(supobf.attack, "determinize_and_label", counting)
    monkeypatch.setattr(supobf.cli, "determinize_and_label", counting)
    dot = tmp_path / "view.dot"
    main(["check", fixture(name), "--dot", str(dot)])
    assert len(calls) == constructions
    assert dot.read_bytes() == (GOLDEN / f"{name}.check.dot").read_bytes()

def test_closed_loop_emission(capsys, tmp_path):
    dot = tmp_path / "loop.dot"
    assert main(["closed-loop", fixture("tri"), "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "[closed-loop]" in out and "(q0,x0) a (q1,x1)" in out
    assert dot.read_text().startswith("digraph")


def test_synth_bp_lists_candidates(capsys, tmp_path):
    dimacs = tmp_path / "inst.cnf"
    assert main(["synth-bp", fixture("tri"), "-n", "2",
                 "--dimacs", str(dimacs)]) == 0
    out = capsys.readouterr().out
    assert "behavior-preserving supervisor(s) of size 2" in out
    assert out.count("[supervisor]") == 2
    text = dimacs.read_text()
    assert text.splitlines()[0].startswith("c t 0 a 0 = ")
    assert "p cnf" in text
    # the capacity literal of size 2 is asserted by a unit clause, so the
    # export has the size-2 models only
    cap = next(l for l in text.splitlines() if l.startswith("c cap 2 = "))
    assert f"\n{cap.split()[-1]} 0\n" in text
    assert "\nc u " not in text


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_synth_bp_dimacs_matches_golden(name, tmp_path, capsys):
    dimacs = tmp_path / "inst.cnf"
    assert main(["synth-bp", fixture(name), "-n", "2", "--limit", "1",
                 "--dimacs", str(dimacs)]) == 0
    assert dimacs.read_bytes() == \
        (GOLDEN / f"{name}.synth2.cnf").read_bytes()


def test_synth_bp_writes_dimacs_before_the_enumeration(tmp_path, monkeypatch,
                                                       capsys):
    # an enumeration without --limit may run for long; the instance is on
    # disk by the time it starts
    dimacs = tmp_path / "inst.cnf"
    seen = []
    original = supobf.cli.enumerate_instance

    def checking(*args, **kwargs):
        seen.append(dimacs.read_text(encoding="utf-8"))
        return original(*args, **kwargs)

    monkeypatch.setattr(supobf.cli, "enumerate_instance", checking)
    assert main(["synth-bp", fixture("tri"), "-n", "2", "--limit", "1",
                 "--dimacs", str(dimacs)]) == 0
    assert seen == [(GOLDEN / "tri.synth2.cnf").read_text(encoding="utf-8")]


def test_oracle_exit_codes(capsys):
    assert main(["oracle", fixture("atk")]) == 1
    out = capsys.readouterr().out
    assert "attackable" in out and "ATTACK k" in out
    assert main(["oracle", fixture("tri"), "--bound", "4"]) == 0


def test_obfuscate_found_pipeline(tmp_path, capsys):
    out_file = tmp_path / "obf.prob"
    json_file = tmp_path / "run.json"
    code = main(["obfuscate", fixture("example1"), "--out", str(out_file),
                 "--json", str(json_file)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "found: 1-state" in stdout

    # the emitted problem file must validate, verify as non-attackable and
    # keep the original closed-loop behavior
    assert main(["validate", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_file)]) == 0
    import supobf as S
    original = S.load_problem(fixture("example1"))
    hardened = S.load_problem(str(out_file))
    eq, _ = S.language_equal(
        S.closed_loop(original.plant, original.supervisor),
        S.closed_loop(hardened.plant, hardened.supervisor))
    assert eq

    summary = json.loads(json_file.read_text())
    assert summary["found"] is True and summary["size"] == 1
    assert summary["trace"][0]["n"] == 1


def test_obfuscate_not_found_exit(capsys):
    assert main(["obfuscate", fixture("atk"), "--nmax", "2"]) == 1
    assert "not found" in capsys.readouterr().out


def test_obfuscate_json_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["obfuscate", fixture("perf"), "--json", str(a)]) == 0
    assert main(["obfuscate", fixture("perf"), "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_obfuscate_json_matches_golden(name, tmp_path):
    out = tmp_path / "run.json"
    main(["obfuscate", fixture(name), "--json", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_obfuscate_json_hashes_the_bytes_it_parsed(tmp_path, monkeypatch):
    prob = tmp_path / "tri.prob"
    original = (FIXTURES / "tri.prob").read_bytes()
    prob.write_bytes(original)
    search = supobf.cli.obfuscate

    def edit_then_search(*args, **kwargs):
        # the input changes on disk after it was parsed
        with open(prob, "ab") as fh:
            fh.write(b"# edited\n")
        return search(*args, **kwargs)

    monkeypatch.setattr(supobf.cli, "obfuscate", edit_then_search)
    out = tmp_path / "run.json"
    assert main(["obfuscate", str(prob), "--json", str(out)]) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["input_sha256"] == hashlib.sha256(original).hexdigest()
    assert prob.read_bytes() != original


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_check_and_closed_loop_match_golden(name, tmp_path, capsys):
    view, loop = tmp_path / "view.dot", tmp_path / "loop.dot"
    code = main(["check", fixture(name), "--witness", "--dot", str(view)])
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.witness.txt").read_bytes()
    assert code == (0 if out == "non-attackable\n" else 1)
    assert view.read_bytes() == (GOLDEN / f"{name}.check.dot").read_bytes()
    assert main(["closed-loop", fixture(name), "--dot", str(loop)]) == 0
    assert loop.read_bytes() == (GOLDEN / f"{name}.closed-loop.dot").read_bytes()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_closed_loop_and_obfuscate_out_match_golden(name, tmp_path, capsys):
    assert main(["closed-loop", fixture(name)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == \
        (GOLDEN / f"{name}.closed-loop.txt").read_bytes()
    problem = tmp_path / "out.prob"
    code = main(["obfuscate", fixture(name), "--out", str(problem)])
    if name == "atk":
        assert code == 1 and not problem.exists()
    else:
        assert code == 0
        assert problem.read_bytes() == (GOLDEN / f"{name}.out.prob").read_bytes()


def test_obfuscate_out_that_cannot_be_written_prints_no_report(tmp_path,
                                                                 capsys):
    out = tmp_path / "missing" / "x.prob"
    assert main(["obfuscate", fixture("tri"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command, flag", [
    ("check", "--dot"), ("closed-loop", "--dot"), ("synth-bp", "--dimacs"),
    ("obfuscate", "--out"), ("obfuscate", "--json")])
def test_unwritable_output_path_is_input_error(command, flag, tmp_path,
                                               capsys):
    out = tmp_path / "missing" / "out"
    # a writable output given with the unwritable one is not left behind
    written = tmp_path / "run.json"
    extra = {"synth-bp": ["-n", "2", "--limit", "1"],
             "obfuscate": ["--json", str(written)] if flag == "--out" else [],
             }.get(command, [])
    assert main([command, fixture("tri"), flag, str(out), *extra]) == 2
    # an exception that escaped main would fail the test before this
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert "Traceback" not in err and not out.parent.exists()
    # the path is checked before the search, which prints a line per size
    assert not re.search(r"^size \d+:", err, re.MULTILINE)
    assert not written.exists()


def dot_labels(text: str) -> list[str]:
    """Every ``label=`` value of a DOT text, decoded.  Each must be a
    quoted string in which a backslash escapes the next character, and the
    attribute must end right after its closing quote."""
    quoted = re.findall(r'label=("(?:[^"\\]|\\.)*")[ \]]', text)
    assert len(quoted) == text.count("label=")
    return [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], q[1:-1])
            for q in quoted]


def test_dot_labels_escape_quotes_and_backslashes(tmp_path, capsys):
    # atk with a quote in a state name and in the attack event, and a
    # backslash in the other event, which the supervisor enables after it
    text = (FIXTURES / "atk.prob").read_text()
    text = re.sub(r"\bq0\b", 'q"0', text)
    text = re.sub(r"\bk\b", 'k"', text)
    text = re.sub(r"\ba\b", "b\\\\", text)
    text = text.replace("x0 b\\ x1\n", "x0 b\\ x1\nx1 b\\ x1\n")
    path = tmp_path / "quoted.prob"
    path.write_text(text)
    view, loop = tmp_path / "view.dot", tmp_path / "loop.dot"
    assert main(["check", str(path), "--dot", str(view)]) == 1
    assert main(["closed-loop", str(path), "--dot", str(loop)]) == 0
    capsys.readouterr()
    assert dot_labels(view.read_text()) == [
        '{(q"0,x0,z0)}\nattack: k"', "{(q1,x1,sink)}", "(ε,{b\\})"]
    assert dot_labels(loop.read_text()) == ['(q"0,x0)', "(q1,x1)", "b\\"]


def test_damage_string_outside_the_plant_only_warns(tmp_path, capsys):
    # example1 with one more marked damage string, "a a", that the plant
    # cannot generate: validate warns about it, and the check verdict and
    # the obfuscation result are example1's
    head, damage = (FIXTURES / "example1.prob").read_text(
        encoding="utf-8").split("[damage]")
    damage = (damage.replace("states: 0 1 2 3 4 5 6 7 8",
                             "states: 0 1 2 3 4 5 6 7 8 9")
              .replace("marked: 8", "marked: 8 9") + "1 a 9\n")
    stray = tmp_path / "stray.prob"
    stray.write_text(head + "[damage]" + damage, encoding="utf-8")
    assert main(["validate", str(stray)]) == 0
    assert ("warning: damage string not generable by the plant: a a"
            in capsys.readouterr().err)
    assert main(["check", str(stray), "--witness"]) == 1
    assert (capsys.readouterr().out.encode("utf-8")
            == (GOLDEN / "example1.witness.txt").read_bytes())
    out = tmp_path / "run.json"
    assert main(["obfuscate", str(stray), "--json", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "example1.json").read_text(encoding="utf-8"))
    assert result.pop("input_sha256") != golden.pop("input_sha256")
    assert result == golden


def test_synth_bp_dimacs_encodes_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_encode(*args, **kwargs):
        calls.append(args[0])
        return S.encode(*args, **kwargs)

    for module in ("supobf.cli", "supobf.obfuscate"):
        monkeypatch.setattr(sys.modules[module], "encode", counting_encode)
    dimacs = tmp_path / "inst.cnf"
    assert main(["synth-bp", fixture("tri"), "-n", "2",
                 "--dimacs", str(dimacs)]) == 0
    assert calls == [2]
    assert capsys.readouterr().out.count("[supervisor]") == 2
    assert dimacs.exists()


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_below_one_is_input_error(limit, capsys):
    assert main(["obfuscate", fixture("perf"), "--limit", limit]) == 2
    assert main(["synth-bp", fixture("tri"), "-n", "2", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert "found" not in captured.out and "candidate" not in captured.out
    assert captured.err.count("error:") == 2


def test_unknown_file_is_input_error(capsys):
    assert main(["check", "no-such-file.prob"]) == 2
    assert "error:" in capsys.readouterr().err


def test_repair_selfloops_flag(tmp_path):
    text = (FIXTURES / "tri.prob").read_text()
    # drop b from the observable set so it needs self-loops at x0 too
    text = text.replace("[observable]\na b", "[observable]\na") \
               .replace("[controllable]\nb", "[controllable]\n") \
               .replace("x1 b x0", "")
    broken = tmp_path / "broken.prob"
    broken.write_text(text)
    assert main(["validate", str(broken)]) == 2
    assert main(["--repair-selfloops", "validate", str(broken)]) == 0


def test_synth_bp_input_error_writes_no_dimacs(tmp_path, capsys):
    dimacs = tmp_path / "out.cnf"
    assert main(["synth-bp", fixture("tri"), "-n", "2", "--limit", "0",
                 "--dimacs", str(dimacs)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not dimacs.exists()


def test_missing_section_reported_without_line(tmp_path, capsys):
    text = (FIXTURES / "tri.prob").read_text()
    broken = tmp_path / "broken.prob"
    broken.write_text(text[:text.index("[damage]")])
    assert main(["validate", str(broken)]) == 2
    assert capsys.readouterr().err == "error: missing section [damage]\n"


def example1_with_damage_state(name: str, tmp_path) -> tuple[Path, int]:
    """example1 with an unreachable damage state ``name``, which
    auto-completion gives a transition line per event when emitted; the
    file and the line number of the damage's ``states:``."""
    text = (FIXTURES / "example1.prob").read_text()
    lines = text.splitlines()
    at = lines.index("[damage]") + 1
    assert lines[at].startswith("states: ")
    lines[at] += " " + name
    path = tmp_path / "named.prob"
    path.write_text("\n".join(lines) + "\n")
    return path, at + 1


def test_state_name_starting_with_bracket_is_an_input_error(tmp_path, capsys):
    path, line = example1_with_damage_state("[bad", tmp_path)
    out = tmp_path / "out.prob"
    assert main(["validate", str(path)]) == 2
    assert main(["obfuscate", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: line {line}: state name '[bad'") == 2
    assert not out.exists()


def test_obfuscate_out_round_trips_bracketed_names(tmp_path, capsys):
    # a name with '[' after its first character is accepted, and the file
    # obfuscate writes reads back
    path, _ = example1_with_damage_state("x[9]", tmp_path)
    out = tmp_path / "out.prob"
    assert main(["obfuscate", str(path), "--out", str(out)]) == 0
    assert "x[9] a sink" in out.read_text().splitlines()
    assert main(["validate", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert S.load_problem(str(out)).damage.names == \
        S.load_problem(str(path)).damage.names
