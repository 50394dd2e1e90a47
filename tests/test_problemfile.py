import pytest

import supobf as S
from conftest import FIXTURES
from supobf.cli import main
from supobf.problemfile import (ParseError, add_unobservable_selfloops,
                                emit_problem, parse_problem)

MINIMAL = """
[alphabet]
a
[controllable]
a
[observable]
a
[attackable]
[attacker-observable]
[plant]
states: q0
initial: q0
trans:
q0 a q0
[supervisor]
states: x0
initial: x0
trans:
x0 a x0
[damage]
states: z0
initial: z0
marked:
auto-complete: true
trans:
"""


def test_minimal_file_parses():
    pf = parse_problem(MINIMAL)
    assert pf.plant.n_states == 1
    assert pf.supervisor.n_states == 1
    assert S.is_total(pf.damage) and pf.damage.marked == frozenset()


def test_comments_and_whitespace():
    pf = parse_problem(MINIMAL.replace("[plant]", "# leading comment\n[plant]")
                       .replace("q0 a q0", "q0   a  q0   # trailing"))
    assert pf.plant.trans == {(0, "a"): 0}


def test_undeclared_event_diagnostic():
    text = MINIMAL.replace("q0 a q0", "q0 zap q0")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "zap" in str(err.value) and "line" in str(err.value)


def test_undeclared_state_diagnostic():
    text = MINIMAL.replace("x0 a x0", "x0 a x9")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "x9" in str(err.value)


def test_duplicate_transition_rejected():
    text = MINIMAL.replace("q0 a q0", "q0 a q0\nq0 a q0")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "duplicate" in str(err.value)


def test_missing_section_rejected():
    text = MINIMAL.replace("[damage]", "[plant2]")
    with pytest.raises(ParseError):
        parse_problem(text)
    with pytest.raises(ParseError) as err:
        parse_problem("\n".join(l for l in MINIMAL.splitlines()
                                if "attacker-observable" not in l))
    assert "attacker-observable" in str(err.value)


def test_flag_invariant_diagnostics():
    text = MINIMAL.replace("[observable]\na", "[observable]\n")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "observable" in str(err.value)


def test_invalid_supervisor_rejected():
    text = MINIMAL.replace("[observable]\na", "[observable]\n") \
                  .replace("[controllable]\na", "[controllable]\n") \
                  .replace("x0 a x0", "")
    # a is now unobservable and uncontrollable: the supervisor must
    # self-loop it, and without repair the constructor rejects it
    with pytest.raises(S.AutomatonError):
        parse_problem(text)
    pf = parse_problem(text, repair_selfloops=True)
    assert pf.supervisor.automaton.trans == {(0, "a"): 0}


def test_repaired_selfloops_are_added_state_by_state_in_alphabet_order():
    # eight unobservable events: a hash-ordered walk over them would put
    # the loops in another order under almost every PYTHONHASHSEED
    unobservable = ("u", "v", "w", "x", "y", "z", "s", "t")
    alph = S.Alphabet(("a",) + unobservable)
    control = S.ControlConstraint(frozenset("a"), frozenset("a"))
    aut = S.PartialDFA(alph, ("x0", "x1", "x2"), {(0, "a"): 1, (1, "v"): 1})
    repaired = add_unobservable_selfloops(aut, control)
    assert list(repaired.trans)[:2] == list(aut.trans)
    assert list(repaired.trans.items())[2:] == [
        ((x, ev), x) for x in range(3) for ev in unobservable
        if (x, ev) != (1, "v")]

def test_example1_flags(example1):
    assert example1.alphabet.events == ("a", "b", "c", "d", "a'")
    c, a = example1.control, example1.attack
    assert c.observable == frozenset({"a", "c", "d", "a'"})
    assert c.controllable == c.observable
    assert a.attackable == frozenset({"a'"})
    assert a.attacker_observable == frozenset({"c", "a'"})


def test_damage_auto_completion(atk):
    assert S.is_total(atk.damage)
    assert atk.damage.names[-1] == "sink"
    assert not S.accepts(atk.damage, ("a",), marked=True)
    assert S.accepts(atk.damage, ("k",), marked=True)


def test_round_trip(example1, tri, atk, perf):
    for pf in (example1, tri, atk, perf):
        text = emit_problem(pf)
        back = parse_problem(text)
        assert back.alphabet == pf.alphabet
        assert (back.control, back.attack) == (pf.control, pf.attack)
        for a, b in ((back.plant, pf.plant),
                     (back.supervisor.automaton, pf.supervisor.automaton),
                     (back.damage, pf.damage)):
            assert a.names == b.names
            assert a.trans == b.trans
            assert a.initial == b.initial
            assert a.marked == b.marked
        # emission is stable
        assert emit_problem(back) == text


def test_with_supervisor_emission(example1):
    alph = example1.alphabet
    one = S.Supervisor(
        S.PartialDFA(alph, ("s0",), {(0, e): 0 for e in "abcd"}),
        example1.control)
    text = emit_problem(example1._replace(supervisor=one))
    back = parse_problem(text)
    assert back.supervisor.n_states == 1
    verdict = S.non_attackable(back.plant, back.supervisor, back.damage,
                               back.attack)
    assert verdict.non_attackable


@pytest.mark.parametrize("section", ["attackable", "damage"])
def test_missing_section_has_no_line(section):
    lines = MINIMAL.splitlines()
    start = lines.index(f"[{section}]")
    end = next((k for k in range(start + 1, len(lines))
                if lines[k].startswith("[")), len(lines))
    with pytest.raises(ParseError) as err:
        parse_problem("\n".join(lines[:start] + lines[end:]))
    assert str(err.value) == f"missing section [{section}]"
    assert err.value.line is None


def test_state_name_starting_with_bracket_rejected_at_its_line():
    # emitted, a transition line from such a state would read as a section
    # header; a '[' later in the name is harmless
    lines = MINIMAL.splitlines()
    at = lines.index("states: z0") + 1
    with pytest.raises(ParseError) as err:
        parse_problem(MINIMAL.replace("states: z0", "states: z0 [bad"))
    assert err.value.line == at and "'[bad'" in str(err.value)
    pf = parse_problem(MINIMAL.replace("states: z0", "states: z0 z[1] ]z"))
    assert pf.damage.names[:3] == ("z0", "z[1]", "]z")


def test_event_name_starting_with_bracket_rejected():
    with pytest.raises(S.AutomatonError, match="bad event name"):
        S.Alphabet(("a", "[b"))
    assert S.Alphabet(("a", "b[", "c]")).events == ("a", "b[", "c]")
    text = MINIMAL.replace("[alphabet]\na", "[alphabet]\na [b")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.line == MINIMAL.splitlines().index("[alphabet]") + 2
    assert "'[b'" in str(err.value)


@pytest.mark.parametrize("extra, message", [
    ("a", "duplicate event names"),
    ("e [b", "bad event name: '[b'"),
    ("e\nf a", "duplicate event names"),
], ids=["repeated", "bad", "repeated-on-the-third-line"])
def test_alphabet_fault_reported_at_its_line(extra, message, tmp_path,
                                             capsys):
    # example1's alphabet is line 5; the fault is on the line of the first
    # repeated or bad event, not at the section's first line
    lines = (FIXTURES / "example1.prob").read_text(encoding="utf-8").splitlines()
    assert lines[3:5] == ["[alphabet]", "a b c d a'"]
    added = extra.split("\n")
    text = "\n".join(lines[:5] + added + lines[5:]) + "\n"
    line = 5 + len(added)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"line {line}: {message}"
    path = tmp_path / "alphabet.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("repair", [False, True])
def test_parsing_builds_no_successor_tables(repair):
    # the parse-time checks read ``trans``: the ``delta`` rows are built
    # on first use by a walk, never while a file is read
    for path in sorted(FIXTURES.glob("*.prob")):
        pf = parse_problem(path.read_text(encoding="utf-8"),
                           repair_selfloops=repair)
        for aut in (pf.plant, pf.supervisor.automaton, pf.damage):
            assert "delta" not in aut.__dict__, path.name


def flag_text(controllable, observable, attackable, attacker_observable):
    """MINIMAL with the given flag sections, each on the line after its
    header: the alphabet ``a`` on line 2, then lines 4, 6, 8 and 10."""
    head = (f"[alphabet]\na\n[controllable]\n{controllable}\n"
            f"[observable]\n{observable}\n[attackable]\n{attackable}\n"
            f"[attacker-observable]\n{attacker_observable}\n")
    return head + MINIMAL[MINIMAL.index("[plant]"):]


@pytest.mark.parametrize("flags, message, line", [
    (("a", "", "", ""), "controllable events must be observable", 4),
    (("a", "a", "a", ""), "attackable events must be attacker-observable", 8),
    (("", "a", "a", "a"), "attackable events must be controllable", 8),
    (("", "", "", "a"), "attacker-observable events must be observable", 10),
    # two rules broken at once: the first in the order above is reported
    (("a", "", "a", ""), "controllable events must be observable", 4),
    (("", "a", "a", ""), "attackable events must be attacker-observable", 8),
    (("", "", "a", "a"), "attackable events must be controllable", 8),
], ids=["c-not-o", "a-not-ao", "a-not-c", "ao-not-o", "c-not-o+a-not-ao",
        "a-not-ao+a-not-c", "a-not-c+ao-not-o"])
def test_flag_violation_reported_at_the_alphabet(flags, message, line,
                                                 tmp_path, capsys):
    # no longer at the alphabet: at the line of the first event in the
    # rule's subject section that breaks it
    text = flag_text(*flags)
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line
    path = tmp_path / "flags.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_flag_violation_skips_the_lines_that_keep_the_rule():
    # [controllable] lists b, which is observable, on its first line and
    # a, which is not, on its second
    text = ("[alphabet]\na b\n[controllable]\nb\na\n[observable]\nb\n"
            "[attackable]\n[attacker-observable]\n"
            + MINIMAL[MINIMAL.index("[plant]"):])
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == "line 5: controllable events must be observable"


def empty_section_text(section: str) -> str:
    """MINIMAL with ``section`` emptied; an empty [alphabet] empties the
    flag sections too, and then heads the file."""
    if section == "alphabet":
        return ("[alphabet]\n[controllable]\n[observable]\n[attackable]\n"
                "[attacker-observable]\n" + MINIMAL[MINIMAL.index("[plant]"):])
    start = MINIMAL.index(f"[{section}]\n") + len(f"[{section}]\n")
    return MINIMAL[:start] + MINIMAL[MINIMAL.index("[", start):]


@pytest.mark.parametrize("section, message", [
    ("alphabet", "alphabet must be nonempty"),
    ("plant", "[plant] is missing states:"),
])
def test_empty_section_reported_at_its_header(section, message, tmp_path,
                                              capsys):
    text = empty_section_text(section)
    line = text.splitlines().index(f"[{section}]") + 1
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.line == line
    path = tmp_path / "empty.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("key, repeat", [
    ("states:", "states: z0 z1"),
    ("initial:", "initial: z0"),
    ("marked:", "marked:"),
    ("auto-complete:", "auto-complete: false"),
])
def test_repeated_key_rejected_at_its_line(key, repeat, tmp_path, capsys):
    # a second line for a key would silently replace the first, e.g. an
    # empty marked: dropping the damage's marked states
    lines = MINIMAL.splitlines()
    first = next(k for k in range(lines.index("[damage]"), len(lines))
                 if lines[k].startswith(key))
    lines.insert(first + 1, repeat)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    message = f"line {first + 2}: repeated {key} in [damage]"
    assert str(err.value) == message
    path = tmp_path / "repeated.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, message", [
    ("initial:", "initial state 'z7' not declared"),
    ("marked:", "marked state 'z7' not declared"),
])
def test_undeclared_key_state_reported_at_the_key_line(key, message):
    # the key sits below the section's first line, where the error used
    # to point
    lines = MINIMAL.splitlines()
    at = next(k for k in range(lines.index("[damage]"), len(lines))
              if lines[k].startswith(key))
    assert lines[at - 1] != "[damage]"
    lines[at] = f"{key} z7"
    with pytest.raises(ParseError) as err:
        parse_problem("\n".join(lines))
    assert str(err.value) == f"line {at + 1}: {message}"
