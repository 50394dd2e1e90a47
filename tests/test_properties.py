"""Property tests with hypothesis: problem files round-trip through the
text format, and no input text makes the command line raise."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

import supobf as S
from supobf.cli import main
from conftest import FIXTURES

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)

# tokens that the format reads back as themselves: no whitespace, no
# comment sign, no leading section bracket
NAME = st.text(alphabet="abqxz019_'(),.", min_size=1, max_size=3)


@st.composite
def alphabets(draw):
    """An ``(alphabet, control, attack)`` triple."""
    events = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    observable = draw(st.sets(st.sampled_from(events)))
    obs = sorted(observable)
    controllable = draw(st.sets(st.sampled_from(obs))) if obs else set()
    attacker_observable = draw(st.sets(st.sampled_from(obs))) if obs else set()
    both = sorted(controllable & attacker_observable)
    attackable = draw(st.sets(st.sampled_from(both))) if both else set()
    return (S.Alphabet(tuple(events)),
            S.ControlConstraint(frozenset(controllable), frozenset(observable)),
            S.AttackConstraint(frozenset(attackable),
                               frozenset(attacker_observable)))


def automata(alphabet: S.Alphabet, required=lambda ev: False,
             selfloop=lambda ev: False, marked: bool = False):
    """Partial automata over ``alphabet``; ``required`` events are defined
    at every state, ``selfloop`` events only as self-loops."""
    @st.composite
    def build(draw) -> S.PartialDFA:
        names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
        n = len(names)
        trans = {}
        for q in range(n):
            for ev in alphabet.events:
                if not required(ev) and not draw(st.booleans()):
                    continue
                trans[(q, ev)] = q if selfloop(ev) else \
                    draw(st.integers(0, n - 1))
        initial = draw(st.integers(0, n - 1))
        marks = None
        if marked and draw(st.booleans()):
            marks = frozenset(draw(st.sets(st.integers(0, n - 1))))
        return S.PartialDFA(alphabet, tuple(names), trans, initial, marks)
    return build()


@st.composite
def problems(draw) -> S.ProblemFile:
    alphabet, control, attack = draw(alphabets())
    plant = draw(automata(alphabet, marked=True))
    sup = draw(automata(alphabet,
                        required=lambda ev: ev not in control.controllable,
                        selfloop=lambda ev: ev not in control.observable))
    damage = draw(automata(alphabet, marked=True))
    return S.ProblemFile(alphabet, plant, S.Supervisor(sup, control), damage,
                         control, attack)


@PROPERTY_SETTINGS
@given(problems())
def test_emit_parse_round_trip(pf):
    text = S.emit_problem(pf)
    back = S.parse_problem(text)
    assert back == pf
    assert S.emit_problem(back) == text


FIXTURE_TEXTS = [p.read_text(encoding="utf-8")
                 for p in sorted(FIXTURES.glob("*.prob"))]


@st.composite
def mutated_fixtures(draw) -> str:
    """A fixture with some lines deleted, duplicated or replaced, so most
    draws get past the section split and fail deeper in the parser or in
    validation."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if action == "delete":
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = draw(st.text(max_size=12))
    return "\n".join(lines) + "\n"


def run_cli(path: str, command: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path] + (["--limit", "20"]
                                       if command == "obfuscate" else []))
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code


def check_never_raises(tmp_path_factory, data: bytes, command: str):
    path = tmp_path_factory.mktemp("prop") / "input.prob"
    path.write_bytes(data)
    assert run_cli(str(path), command) in (0, 1, 2)


COMMANDS = st.sampled_from(("validate", "closed-loop", "check", "obfuscate"))


@PROPERTY_SETTINGS
@given(st.text(), COMMANDS)
def test_arbitrary_text_exits_cleanly(tmp_path_factory, text, command):
    check_never_raises(tmp_path_factory, text.encode("utf-8"), command)


@PROPERTY_SETTINGS
@given(st.binary(max_size=64), COMMANDS)
def test_arbitrary_bytes_exit_cleanly(tmp_path_factory, data, command):
    check_never_raises(tmp_path_factory, data, command)


@PROPERTY_SETTINGS
@given(mutated_fixtures(), COMMANDS)
def test_mutated_fixtures_exit_cleanly(tmp_path_factory, text, command):
    check_never_raises(tmp_path_factory, text.encode("utf-8"), command)
