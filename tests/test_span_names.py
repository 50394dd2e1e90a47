"""The benchmark's tracer (``perfbench/tracing.py``) times the pipeline by
replacing these functions where their callers look them up, by name.  A
renamed function, or a caller that stops going through the name, would
drop its layer out of the traced results without an error, so these tests
wrap the same names with counters and check that both entry points still
call each of them."""

import importlib
from collections import Counter

import supobf as S
from supobf.sat import SatSolver

attack_mod = importlib.import_module("supobf.attack")
obfuscate_mod = importlib.import_module("supobf.obfuscate")

ATTACK_NAMES = ("validate_damage", "generalized_product",
                "project_attacker_view", "determinize_and_label",
                "non_attackable")
OBFUSCATE_NAMES = ("validate_damage", "dual_marked_product",
                   "canonical_key", "encode", "solve_instance",
                   "decode_model", "blocking_clause", "non_attackable",
                   "obfuscate")


def count_calls(monkeypatch) -> Counter:
    """Wrap every traced name with a counter keyed ``module.name``."""
    calls = Counter()

    def wrap(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for mod, names in ((attack_mod, ATTACK_NAMES),
                       (obfuscate_mod, OBFUSCATE_NAMES)):
        short = mod.__name__.split(".")[-1]
        for name in names:
            monkeypatch.setattr(mod, name,
                                wrap(f"{short}.{name}", getattr(mod, name)))
    monkeypatch.setattr(SatSolver, "solve",
                        wrap("SatSolver.solve", SatSolver.solve))
    return calls


def test_verify_calls_every_traced_name(monkeypatch, example1):
    calls = count_calls(monkeypatch)
    verdict = attack_mod.non_attackable(example1.plant, example1.supervisor,
                                        example1.damage, example1.attack)
    assert not verdict.non_attackable
    assert set(calls) == {f"attack.{name}" for name in ATTACK_NAMES}
    # the damage check is one call, the whole of ``control.validate``
    assert calls["attack.validate_damage"] == 1
    # the product and the view are one call each, so no walk of theirs
    # runs outside ``attack.gp`` and ``attack.view``
    assert calls["attack.generalized_product"] == 1
    assert calls["attack.project_attacker_view"] == 1


def test_obfuscate_calls_every_traced_name(monkeypatch, example1):
    calls = count_calls(monkeypatch)
    result = obfuscate_mod.obfuscate(S.ObfuscationRequest(
        example1.plant, example1.supervisor, example1.control,
        example1.attack, example1.damage))
    assert result.found
    # candidates are verified without a second damage validation
    expected = {f"obfuscate.{name}" for name in OBFUSCATE_NAMES}
    expected |= {f"attack.{name}" for name in ATTACK_NAMES
                 if name not in ("validate_damage", "non_attackable")}
    expected.add("SatSolver.solve")
    assert set(calls) == expected
    assert calls["obfuscate.validate_damage"] == 1


def test_obfuscate_loads_every_row_through_the_traced_names(monkeypatch,
                                                              perf):
    # perf climbs two sizes: each adds one row, encoded by one ``encode``
    # call and loaded by one ``solve_instance`` call, so the growth is
    # timed as encoding and loading
    calls = count_calls(monkeypatch)
    result = obfuscate_mod.obfuscate(S.ObfuscationRequest(
        perf.plant, perf.supervisor, perf.control, perf.attack, perf.damage))
    assert [r.n for r in result.trace] == [1, 2]
    assert calls["obfuscate.encode"] == calls["obfuscate.solve_instance"] == 2


def test_obfuscate_decodes_blocks_and_keys_each_model_once(monkeypatch, atk):
    # atk enumerates one model at size 1 and nine at size 2: each is
    # decoded, blocked and keyed exactly once, so the decode and
    # canonical-key layers time one call per model
    calls = count_calls(monkeypatch)
    result = obfuscate_mod.obfuscate(S.ObfuscationRequest(
        atk.plant, atk.supervisor, atk.control, atk.attack, atk.damage))
    assert [r.candidates for r in result.trace] == [1, 9]
    models = result.solver_stats["models"]
    assert models == result.candidates_tested == 10
    assert calls["obfuscate.decode_model"] == models
    assert calls["obfuscate.blocking_clause"] == models
    assert calls["obfuscate.canonical_key"] == models


def test_obfuscate_verifies_each_candidate_once(monkeypatch, atk):
    # every model is one candidate, and each candidate runs one product,
    # one view and one subset construction, so the attack layers time
    # exactly the verifications the search makes
    calls = count_calls(monkeypatch)
    result = obfuscate_mod.obfuscate(S.ObfuscationRequest(
        atk.plant, atk.supervisor, atk.control, atk.attack, atk.damage))
    models = result.solver_stats["models"]
    assert models == 10
    for key in ("obfuscate.non_attackable", "attack.generalized_product",
                "attack.project_attacker_view",
                "attack.determinize_and_label"):
        assert calls[key] == models, key


def test_the_benchmark_recorder_calls_still_answer(example1):
    # ``perfbench/record.py`` records a workload's pool through these
    # calls and reads these fields of their results; a renamed function,
    # argument or field would break the recorder, which no other test runs
    pf = example1
    product = S.dual_marked_product(pf.plant, pf.supervisor.automaton)
    assert product.n_states == 9
    gp = S.generalized_product(pf.plant, pf.supervisor, pf.damage, pf.attack)
    assert gp.n_states == 7
    verdict = S.non_attackable(pf.plant, pf.supervisor, pf.damage, pf.attack,
                               validate=True)
    assert len(verdict.subset_automaton.subsets) == 6
    result = S.obfuscate(S.ObfuscationRequest(
        pf.plant, pf.supervisor, pf.control, pf.attack, pf.damage))
    assert [(r.n, r.candidates) for r in result.trace] == [(1, 1)]
    assert result.solver_stats["models"] == 1
    assert result.supervisor.n_states == 1
    # the oracle and the constraint check, on the input's supervisor and
    # on the returned one
    for sup, attackable in ((pf.supervisor, True), (result.supervisor, False)):
        oracle = S.attackable_by_search(pf.plant, sup, pf.damage, pf.attack,
                                        12, 50_000)
        assert oracle.conclusive and oracle.attackable == attackable
        assert S.check_supervisor(sup.automaton, pf.control) == []
