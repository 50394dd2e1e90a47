"""The result records are immutable named tuples, read by field; only the
classes that validate their arguments stay dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import supobf

RECORDS = {
    supobf.GPAutomaton: ("cores", "eps", "moves", "attack",
                         "component_names"),
    supobf.SubsetAutomaton: ("subsets", "trans", "labels"),
    supobf.AttackWitness: ("observations", "subset", "event"),
    supobf.AttackVerdict: ("non_attackable", "witness", "subset_automaton",
                           "product"),
    supobf.OracleResult: ("attackable", "conclusive", "exhausted", "witness",
                          "strings_seen"),
    supobf.DamageReport: ("problem", "witness"),
    supobf.ProblemFile: ("alphabet", "plant", "supervisor", "damage",
                         "control", "attack"),
    supobf.ObfuscationRequest: ("plant", "supervisor", "target_constraint",
                                "attack", "damage", "n_max",
                                "enumeration_limit"),
    supobf.ObfuscationResult: ("found", "supervisor", "size", "n_max",
                               "trace", "solver_stats", "truncated"),
    supobf.SizeTrace: ("n", "candidates", "resilient"),
    supobf.CnfInstance: ("num_vars", "clauses"),
}

KEPT_DATACLASSES = {"Alphabet", "PartialDFA", "ControlConstraint",
                    "AttackConstraint", "Supervisor"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_result_record_is_an_immutable_named_tuple(cls):
    fields = RECORDS[cls]
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert not dataclasses.is_dataclass(cls)
    # placeholders for the fields without a default; tuples do not check
    required = len(fields) - len(cls._field_defaults)
    record = cls(*range(required))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_result_record_defaults_and_properties():
    verdict = supobf.AttackVerdict(True)
    assert verdict.witness is None
    assert verdict.subset_automaton is None and verdict.product is None
    oracle = supobf.OracleResult(False, True, True)
    assert oracle.witness is None and oracle.strings_seen == 0
    result = supobf.ObfuscationResult(False, None, None, 2,
                                      [supobf.SizeTrace(1, 5, 0)],
                                      {"models": 5})
    assert result.truncated is False
    assert result.candidates_tested == 5
    assert result.trace[0].tested == 5
    request = supobf.ObfuscationRequest(*range(5))
    assert request.n_max is None and request.enumeration_limit is None
    assert supobf.DamageReport().ok
    assert not supobf.DamageReport("bad").ok
    # a record is a tuple: equal to the plain tuple of its fields
    assert supobf.SizeTrace(1, 5, 0) == (1, 5, 0)
    assert supobf.SizeTrace(1, 5, 0)._replace(resilient=2) == (1, 5, 2)


def test_only_the_validating_and_caching_classes_are_dataclasses():
    # a new record built from generated code shows up here
    found = set()
    for info in pkgutil.iter_modules(supobf.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"supobf.{info.name}")
        for name, obj in inspect.getmembers(mod, inspect.isclass):
            if obj.__module__ == mod.__name__ and \
                    dataclasses.is_dataclass(obj):
                found.add(name)
    assert found == KEPT_DATACLASSES
