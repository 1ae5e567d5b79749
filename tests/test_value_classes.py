"""The value classes' contract: repr, equality, hash, construction, mutability, copying.

These pin the behaviour the classes had as dataclasses, so that stdout
built from a repr and any set or dict order built from a hash stay as
they were.  ``import majoritygame.cli`` and one ``main`` call load no
``dataclasses``, ``inspect``, ``argparse``, ``gettext`` or ``locale``: the
last test checks that in a fresh interpreter.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from majoritygame.core import AssignerChoice, GameParams, Position
from majoritygame.solver import SolverStats, TraceStep
from majoritygame.verify import SuiteReport

STEP = TraceStep(Position((1, 1)), (1, 1), AssignerChoice.PLUS)

# (value, its repr, its fields by name in order, an unequal value of the same class)
CASES = [
    (GameParams(13, 7), "GameParams(n=13, k=7)", {"n": 13, "k": 7}, GameParams(13, 8)),
    (Position((2, 1)), "Position(elements=(1, 2))", {"elements": (1, 2)}, Position((2, 2))),
    (SolverStats(), "SolverStats(entries=0, probes=0, hits=0)",
     {"entries": 0, "probes": 0, "hits": 0}, SolverStats(hits=1)),
    (STEP, "TraceStep(position=Position(elements=(1, 1)), pair=(1, 1), "
           "choice=<AssignerChoice.PLUS: '+'>)",
     {"position": Position((1, 1)), "pair": (1, 1), "choice": AssignerChoice.PLUS},
     TraceStep(Position((1, 1)), (1, 1), AssignerChoice.MINUS)),
    (SuiteReport("demo"), "SuiteReport(suite='demo', cases=0, failure_count=0, "
                          "failures=[], details={})",
     {"suite": "demo", "cases": 0, "failure_count": 0, "failures": [], "details": {}},
     SuiteReport("demo", cases=1)),
]
FROZEN = (GameParams, Position, TraceStep)


def cases(frozen):
    return [pytest.param(*case, id=type(case[0]).__name__)
            for case in CASES if isinstance(case[0], FROZEN) == frozen]


@pytest.mark.parametrize("value, text, fields, other", cases(True) + cases(False))
class TestEveryClass:
    def test_repr(self, value, text, fields, other):
        assert repr(value) == text

    def test_equality(self, value, text, fields, other):
        same = type(value)(*fields.values())
        assert value == same and not value != same
        assert value != other and not value == other
        values = tuple(fields.values())
        assert value.__eq__(values) is NotImplemented
        assert value != values
        assert value.__eq__(object()) is NotImplemented

    def test_keyword_construction(self, value, text, fields, other):
        assert type(value)(**fields) == value

    def test_copy_and_pickle_give_an_equal_value(self, value, text, fields, other):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value, text, fields, other", cases(True))
class TestFrozenClasses:
    def test_hash_is_the_hash_of_the_fields(self, value, text, fields, other):
        assert hash(value) == hash(tuple(fields.values()))
        assert hash(type(value)(**fields)) == hash(value)

    def test_fields_cannot_be_assigned_or_deleted(self, value, text, fields, other):
        for name, field in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, name, field)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert repr(value) == text


@pytest.mark.parametrize("value, text, fields, other", cases(False))
def test_mutable_classes_are_unhashable(value, text, fields, other):
    with pytest.raises(TypeError):
        hash(value)


def test_mutable_fields_assign_and_defaults_are_not_shared():
    stats = SolverStats(entries=3)
    stats.probes += 2
    assert stats == SolverStats(3, 2, 0)
    first, second = SuiteReport("a"), SuiteReport("a")
    first.failures.append("w")
    first.details["k"] = 1
    assert second.failures == [] and second.details == {}
    assert first != second


def test_position_default_and_sorting():
    assert Position() == Position(()) == Position(elements=())
    assert Position([3, 0, 2]).elements == (0, 2, 3)
    assert Position._sorted((1, 2)) == Position((2, 1))
    assert hash(Position._sorted((1, 2))) == hash(((1, 2),))


@pytest.mark.parametrize("args, message", [
    ((7.0, 4), "n and k must be integers, got n=7.0, k=4"),
    ((True, 1), "n and k must be integers, got n=True, k=1"),
    ((0, 1), "ball count must be positive, got n=0"),
    ((3, 4), "threshold k=4 exceeds ball count n=3"),
    ((4, 2), "threshold k=2 does not guarantee a majority for n=4"),
])
def test_game_params_messages(args, message):
    with pytest.raises(ValueError) as info:
        GameParams(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("weights, message", [
    ((1, -1), "weights must be non-negative integers, got -1"),
    ((1.5, 2), "weights must be non-negative integers, got 1.5"),
    ((True,), "weights must be non-negative integers, got True"),
])
def test_position_messages(weights, message):
    with pytest.raises(ValueError) as info:
        Position(weights)
    assert str(info.value) == message


def test_cli_import_and_one_call_load_no_banned_module():
    # a fresh interpreter, so no module an earlier test imported is already loaded; the
    # call matters too, since argparse loaded gettext and locale only while it parsed
    probe = ("import sys; before = set(sys.modules); import majoritygame.cli; "
             "majoritygame.cli.main(['value', '--n', '5', '--k', '3']); "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    stdout = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60).stdout
    added = stdout.splitlines()[-1].split()
    assert "comparisons: 3\n" in stdout
    assert "majoritygame.cli" in added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale"}
    assert not banned & set(added), added
    assert "csv" not in added  # only --format csv output imports it
