"""The package's value types are plain NamedTuples: importing the CLI loads
no ``dataclasses``, and instances pickle, copy and compare as tuples of their
fields.  None of them checks its fields; an outside q or generator list is
checked where it enters, by ``PrimePower.from_value`` and ``parse_outer``,
whose messages are pinned here."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import psl2cd
from psl2cd.classifier import GroupVerdict, brute_force_verdict
from psl2cd.groups import GroupDescriptor, OuterExpressionError, OuterKind, OuterSubgroup, PrimePower, parse_outer
from psl2cd.twoprime import Violation

U, WD, T = OuterKind.UNTWISTED, OuterKind.WITH_DIAGONAL, OuterKind.TWISTED


def test_cli_import_loads_no_dataclasses():
    # Only what the import itself adds counts, so a module that a site hook
    # loaded before it cannot fail this test.
    code = (
        "import sys; before = set(sys.modules); import psl2cd.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(psl2cd.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


_VALUES = [
    PrimePower(3, 4, 81),
    OuterSubgroup(T, 2),
    GroupDescriptor(PrimePower(3, 4, 81), OuterSubgroup(WD, 2)),
    brute_force_verdict(GroupDescriptor(PrimePower(2, 6, 64), OuterSubgroup(U, 6))),  # fails
    brute_force_verdict(GroupDescriptor(PrimePower(3, 2, 9), OuterSubgroup(WD, 2))),  # passes
]


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(value, protocol):
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_copy_round_trip(value):
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert type(duplicate) is type(value)
        assert duplicate == value


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None  # no __dict__ either


def test_verdict_with_violations_is_among_the_values():
    assert _VALUES[3].violations and isinstance(_VALUES[3].violations[0], Violation)
    assert isinstance(_VALUES[4], GroupVerdict) and not _VALUES[4].violations


def test_repr_and_hash_are_those_of_the_fields():
    pp = PrimePower(3, 2, 9)
    assert repr(pp) == "PrimePower(p=3, f=2, q=9)"
    assert repr(OuterSubgroup(WD, 1)) == "OuterSubgroup(kind=<OuterKind.WITH_DIAGONAL: 'with_diagonal'>, d=1)"
    assert hash(pp) == hash((3, 2, 9))
    assert PrimePower(p=3, f=2, q=9) == pp


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrimePower.from_value(12), ValueError, "12 is not a prime power"),
        (lambda: PrimePower.from_value(2), ValueError, "q = 2 < 4 admits no almost simple group here"),
        (lambda: PrimePower.from_value(1), ValueError, "1 has no prime-power decomposition"),
        (
            lambda: PrimePower.from_value(3**40),
            OverflowError,
            "12157665459056928801 is out of range: inputs must be below 2**63",
        ),
        (
            lambda: parse_outer("delta", PrimePower.from_value(8)),
            OuterExpressionError,
            "delta requires odd characteristic (at position 0)",
        ),
    ],
    ids=["not-prime", "q-below-4", "exponent-0", "q-past-cap", "diagonal-char-2"],
)
def test_constructor_messages(build, error, message):
    # The entry points reject q = 12 (no prime p with p**f = 12), q = 2,
    # q = 3**0 = 1, q = 3**40 past 2**63, and delta at p = 2.
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
