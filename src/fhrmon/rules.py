"""Configuration fields declared once: their rules, their option, and one checker.

A :func:`declared` field's ``dataclasses`` metadata holds its ordered rules and,
for a ``run`` option, its flag and help.  Rules relating two fields stay in
the owning class's ``__post_init__``.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import Callable, NamedTuple


class Rule(NamedTuple):
    """A test a field's value must pass, and the message naming a value that fails it."""

    test: Callable[[object], bool]
    message: str  # formatted with the field's name and value
    type: type | None = None  # an option's argparse type
    choices: tuple | None = None  # and its argparse choices


def is_number(value) -> bool:
    """True for an int or float that is not a bool, as a numeric field must be."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


STRING = Rule(lambda v: isinstance(v, str), "{name} must be a string, got {value!r}")
INTEGER = Rule(lambda v: is_number(v) and isinstance(v, int),
               "{name} must be an integer, got {value!r}", int)
NUMBER = Rule(is_number, "{name} must be a number, got {value!r}", float)
POSITIVE = Rule(lambda v: 0 < v < math.inf,  # False for NaN, as is NON_NEGATIVE's test
                "{name} must be positive and finite, got {value}")
NON_NEGATIVE = Rule(lambda v: 0 <= v < math.inf, "{name} must be non-negative and finite")
SEED = Rule(lambda v: INTEGER.test(v) and v >= 0,
            "{name} must be a non-negative integer, got {value!r}")


def at_least(lo) -> Rule:
    return Rule(lambda v: v >= lo, f"{{name}} must be >= {lo}, got {{value}}")


def one_of(choices: tuple) -> Rule:
    return Rule(lambda v: v in choices, f"{{name}} must be one of {choices}, got {{value!r}}",
                choices=choices)


def bpm(lo: float) -> Rule:
    return Rule(lambda v: lo <= v <= 300.0, f"{{name}} out of [{lo:g}, 300]: {{value}}")


def declared(default, *rules: Rule, flag: str | None = None, help: str | None = None):
    """A dataclass field with ``default``, checked by ``rules`` in order.

    If ``default`` is None the field also takes None, which no rule checks.
    With ``help`` it is a ``run`` option: ``flag``, else ``--`` and its name
    with dashes, whose ``add_argument`` keywords are ``option``.
    """
    kinds = {k: v for r in rules for k, v in (("type", r.type), ("choices", r.choices)) if v}
    option = {"help": help, **kinds} if help else None
    return field(default=default, metadata={"rules": rules, "flag": flag, "option": option})


def check_fields(obj, error: type[Exception]) -> None:
    """Raise ``error`` with the message of the first rule that a field of ``obj`` fails."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            for rule in f.metadata.get("rules", ()):
                if not rule.test(value):
                    raise error(rule.message.format(name=f.name, value=value))
