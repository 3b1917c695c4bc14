"""Property tests over the declared configuration fields.

Every ``RunConfig`` and ``SynthSpec`` field declares its rules in its
``dataclasses`` metadata.  These tests read the declarations: a value a
field's rules accept must construct, and one they refuse must raise a
message that starts with the field's name, and through ``fhrmon run
--config`` exit 2 with that one ``error:`` line.  The refused values include
a fixed set each field must refuse whatever its rules say: a value of the
wrong kind, and -1, NaN and infinity for a number.  Only configurations are
built; no pipeline runs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from fhrmon.cli import main as cli_main
from fhrmon.io import SynthSpec
from fhrmon.pipeline import ConfigError, RunConfig

# A csv recording: every RunConfig field, fs and annotations_path too, applies to it.
BASE = {"input_path": "rec.csv", "fs": 1000.0}
# Messages of the rules that relate two fields, which no single field's value can pass.
CROSS_FIELD = (
    "thoracic and abdominal name one channel",
    "exactly one of input_path or synth",
    "duration_s * fs must be at most",
    "makes the QRS pulse",
)
FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in (RunConfig, SynthSpec)
    for f in dataclasses.fields(cls)
    if f.metadata.get("rules")
]
NAN, INF = float("nan"), float("inf")
VALUES = {
    "str": st.text(max_size=6),
    "int": st.integers(-3, 2**40),
    "float": st.floats(allow_nan=True, allow_infinity=True),
}


def kind(f) -> str:
    """The field's annotated kind: str, int or float."""
    return f.type.split(" | ")[0]


def optional(f) -> bool:
    return f.default is None


def build(cls, name: str, value):
    if cls is RunConfig:
        return RunConfig.from_dict({**BASE, name: value})
    return SynthSpec(**{name: value})


def refusal(f, value) -> str | None:
    """The message of the first rule of ``f`` that ``value`` fails, None if it fails none."""
    if value is None and optional(f):
        return None
    for rule in f.metadata["rules"]:
        if not rule.test(value):
            return rule.message.format(name=f.name, value=value)
    return None


def always_refused(f) -> list:
    """Values of the wrong kind and, for a number, -1, NaN and infinity; a non-choice if any."""
    wrong = {"str": [5, 2.5, True, ["csv"]], "int": ["7", 2.5, True, [1], NAN],
             "float": ["0.1", True, [1.0]]}[kind(f)]
    breakers = [-1, NAN, INF, -INF] if kind(f) != "str" else []
    choices = [r.choices for r in f.metadata["rules"] if r.choices]
    return wrong + breakers + ([] if optional(f) else [None]) + (["not-a-choice"] if choices else [])


def candidates(f):
    """Any value of the field's kind, its default, 0, its choices, None, and its refused values."""
    choices = [c for r in f.metadata["rules"] if r.choices for c in r.choices]
    fixed = [f.default, 0, 1, 30.0, 300.0, None, *choices, *always_refused(f)]
    return st.one_of(VALUES[kind(f)], st.sampled_from(fixed))


@pytest.mark.parametrize("cls, f", FIELDS)
def test_declared_refusals_cover_wrong_kinds_and_breakers(cls, f):
    for value in always_refused(f):
        assert refusal(f, value) is not None, value
    assert refusal(f, f.default) is None


@pytest.mark.parametrize("cls, f", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_value_constructs_or_names_the_field(cls, f, data):
    value = data.draw(candidates(f))
    message = refusal(f, value)
    if message is None:
        try:
            obj = build(cls, f.name, value)
        except ValueError as exc:
            if not any(m in str(exc) for m in CROSS_FIELD):
                raise
            reject()  # the value passes its own rules, but not one relating it to another field
        assert getattr(obj, f.name) == value
    else:
        with pytest.raises(ConfigError if cls is RunConfig else ValueError) as raised:
            build(cls, f.name, value)
        assert str(raised.value) == message
        assert message.startswith(f"{f.name} ")


@pytest.mark.parametrize("cls, f", FIELDS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_refused_config_value_exits_2_with_one_error_line(cls, f, data, tmp_path, capsys):
    value = data.draw(st.sampled_from(always_refused(f)))
    config = {**BASE, f.name: value} if cls is RunConfig else {"synth": {f.name: value}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli_main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal(f, value)}\n"
    assert captured.err.startswith(f"error: {f.name} ")
