"""Soft backend against the bit-level unit, and the op counts the stages issue.

Inside the rounding scope the soft backend's add/sub/mul take a float32 cast
for normal operands with a normal result and defer every other case to
``fpu_*``; outside it every case goes there.  These tests run the ops in the
scope and hold the backend to ``fpu.py`` word for word, flag for flag and
message for message.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhrmon import fhr, lms, numeric
from fhrmon.fpu import (
    EXP_MASK, FRAC_MASK, MAX_NORMAL_MAG, CmpCode, FpuFlags, OperandError, decode, encode, fpu_add,
    fpu_cmp, fpu_mul, fpu_sub, join
)
from fhrmon.io import SynthSpec, generate_synthetic
from fhrmon.numeric import SoftF32Backend, make_backend
from fhrmon.pipeline import run_pipeline
from fhrmon.preprocess import IirFilter, PreprocessChain
from test_fpu import random_normal_words
from test_lms import truncating

ORACLES = {"add": fpu_add, "sub": fpu_sub, "mul": fpu_mul}
SIGN = 0x80000000


def _outcome(fn, *args):
    """The result word, or the text of the OperandError the call raised."""
    try:
        return fn(*args)
    except OperandError as exc:
        return f"OperandError: {exc}"


def _assert_matches_oracle(pairs):
    """Per pair, in the rounding scope: same word or error text, and the same flags raised."""
    for name, oracle in ORACLES.items():
        backend = SoftF32Backend()
        method = getattr(backend, name)
        ref_flags = FpuFlags()
        with backend.rounding_scope():
            for a, b in pairs:
                got = _outcome(method, a, b)
                want = _outcome(oracle, a, b, ref_flags)
                assert got == want, f"{name}({a:#010x}, {b:#010x})"
                assert backend.flags == ref_flags, f"{name}({a:#010x}, {b:#010x}) flags"


def _words(sign, exponent, fraction):
    return (np.asarray(sign, dtype=np.int64) << 31) | (
        np.asarray(exponent, dtype=np.int64) << 23
    ) | np.asarray(fraction, dtype=np.int64)


def _pairs(a, b):
    return list(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))


class TestSoftBackendDifferential:
    def test_million_pairs_match_fpu(self, million_pairs):
        # criterion 1's seeded pairs, through the backend methods
        a, b = million_pairs.a.tolist(), million_pairs.b.tolist()
        for name in ORACLES:
            backend = SoftF32Backend()
            ref_flags = million_pairs.flags[name]
            with backend.rounding_scope():
                got = list(map(getattr(backend, name), a, b))
            assert got == million_pairs.words[name].tolist(), name
            assert backend.flags == ref_flags, name
            assert ref_flags.any()  # the random exponents do leave the range

    def test_signed_zeros(self):
        others = [0x00000000, SIGN, 0x3F800000, 0xBF800000, join(0, 1, 0), join(1, 254, 0x7FFFFF)]
        pairs = [(z, w) for z in (0x00000000, SIGN) for w in others]
        _assert_matches_oracle(pairs + [(w, z) for z, w in pairs])

    def test_near_cancellation(self):
        rng = np.random.default_rng(5)
        n = 4000
        a = _words(rng.integers(0, 2, n), rng.integers(2, 254, n), rng.integers(16, (1 << 23) - 16, n))
        nudge = rng.integers(-8, 9, n)
        pairs = _pairs(a, (a ^ SIGN) + nudge) + _pairs(a, a + nudge)
        # a power of two against the float just below it (borrow across the binade)
        lower = join(0, 126, 0x7FFFFF)
        pairs += [(0x3F800000, lower ^ SIGN), (0x3F800000, lower), (SIGN | 0x3F800000, lower)]
        _assert_matches_oracle(pairs)

    def test_exponent_gaps_20_to_40(self):
        rng = np.random.default_rng(6)
        n = 4000
        gap = rng.integers(20, 41, n)
        ea = rng.integers(41, 255, n)
        a = _words(rng.integers(0, 2, n), ea, rng.integers(0, 1 << 23, n))
        b = _words(rng.integers(0, 2, n), ea - gap, rng.integers(0, 1 << 23, n))
        # powers of two stress the step down into the lower binade
        p = _words(rng.integers(0, 2, n), ea, 0)
        _assert_matches_oracle(_pairs(a, b) + _pairs(b, a) + _pairs(p, b) + _pairs(b, p))

    def test_overflow_and_underflow_at_exponent_limits(self):
        rng = np.random.default_rng(7)
        n = 2000
        edge = rng.choice([1, 2, 253, 254], n)
        a = _words(rng.integers(0, 2, n), edge, rng.integers(0, 1 << 23, n))
        b_big = _words(rng.integers(0, 2, n), rng.integers(120, 255, n), rng.integers(0, 1 << 23, n))
        b_small = _words(rng.integers(0, 2, n), rng.integers(1, 135, n), rng.integers(0, 1 << 23, n))
        b_edge = _words(rng.integers(0, 2, n), edge, rng.integers(0, 1 << 23, n))
        pairs = _pairs(a, b_big) + _pairs(a, b_small) + _pairs(a, b_edge) + _pairs(b_edge, a)
        _assert_matches_oracle(pairs)
        flags = FpuFlags()
        for a_w, b_w in pairs:
            fpu_add(a_w, b_w, flags)
            fpu_mul(a_w, b_w, flags)
        assert flags.overflow and flags.underflow  # both limits were reached

    def test_inf_nan_subnormal_operands(self):
        bad = [
            join(0, 255, 0),
            join(1, 255, 0),
            join(0, 255, 1),
            join(1, 255, 0x400000),
            join(0, 0, 1),
            join(1, 0, 0x7FFFFF),
        ]
        good = [0x00000000, SIGN, 0x3F800000, 0xC0490FDB, join(0, 1, 0), join(1, 254, 0x7FFFFF)]
        pairs = [(x, y) for x in bad for y in good + bad] + [(y, x) for x in bad for y in good]
        _assert_matches_oracle(pairs)


def _assert_value_ops_match_oracle(pairs):
    """Scalar and bulk value ops on the values of normal-or-zero word pairs.

    Per pair the scalar op, in the rounding scope, gives the oracle's word and
    raises its flags; the bulk op over all pairs gives the same words and flag
    totals.
    """
    a_words = [a for a, _ in pairs]
    b_words = [b for _, b in pairs]
    for name, oracle in ORACLES.items():
        ref_flags = FpuFlags()
        scalar = SoftF32Backend()
        vop = getattr(scalar, f"v{name}")
        a_vals, b_vals = scalar.to_values(a_words).tolist(), scalar.to_values(b_words).tolist()
        want = []
        with scalar.rounding_scope():
            for a, b, x, y in zip(a_words, b_words, a_vals, b_vals):
                want.append(oracle(a, b, ref_flags))
                got = scalar.to_words([vop(x, y)])
                assert got == want[-1:], f"v{name}({a:#010x}, {b:#010x})"
                assert scalar.flags == ref_flags, f"v{name}({a:#010x}, {b:#010x}) flags"
        bulk = SoftF32Backend()
        out = getattr(bulk, f"bulk_{name}")(bulk.to_values(a_words), bulk.to_values(b_words))
        assert bulk.to_words(out) == want, f"bulk_{name}"
        assert bulk.flags == ref_flags, f"bulk_{name} flags"
        assert bulk.ops[name] == len(pairs)


def _near_cancellation_pairs():
    rng = np.random.default_rng(5)
    n = 4000
    a = _words(rng.integers(0, 2, n), rng.integers(2, 254, n), rng.integers(16, (1 << 23) - 16, n))
    nudge = rng.integers(-8, 9, n)
    lower = join(0, 126, 0x7FFFFF)
    return (
        _pairs(a, (a ^ SIGN) + nudge)
        + _pairs(a, a + nudge)
        + [(0x3F800000, lower ^ SIGN), (0x3F800000, lower), (SIGN | 0x3F800000, lower)]
    )


def _exponent_gap_pairs():
    rng = np.random.default_rng(6)
    n = 4000
    gap = rng.integers(20, 41, n)
    ea = rng.integers(41, 255, n)
    a = _words(rng.integers(0, 2, n), ea, rng.integers(0, 1 << 23, n))
    b = _words(rng.integers(0, 2, n), ea - gap, rng.integers(0, 1 << 23, n))
    p = _words(rng.integers(0, 2, n), ea, 0)
    return _pairs(a, b) + _pairs(b, a) + _pairs(p, b) + _pairs(b, p)


def _exponent_limit_pairs():
    rng = np.random.default_rng(7)
    n = 2000
    edge = rng.choice([1, 2, 253, 254], n)
    a = _words(rng.integers(0, 2, n), edge, rng.integers(0, 1 << 23, n))
    b_big = _words(rng.integers(0, 2, n), rng.integers(120, 255, n), rng.integers(0, 1 << 23, n))
    b_small = _words(rng.integers(0, 2, n), rng.integers(1, 135, n), rng.integers(0, 1 << 23, n))
    b_edge = _words(rng.integers(0, 2, n), edge, rng.integers(0, 1 << 23, n))
    return _pairs(a, b_big) + _pairs(a, b_small) + _pairs(a, b_edge) + _pairs(b_edge, a)


class TestValueOpsDifferential:
    """The scalar and bulk value ops against ``fpu_*`` on the same data sets."""

    def test_million_pairs_match_fpu(self, million_pairs):
        # criterion 1's seeded pairs
        a, b = million_pairs.a, million_pairs.b
        for name in ORACLES:
            ref_flags = million_pairs.flags[name]
            want = million_pairs.words[name].tolist()
            scalar, bulk = SoftF32Backend(), SoftF32Backend()
            a_vals, b_vals = scalar.to_values(a), scalar.to_values(b)
            with scalar.rounding_scope():
                got = list(map(getattr(scalar, f"v{name}"), a_vals.tolist(), b_vals.tolist()))
            assert scalar.to_words(got) == want, f"v{name}"
            assert scalar.flags == ref_flags, f"v{name}"
            out = getattr(bulk, f"bulk_{name}")(a_vals, b_vals)
            assert bulk.to_words(out) == want, f"bulk_{name}"
            assert bulk.flags == ref_flags, f"bulk_{name}"
            assert ref_flags.overflow and ref_flags.underflow

    def test_signed_zeros(self):
        others = [0x00000000, SIGN, 0x3F800000, 0xBF800000, join(0, 1, 0), join(1, 254, 0x7FFFFF)]
        pairs = [(z, w) for z in (0x00000000, SIGN) for w in others]
        _assert_value_ops_match_oracle(pairs + [(w, z) for z, w in pairs])

    def test_near_cancellation(self):
        _assert_value_ops_match_oracle(_near_cancellation_pairs())

    def test_exponent_gaps_20_to_40(self):
        _assert_value_ops_match_oracle(_exponent_gap_pairs())

    def test_overflow_and_underflow_at_exponent_limits(self):
        pairs = _exponent_limit_pairs()
        _assert_value_ops_match_oracle(pairs)
        flags = FpuFlags()
        for a, b in pairs:
            fpu_add(a, b, flags)
            fpu_mul(a, b, flags)
        assert flags.overflow and flags.underflow

    def test_bulk_ops_broadcast_a_scalar_operand(self):
        rng = np.random.default_rng(8)
        words = random_normal_words(rng, 3000)
        backend = SoftF32Backend()
        values = backend.to_values(words)
        coeff = backend.decode(0xBFA80A3E)  # a negative filter coefficient
        for name, oracle in ORACLES.items():
            ref_flags = FpuFlags()
            want = [oracle(0xBFA80A3E, w, ref_flags) for w in words.tolist()]
            assert backend.to_words(getattr(backend, f"bulk_{name}")(coeff, values)) == want
            assert backend.flags == ref_flags
            backend.flags = FpuFlags()

    def test_outside_the_scope_no_op_rounds_to_nearest(self, million_pairs):
        # seeded pairs with a normal result that round-to-nearest float32 gets wrong
        a32, b32 = million_pairs.a.view(np.float32), million_pairs.b.view(np.float32)
        a64, b64 = a32.astype(np.float64), b32.astype(np.float64)
        backend = SoftF32Backend()
        with backend.rounding_scope():  # a closed scope leaves nothing open
            pass
        for name, ufunc in (("add", np.add), ("mul", np.multiply)):
            want = million_pairs.words[name]
            exact = ufunc(a64, b64)
            with np.errstate(all="ignore"):
                nearest = exact.astype(np.float32).view(np.uint32)
            mag = np.abs(exact)
            picked = np.flatnonzero((nearest != want) & (mag >= 2.0**-126) & (mag < 2.0**127))
            picked = picked[:5000]
            assert len(picked) == 5000, name
            a_w, b_w = million_pairs.a[picked].tolist(), million_pairs.b[picked].tolist()
            vop, word_op = getattr(backend, f"v{name}"), getattr(backend, name)
            got = list(map(vop, a64[picked].tolist(), b64[picked].tolist()))
            assert backend.to_words(got) == want[picked].tolist(), f"v{name}"
            assert list(map(word_op, a_w, b_w)) == want[picked].tolist(), name
        assert not backend.flags.any()

    def test_stream_conversion_rejects_operands_fpu_rejects(self):
        backend = SoftF32Backend()
        for bad in (join(0, 255, 0), join(1, 255, 0x400000), join(0, 0, 1)):
            with pytest.raises(OperandError) as raised:
                backend.to_values([0x3F800000, bad])
            with pytest.raises(OperandError) as want:
                fpu_add(bad, 0x3F800000)
            assert str(raised.value) == str(want.value)


def _rounding_scope():
    """The soft rounding scope, which must be available on x86-64 Linux."""
    if os.uname().machine != "x86_64":
        pytest.skip("round-toward-zero is only tested on x86-64")
    return SoftF32Backend().rounding_scope()


class TestRoundTowardZeroArithmetic:
    """Float32 numpy add and multiply in the soft rounding scope against ``fpu_*``."""

    N = 250_000

    def test_seeded_pairs_match_fpu_where_in_range(self, million_pairs):
        # the first pairs of criterion 1's seeded million
        a32 = million_pairs.a[: self.N].view(np.float32)
        b32 = million_pairs.b[: self.N].view(np.float32)
        with _rounding_scope() as available, np.errstate(all="ignore"):
            assert available
            sums, products = (a32 + b32).view(np.uint32), (a32 * b32).view(np.uint32)
        a64, b64 = a32.astype(np.float64), b32.astype(np.float64)
        # results from 2^-126 up to, not including, the largest normal magnitude
        for name, got, exact in (("add", sums, a64 + b64), ("mul", products, a64 * b64)):
            mag = np.abs(exact)
            in_range = np.flatnonzero((mag == 0) | ((mag >= 2.0**-126) & (mag < 2.0**128 - 2.0**104)))
            assert len(in_range) > self.N // 3, name
            want = million_pairs.words[name][in_range].tolist()  # fpu_<name> on those pairs
            assert got[in_range].tolist() == want, name

    def test_signed_zeros(self):
        x = np.array([1.0, -2.5, 3.0e38, -2.0**-126], np.float32)
        zero = np.zeros(4, np.float32)
        with _rounding_scope() as available:
            assert available
            cancel, both_negative, mixed = (x + -x), (-zero + -zero), (zero + -zero)
        words = x.view(np.uint32).tolist()
        assert cancel.view(np.uint32).tolist() == [fpu_add(w, w ^ SIGN) for w in words] == [0] * 4
        assert both_negative.view(np.uint32).tolist() == [fpu_add(SIGN, SIGN)] * 4 == [SIGN] * 4
        assert mixed.view(np.uint32).tolist() == [fpu_add(0, SIGN)] * 4 == [0] * 4


def _nearest_word(value: float):
    """``encode``'s word, or its error type and text, from a C cast that rounds to nearest."""
    try:
        word = struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError as exc:
        return OverflowError, str(exc)
    if word & EXP_MASK == EXP_MASK:
        return ValueError, f"value not representable as a normal float32: {value!r}"
    return word & SIGN if word & EXP_MASK == 0 else word  # subnormals flush


def _encoded(value: float):
    try:
        return encode(value)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_MAX_NORMAL = decode(MAX_NORMAL_MAG)
# 2^-126 and the halfway point below it, max normal and the halfway point to
# 2^128, half the least subnormal: each with its neighbouring doubles
_ENCODE_EDGES = sorted({
    s * math.nextafter(v, toward)
    for v in (2.0**-126, 2.0**-126 - 2.0**-150, _MAX_NORMAL, _MAX_NORMAL + 2.0**103, 2.0**-150)
    for toward in (0.0, v, math.inf)
    for s in (1.0, -1.0)
})


@settings(max_examples=400)
@given(st.one_of(st.floats(), st.sampled_from(_ENCODE_EDGES)))
def test_encode_rounds_to_nearest_in_and_out_of_a_scope(value):
    want = _nearest_word(value)  # computed here, outside any scope
    assert _encoded(value) == want
    backend = SoftF32Backend()
    with backend.rounding_scope():
        assert _encoded(value) == want
        if isinstance(want, int):
            assert numeric.quantized(value) == decode(want)


class TestRangeEnd:
    """Results in [max normal, 2^128) truncate to max normal with no flag: the cast's word."""

    # exact results 2^128 - 2^103 and 2^128 - 2^82
    PAIRS = {
        "add": (decode(MAX_NORMAL_MAG), 2.0**103),
        "mul": ((2 - 2.0**-22) * 2.0**63, (1 + 2.0**-23) * 2.0**64),
    }

    @pytest.mark.parametrize("name", ["add", "mul"])
    def test_scalar_and_bulk_ops_take_no_oracle_call(self, name, monkeypatch):
        if os.uname().machine != "x86_64":
            pytest.skip("round-toward-zero is only tested on x86-64")
        a, b = self.PAIRS[name]
        backend = SoftF32Backend()
        ref_flags = FpuFlags()
        want = ORACLES[name](*backend.to_words([a, b]), ref_flags)
        assert want == MAX_NORMAL_MAG and not ref_flags.any()
        calls, oracle = [], backend._oracle

        def counted(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(backend, "_oracle", counted)
        with backend.rounding_scope() as available:
            assert available
            scalar = getattr(backend, f"v{name}")(a, b)
        bulk = getattr(backend, f"bulk_{name}")(np.array([a]), np.array([b]))
        assert backend.to_words([scalar]) == backend.to_words(bulk) == [want]
        assert not backend.flags.any()
        assert calls == []


_NORMAL_WORDS = st.builds(join, st.integers(0, 1), st.integers(1, 254), st.integers(0, FRAC_MASK))


@settings(max_examples=400, deadline=None)
@given(_NORMAL_WORDS, _NORMAL_WORDS)
def test_every_form_matches_fpu_on_normal_words(a, b):
    """Word method, scalar value op and bulk op: the oracle's word and flags."""
    for name, oracle in ORACLES.items():
        ref_flags = FpuFlags()
        want = oracle(a, b, ref_flags)
        words, values, bulk = SoftF32Backend(), SoftF32Backend(), SoftF32Backend()
        x, y = values.to_values([a, b]).tolist()
        with words.rounding_scope(), values.rounding_scope():
            assert getattr(words, name)(a, b) == want
            assert values.to_words([getattr(values, f"v{name}")(x, y)]) == [want]
        out = getattr(bulk, f"bulk_{name}")(bulk.to_values([a]), bulk.to_values([b]))
        assert bulk.to_words(out) == [want]
        assert words.flags == values.flags == bulk.flags == ref_flags


# Arbitrary words, weighted toward the cases a comparator orders specially:
# signed zeros, negatives, and the inf/NaN/subnormal operands fpu_cmp refuses.
_ANY_WORDS = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    _NORMAL_WORDS,
    _NORMAL_WORDS.map(lambda w: w | SIGN),
    st.sampled_from([0, SIGN, join(0, 255, 0), join(1, 255, 0), join(0, 255, 1), join(1, 0, 1)]),
)
_WORD_PAIRS = st.one_of(st.tuples(_ANY_WORDS, _ANY_WORDS), _ANY_WORDS.map(lambda w: (w, w)))


@settings(max_examples=600, deadline=None)
@given(_WORD_PAIRS)
def test_comparisons_match_fpu_cmp_on_any_words(pair):
    """``gt``/``lt`` in both comparator modes: fpu_cmp's answer or its OperandError, one op each."""
    a, b = pair
    for mode in numeric.VALID_CMP_MODES:
        backend = SoftF32Backend(mode)
        want = _outcome(fpu_cmp, a, b, mode)
        for name, code in (("gt", CmpCode.GREATER), ("lt", CmpCode.LESS)):
            got = _outcome(getattr(backend, name), a, b)
            assert got == (want if isinstance(want, str) else want is code), f"{mode} {name}"
        assert backend.ops == {**dict.fromkeys(numeric.OP_NAMES, 0), "gt": 1, "lt": 1}


def trace_paths(owner, names, monkeypatch) -> list:
    """Record, in order, each call of ``owner``'s fast and exact path, named by ``names``.

    Calls append ``"fast"`` or ``"exact"`` to the list returned.
    """
    paths = []
    for name, tag in zip(names, ("fast", "exact")):

        def traced(*args, _path=getattr(owner, name), _tag=tag):
            paths.append(_tag)
            return _path(*args)

        monkeypatch.setattr(owner, name, traced)
    return paths


SUM_CHAIN_PATHS = ("_accumulated", "_vadd_chain")


def _bits(values) -> list:
    """The float64 bit patterns of values: signed zeros told apart."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestSumChain:
    """``sum_chain`` against a plain ``vadd`` loop, word for word and flag for flag.

    Its fast path is one accumulate; a chain with any sum out of range, or
    any chain without the rounding scope, is redone on ``vadd``.
    """

    # What the chain starts with, from 0, before ordinary float32 terms.
    HEADS = {
        "in_range": [],
        # 2^-110 - (2^-110 - 2^-128) = 2^-128, below the normal range: flushed
        "flush": [2.0**-110, -(2.0**-110 - 2.0**-128)],
        # 3e38 + 3e38 passes 2^128: saturated
        "saturate": [3e38, 3e38],
    }

    @classmethod
    def terms(cls, case) -> np.ndarray:
        tail = np.random.default_rng(20).normal(0.0, 4.0, 3000)
        return np.concatenate([cls.HEADS[case], tail]).astype(np.float32).astype(np.float64)

    @staticmethod
    def vadd_loop(bk, start, terms) -> list:
        """The sums as one ``vadd`` after another, in the rounding scope."""
        sums = []
        with bk.rounding_scope():
            for t in terms.tolist():
                start = bk.vadd(start, t)
                sums.append(start)
        return sums

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", list(HEADS))
    def test_matches_vadd_loop(self, case, backend, monkeypatch):
        terms = self.terms(case)
        reference = make_backend(backend)
        want = self.vadd_loop(reference, 0.0, terms)
        bk = make_backend(backend)
        paths = trace_paths(bk, SUM_CHAIN_PATHS, monkeypatch)
        assert _bits(bk.sum_chain(0.0, terms)) == _bits(want)
        assert bk.flags == reference.flags
        out_of_range = backend == "soft" and case != "in_range"
        assert bool(reference.flags.overflow + reference.flags.underflow) == out_of_range
        # only a chain with a sum out of range reruns
        assert paths == (["fast", "exact"] if out_of_range else ["fast"])

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_without_scope_runs_the_vadd_chain(self, backend, monkeypatch):
        terms = self.terms("in_range")
        reference = make_backend(backend)
        want = self.vadd_loop(reference, 1.5, terms)
        monkeypatch.setattr(numeric, "_rounding", None)
        monkeypatch.setattr(numeric, "_FE_TOWARDZERO", {})
        bk = make_backend(backend)
        paths = trace_paths(bk, SUM_CHAIN_PATHS, monkeypatch)
        assert _bits(bk.sum_chain(1.5, terms)) == _bits(want)
        assert bk.flags == reference.flags
        # float64 needs no scope: its accumulate is the value ops
        assert paths == (["exact"] if backend == "soft" else ["fast"])

    def test_round_to_nearest_after_operand_error(self):
        # the last sum, 2^-140, is subnormal, so the chain reruns on vadd,
        # whose fpu_add refuses that subnormal operand (float64 checks none)
        terms = np.array([1.0, -1.0, 2.0**-140])
        with pytest.raises(OperandError) as want:
            self.vadd_loop(SoftF32Backend(), 0.0, terms)
        with pytest.raises(OperandError) as raised:
            SoftF32Backend().sum_chain(0.0, terms)
        assert str(raised.value) == str(want.value)
        assert not truncating()


@pytest.mark.parametrize(
    "args, named",
    [
        (("quad",), "unknown backend: 'quad'"),
        (("soft", "lenient"), "cmp_mode must be one of"),
        (("float64", "verbatim"), "applies to backend 'soft' only"),
    ],
    ids=["backend", "cmp_mode", "float64_cmp_mode"],
)
def test_make_backend_rejects_what_it_cannot_build(args, named):
    with pytest.raises(ValueError, match=named):
        make_backend(*args)


def _count_ops(backend) -> dict:
    """The backend's own op meter, zeroed; it counts word, bulk and kernel ops."""
    backend.ops.update(dict.fromkeys(backend.ops, 0))
    return backend.ops


class TestOpCountFidelity:
    N = 400

    @pytest.fixture(scope="class")
    def recording(self):
        return generate_synthetic(SynthSpec(duration_s=self.N / 1000.0))

    def test_preprocess_ops_per_sample(self, recording):
        backend = SoftF32Backend()
        counts = _count_ops(backend)
        for channel in ("thoracic", "abdominal"):
            counts.update(dict.fromkeys(counts, 0))
            PreprocessChain(backend).process(recording.channel(channel))
            n = self.N
            assert counts == {"add": 10 * n, "sub": 3 * n, "mul": 12 * n, "gt": 0, "lt": 0}

    @pytest.mark.parametrize("arch", ["series", "parallel"])
    def test_lms_ops_per_sample_match_cycle_stats(self, recording, arch):
        backend = SoftF32Backend()
        x = PreprocessChain(backend).process(recording.channel("thoracic"))
        d = PreprocessChain(backend).process(recording.channel("abdominal"))
        counts = _count_ops(backend)
        datapath = lms.make_datapath(arch, lms.LmsConfig(input_scale=64.0, desired_scale=32.0), backend)
        lms.run_canceller(datapath, x, d)
        n = self.N
        assert counts == {"add": 38 * n, "sub": n, "mul": 59 * n, "gt": 0, "lt": 0}
        assert sum(counts.values()) == datapath.stats.fpu_ops_issued


def _digest(words) -> str:
    return hashlib.sha256(np.array(words, dtype="<u4").tobytes()).hexdigest()


def test_stage_words_pinned():
    """Soft preprocess, enhancement and detector words, bit for bit, on a 2 s record."""
    rec = generate_synthetic(SynthSpec(duration_s=2.0, seed=1234))
    backend = SoftF32Backend()
    thoracic = backend.to_words(PreprocessChain(backend).process(rec.channel("thoracic")))
    abdominal = backend.to_words(PreprocessChain(backend).process(rec.channel("abdominal")))
    sdm, m1 = fhr.enhance(backend, abdominal)
    assert _digest(thoracic) == "3475a385133b0aa619896ae87c35981d8d4c52f12c7cb7279ba4b338f610a977"
    assert _digest(abdominal) == "742f9d92ddb6e14e8df4203ae5da1b9958253f01c41a71549d10f95cc58d2e59"
    assert _digest(sdm) == "65ce5afc9ab5092f8b7abe69416102ba0d5c3cbf4df171b1a8f70ba37c95ea2f"
    assert m1 == 0x386FD091

    before = dict(backend.ops)
    maxima, th = fhr.find_local_maxima(backend, sdm, m1)
    peaks = fhr.select_fetal_peaks(backend, sdm, maxima, th, fhr.min_gap_samples(rec.fs))
    assert maxima.locations == [92, 749, 1453]
    assert th == 0x39F55FA2
    assert peaks.locations == [92, 749, 1453]
    delta = {k: backend.ops[k] - before[k] for k in ("gt", "lt", "add", "mul")}
    assert delta == {"gt": 2000, "lt": 196, "add": 4, "mul": 2}


def test_soft_pass_never_takes_the_exact_path(monkeypatch, default_config):
    """A soft pass over the default 30 s record runs every block on the fast path.

    The exact path (the value loops, the sum chain on ``vadd``, the LMS
    sample step and the oracle)
    gives the same words, only slower, so a scope or replay fault that sent
    every block there would pass every word test; count the calls instead.
    """
    if os.uname().machine != "x86_64":
        pytest.skip("round-toward-zero is only tested on x86-64")
    calls = {}
    slow_paths = (
        (IirFilter, "value_loop"),
        (SoftF32Backend, "_vadd_chain"),  # the running means' exact path
        (lms.LmsState, "update"),
        (SoftF32Backend, "_oracle"),
    )
    for owner, name in slow_paths:
        key, original = f"{owner.__name__}.{name}", getattr(owner, name)

        def counted(*args, _key=key, _original=original):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert run_pipeline(default_config).ok
    assert calls == {}


class _FakeFunction:
    """A C function stand-in that records its calls and returns ``result``."""

    def __init__(self, calls: list, result: int = 0):
        self.calls, self.result = calls, result

    def __call__(self, *args):
        self.calls.append(args)
        return self.result


@pytest.mark.parametrize(
    "sysname, machine, soname_loads, want_opened, want_mode",
    [
        ("Linux", "x86_64", True, ["libm.so.6"], 0xC00),
        ("Linux", "aarch64", False, ["libm.so.6"], None),
        ("Darwin", "arm64", False, ["libm.so.6", "/usr/lib/libm.dylib"], 0xC00000),
    ],
    ids=["linux_glibc", "linux_without_glibc", "macos_arm64"],
)
def test_rounding_lookup_order_and_mode(sysname, machine, soname_loads, want_opened, want_mode,
                                        monkeypatch):
    """glibc's soname first; only off Linux the platform's lookup, which on Linux spawns ldconfig."""
    import ctypes
    import ctypes.util
    from types import SimpleNamespace

    opened, looked_up, set_calls = [], [], []
    # the fake fesetround changes nothing, so the truncation probe fails after it
    libm = SimpleNamespace(fesetround=_FakeFunction(set_calls), fegetround=_FakeFunction([]))

    def cdll(name):
        opened.append(name)
        if name == "libm.so.6" and not soname_loads:
            raise OSError(f"{name}: cannot open shared object file")
        return libm

    monkeypatch.setattr(os, "uname", lambda: SimpleNamespace(sysname=sysname, machine=machine))
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library",
                        lambda name: looked_up.append(name) or "/usr/lib/libm.dylib")
    monkeypatch.setattr(numeric, "_rounding", None)
    assert numeric.rounding_scope_available() is False
    assert numeric._rounding is False
    assert opened == want_opened
    assert looked_up == (["m"] if len(want_opened) > 1 else [])
    assert set_calls[:1] == ([(want_mode,)] if want_mode else [])
