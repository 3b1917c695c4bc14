"""Soft backend against the bit-level unit, and the op counts the stages issue.

The soft backend's add/sub/mul take a fast path for normal operands with a
normal result and defer every other case to ``fpu_*``; these tests hold the
backend to ``fpu.py`` word for word, flag for flag and message for message.
"""

from __future__ import annotations

import hashlib
import os
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhrmon import fhr, lms
from fhrmon.fpu import FRAC_MASK, FpuFlags, OperandError, fpu_add, fpu_mul, fpu_sub, join
from fhrmon.io import SynthSpec, generate_synthetic
from fhrmon.numeric import SoftF32Backend
from fhrmon.preprocess import PreprocessChain
from test_fpu import random_normal_words

ORACLES = {"add": fpu_add, "sub": fpu_sub, "mul": fpu_mul}
SIGN = 0x80000000


def _outcome(fn, *args):
    """The result word, or the text of the OperandError the call raised."""
    try:
        return fn(*args)
    except OperandError as exc:
        return f"OperandError: {exc}"


def _assert_matches_oracle(pairs):
    """Per pair: same word or error text, and the same flags raised."""
    for name, oracle in ORACLES.items():
        backend = SoftF32Backend()
        method = getattr(backend, name)
        ref_flags = FpuFlags()
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
    def test_million_pairs_match_fpu(self):
        # criterion 1's seeded pairs, through the backend methods
        n = 1_000_000
        rng = np.random.default_rng(20240601)
        a = random_normal_words(rng, n).tolist()
        b = random_normal_words(rng, n).tolist()
        for name, oracle in ORACLES.items():
            backend = SoftF32Backend()
            ref_flags = FpuFlags()
            got = list(map(getattr(backend, name), a, b))
            want = list(map(oracle, a, b, repeat(ref_flags)))
            assert got == want, name
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

    Per pair the scalar op gives the oracle's word and raises its flags; the
    bulk op over all pairs gives the same words and flag totals.
    """
    a_words = [a for a, _ in pairs]
    b_words = [b for _, b in pairs]
    for name, oracle in ORACLES.items():
        ref_flags = FpuFlags()
        scalar = SoftF32Backend()
        vop = getattr(scalar, f"v{name}")
        a_vals, b_vals = scalar.to_values(a_words).tolist(), scalar.to_values(b_words).tolist()
        want = []
        for a, b, x, y in zip(a_words, b_words, a_vals, b_vals):
            want.append(oracle(a, b, ref_flags))
            assert scalar.to_words([vop(x, y)]) == want[-1:], f"v{name}({a:#010x}, {b:#010x})"
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

    def test_million_pairs_match_fpu(self):
        # criterion 1's seeded pairs
        rng = np.random.default_rng(20240601)
        n = 1_000_000
        a = random_normal_words(rng, n)
        b = random_normal_words(rng, n)
        for name, oracle in ORACLES.items():
            ref_flags = FpuFlags()
            want = list(map(oracle, a.tolist(), b.tolist(), repeat(ref_flags)))
            scalar, bulk = SoftF32Backend(), SoftF32Backend()
            a_vals, b_vals = scalar.to_values(a), scalar.to_values(b)
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
    return SoftF32Backend.rounding_scope()


class TestRoundTowardZeroArithmetic:
    """Float32 numpy add and multiply in the soft rounding scope against ``fpu_*``."""

    N = 250_000

    def test_seeded_pairs_match_fpu_where_in_range(self):
        # the first pairs of criterion 1's seeded million
        rng = np.random.default_rng(20240601)
        a = random_normal_words(rng, 1_000_000)[: self.N]
        b = random_normal_words(rng, 1_000_000)[: self.N]
        a32, b32 = a.view(np.float32), b.view(np.float32)
        with _rounding_scope() as available, np.errstate(all="ignore"):
            assert available
            sums, products = (a32 + b32).view(np.uint32), (a32 * b32).view(np.uint32)
        a64, b64 = a32.astype(np.float64), b32.astype(np.float64)
        # results from 2^-126 up to, not including, the largest normal magnitude
        for name, got, exact, oracle in (
            ("add", sums, a64 + b64, fpu_add),
            ("mul", products, a64 * b64, fpu_mul),
        ):
            mag = np.abs(exact)
            in_range = np.flatnonzero((mag == 0) | ((mag >= 2.0**-126) & (mag < 2.0**128 - 2.0**104)))
            assert len(in_range) > self.N // 3, name
            want = list(map(oracle, a[in_range].tolist(), b[in_range].tolist()))
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


_NORMAL_WORDS = st.builds(join, st.integers(0, 1), st.integers(1, 254), st.integers(0, FRAC_MASK))


@settings(max_examples=400, deadline=None)
@given(_NORMAL_WORDS, _NORMAL_WORDS)
def test_every_form_matches_fpu_on_normal_words(a, b):
    """Word method, scalar value op and bulk op: the oracle's word and flags."""
    for name, oracle in ORACLES.items():
        ref_flags = FpuFlags()
        want = oracle(a, b, ref_flags)
        words, values, bulk = SoftF32Backend(), SoftF32Backend(), SoftF32Backend()
        assert getattr(words, name)(a, b) == want
        x, y = values.to_values([a, b]).tolist()
        assert values.to_words([getattr(values, f"v{name}")(x, y)]) == [want]
        out = getattr(bulk, f"bulk_{name}")(bulk.to_values([a]), bulk.to_values([b]))
        assert bulk.to_words(out) == [want]
        assert words.flags == values.flags == bulk.flags == ref_flags


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
    """Soft preprocess and enhancement words, bit for bit, on a 2 s record."""
    rec = generate_synthetic(SynthSpec(duration_s=2.0, seed=1234))
    backend = SoftF32Backend()
    thoracic = PreprocessChain(backend).process(rec.channel("thoracic"))
    abdominal = PreprocessChain(backend).process(rec.channel("abdominal"))
    sdm, m1 = fhr.enhance(backend, abdominal)
    assert _digest(thoracic) == "3475a385133b0aa619896ae87c35981d8d4c52f12c7cb7279ba4b338f610a977"
    assert _digest(abdominal) == "742f9d92ddb6e14e8df4203ae5da1b9958253f01c41a71549d10f95cc58d2e59"
    assert _digest(sdm) == "65ce5afc9ab5092f8b7abe69416102ba0d5c3cbf4df171b1a8f70ba37c95ea2f"
    assert m1 == 0x386FD091
