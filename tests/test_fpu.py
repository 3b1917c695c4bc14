"""Bit-level float32 unit tests: directed cases, oracles, and properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhrmon import fpu
from fhrmon.fpu import (
    CmpCode,
    FpuFlags,
    FpuOpCode,
    OperandError,
    decode,
    encode,
    fpu_add,
    fpu_cmp,
    fpu_mul,
    fpu_op,
    fpu_sub,
    join,
    split,
)

MAX_NORMAL = 3.4028234663852886e38
MIN_NORMAL = 2.0 ** -126


def bits(x: float) -> int:
    return encode(x)


def random_normal_words(rng: np.random.Generator, n: int) -> np.ndarray:
    sign = rng.integers(0, 2, n, dtype=np.uint32) << 31
    exp = rng.integers(1, 255, n, dtype=np.uint32) << 23
    frac = rng.integers(0, 1 << 23, n, dtype=np.uint32)
    return sign | exp | frac


# ---- exact-arithmetic truncation oracle (vectorized, independent path) ----


def _trunc_to_f32(exact: np.ndarray) -> np.ndarray:
    """Truncate exact float64 values toward zero onto the float32 grid,
    saturating above the largest normal and flushing below the smallest."""
    out_sign = np.signbit(exact)
    mag = np.abs(exact)
    with np.errstate(over="ignore"):
        r = exact.astype(np.float32)
    # cast rounds to nearest: step back toward zero where it rounded away
    away = np.abs(r.astype(np.float64)) > mag
    r = np.where(away, np.nextafter(r, np.float32(0.0)), r)
    r = np.where(mag > MAX_NORMAL, np.where(out_sign, -np.float32(MAX_NORMAL), np.float32(MAX_NORMAL)), r)
    flush = mag < MIN_NORMAL
    r = np.where(flush & out_sign, np.float32(-0.0), r)
    r = np.where(flush & ~out_sign, np.float32(0.0), r)
    return r


def _words_to_f64(words: np.ndarray) -> np.ndarray:
    return words.astype(np.uint32).view(np.float32).astype(np.float64)


def _f32_to_words(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).view(np.uint32)


def oracle_add(a_words: np.ndarray, b_words: np.ndarray, subtract: bool = False) -> np.ndarray:
    """trunc(exact a +/- b) for normal operands, handled per exponent gap."""
    if subtract:
        b_words = b_words ^ 0x80000000
    a64 = _words_to_f64(a_words)
    b64 = _words_to_f64(b_words)
    ea = (a_words >> 23) & 0xFF
    eb = (b_words >> 23) & 0xFF
    gap = np.abs(ea.astype(np.int64) - eb.astype(np.int64))

    # near pairs: the float64 sum is exact (24-bit mantissas, gap <= 26)
    near = gap <= 26
    result = np.empty(len(a_words), dtype=np.float32)
    s = a64[near] + b64[near]
    result[near] = _trunc_to_f32(s)

    # far pairs: the smaller operand only nudges the floor of the larger
    far = ~near
    big_is_a = ea[far] >= eb[far]
    big = np.where(big_is_a, a64[far], b64[far])
    small = np.where(big_is_a, b64[far], a64[far])
    same_sign = np.signbit(big) == np.signbit(small)
    big32 = big.astype(np.float32)
    stepped = np.nextafter(big32, np.float32(0.0))
    result[far] = np.where(same_sign, big32, stepped)

    words = _f32_to_words(result)
    # exact cancellation yields +0
    zero_mask = (words & 0x7FFFFFFF) == 0
    exact_zero = np.zeros(len(a_words), dtype=bool)
    exact_zero[near] = s == 0.0
    words = np.where(zero_mask & exact_zero, np.uint32(0), words)
    return words


def oracle_mul(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """trunc(exact a*b): the float64 product of two float32s is always exact."""
    a64 = _words_to_f64(a_words)
    b64 = _words_to_f64(b_words)
    with np.errstate(over="ignore", under="ignore"):
        p = a64 * b64
    result = _trunc_to_f32(p)
    words = _f32_to_words(result)
    # exponent sums below the float64 range cannot occur for float32 normals
    return words


def ordered_ints(words: np.ndarray) -> np.ndarray:
    """Map words to integers whose ordering matches the numeric ordering."""
    w = words.astype(np.int64)
    mag = w & 0x7FFFFFFF
    return np.where(w >> 31 & 1 == 1, -mag, mag)


# ---- directed examples ----


class TestDirectedArithmetic:
    def test_add_exact_power_of_two(self):
        assert fpu_add(bits(1.0), bits(1.0)) == bits(2.0)

    def test_add_exact_cancellation_gives_plus_zero(self):
        assert fpu_add(bits(1.5), bits(-1.5)) == 0x00000000

    def test_sub_exact(self):
        assert fpu_sub(bits(3.0), bits(1.0)) == bits(2.0)

    def test_sub_self_cancellation(self):
        for x in (1.0, -2.75, 3.14159, 1e-30, 6.5e37):
            assert fpu_sub(bits(x), bits(x)) == 0x00000000

    def test_mul_identity(self):
        for x in (1.0, -2.75, 0.001953125, 7.0e-5):
            assert fpu_mul(bits(1.0), bits(x)) == bits(x)

    def test_mul_small_integers(self):
        assert fpu_mul(bits(2.0), bits(-3.0)) == bits(-6.0)

    def test_add_zero_identities(self):
        x = bits(2.5)
        assert fpu_add(x, 0x00000000) == x
        assert fpu_add(0x00000000, x) == x
        assert fpu_add(0x80000000, x) == x
        assert fpu_add(0x00000000, 0x80000000) == 0x00000000
        assert fpu_add(0x80000000, 0x80000000) == 0x80000000

    def test_mul_zero_absorbs_with_sign(self):
        assert fpu_mul(bits(3.0), 0x00000000) == 0x00000000
        assert fpu_mul(bits(-3.0), 0x00000000) == 0x80000000
        assert fpu_mul(0x80000000, bits(-1.0)) == 0x00000000
        assert repr(decode(0x00000000)) == "0.0" and repr(decode(0x80000000)) == "-0.0"

    def test_cancellation_keeps_low_bits(self):
        # 1.0 - (1 - 2^-24) needs the aligned-out bit to survive the subtract
        r = fpu_sub(bits(1.0), bits(1.0 - 2.0**-24))
        assert decode(r) == 2.0**-24

    def test_far_gap_subtract_steps_to_previous_float(self):
        r = fpu_sub(bits(1.0), bits(2.0**-40))
        assert decode(r) == 1.0 - 2.0**-24  # largest float32 below 1.0

    def test_far_gap_add_keeps_larger(self):
        assert fpu_add(bits(1.0), bits(2.0**-40)) == bits(1.0)


class TestFlagsAndRange:
    def test_overflow_saturates(self):
        flags = FpuFlags()
        r = fpu_add(bits(MAX_NORMAL), bits(MAX_NORMAL), flags)
        assert flags.overflow == 1
        assert r == (254 << 23) | 0x7FFFFF

    def test_negative_overflow_saturates_with_sign(self):
        flags = FpuFlags()
        r = fpu_mul(bits(-MAX_NORMAL), bits(2.0), flags)
        assert flags.overflow == 1
        assert r == 0x80000000 | (254 << 23) | 0x7FFFFF

    def test_underflow_flushes_to_signed_zero(self):
        flags = FpuFlags()
        r = fpu_mul(bits(MIN_NORMAL), bits(MIN_NORMAL), flags)
        assert flags.underflow == 1
        assert r == 0x00000000
        r = fpu_mul(bits(-MIN_NORMAL), bits(MIN_NORMAL), flags)
        assert r == 0x80000000

    def test_subtractive_underflow(self):
        flags = FpuFlags()
        a = join(0, 1, 1)
        b = join(0, 1, 0)
        r = fpu_sub(a, b, flags)  # exact 2^-149, below the normal range
        assert flags.underflow == 1
        assert r == 0x00000000

    def test_rejects_non_normal_operands(self):
        nan = join(0, 255, 1)
        inf = join(0, 255, 0)
        subnormal = join(0, 0, 123)
        for bad in (nan, inf, subnormal):
            with pytest.raises(OperandError):
                fpu_add(bad, bits(1.0))
            with pytest.raises(OperandError):
                fpu_cmp(bits(1.0), bad)


class TestCompare:
    def test_equal_patterns(self):
        for x in (1.0, -7.25, 1e-30):
            assert fpu_cmp(bits(x), bits(x)) is CmpCode.EQUAL
            assert fpu_cmp(bits(x), bits(x), "verbatim") is CmpCode.EQUAL

    def test_positive_ordering_both_modes(self):
        for mode in ("corrected", "verbatim"):
            assert fpu_cmp(bits(2.0), bits(1.0), mode) is CmpCode.GREATER

    def test_negative_pair_mode_difference(self):
        # field-wise comparison orders negatives by magnitude
        assert fpu_cmp(bits(-1.0), bits(-2.0), "verbatim") is CmpCode.LESS
        assert fpu_cmp(bits(-1.0), bits(-2.0), "corrected") is CmpCode.GREATER

    def test_mixed_signs(self):
        for mode in ("corrected", "verbatim"):
            assert fpu_cmp(bits(-1.0), bits(1.0), mode) is CmpCode.LESS
            assert fpu_cmp(bits(1.0), bits(-1.0), mode) is CmpCode.GREATER

    def test_zero_against_normals_corrected(self):
        assert fpu_cmp(0x00000000, bits(1.0)) is CmpCode.LESS
        assert fpu_cmp(0x00000000, bits(-1.0)) is CmpCode.GREATER
        assert fpu_cmp(0x80000000, bits(-0.5)) is CmpCode.GREATER

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            fpu_cmp(bits(1.0), bits(1.0), "fast")

    def test_corrected_matches_numeric_order_randomly(self):
        rng = np.random.default_rng(11)
        a = random_normal_words(rng, 4000)
        b = random_normal_words(rng, 4000)
        av = _words_to_f64(a)
        bv = _words_to_f64(b)
        for aw, bw, x, y in zip(a, b, av, bv):
            got = fpu_cmp(int(aw), int(bw))
            want = CmpCode.GREATER if x > y else CmpCode.LESS if x < y else CmpCode.EQUAL
            assert got is want

    def test_antisymmetry_verbatim(self):
        rng = np.random.default_rng(12)
        a = random_normal_words(rng, 2000)
        b = random_normal_words(rng, 2000)
        for aw, bw in zip(a, b):
            x = fpu_cmp(int(aw), int(bw), "verbatim")
            y = fpu_cmp(int(bw), int(aw), "verbatim")
            if x is CmpCode.EQUAL:
                assert y is CmpCode.EQUAL
            else:
                assert {x, y} == {CmpCode.GREATER, CmpCode.LESS}


class TestDispatchAndHex:
    def test_dispatch_matches_functions(self):
        a, b = bits(2.5), bits(-0.75)
        assert fpu_op(FpuOpCode.ADD, a, b) == fpu_add(a, b)
        assert fpu_op(FpuOpCode.SUB, a, b) == fpu_sub(a, b)
        assert fpu_op(FpuOpCode.MUL, a, b) == fpu_mul(a, b)
        assert fpu_op(FpuOpCode.CMP, a, b) == int(fpu_cmp(a, b))

    def test_cmp_result_upper_bits_zero(self):
        word = fpu_op(FpuOpCode.CMP, bits(1.0), bits(2.0))
        assert word & ~0b11 == 0

    def test_invalid_opcode_rejected(self):
        with pytest.raises(ValueError):
            fpu_op(7, bits(1.0), bits(1.0))

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: join(2, 0, 0), "sign must be 0 or 1"),
            (lambda: join(0, 256, 0), "exponent out of range"),
            (lambda: join(0, 0, 1 << 23), "fraction out of range"),
            (lambda: fpu.from_hex("1ffffffff"), "not a 32-bit word"),
        ],
        ids=["sign", "exponent", "fraction", "wide_hex"],
    )
    def test_field_and_hex_range_errors(self, call, named):
        with pytest.raises(ValueError, match=named):
            call()

    def test_hex_roundtrip(self):
        for w in (0x00000000, 0x80000000, 0x3F800000, 0xFF7FFFFF):
            assert fpu.from_hex(fpu.to_hex(w)) == w


# ---- property tests ----


@given(
    sign=st.integers(0, 1),
    exponent=st.integers(0, 255),
    fraction=st.integers(0, (1 << 23) - 1),
)
def test_split_join_roundtrip(sign, exponent, fraction):
    assert split(join(sign, exponent, fraction)) == (sign, exponent, fraction)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_commutativity(wa, wb):
    def normal_or_zero(w):
        e = (w >> 23) & 0xFF
        return w & 0x7FFFFFFF == 0 or 1 <= e <= 254

    if not (normal_or_zero(wa) and normal_or_zero(wb)):
        return
    assert fpu_add(wa, wb) == fpu_add(wb, wa)
    assert fpu_mul(wa, wb) == fpu_mul(wb, wa)


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(1701)
    return random_normal_words(rng, 20000), random_normal_words(rng, 20000)


class TestDifferentialSmall:
    """Random oracle comparison at unit-test scale; the acceptance suite
    repeats this at 10^6 pairs."""

    def test_add_matches_oracle(self, pairs):
        a, b = pairs
        want = oracle_add(a, b)
        for aw, bw, ww in zip(a, b, want):
            assert fpu_add(int(aw), int(bw)) == int(ww)

    def test_sub_matches_oracle(self, pairs):
        a, b = pairs
        want = oracle_add(a, b, subtract=True)
        for aw, bw, ww in zip(a, b, want):
            assert fpu_sub(int(aw), int(bw)) == int(ww)

    def test_mul_matches_oracle(self, pairs):
        a, b = pairs
        want = oracle_mul(a, b)
        for aw, bw, ww in zip(a, b, want):
            assert fpu_mul(int(aw), int(bw)) == int(ww)

    def test_sub_equals_add_of_negated(self, pairs):
        a, b = pairs
        for aw, bw in zip(a[:5000], b[:5000]):
            assert fpu_sub(int(aw), int(bw)) == fpu_add(int(aw), int(bw) ^ 0x80000000)

    def test_within_one_ulp_of_rounded(self, pairs):
        a, b = pairs
        a64, b64 = _words_to_f64(a), _words_to_f64(b)
        with np.errstate(over="ignore"):
            cases = (
                (fpu_add, a64 + b64),
                (fpu_sub, a64 - b64),
                (fpu_mul, a64 * b64),
            )
        for op, exact in cases:
            with np.errstate(over="ignore"):
                rounded = exact.astype(np.float32)
            for aw, bw, r, x in zip(a[:5000], b[:5000], rounded[:5000], exact[:5000]):
                if not np.isfinite(r) or abs(x) < MIN_NORMAL or abs(x) > MAX_NORMAL:
                    continue
                got = op(int(aw), int(bw))
                ref = int(np.float32(r).view(np.uint32))
                d = ordered_ints(np.array([got], dtype=np.uint32))[0] - ordered_ints(
                    np.array([ref], dtype=np.uint32)
                )[0]
                assert abs(int(d)) <= 1
