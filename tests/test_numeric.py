"""Soft backend against the bit-level unit, and the op counts the stages issue.

The soft backend's add/sub/mul take a fast path for normal operands with a
normal result and defer every other case to ``fpu_*``; these tests hold the
backend to ``fpu.py`` word for word, flag for flag and message for message.
"""

from __future__ import annotations

import hashlib
from itertools import repeat

import numpy as np
import pytest

from fhrmon import fhr, lms
from fhrmon.fpu import FpuFlags, OperandError, fpu_add, fpu_mul, fpu_sub, join
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


def _count_ops(backend) -> dict:
    """Wrap the backend instance's op methods, as the benchmark's op counter does."""
    counts = dict.fromkeys(("add", "sub", "mul", "gt", "lt"), 0)

    def counted(name, fn):
        def op(a, b):
            counts[name] += 1
            return fn(a, b)

        return op

    for name in counts:
        setattr(backend, name, counted(name, getattr(backend, name)))
    return counts


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
