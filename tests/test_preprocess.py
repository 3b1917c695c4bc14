"""Preprocessing-stage tests: filter oracles, baseline batch equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from fhrmon.numeric import make_backend, quantized
from fhrmon.preprocess import (
    BASELINE_WINDOW,
    LOWPASS_INPUT_COEFFS,
    LOWPASS_OUTPUT_COEFFS,
    NOTCH_INPUT_COEFFS,
    NOTCH_OUTPUT_COEFFS,
    MovingAverageBaseline,
    PreprocessChain,
    make_lowpass,
    make_notch,
)


def run_filter(filt, backend, samples):
    return np.array([backend.decode(filt.step(backend.encode(float(x)))) for x in samples])


def batch_two_stage(x, n1=BASELINE_WINDOW, n2=BASELINE_WINDOW):
    """Direct two-pass windowed means with implicit zero padding."""
    inv1 = quantized(1.0 / n1)
    inv2 = quantized(1.0 / n2)
    m1 = np.convolve(x * inv1, np.ones(n1), mode="full")[: len(x)]
    m2 = np.convolve(m1 * inv2, np.ones(n2), mode="full")[: len(x)]
    return m1, m2


class TestLowpass:
    def test_impulse_first_output_is_gain_constant(self):
        soft = make_backend("soft")
        lp = make_lowpass(soft)
        out = lp.step(soft.encode(1.0))
        assert soft.decode(out) == np.float32(0.00308)

    def test_zero_input_zero_output(self):
        soft = make_backend("soft")
        lp = make_lowpass(soft)
        for _ in range(100):
            assert soft.decode(lp.step(soft.encode(0.0))) == 0.0

    def test_constant_input_converges_to_dc_gain(self):
        # steady state must match the transfer function at z = 1
        for name in ("soft", "float64"):
            bk = make_backend(name)
            lp = make_lowpass(bk)
            one = bk.encode(1.0)
            for _ in range(4000):
                y = lp.step(one)
            dc = abs(lp.frequency_response(0.0, 1000.0))
            assert abs(bk.decode(y) - dc) / dc < 1e-3

    def test_impulse_response_matches_lfilter(self):
        # independent IIR oracle on the same quantized constants
        bk = make_backend("float64")
        lp = make_lowpass(bk)
        n = 400
        impulse = np.zeros(n)
        impulse[0] = 1.0
        got = run_filter(lp, bk, impulse)
        b = [quantized(c) for c in LOWPASS_INPUT_COEFFS]
        a = [1.0] + [-quantized(c) for c in LOWPASS_OUTPUT_COEFFS]
        want = sp_signal.lfilter(b, a, impulse)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_reset_clears_state(self):
        bk = make_backend("float64")
        lp = make_lowpass(bk)
        run_filter(lp, bk, np.random.default_rng(0).normal(size=50))
        lp.reset()
        assert lp.step(1.0) == quantized(0.00308)


class TestNotch:
    def test_impulse_first_output(self):
        soft = make_backend("soft")
        nt = make_notch(soft)
        out = nt.step(soft.encode(1.0))
        assert soft.decode(out) == np.float32(0.99405)

    def test_zero_input(self):
        soft = make_backend("soft")
        nt = make_notch(soft)
        for _ in range(50):
            assert soft.decode(nt.step(soft.encode(0.0))) == 0.0

    def test_50hz_steady_state_matches_frequency_response(self):
        fs = 1000.0
        soft = make_backend("soft")
        nt = make_notch(soft)
        t = np.arange(int(3.0 * fs)) / fs
        x = np.sin(2 * np.pi * 50.0 * t)
        y = run_filter(nt, soft, x)
        seg = y[2000:]
        measured = np.sqrt(2.0 * np.mean(seg**2))
        want = abs(nt.frequency_response(50.0, fs))
        assert abs(measured - want) / want < 0.02

    def test_response_matches_lfilter(self):
        bk = make_backend("float64")
        nt = make_notch(bk)
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        got = run_filter(nt, bk, x)
        b = [quantized(c) for c in NOTCH_INPUT_COEFFS]
        a = [1.0] + [-quantized(c) for c in NOTCH_OUTPUT_COEFFS]
        want = sp_signal.lfilter(b, a, x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_deepest_rejection_near_135hz(self):
        # the published constants realize their zero near 135 Hz at 1 kHz
        bk = make_backend("float64")
        nt = make_notch(bk)
        freqs = np.arange(1.0, 500.0, 0.5)
        mags = [abs(nt.frequency_response(f, 1000.0)) for f in freqs]
        assert 130.0 < freqs[int(np.argmin(mags))] < 140.0


class TestIirLinearity:
    def test_linear_combination(self):
        bk = make_backend("float64")
        rng = np.random.default_rng(9)
        x1 = rng.normal(size=200)
        x2 = rng.normal(size=200)
        a_, b_ = 0.7, -1.3
        for factory in (make_lowpass, make_notch):
            y1 = run_filter(factory(bk), bk, x1)
            y2 = run_filter(factory(bk), bk, x2)
            y12 = run_filter(factory(bk), bk, a_ * x1 + b_ * x2)
            np.testing.assert_allclose(y12, a_ * y1 + b_ * y2, rtol=1e-8, atol=1e-10)


class TestBaseline:
    def test_constant_input_passthrough(self):
        soft = make_backend("soft")
        mb = MovingAverageBaseline(soft)
        c = soft.encode(0.75)
        for _ in range(2 * BASELINE_WINDOW + 50):
            base, corr = mb.step(c)
        assert abs(soft.decode(base) - 0.75) < 1e-3
        assert abs(soft.decode(corr)) < 1e-3

    def test_zero_input_forever_zero(self):
        soft = make_backend("soft")
        mb = MovingAverageBaseline(soft)
        for _ in range(500):
            base, corr = mb.step(soft.encode(0.0))
            assert soft.decode(base) == 0.0
            assert soft.decode(corr) == 0.0

    def test_streaming_equals_batch_reference_mode(self):
        # slow-drift fixture: 0.3 Hz sinusoid plus a sparse impulse train
        n = 5000
        t = np.arange(n) / 1000.0
        x = np.sin(2 * np.pi * 0.3 * t)
        x[::997] += 1.0
        bk = make_backend("float64")
        mb = MovingAverageBaseline(bk)
        m2s = np.array([bk.decode(mb.step(bk.encode(float(v)))[0]) for v in x])
        _, m2b = batch_two_stage(x)
        sl = slice(2 * BASELINE_WINDOW, None)
        rel = np.sqrt(np.mean((m2s[sl] - m2b[sl]) ** 2)) / np.sqrt(np.mean(m2b[sl] ** 2))
        assert rel < 1e-7

    def test_streaming_soft_drift_bounded(self):
        # soft float32 running sums accumulate one-sided truncation; on the
        # 0.3 Hz fixture the drift stays within a few parts in 10^4
        n = 5000
        t = np.arange(n) / 1000.0
        x = np.sin(2 * np.pi * 0.3 * t)
        x[::997] += 1.0
        bk = make_backend("soft")
        mb = MovingAverageBaseline(bk)
        m2s = np.array([bk.decode(mb.step(bk.encode(float(v)))[0]) for v in x])
        _, m2b = batch_two_stage(x)
        sl = slice(2 * BASELINE_WINDOW, None)
        rel = np.sqrt(np.mean((m2s[sl] - m2b[sl]) ** 2)) / np.sqrt(np.mean(m2b[sl] ** 2))
        assert rel < 5e-4

    def test_corrected_is_sample_minus_baseline(self):
        bk = make_backend("float64")
        mb = MovingAverageBaseline(bk)
        rng = np.random.default_rng(3)
        for v in rng.normal(size=300):
            base, corr = mb.step(float(v))
            assert corr == v - base

    def test_ring_occupancy_fixed(self):
        bk = make_backend("float64")
        mb = MovingAverageBaseline(bk, n1=10, n2=5)
        for v in range(50):
            mb.step(float(v))
        assert len(mb.mean1.ring) == 10 and len(mb.mean2.ring) == 5

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            MovingAverageBaseline(make_backend("float64"), n1=0)


class TestChain:
    def test_cascade_order_lowpass_notch_baseline(self):
        bk = make_backend("float64")
        chain = PreprocessChain(bk)
        lp = make_lowpass(bk)
        nt = make_notch(bk)
        mb = MovingAverageBaseline(bk)
        rng = np.random.default_rng(21)
        x = rng.normal(size=300)
        got = chain.process(x)
        want = []
        for v in x:
            s = nt.step(lp.step(float(v)))
            want.append(mb.step(s)[1])
        assert got == want

    def test_single_step_latency(self):
        # one sample in, exactly one sample out
        bk = make_backend("soft")
        chain = PreprocessChain(bk)
        out = chain.process(np.ones(17))
        assert len(out) == 17

    def test_warmup_constant(self):
        chain = PreprocessChain(make_backend("float64"))
        assert chain.warmup_samples == 2 * BASELINE_WINDOW

    def test_soft_and_reference_share_constants(self):
        soft = make_backend("soft")
        ref = make_backend("float64")
        lp_s = make_lowpass(soft)
        lp_r = make_lowpass(ref)
        assert [soft.decode(c) for c in lp_s.input_coeffs] == list(lp_r.input_coeffs)
        assert [soft.decode(c) for c in lp_s.output_coeffs] == list(lp_r.output_coeffs)


class TestIirFilterGeneric:
    def test_delay_line_shapes(self):
        bk = make_backend("float64")
        lp = make_lowpass(bk)
        assert len(lp.input_history) == 0 and len(lp.output_history) == 4
        nt = make_notch(bk)
        assert len(nt.input_history) == 2 and len(nt.output_history) == 2

    def test_soft_reference_agreement_short(self):
        # input quantization plus truncation noise, amplified by the
        # recursive feedback, stays a few parts in 10^5 over short runs
        rng = np.random.default_rng(33)
        x = rng.normal(size=500) * 0.5
        soft = make_backend("soft")
        ref = make_backend("float64")
        ys = run_filter(make_lowpass(soft), soft, x)
        yr = run_filter(make_lowpass(ref), ref, x)
        rel = np.sqrt(np.mean((ys - yr) ** 2)) / np.sqrt(np.mean(yr**2))
        assert rel < 2e-4
