"""Preprocessing-stage tests: filter oracles, baseline batch equivalence.

The stage-by-stage oracle is :mod:`reference`, checked here against scipy's
``lfilter``, the realized transfer functions and batch moving means; the
package's stream forms are then held to it word for word.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference
from reference import Arithmetic
from scipy import signal as sp_signal
from test_lms import truncating
from test_numeric import SUM_CHAIN_PATHS, trace_paths

from fhrmon import fpu, numeric
from fhrmon.io import SynthSpec, generate_synthetic
from fhrmon.numeric import RunningMean, make_backend, quantized
from fhrmon.preprocess import (
    BASELINE_WINDOW,
    LOWPASS_INPUT_COEFFS,
    LOWPASS_OUTPUT_COEFFS,
    NOTCH_INPUT_COEFFS,
    NOTCH_OUTPUT_COEFFS,
    STREAM_BLOCK,
    IirFilter,
    MovingAverageBaseline,
    PreprocessChain,
    make_lowpass,
    make_notch,
)


def run_filter(filt, samples):
    """A reference filter over raw samples, returning the output values."""
    ar = filt.ar
    return np.array([ar.value(filt.step(ar.sample(float(x)))) for x in samples])


def batch_two_stage(x, n1=BASELINE_WINDOW, n2=BASELINE_WINDOW):
    """Direct two-pass windowed means with implicit zero padding."""
    inv1 = quantized(1.0 / n1)
    inv2 = quantized(1.0 / n2)
    m1 = np.convolve(x * inv1, np.ones(n1), mode="full")[: len(x)]
    m2 = np.convolve(m1 * inv2, np.ones(n2), mode="full")[: len(x)]
    return m1, m2


class TestLowpass:
    def test_impulse_first_output_is_gain_constant(self):
        soft = Arithmetic("soft")
        lp = reference.lowpass(soft)
        out = lp.step(soft.sample(1.0))
        assert soft.value(out) == np.float32(0.00308)

    def test_zero_input_zero_output(self):
        soft = Arithmetic("soft")
        lp = reference.lowpass(soft)
        for _ in range(100):
            assert soft.value(lp.step(soft.sample(0.0))) == 0.0

    def test_constant_input_converges_to_dc_gain(self):
        # steady state must match the transfer function at z = 1
        for name in ("soft", "float64"):
            ar = Arithmetic(name)
            lp = reference.lowpass(ar)
            one = ar.sample(1.0)
            for _ in range(4000):
                y = lp.step(one)
            dc = abs(make_lowpass(make_backend(name)).frequency_response(0.0, 1000.0))
            assert abs(ar.value(y) - dc) / dc < 1e-3

    def test_impulse_response_matches_lfilter(self):
        # independent IIR oracle on the same quantized constants
        lp = reference.lowpass(Arithmetic("float64"))
        n = 400
        impulse = np.zeros(n)
        impulse[0] = 1.0
        got = run_filter(lp, impulse)
        b = [quantized(c) for c in LOWPASS_INPUT_COEFFS]
        a = [1.0] + [-quantized(c) for c in LOWPASS_OUTPUT_COEFFS]
        want = sp_signal.lfilter(b, a, impulse)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_reset_clears_state(self):
        # the delay lines are the filter's whole state: zeroed, it starts afresh
        bk = make_backend("float64")
        lp = make_lowpass(bk)
        lp.run(np.random.default_rng(0).normal(size=50))
        lp.input_history, lp.output_history = [], [0.0] * 4
        assert lp.run(np.ones(1))[0] == quantized(0.00308)


class TestNotch:
    def test_impulse_first_output(self):
        soft = Arithmetic("soft")
        nt = reference.notch(soft)
        out = nt.step(soft.sample(1.0))
        assert soft.value(out) == np.float32(0.99405)

    def test_zero_input(self):
        soft = Arithmetic("soft")
        nt = reference.notch(soft)
        for _ in range(50):
            assert soft.value(nt.step(soft.sample(0.0))) == 0.0

    def test_50hz_steady_state_matches_frequency_response(self):
        fs = 1000.0
        nt = reference.notch(Arithmetic("soft"))
        t = np.arange(int(3.0 * fs)) / fs
        x = np.sin(2 * np.pi * 50.0 * t)
        y = run_filter(nt, x)
        seg = y[2000:]
        measured = np.sqrt(2.0 * np.mean(seg**2))
        want = abs(make_notch(make_backend("soft")).frequency_response(50.0, fs))
        assert abs(measured - want) / want < 0.02

    def test_response_matches_lfilter(self):
        nt = reference.notch(Arithmetic("float64"))
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        got = run_filter(nt, x)
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
        ar = Arithmetic("float64")
        rng = np.random.default_rng(9)
        x1 = rng.normal(size=200)
        x2 = rng.normal(size=200)
        a_, b_ = 0.7, -1.3
        for factory in (reference.lowpass, reference.notch):
            y1 = run_filter(factory(ar), x1)
            y2 = run_filter(factory(ar), x2)
            y12 = run_filter(factory(ar), a_ * x1 + b_ * x2)
            np.testing.assert_allclose(y12, a_ * y1 + b_ * y2, rtol=1e-8, atol=1e-10)


class TestBaseline:
    def test_constant_input_passthrough(self):
        soft = Arithmetic("soft")
        mb = reference.Baseline(soft)
        c = soft.sample(0.75)
        for _ in range(2 * BASELINE_WINDOW + 50):
            base, corr = mb.step(c)
        assert abs(soft.value(base) - 0.75) < 1e-3
        assert abs(soft.value(corr)) < 1e-3

    def test_zero_input_forever_zero(self):
        soft = Arithmetic("soft")
        mb = reference.Baseline(soft)
        for _ in range(500):
            base, corr = mb.step(soft.sample(0.0))
            assert soft.value(base) == 0.0
            assert soft.value(corr) == 0.0

    def test_streaming_equals_batch_reference_mode(self):
        # slow-drift fixture: 0.3 Hz sinusoid plus a sparse impulse train
        n = 5000
        t = np.arange(n) / 1000.0
        x = np.sin(2 * np.pi * 0.3 * t)
        x[::997] += 1.0
        ar = Arithmetic("float64")
        mb = reference.Baseline(ar)
        m2s = np.array([ar.value(mb.step(ar.sample(float(v)))[0]) for v in x])
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
        ar = Arithmetic("soft")
        mb = reference.Baseline(ar)
        m2s = np.array([ar.value(mb.step(ar.sample(float(v)))[0]) for v in x])
        _, m2b = batch_two_stage(x)
        sl = slice(2 * BASELINE_WINDOW, None)
        rel = np.sqrt(np.mean((m2s[sl] - m2b[sl]) ** 2)) / np.sqrt(np.mean(m2b[sl] ** 2))
        assert rel < 5e-4

    def test_corrected_is_sample_minus_baseline(self):
        mb = reference.Baseline(Arithmetic("float64"))
        rng = np.random.default_rng(3)
        for v in rng.normal(size=300):
            base, corr = mb.step(float(v))
            assert corr == v - base

    def test_ring_occupancy_fixed(self):
        bk = make_backend("float64")
        mb = MovingAverageBaseline(bk)
        mb.run(np.arange(2.5 * BASELINE_WINDOW))
        assert len(mb.mean1.ring) == len(mb.mean2.ring) == BASELINE_WINDOW

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            RunningMean(make_backend("float64"), 0)


class TestChain:
    def test_cascade_order_lowpass_notch_baseline(self):
        bk = make_backend("float64")
        chain = PreprocessChain(bk)
        ar = Arithmetic("float64")
        lp = reference.lowpass(ar)
        nt = reference.notch(ar)
        mb = reference.Baseline(ar)
        rng = np.random.default_rng(21)
        x = rng.normal(size=300)
        got = bk.to_words(chain.process(x))
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
        assert lp_s.input_coeffs == lp_r.input_coeffs
        assert lp_s.output_coeffs == lp_r.output_coeffs


class TestIirFilterGeneric:
    def test_delay_line_shapes(self):
        bk = make_backend("float64")
        lp = make_lowpass(bk)
        assert len(lp.input_history) == 0 and len(lp.output_history) == 4
        nt = make_notch(bk)
        assert len(nt.input_history) == 2 and len(nt.output_history) == 2

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_refuses_a_feedback_order_without_a_loop(self, backend):
        # only orders 2 (notch) and 4 (low-pass) have an unrolled loop
        with pytest.raises(ValueError, match=r"feedback order must be one of \[2, 4\], got 3"):
            IirFilter((1.0,), (0.5, -0.25, 0.125), make_backend(backend))

    def test_soft_reference_agreement_short(self):
        # input quantization plus truncation noise, amplified by the
        # recursive feedback, stays a few parts in 10^5 over short runs
        rng = np.random.default_rng(33)
        x = rng.normal(size=500) * 0.5
        ys = run_filter(reference.lowpass(Arithmetic("soft")), x)
        yr = run_filter(reference.lowpass(Arithmetic("float64")), x)
        rel = np.sqrt(np.mean((ys - yr) ** 2)) / np.sqrt(np.mean(yr**2))
        assert rel < 2e-4


def _chain_state(chain, words=list):
    """Every delay line, ring and running total of a chain, as words.

    ``words`` converts the state: the package's stages hold values.
    """
    means = (chain.baseline.mean1, chain.baseline.mean2)
    return (
        [(words(f.input_history), words(f.output_history)) for f in (chain.lowpass, chain.notch)],
        [(words(m.ring), words([m.mean])) for m in means],
    )


class TestStageMajorProcess:
    """``PreprocessChain.process`` against the reference chain."""

    @staticmethod
    def signal(kind):
        rng = np.random.default_rng(61)
        ecg = generate_synthetic(SynthSpec(duration_s=5.0, seed=61)).channel("abdominal")
        if kind == "ecg":
            return ecg
        # Full-scale steps drive the low-pass recursion past the largest
        # float32 (saturation); a tiny segment flushes its products to zero.
        return np.concatenate(
            [ecg[:2000], np.full(300, 3e38), np.full(300, -3e38), 1e-36 * rng.normal(size=500), ecg]
        )

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("kind", ["ecg", "saturating"])
    def test_words_flags_meter_and_state_match_step_loop(self, backend, kind):
        x = self.signal(kind)
        bk_run, ar = make_backend(backend), Arithmetic(backend)
        run_chain, ref_chain = PreprocessChain(bk_run), reference.Chain(ar)
        # Two calls: the second resumes from the state the first left.
        parts = [run_chain.process(x[:1234]), run_chain.process(x[1234:])]
        got = bk_run.to_words(np.concatenate(parts))
        want = [ref_chain.step(ar.sample(float(v))) for v in x]
        assert got == want
        assert bk_run.flags == ar.flags
        assert bk_run.ops == ar.ops
        assert _chain_state(run_chain, bk_run.to_words) == _chain_state(ref_chain)
        if backend == "soft" and kind == "saturating":
            assert bk_run.flags.overflow and bk_run.flags.underflow

    def test_only_the_block_with_a_flushing_product_reruns(self, monkeypatch):
        # process is the one blocker: each STREAM_BLOCK is one checked filter call.
        # A low-pass output in [2^-126, 2^-125) after silence makes its product
        # with the last feedback coefficient flush four samples on, in block 1.
        n, p = 3 * STREAM_BLOCK + 200, STREAM_BLOCK + 1000
        x = np.zeros(n)
        x[p] = 1.5 * 2.0**-126 / quantized(LOWPASS_INPUT_COEFFS[0])
        ecg = generate_synthetic(SynthSpec(duration_s=8.0, seed=61)).channel("abdominal")
        x[p + 1 :] = ecg[: n - p - 1]
        bk, ar = make_backend("soft"), Arithmetic("soft")
        chain = PreprocessChain(bk)
        paths = {name: trace_paths(getattr(chain, name), ("typed_loop", "value_loop"), monkeypatch)
                 for name in ("lowpass", "notch")}
        got = bk.to_words(chain.process(x))
        assert got == reference.preprocess(ar, x)
        assert bk.flags == ar.flags and ar.flags.underflow
        assert bk.ops == ar.ops
        assert paths == {"lowpass": ["fast", "fast", "exact", "fast", "fast"], "notch": ["fast"] * 4}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e39])
    def test_unrepresentable_sample_raises_what_encode_raises(self, value):
        bk = make_backend("soft")
        with pytest.raises((ValueError, OverflowError)) as raised:
            PreprocessChain(bk).process([0.5, value])
        with pytest.raises((ValueError, OverflowError)) as want:
            bk.encode(value)
        assert type(raised.value) is type(want.value)
        assert str(raised.value) == str(want.value)


RECURSIONS = {
    "lowpass": make_lowpass,
    "notch": make_notch,
    "mean": lambda bk: RunningMean(bk, BASELINE_WINDOW),
}
REFERENCES = {
    "lowpass": reference.lowpass,
    "notch": reference.notch,
    "mean": lambda ar: reference.Mean(ar, BASELINE_WINDOW),
}

# From zero state, each of these makes the stage's recursion flush a sum
# within a few samples; its feed-forward ops stay in range.
SPIKES = {
    "lowpass": [2.0**-110],
    "notch": [2.0**-120],
    "mean": [2.0**-100, -(2.0**-100) * (1 - 2.0**-20)],
}

UNAVAILABLE_SCOPE = pytest.mark.parametrize(
    "patch", [("_FE_TOWARDZERO", {}), ("_LIBM", "libfhrmon-absent.so")],
    ids=["unknown_architecture", "no_fesetround"],
)


def _stage_state(stage, words=list):
    """A filter's delay lines, or a running mean's ring and total, as words.

    ``words`` converts the state: the package's stages hold values.
    """
    if isinstance(stage, (RunningMean, reference.Mean)):
        return words(stage.ring), words([stage.mean])
    return words(stage.input_history), words(stage.output_history)


def _reference_loop(stage, values):
    """Words of the reference ``stage`` over float32 ``values``, and the samples
    whose step raised a flag."""
    ar = stage.ar
    words, flagged = [], []
    for k, v in enumerate(values.tolist()):
        before = ar.flag_total()
        words.append(stage.step(ar.sample(v)))
        if ar.flag_total() > before:
            flagged.append(k)
    return words, flagged


def _reference_run(make, values, kind):
    """``(words, flagged, arithmetic, state)`` of ``make(Arithmetic(kind))`` over ``values``."""
    ar = Arithmetic(kind)
    stage = make(ar)
    words, flagged = _reference_loop(stage, values)
    return words, flagged, ar, _stage_state(stage)


def _trace_paths(stage, monkeypatch) -> list:
    """Record, in order, each block's paths: ``"fast"``, then ``"exact"`` if it reran.

    A filter's are its typed loop and value loop; a running mean's, its
    backend's sum chain accumulate and ``vadd`` chain.
    """
    if isinstance(stage, RunningMean):
        return trace_paths(stage.backend, SUM_CHAIN_PATHS, monkeypatch)
    return trace_paths(stage, ("typed_loop", "value_loop"), monkeypatch)


def _soft_paths(n_blocks: int, rejected) -> list:
    return [p for i in range(n_blocks) for p in (["fast", "exact"] if i in rejected else ["fast"])]


class TestCastRecursion:
    """``IirFilter.run`` and ``RunningMean.run`` against their reference stages.

    On the soft backend each call of a filter's recursion runs as an
    unrolled loop on float32 scalars under round-toward-zero, and each call of a running mean as one
    sum chain accumulate; a call with any op out of range reruns on
    the value ops.  Words, flags, meter readings and state must equal the
    reference's.
    """

    B = STREAM_BLOCK
    SPLIT = 1234  # run in two calls, the second resuming from the first's state
    N = 2 * STREAM_BLOCK + 300

    def block_of(self, stage, k: int) -> int:
        """The call sample ``k`` falls in: each call is checked once, as one block."""
        return 0 if k < self.SPLIT else 1

    @staticmethod
    def ecg() -> np.ndarray:
        return generate_synthetic(SynthSpec(duration_s=9.0, seed=71)).channel("abdominal")

    @staticmethod
    def first_flag(name) -> int:
        """The sample at which ``SPIKES[name]`` from sample 0 first raises a flag."""
        ar = Arithmetic("soft")
        x = np.zeros(100)
        x[: len(SPIKES[name])] = SPIKES[name]
        flagged = _reference_loop(REFERENCES[name](ar), make_backend("soft").ingest(x))[1]
        assert flagged and not ar.flags.overflow
        return flagged[0]

    def signal(self, name, case) -> np.ndarray:
        ecg = self.ecg()
        if case == "saturating":
            # the running total passes max normal; the filters' outputs grow past it
            big = [np.full(400, 3.4e38)] if name == "mean" else [np.full(300, 3e38), np.full(300, -3e38)]
            x = np.concatenate([ecg[:2000], *big, ecg])
        elif case == "flushing":
            # products and partial sums of noise this small fall below 2^-126
            tiny = {"lowpass": 1e-35, "notch": 1e-36, "mean": 1e-35}[name]
            x = np.concatenate([tiny * np.random.default_rng(71).normal(size=3000), ecg])
        elif case in ("flag_first", "flag_last"):
            x = np.zeros(self.N)
            # the first sample of the last block, or the last sample of the one before
            target = self.SPLIT + self.B - (case == "flag_last")
            start = target - self.first_flag(name)
            x[start : start + len(SPIKES[name])] = SPIKES[name]
        else:  # ecg
            x = ecg
        return make_backend("soft").ingest(x[: self.N])

    def run_and_step(self, make, x, backend, monkeypatch, want):
        """``make(backend).run`` in two calls against ``want``, a :func:`_reference_run`
        on ``x``; they must agree.

        Returns each block's paths (see ``_trace_paths``), the samples whose
        reference step raised a flag, the blocks of ``run`` those samples
        fall in, and the number of blocks.
        """
        bk_run = make_backend(backend)
        run = make(bk_run)
        paths = _trace_paths(run, monkeypatch)
        split = self.SPLIT
        got = bk_run.to_words(np.concatenate([run.run(x[:split]), run.run(x[split:])]))
        want, flagged, ar, state = want

        assert got == want
        assert bk_run.flags == ar.flags
        assert bk_run.ops == ar.ops
        assert _stage_state(run, bk_run.to_words) == state
        blocks = {self.block_of(run, k) for k in flagged}
        return paths, flagged, blocks, self.block_of(run, self.N - 1) + 1

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", ["ecg", "saturating", "flushing", "flag_first", "flag_last"])
    @pytest.mark.parametrize("name", list(RECURSIONS))
    def test_run_matches_step_loop(self, name, case, backend, monkeypatch, reference_runs):
        x = self.signal(name, case)
        want = reference_runs(
            (name, case, backend), lambda: _reference_run(REFERENCES[name], x, backend)
        )
        make = RECURSIONS[name]
        paths, flagged, blocks, n_blocks = self.run_and_step(make, x, backend, monkeypatch, want)
        if backend == "float64":
            # a filter's typed loop and a running mean's accumulate are the value ops
            assert paths == ["fast"] * n_blocks
        elif case in ("saturating", "flushing"):
            # some flags come from the feed-forward bulk ops: at least one block reruns
            assert flagged and "exact" in paths and paths.count("fast") == n_blocks
        else:
            # every flag comes from the recursion: exactly the flagged blocks rerun
            assert paths == _soft_paths(n_blocks, blocks)
            if case != "ecg":
                assert flagged[0] == self.SPLIT + self.B - (case == "flag_last")
            else:
                assert not flagged

    @pytest.mark.parametrize("op", ["product", "difference"])
    def test_block_with_one_op_out_of_range_reruns(self, op, monkeypatch):
        x = np.zeros(self.N)
        p = self.SPLIT + 100
        if op == "product":
            # output p is in [2^-126, 2^-125): its product with the last feedback
            # coefficient (-0.4814), four samples on, flushes while the sums
            # carry the ECG that follows
            make, make_reference = make_lowpass, reference.lowpass
            x[p] = 1.5 * 2.0**-126 / quantized(LOWPASS_INPUT_COEFFS[0])
            x[p + 1 :] = self.ecg()[: self.N - p - 1]
            want_flagged = [p + 4]
        else:
            # scaled by 2^-8 exactly: at p + 256 the total 2^-110 + 2^-128 is
            # normal, and subtracting the evicted 2^-110 leaves 2^-128; the
            # next sample's 2^-100 keeps the total after it normal either way
            def make(bk):
                return RunningMean(bk, 256)

            def make_reference(ar):
                return reference.Mean(ar, 256)

            x[[p, p + 1, p + 256, p + 257]] = 2.0**-102, 2.0**-107, -(2.0**-107 - 2.0**-120), 2.0**-92
            want_flagged = [p + 256]
        x = make_backend("soft").ingest(x)
        want = _reference_run(make_reference, x, "soft")
        paths, flagged, blocks, n_blocks = self.run_and_step(make, x, "soft", monkeypatch, want)
        assert flagged == want_flagged
        assert paths == _soft_paths(n_blocks, blocks) and "exact" in paths

    @UNAVAILABLE_SCOPE
    @pytest.mark.parametrize("case", ["ecg", "flushing"])
    @pytest.mark.parametrize("name", list(RECURSIONS))
    def test_without_scope_every_block_runs_the_value_loop(
        self, name, case, patch, monkeypatch, reference_runs
    ):
        x = self.signal(name, case)
        want, _, ar, _ = reference_runs(
            (name, case, "soft"), lambda: _reference_run(REFERENCES[name], x, "soft")
        )
        monkeypatch.setattr(numeric, "_rounding", None)
        monkeypatch.setattr(numeric, *patch)
        bk_run = make_backend("soft")
        run = RECURSIONS[name](bk_run)
        paths = _trace_paths(run, monkeypatch)
        assert bk_run.to_words(run.run(x)) == want
        assert bk_run.flags == ar.flags and bk_run.ops == ar.ops
        # one call, checked once
        assert paths == ["exact"]
        assert numeric._rounding is False


class TestRecursionRoundingScope:
    """The typed loops and the sum chain accumulate run only inside the round-toward-zero scope."""

    @staticmethod
    def process(n=STREAM_BLOCK + 100):
        x = np.random.default_rng(8).normal(0.0, 1.0, n)
        return PreprocessChain(make_backend("soft")).process(x)

    def test_round_to_nearest_after_process(self):
        assert not truncating()
        self.process()
        assert not truncating()

    @pytest.mark.parametrize(
        "owner, fast_path",
        [(IirFilter, "typed_loop"), (numeric.SoftF32Backend, "_accumulated")],
        ids=["IirFilter", "RunningMean"],  # a running mean's fast path is its backend's
    )
    def test_round_to_nearest_after_operand_error_in_a_block(self, owner, fast_path, monkeypatch):
        original = getattr(owner, fast_path)
        seen = []

        def failing(self, *args):
            original(self, *args)
            seen.append(truncating())
            raise fpu.OperandError("inside a block")

        monkeypatch.setattr(owner, fast_path, failing)
        with pytest.raises(fpu.OperandError, match="inside a block"):
            self.process()
        assert seen == [True]
        assert not truncating()
