"""Adaptive canceller tests: hand cases, datapath equivalence, cycle laws."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from fhrmon import fpu, lms, numeric
from fhrmon.lms import (
    CycleStats,
    LmsConfig,
    LmsState,
    ParallelDatapath,
    Schedule,
    SeriesDatapath,
    choose_scale_factor,
    lms_step,
    make_datapath,
    parallel_fpu_instances,
    scale,
)
from fhrmon.numeric import make_backend, quantized


class TestPlainStep:
    def test_zero_weights_pass_desired_through(self):
        bk = make_backend("soft")
        st = LmsState(LmsConfig(order=5), bk)
        e, y = lms_step(st, bk.encode(0.7), bk.encode(-0.3))
        assert bk.decode(y) == 0.0
        assert bk.decode(e) == bk.decode(bk.encode(-0.3))

    def test_order_one_hand_evaluation(self):
        # x=1, d=1, zero weight: y=0, e=1, then w = 2*mu*1*1
        bk = make_backend("soft")
        st = LmsState(LmsConfig(order=1), bk)
        e, y = lms_step(st, bk.encode(1.0), bk.encode(1.0))
        assert bk.decode(y) == 0.0
        assert bk.decode(e) == 1.0
        assert bk.decode(st.weights[0]) == np.float32(2 * 7e-5)

    def test_window_shifts_most_recent_first(self):
        bk = make_backend("float64")
        st = LmsState(LmsConfig(order=3), bk)
        for v in (1.0, 2.0, 3.0):
            lms_step(st, v, 0.0)
        assert st.window == [3.0, 2.0, 1.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LmsConfig(order=0)
        with pytest.raises(ValueError):
            LmsConfig(step_size=0.0)

    def test_beta_is_exact_double(self):
        cfg = LmsConfig(step_size=7e-5)
        assert cfg.beta == 2 * 7e-5


class TestCycleAccounting:
    def test_series_cycles_per_sample(self):
        for m, want in ((19, 39), (1, 3), (2, 5)):
            dp = SeriesDatapath(LmsConfig(order=m), make_backend("soft"))
            assert dp.stats.cycles_per_sample == want

    def test_parallel_single_cycle(self):
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(order=19), bk)
        dp.step(bk.encode(0.5), bk.encode(0.25))
        assert dp.stats.cycles_per_sample == 1
        assert dp.stats.total_cycles == 1
        dp.step(bk.encode(0.5), bk.encode(0.25))
        assert dp.stats.total_cycles == 2

    def test_total_cycles_law(self):
        bk = make_backend("soft")
        s = SeriesDatapath(LmsConfig(order=19), bk)
        p = ParallelDatapath(LmsConfig(order=19), make_backend("soft"))
        for _ in range(7):
            s.step(bk.encode(0.1), bk.encode(0.2))
            p.step(bk.encode(0.1), bk.encode(0.2))
        assert s.stats.total_cycles == 39 * 7
        assert p.stats.total_cycles == 7
        assert s.stats.total_cycles == p.stats.total_cycles * 39

    def test_ops_issued_budget(self):
        m = 19
        bk = make_backend("soft")
        s = SeriesDatapath(LmsConfig(order=m), bk)
        p = ParallelDatapath(LmsConfig(order=m), make_backend("soft"))
        s.step(bk.encode(0.5), bk.encode(0.25))
        p.step(bk.encode(0.5), bk.encode(0.25))
        assert s.stats.fpu_ops_issued == 5 * m + 3
        assert p.stats.fpu_ops_issued == 5 * m + 3
        assert s.stats.max_ops_per_cycle <= s.stats.fpu_instances == 9
        assert p.stats.max_ops_per_cycle == p.stats.fpu_instances

    def test_instance_constants(self):
        assert SeriesDatapath(LmsConfig(order=19), make_backend("soft")).stats.fpu_instances == 9
        assert parallel_fpu_instances(19) == 98

    def test_stats_serialization(self):
        st = CycleStats(cycles_per_sample=39, fpu_instances=9)
        st.tally(Schedule.series(19))
        d = st.to_dict()
        assert d["total_cycles"] == 39
        assert d["fpu_ops_issued"] == 98
        assert d["max_ops_per_cycle"] == 5

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            make_datapath("mixed", LmsConfig(), make_backend("soft"))


class TestArchitectureEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 19])
    def test_bit_identical_outputs_and_weights(self, m):
        rng = np.random.default_rng(40 + m)
        bks = [make_backend("soft") for _ in range(3)]
        cfg = LmsConfig(order=m, input_scale=2.0, desired_scale=4.0)
        series = SeriesDatapath(cfg, bks[0])
        parallel = ParallelDatapath(cfg, bks[1])
        plain = LmsState(cfg, bks[2])
        for x, d in zip(rng.uniform(-2, 2, 400), rng.uniform(-2, 2, 400)):
            xw = bks[0].encode(float(x))
            dw = bks[0].encode(float(d))
            e1, _ = series.step(xw, dw)
            e2, _ = parallel.step(xw, dw)
            e3, _ = lms_step(plain, xw, dw)
            assert e1 == e2 == e3
        assert series.state.weights == parallel.state.weights == plain.weights
        assert series.state.window == parallel.state.window == plain.window


class TestScaling:
    def test_scale_identity(self):
        bk = make_backend("soft")
        w = bk.encode(1.375)
        assert scale(bk, w, bk.encode(1.0)) == w

    def test_scale_half(self):
        bk = make_backend("soft")
        assert scale(bk, bk.encode(2.0), bk.encode(0.5)) == bk.encode(1.0)

    def test_factors_are_powers_of_two(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(0, rng.uniform(1e-4, 1e3), 5000)
            f = choose_scale_factor(x)
            assert f == 2.0 ** round(np.log2(f))

    def test_unit_target_brings_channels_into_range(self):
        # sine-like dense channels scaled with target 2 land inside [-2, 2]
        rng = np.random.default_rng(80)
        t = np.arange(4000) / 1000.0
        for amp in (0.003, 0.42, 57.0):
            x = amp * np.sin(2 * np.pi * 1.7 * t) + rng.normal(0, amp * 0.01, len(t))
            f = choose_scale_factor(x, target=2.0)
            assert np.max(np.abs(x * f)) <= 2.0

    def test_zero_signal_unit_factor(self):
        assert choose_scale_factor(np.zeros(100)) == 1.0


class TestConvergence:
    def test_system_identification_converges(self):
        # white +/-2 drive through a known FIR; weight error collapses well
        # below 10% of its starting norm inside the convergence budget
        rng = np.random.default_rng(7)
        m = 19
        true_w = rng.normal(0, 1, m)
        true_w /= np.linalg.norm(true_w)
        x = rng.choice([-2.0, 2.0], size=12000)
        d = np.convolve(x, true_w)[: len(x)]
        bk = make_backend("soft")
        st = LmsState(LmsConfig(order=m), bk)
        for xv, dv in zip(x, d):
            lms_step(st, bk.encode(float(xv)), bk.encode(float(dv)))
        w_hat = np.array([bk.decode(w) for w in st.weights])
        assert np.linalg.norm(w_hat - true_w) < 0.10 * np.linalg.norm(true_w)

    def test_stability_guard_no_saturation(self):
        # bounded inputs with the default step never trip the range flags
        rng = np.random.default_rng(17)
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(order=19), bk)
        x = rng.uniform(-2.0, 2.0, 30000)
        d = rng.uniform(-2.0, 2.0, 30000)
        xw = [bk.encode(float(v)) for v in x]
        dw = [bk.encode(float(v)) for v in d]
        _, first_flag = lms.run_canceller(dp, xw, dw)
        assert first_flag is None
        assert not bk.flags.any()

    def test_saturation_reported_with_sample_index(self):
        # a destabilizing step size must surface the first offending sample
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(order=4, step_size=10.0), bk)
        rng = np.random.default_rng(2)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        _, first_flag = lms.run_canceller(dp, xw, dw)
        assert first_flag is not None
        assert bk.flags.any()

    def test_flags_raised_before_the_canceller_are_not_blamed_on_it(self):
        # the pipeline shares one backend between preprocessing and the
        # canceller; flags already counted at entry must not read as sample 0
        rng = np.random.default_rng(17)
        bk = make_backend("soft")
        bk.flags.overflow, bk.flags.underflow = 3, 2
        dp = ParallelDatapath(LmsConfig(order=19), bk)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, 2000)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, 2000)]
        _, first_flag = lms.run_canceller(dp, xw, dw)
        assert first_flag is None

        # a canceller that does saturate is still located at the same sample
        rng = np.random.default_rng(2)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        clean = make_backend("soft")
        _, want = lms.run_canceller(ParallelDatapath(LmsConfig(order=4, step_size=10.0), clean), xw, dw)
        _, got = lms.run_canceller(ParallelDatapath(LmsConfig(order=4, step_size=10.0), bk), xw, dw)
        assert want is not None and got == want

    def test_soft_reference_error_drift_bounded(self):
        # identical inputs, soft vs double arithmetic: small relative RMS gap
        rng = np.random.default_rng(3)
        n = 4000
        x = rng.uniform(-2, 2, n)
        d = np.convolve(x, rng.normal(0, 0.3, 19))[:n]
        soft = make_backend("soft")
        ref = make_backend("float64")
        dps = ParallelDatapath(LmsConfig(order=19), soft)
        dpr = ParallelDatapath(LmsConfig(order=19), ref)
        es, _ = lms.run_canceller(dps, [soft.encode(float(v)) for v in x],
                                  [soft.encode(float(v)) for v in d])
        er, _ = lms.run_canceller(dpr, list(x), list(d))
        es_d = np.array([soft.decode(w) for w in es])
        er_d = np.array(er)
        rel = np.sqrt(np.mean((es_d - er_d) ** 2)) / np.sqrt(np.mean(er_d**2))
        assert rel < 1e-3


class TestCancellerKernel:
    """``run_canceller`` against a loop of ``_Datapath.step``."""

    @staticmethod
    def inputs(case, bk):
        if case == "saturating":
            # test_saturation_reported_with_sample_index's input
            rng = np.random.default_rng(2)
            cfg = LmsConfig(order=4, step_size=10.0)
            x, d = rng.uniform(-2, 2, 500), rng.uniform(-2, 2, 500)
        else:
            rng = np.random.default_rng(17)
            cfg = LmsConfig(order=19, input_scale=2.0, desired_scale=4.0)
            x, d = rng.uniform(-2, 2, 5000), rng.uniform(-2, 2, 5000)
        return cfg, [bk.encode(float(v)) for v in x], [bk.encode(float(v)) for v in d]

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", ["stable", "saturating"])
    @pytest.mark.parametrize("datapath", [SeriesDatapath, ParallelDatapath])
    def test_matches_step_loop(self, backend, case, datapath):
        bk_run, bk_step = make_backend(backend), make_backend(backend)
        cfg, xw, dw = self.inputs(case, bk_run)
        run_dp, step_dp = datapath(cfg, bk_run), datapath(cfg, bk_step)
        errors, first_flag = lms.run_canceller(run_dp, xw, dw)
        want, want_first = [], None
        for i, (x, d) in enumerate(zip(xw, dw)):
            want.append(step_dp.step(x, d)[0])
            if want_first is None and bk_step.flags.any():
                want_first = i
        # float64 words diverge to NaN on the saturating input; NaN == NaN here
        np.testing.assert_array_equal(np.array(errors), np.array(want))
        assert first_flag == want_first
        assert bk_run.flags == bk_step.flags
        assert bk_run.ops == bk_step.ops
        assert run_dp.stats.to_dict() == step_dp.stats.to_dict()
        np.testing.assert_array_equal(run_dp.state.weights, step_dp.state.weights)
        if backend == "soft" and case == "saturating":
            assert first_flag is not None

    @pytest.mark.parametrize("bad", [0x7F800000, 0xFFC00000, 0x00000001])
    def test_operand_error_matches_step(self, bad):
        bk = make_backend("soft")
        xw = [bk.encode(0.5), bk.encode(-0.25), bad]
        dw = [bk.encode(0.125)] * 3
        with pytest.raises(fpu.OperandError) as raised:
            lms.run_canceller(ParallelDatapath(LmsConfig(order=2), bk), xw, dw)
        dp = ParallelDatapath(LmsConfig(order=2), make_backend("soft"))
        with pytest.raises(fpu.OperandError) as want:
            for x, d in zip(xw, dw):
                dp.step(x, d)
        assert str(raised.value) == str(want.value)


def rescaling_canceller(cfg: LmsConfig, bk, x_values, d_values):
    """Reference LMS loop that scales every window tap afresh each sample.

    The same 5m + 3 ops in the same order as the modelled datapath, written
    out independently of ``LmsState``.  Tallies the meter like a kernel and
    returns ``(errors, first_flag, window, weights)``, all as values.
    """
    input_scale, desired_scale = quantized(cfg.input_scale), quantized(cfg.desired_scale)
    beta, m = quantized(cfg.beta), cfg.order
    window, weights = [0.0] * m, [0.0] * m
    errors, first_flag = [], None
    for i, (x, d) in enumerate(zip(x_values, d_values)):
        window = [x] + window[:-1]
        sx = [bk.vmul(tap, input_scale) for tap in window]
        y = reduce(bk.vadd, map(bk.vmul, sx, weights), 0.0)
        e = bk.vsub(bk.vmul(d, desired_scale), y)
        be = bk.vmul(beta, e)
        weights = [bk.vadd(w, bk.vmul(be, tap)) for w, tap in zip(weights, sx)]
        errors.append(e)
        if first_flag is None and bk.flags.any():
            first_flag = i
    bk.ops.tally(len(errors), add=2 * m, sub=1, mul=3 * m + 2)
    return errors, first_flag, window, weights


class TestScaledTapReuse:
    """``run_canceller`` and ``step`` against :func:`rescaling_canceller`."""

    N = 3000

    def inputs(self, case, backend, request):
        bk = make_backend(backend)
        if case == "record":
            # the default record's preprocessed channels and scale factors
            fixture = "soft_artifacts" if backend == "soft" else "ref_artifacts"
            fe = request.getfixturevalue(fixture).front_end
            cfg = LmsConfig(input_scale=fe.scale_x, desired_scale=fe.scale_d)
            return cfg, fe.thoracic_pp[: self.N], fe.abdominal_pp[: self.N]
        rng = np.random.default_rng(71)
        signs = rng.choice([-1.0, 1.0], self.N)
        if case == "saturating":
            # |x| ~ 1e10 times 2^100 is past the float32 range: every scaling saturates
            x, cfg = signs * rng.uniform(0.5e10, 1.5e10, self.N), LmsConfig(input_scale=2.0**100)
        else:
            # |x| ~ 2^-40 times 2^-100 is ~ 2^-140: every scaling flushes to zero
            x, cfg = signs * rng.uniform(0.5, 1.5, self.N) * 2.0**-40, LmsConfig(input_scale=2.0**-100)
        d = rng.uniform(-2.0, 2.0, self.N)
        return cfg, [bk.encode(float(v)) for v in x], [bk.encode(float(v)) for v in d]

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", ["record", "saturating", "flushing"])
    @pytest.mark.parametrize("datapath", [SeriesDatapath, ParallelDatapath])
    def test_matches_rescaling_reference(self, backend, case, datapath, request):
        cfg, xw, dw = self.inputs(case, backend, request)
        bk_run, bk_step, bk_ref = (make_backend(backend) for _ in range(3))
        run_dp, step_dp = datapath(cfg, bk_run), datapath(cfg, bk_step)

        errors, first_flag = lms.run_canceller(run_dp, xw, dw)
        step_errors, step_first = [], None
        for i, (x, d) in enumerate(zip(xw, dw)):
            step_errors.append(step_dp.step(x, d)[0])
            if step_first is None and bk_step.flags.any():
                step_first = i
        want, want_first, window, weights = rescaling_canceller(
            cfg, bk_ref, bk_ref.to_values(xw).tolist(), bk_ref.to_values(dw).tolist()
        )

        # float64 words run to inf/NaN on the saturating input; NaN == NaN here
        for got in (errors, step_errors):
            np.testing.assert_array_equal(np.array(got), np.array(bk_ref.to_words(want)))
        assert first_flag == step_first == want_first
        assert bk_run.flags == bk_step.flags == bk_ref.flags
        assert bk_run.ops == bk_step.ops == bk_ref.ops
        stats = lms.CycleStats(run_dp.schedule.cycles, run_dp.stats.fpu_instances)
        stats.tally(run_dp.schedule, self.N)
        assert run_dp.stats == step_dp.stats == stats
        assert stats.fpu_ops_issued == sum(bk_ref.ops.values())
        for dp in (run_dp, step_dp):
            assert dp.state.window == list(map(bk_ref.encode, window))
            np.testing.assert_array_equal(dp.state.weights, list(map(bk_ref.encode, weights)))
        if backend == "soft" and case != "record":
            # every scaling raised its flag, so the flag totals count each tap m times
            kind = "overflow" if case == "saturating" else "underflow"
            assert getattr(bk_run.flags, kind) >= cfg.order * (self.N - cfg.order)
            assert first_flag == 0


def bit_patterns(words) -> np.ndarray:
    """Soft words as they are; float64 words by their bits (signed zeros, NaNs)."""
    a = np.asarray(words)
    return a.astype(np.uint32) if a.dtype.kind in "iu" else a.astype(np.float64).view(np.uint64)


def update_loop(datapath, xw, dw):
    """The plain :meth:`LmsState.update` loop, metered as ``run_canceller`` meters."""
    state = datapath.state
    bk = state.backend
    entry_total = bk.flags.overflow + bk.flags.underflow
    errors, first_flag = [], None
    for i, (x, d) in enumerate(zip(bk.to_values(xw).tolist(), bk.to_values(dw).tolist())):
        errors.append(state.update(x, d)[0])
        if first_flag is None and bk.flags.overflow + bk.flags.underflow > entry_total:
            first_flag = i
    bk.ops.tally(len(errors), **state.ops_per_step)
    datapath.stats.tally(datapath.schedule, len(errors))
    return bk.to_words(errors), first_flag


def count_updates(monkeypatch) -> list:
    """Count the samples that go through ``LmsState.update`` from now on."""
    calls = [0]
    update = LmsState.update

    def counted(self, x, d):
        calls[0] += 1
        return update(self, x, d)

    monkeypatch.setattr(LmsState, "update", counted)
    return calls


def truncating() -> bool:
    """Whether float32 numpy addition currently rounds toward zero."""
    return bool((np.ones(1, np.float32) + np.float32(-(2.0**-30)))[0] < 1.0)


class TestBlockKernel:
    """``run_canceller``'s block kernel against a plain ``update`` loop."""

    B = lms.BLOCK

    def inputs(self, case, backend, request):
        """``(cfg, x_words, d_words, samples the exact path runs on soft)``."""
        bk = make_backend(backend)
        if case in ("record", "ragged"):
            fixture = "soft_artifacts" if backend == "soft" else "ref_artifacts"
            fe = request.getfixturevalue(fixture).front_end
            cfg = LmsConfig(input_scale=fe.scale_x, desired_scale=fe.scale_d)
            n = len(fe.thoracic_pp) if case == "record" else 2 * self.B + 77
            assert n % self.B
            return cfg, fe.thoracic_pp[:n], fe.abdominal_pp[:n], 0
        if case in ("saturating", "flushing"):
            cfg, xw, dw = TestScaledTapReuse().inputs(case, backend, request)
            return cfg, xw, dw, len(xw)
        rng = np.random.default_rng(88)
        n = 3 * self.B + 100
        x, d = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
        if case == "replay_pending":
            # one scaling flushes near the end of block 0 and its tap is reused
            # into block 1, so both blocks take the exact path
            cfg = LmsConfig(input_scale=2.0**-20)
            x[self.B - 3] = 2.0**-110
            exact = 2 * self.B
        elif case == "subnormal_product":
            # 2^-76 * 2^-64 = 2^-140 is an exact float32 subnormal: IEEE raises
            # no underflow for it, fpu_mul flushes it
            cfg = LmsConfig(desired_scale=2.0**-64)
            d[self.B + 5] = 2.0**-76
            exact = self.B
        elif case == "flushed_product":
            # a 2^-80 tap times weights and gains near 2^-77 is below every
            # float32 subnormal: zero in float32 as in the fpu, whose
            # underflow flags alone tell them apart
            cfg = LmsConfig(desired_scale=2.0**-64)
            x[self.B + 5] = 2.0**-80
            exact = self.B
        elif case == "negative_zero_row":
            # negative taps times +0 weights: rows of -0 products, whose sum
            # starts from +0, and -0 desired samples that keep the weights at +0
            cfg = LmsConfig()
            x[: 2 * cfg.order], d[: 2 * cfg.order] = -1.0, -0.0
            exact = 0
        else:  # order_one
            cfg = LmsConfig(order=1, input_scale=0.5)
            exact = 0
        return cfg, [bk.encode(float(v)) for v in x], [bk.encode(float(v)) for v in d], exact

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize(
        "case",
        ["record", "ragged", "saturating", "flushing", "replay_pending", "subnormal_product",
         "flushed_product", "negative_zero_row", "order_one"],
    )  # fmt: skip
    @pytest.mark.parametrize("datapath", [SeriesDatapath, ParallelDatapath])
    def test_matches_update_loop(self, backend, case, datapath, request, monkeypatch):
        cfg, xw, dw, exact = self.inputs(case, backend, request)
        bk_run, bk_loop = make_backend(backend), make_backend(backend)
        run_dp, loop_dp = datapath(cfg, bk_run), datapath(cfg, bk_loop)

        updates = count_updates(monkeypatch)
        errors, first_flag = lms.run_canceller(run_dp, xw, dw)
        monkeypatch.undo()
        want, want_first = update_loop(loop_dp, xw, dw)

        np.testing.assert_array_equal(bit_patterns(errors), bit_patterns(want))
        assert first_flag == want_first
        assert bk_run.flags == bk_loop.flags
        assert bk_run.ops == bk_loop.ops
        assert run_dp.stats == loop_dp.stats
        assert run_dp.stats.samples_processed == len(xw)
        for got, ref in ((run_dp.state.window, loop_dp.state.window),
                         (run_dp.state.weights, loop_dp.state.weights),
                         (list(run_dp.state.scaled_values), list(loop_dp.state.scaled_values))):
            np.testing.assert_array_equal(bit_patterns(got), bit_patterns(ref))
        assert run_dp.state._replay == loop_dp.state._replay
        # the float64 backend raises no flags and checks no range: no exact path
        assert updates[0] == (exact if backend == "soft" else 0)
        if case == "negative_zero_row":
            assert bit_patterns(errors)[cfg.order : 2 * cfg.order].tolist() == (
                [0x80000000] * cfg.order if backend == "soft" else [1 << 63] * cfg.order
            )

    def test_empty_channels(self):
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(), bk)
        assert lms.run_canceller(dp, [], []) == ([], None)
        assert dp.stats.samples_processed == 0 and not any(bk.ops.values())


class TestRoundingScope:
    """The canceller's round-toward-zero scope: entered, left and optional."""

    @staticmethod
    def run(backend="soft", n=2 * lms.BLOCK + 9):
        bk = make_backend(backend)
        rng = np.random.default_rng(5)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, n)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, n)]
        return lms.run_canceller(ParallelDatapath(LmsConfig(), bk), xw, dw)

    def test_round_to_nearest_after_return(self):
        assert not truncating()
        self.run()
        assert not truncating()

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_round_to_nearest_after_exception_in_a_block(self, backend, monkeypatch):
        compute = lms._BlockKernel.compute
        seen = []

        def failing(self, x, d):
            compute(self, x, d)
            seen.append(truncating())
            raise RuntimeError("inside a block")

        monkeypatch.setattr(lms._BlockKernel, "compute", failing)
        with pytest.raises(RuntimeError, match="inside a block"):
            self.run(backend)
        assert seen == [backend == "soft"]
        assert not truncating()

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", ["saturating", "flushing"])
    def test_no_runtime_warning_escapes(self, backend, case, request):
        # float32 overflow and float64 inf/NaN arithmetic in rejected blocks
        cfg, xw, dw = TestScaledTapReuse().inputs(case, backend, request)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lms.run_canceller(ParallelDatapath(cfg, make_backend(backend)), xw, dw)
            lms.run_canceller(ParallelDatapath(LmsConfig(order=4, step_size=10.0),
                                               make_backend(backend)), xw, dw)

    @pytest.mark.parametrize(
        "patch", [("_FE_TOWARDZERO", {}), ("_LIBM", "libfhrmon-absent.so")],
        ids=["unknown_architecture", "no_fesetround"],
    )
    def test_failed_probe_sends_every_block_through_update(self, patch, monkeypatch):
        want = self.run()
        monkeypatch.setattr(numeric, "_rounding", None)
        monkeypatch.setattr(numeric, *patch)
        updates = count_updates(monkeypatch)
        assert self.run() == want
        assert updates[0] == 2 * lms.BLOCK + 9
        assert numeric._rounding is False

    def test_import_does_not_need_ctypes(self):
        # numpy imports ctypes itself, so block it: fhrmon must import and run
        # without it, every soft block then taking the exact path
        script = (
            "import sys\n"
            "sys.modules['ctypes'] = None\n"
            "import fhrmon, fhrmon.cli, fhrmon.pipeline\n"
            "from fhrmon import lms, numeric\n"
            "assert numeric._rounding is None\n"
            "from test_lms import TestRoundingScope\n"
            "print(TestRoundingScope.run()[0][-3:], numeric._rounding)\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == f"{self.run()[0][-3:]} False\n"
