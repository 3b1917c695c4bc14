"""Adaptive canceller tests: hand cases, datapath equivalence, cycle laws."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference
from reference import Arithmetic

from fhrmon import fpu, lms, numeric
from fhrmon.lms import (
    CycleStats,
    LmsConfig,
    LmsState,
    ParallelDatapath,
    Schedule,
    SeriesDatapath,
    choose_scale_factor,
    make_datapath,
)
from fhrmon.numeric import make_backend
from fhrmon.preprocess import STREAM_BLOCK, PreprocessChain


def reference_canceller(kind: str, cfg: LmsConfig, xw, dw):
    """The reference canceller over channels of words: ``(errors, first_flag, arithmetic, lms)``."""
    ar = Arithmetic(kind)
    ref = reference.Lms(ar, cfg)
    errors, first_flag = reference.cancel(ref, xw, dw)
    return errors, first_flag, ar, ref


def cancel_words(datapath, xw, dw):
    """``run_canceller`` on channels of words: ``(error words, first_flag)``."""
    bk = datapath.state.backend
    errors, first_flag = lms.run_canceller(datapath, bk.to_values(xw), bk.to_values(dw))
    return bk.to_words(errors), first_flag


def state_words(datapath) -> tuple[list, list]:
    """A datapath's tap window and weights, as backend words."""
    st = datapath.state
    return st.backend.to_words(st.window_values), st.backend.to_words(st.weight_values)


class TestPlainStep:
    def test_zero_weights_pass_desired_through(self):
        ar = Arithmetic("soft")
        st = reference.Lms(ar, LmsConfig(order=5))
        e, y = st.step(ar.sample(0.7), ar.sample(-0.3))
        assert ar.value(y) == 0.0
        assert ar.value(e) == ar.value(ar.sample(-0.3))

    def test_order_one_hand_evaluation(self):
        # x=1, d=1, zero weight: y=0, e=1, then w = 2*mu*1*1
        ar = Arithmetic("soft")
        st = reference.Lms(ar, LmsConfig(order=1))
        e, y = st.step(ar.sample(1.0), ar.sample(1.0))
        assert ar.value(y) == 0.0
        assert ar.value(e) == 1.0
        assert ar.value(st.weights[0]) == np.float32(2 * 7e-5)

    def test_window_shifts_most_recent_first(self):
        st = reference.Lms(Arithmetic("float64"), LmsConfig(order=3))
        for v in (1.0, 2.0, 3.0):
            st.step(v, 0.0)
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
        lms.run_canceller(dp, bk.ingest([0.5]), bk.ingest([0.25]))
        assert dp.stats.cycles_per_sample == 1
        assert dp.stats.total_cycles == 1
        lms.run_canceller(dp, bk.ingest([0.5]), bk.ingest([0.25]))
        assert dp.stats.total_cycles == 2

    def test_total_cycles_law(self):
        bk = make_backend("soft")
        s = SeriesDatapath(LmsConfig(order=19), bk)
        p = ParallelDatapath(LmsConfig(order=19), make_backend("soft"))
        for _ in range(7):
            lms.run_canceller(s, bk.ingest([0.1]), bk.ingest([0.2]))
            lms.run_canceller(p, bk.ingest([0.1]), bk.ingest([0.2]))
        assert s.stats.total_cycles == 39 * 7
        assert p.stats.total_cycles == 7
        assert s.stats.total_cycles == p.stats.total_cycles * 39

    def test_ops_issued_budget(self):
        m = 19
        bk = make_backend("soft")
        s = SeriesDatapath(LmsConfig(order=m), bk)
        p = ParallelDatapath(LmsConfig(order=m), make_backend("soft"))
        lms.run_canceller(s, bk.ingest([0.5]), bk.ingest([0.25]))
        lms.run_canceller(p, bk.ingest([0.5]), bk.ingest([0.25]))
        assert s.stats.fpu_ops_issued == 5 * m + 3
        assert p.stats.fpu_ops_issued == 5 * m + 3
        assert s.stats.max_ops_per_cycle <= s.stats.fpu_instances == 9
        assert p.stats.max_ops_per_cycle == p.stats.fpu_instances

    def test_instance_constants(self):
        assert SeriesDatapath(LmsConfig(order=19), make_backend("soft")).stats.fpu_instances == 9
        assert Schedule.parallel(19).fpu_instances == 98

    def test_stats_serialization(self):
        d = CycleStats.of(Schedule.series(19), 1).to_dict()
        assert d == {
            "cycles_per_sample": 39, "total_cycles": 39, "fpu_instances": 9,
            "fpu_ops_issued": 98, "samples_processed": 1, "max_ops_per_cycle": 5,
        }  # fmt: skip

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            make_datapath("mixed", LmsConfig(), make_backend("soft"))


class TestStepOps:
    """``step_ops``: the kernel's step, and the table both schedules order."""

    N = 300

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_table_is_the_kernels_step(self, backend, request):
        # the table run op by op on fpu words, over the default record's first samples
        fixture = "soft_artifacts" if backend == "soft" else "ref_artifacts"
        fe = request.getfixturevalue(fixture).front_end
        cfg = LmsConfig(input_scale=fe.scale_x, desired_scale=fe.scale_d)
        m, ar = cfg.order, Arithmetic(backend)
        xw = make_backend(backend).to_words(fe.thoracic_pp[: self.N])
        dw = make_backend(backend).to_words(fe.abdominal_pp[: self.N])
        constants = {"s_x": ar.constant(cfg.input_scale), "s_d": ar.constant(cfg.desired_scale),
                     "beta": ar.constant(cfg.beta), "0": ar.zero}
        window, weights, errors = [ar.zero] * m, [ar.zero] * m, []
        for x, d in zip(xw, dw):
            window = [x] + window[:-1]
            words = {**constants, "d": d}
            words.update((f"x{k}", v) for k, v in enumerate(window))
            words.update((f"w{k}", v) for k, v in enumerate(weights))
            for kind, result, operands in lms.step_ops(m):
                words[result] = getattr(ar, kind)(*(words[a] for a in operands))
            errors.append(words["e"])
            weights = [words[f"w{k}'"] for k in range(m)]

        kernel = ParallelDatapath(cfg, make_backend(backend))
        stepped = SeriesDatapath(cfg, make_backend(backend))
        assert cancel_words(kernel, xw, dw)[0] == update_loop(stepped, xw, dw)[0] == errors
        assert state_words(kernel)[1] == state_words(stepped)[1] == weights

    @pytest.mark.parametrize("m", [1, 2, 19])
    def test_schedules_are_valid_orders_of_the_table(self, m):
        table, ops = lms.step_ops(m), 5 * m + 3
        series, parallel = Schedule.series(m), Schedule.parallel(m)
        assert series.check(table) is None
        assert parallel.check(table) is None
        assert (series.cycles, series.ops, series.peak) == (2 * m + 1, ops, 5)
        assert (parallel.cycles, parallel.ops, parallel.peak) == (1, ops, ops)
        assert (series.fpu_instances, parallel.fpu_instances) == (9, ops)
        state = LmsState(LmsConfig(order=m), make_backend("soft"))
        assert state.ops_per_step == {"add": 2 * m, "sub": 1, "mul": 3 * m + 2}
        # a schedule that leaves out ops, or needs more units than it has, is refused
        dropped = Schedule(series.issue[1:], 9)
        assert dropped.check(table) == f"issues {ops - 3} ops, not each of the table's {ops} once"
        crowded = Schedule(parallel.issue, ops - 1)
        assert crowded.check(table) == f"issues {ops} ops in one cycle on {ops - 1} units"


class TestArchitectureEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 19])
    def test_bit_identical_outputs_and_weights(self, m):
        rng = np.random.default_rng(40 + m)
        bks = [make_backend("soft") for _ in range(2)]
        cfg = LmsConfig(order=m, input_scale=2.0, desired_scale=4.0)
        series = SeriesDatapath(cfg, bks[0])
        parallel = ParallelDatapath(cfg, bks[1])
        plain = reference.Lms(Arithmetic("soft"), cfg)
        x, d = rng.uniform(-2, 2, 400), rng.uniform(-2, 2, 400)
        xw = [bks[0].encode(float(v)) for v in x]
        dw = [bks[0].encode(float(v)) for v in d]
        e1, _ = cancel_words(series, xw, dw)
        e2, _ = cancel_words(parallel, xw, dw)
        e3, _ = reference.cancel(plain, xw, dw)
        assert e1 == e2 == e3
        assert state_words(series) == state_words(parallel) == (plain.window, plain.weights)


class TestScaling:
    def test_scale_identity(self):
        bk = make_backend("soft")
        w = bk.encode(1.375)
        assert bk.mul(w, bk.encode(1.0)) == w

    def test_scale_half(self):
        bk = make_backend("soft")
        assert bk.mul(bk.encode(2.0), bk.encode(0.5)) == bk.encode(1.0)

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

    def test_factor_stays_within_float32(self):
        # 16 / 2^-125 would be 2^129, past the largest float32
        f = choose_scale_factor(np.full(100, 2.0**-125))
        assert f <= 2.0**127
        LmsState(LmsConfig(input_scale=f, desired_scale=f), make_backend("soft"))


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
        dp = ParallelDatapath(LmsConfig(order=m), bk)
        lms.run_canceller(dp, bk.ingest(x), bk.ingest(d))
        w_hat = np.array(dp.state.weight_values)
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
        _, first_flag = cancel_words(dp, xw, dw)
        assert first_flag is None
        assert not bk.flags.any()

    def test_saturation_reported_with_sample_index(self):
        # a destabilizing step size must surface the first offending sample
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(order=4, step_size=10.0), bk)
        rng = np.random.default_rng(2)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        _, first_flag = cancel_words(dp, xw, dw)
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
        _, first_flag = cancel_words(dp, xw, dw)
        assert first_flag is None

        # a canceller that does saturate is still located at the same sample
        rng = np.random.default_rng(2)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2, 2, 500)]
        clean = make_backend("soft")
        _, want = cancel_words(ParallelDatapath(LmsConfig(order=4, step_size=10.0), clean), xw, dw)
        _, got = cancel_words(ParallelDatapath(LmsConfig(order=4, step_size=10.0), bk), xw, dw)
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
        es_d, _ = lms.run_canceller(dps, soft.ingest(x), soft.ingest(d))
        er_d, _ = lms.run_canceller(dpr, x, d)
        rel = np.sqrt(np.mean((es_d - er_d) ** 2)) / np.sqrt(np.mean(er_d**2))
        assert rel < 1e-3


class TestCancellerKernel:
    """``run_canceller`` against the reference canceller."""

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
    def test_matches_step_loop(self, backend, case, datapath, reference_runs):
        bk_run = make_backend(backend)
        cfg, xw, dw = self.inputs(case, bk_run)
        run_dp = datapath(cfg, bk_run)
        errors, first_flag = cancel_words(run_dp, xw, dw)
        want, want_first, ar, ref = reference_runs(
            (backend, case), lambda: reference_canceller(backend, cfg, xw, dw)
        )
        # float64 words diverge to NaN on the saturating input; NaN == NaN here
        np.testing.assert_array_equal(np.array(errors), np.array(want))
        assert first_flag == want_first
        assert bk_run.flags == ar.flags
        assert bk_run.ops == ar.ops
        assert run_dp.stats == CycleStats.of(run_dp.schedule, len(xw))
        np.testing.assert_array_equal(state_words(run_dp)[1], ref.weights)
        if backend == "soft" and case == "saturating":
            assert first_flag is not None

    @pytest.mark.parametrize("bad", [0x7F800000, 0xFFC00000, 0x00000001])
    def test_operand_error_matches_step(self, bad):
        bk = make_backend("soft")
        xw = [bk.encode(0.5), bk.encode(-0.25), bad]
        dw = [bk.encode(0.125)] * 3
        # the words' float32 values, unchecked: the canceller meets the bad operand
        x, d = (np.array(w, np.uint32).view(np.float32).astype(np.float64) for w in (xw, dw))
        with pytest.raises(fpu.OperandError) as raised:
            lms.run_canceller(ParallelDatapath(LmsConfig(order=2), bk), x, d)
        with pytest.raises(fpu.OperandError) as want:
            reference_canceller("soft", LmsConfig(order=2), xw, dw)
        assert str(raised.value) == str(want.value)


class TestScaledTapReuse:
    """``run_canceller`` against the reference, which scales every window tap afresh.

    The kernel scales each tap once per block; every sample must still read
    the words, flags and meter of a scaling per sample.
    """

    N = 3000

    def inputs(self, case, backend, request):
        bk = make_backend(backend)
        if case == "record":
            # the default record's preprocessed channels and scale factors
            fixture = "soft_artifacts" if backend == "soft" else "ref_artifacts"
            fe = request.getfixturevalue(fixture).front_end
            cfg = LmsConfig(input_scale=fe.scale_x, desired_scale=fe.scale_d)
            return cfg, bk.to_words(fe.thoracic_pp[: self.N]), bk.to_words(fe.abdominal_pp[: self.N])
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
    def test_matches_rescaling_reference(self, backend, case, datapath, request, reference_runs):
        cfg, xw, dw = self.inputs(case, backend, request)
        bk_run = make_backend(backend)
        run_dp = datapath(cfg, bk_run)

        errors, first_flag = cancel_words(run_dp, xw, dw)
        want, want_first, ar, ref = reference_runs(
            ("rescaling", backend, case), lambda: reference_canceller(backend, cfg, xw, dw)
        )

        # float64 words run to inf/NaN on the saturating input; NaN == NaN here
        np.testing.assert_array_equal(np.array(errors), np.array(want))
        assert first_flag == want_first
        assert bk_run.flags == ar.flags
        assert bk_run.ops == ar.ops
        assert run_dp.stats == CycleStats.of(run_dp.schedule, self.N)
        assert run_dp.stats.fpu_ops_issued == sum(ar.ops.values())
        window, weights = state_words(run_dp)
        np.testing.assert_array_equal(window, ref.window)
        np.testing.assert_array_equal(weights, ref.weights)
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
    x_values, d_values = bk.to_values(xw).tolist(), bk.to_values(dw).tolist()
    with bk.rounding_scope():
        for i, (x, d) in enumerate(zip(x_values, d_values)):
            errors.append(state.update(x, d))
            if first_flag is None and bk.flags.overflow + bk.flags.underflow > entry_total:
                first_flag = i
    bk.ops.tally(len(errors), **state.ops_per_step)
    datapath.samples += len(errors)
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
            return cfg, bk.to_words(fe.thoracic_pp[:n]), bk.to_words(fe.abdominal_pp[:n]), 0
        if case in ("saturating", "flushing"):
            cfg, xw, dw = TestScaledTapReuse().inputs(case, backend, request)
            return cfg, xw, dw, len(xw)
        rng = np.random.default_rng(88)
        n = 3 * self.B + 100
        x, d = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
        if case in ("replay_pending", "inherited_flush_zero_weights"):
            # one scaling flushes near the end of block 0 and its tap is
            # inherited by block 1, whose check rescales it: both blocks take
            # the exact path.  With zero desired samples the weights, errors
            # and products stay zero, so that rescaling is the only check
            # block 1 fails.
            cfg = LmsConfig(input_scale=2.0**-20)
            x[self.B - 3] = 2.0**-110
            if case == "inherited_flush_zero_weights":
                d[:] = 0.0
            exact = 2 * self.B
        elif case == "flushed_tap_leaves":
            # the flushed scaling's tap leaves the window inside block 0, so
            # block 1 inherits no flagged tap and runs in the kernel
            cfg = LmsConfig(input_scale=2.0**-20)
            x[self.B - cfg.order - 5] = 2.0**-110
            exact = self.B
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
        ["record", "ragged", "saturating", "flushing", "replay_pending",
         "inherited_flush_zero_weights", "flushed_tap_leaves", "subnormal_product",
         "flushed_product", "negative_zero_row", "order_one"],
    )  # fmt: skip
    @pytest.mark.parametrize("datapath", [SeriesDatapath, ParallelDatapath])
    def test_matches_update_loop(self, backend, case, datapath, request, monkeypatch):
        cfg, xw, dw, exact = self.inputs(case, backend, request)
        bk_run, bk_loop = make_backend(backend), make_backend(backend)
        run_dp, loop_dp = datapath(cfg, bk_run), datapath(cfg, bk_loop)

        updates = count_updates(monkeypatch)
        errors, first_flag = cancel_words(run_dp, xw, dw)
        monkeypatch.undo()
        want, want_first = update_loop(loop_dp, xw, dw)

        np.testing.assert_array_equal(bit_patterns(errors), bit_patterns(want))
        assert first_flag == want_first
        assert bk_run.flags == bk_loop.flags
        assert bk_run.ops == bk_loop.ops
        assert run_dp.stats == loop_dp.stats
        assert run_dp.stats.samples_processed == len(xw)
        for got, ref in zip(state_words(run_dp), state_words(loop_dp)):
            np.testing.assert_array_equal(bit_patterns(got), bit_patterns(ref))
        # the float64 backend raises no flags and checks no range: no exact path
        assert updates[0] == (exact if backend == "soft" else 0)
        if case == "negative_zero_row":
            assert bit_patterns(errors)[cfg.order : 2 * cfg.order].tolist() == (
                [0x80000000] * cfg.order if backend == "soft" else [1 << 63] * cfg.order
            )

    def test_empty_channels(self):
        bk = make_backend("soft")
        dp = ParallelDatapath(LmsConfig(), bk)
        assert cancel_words(dp, [], []) == ([], None)
        assert dp.stats.samples_processed == 0 and not any(bk.ops.values())


class TestRoundingScope:
    """The canceller's round-toward-zero scope: entered, left and optional."""

    @staticmethod
    def run(backend="soft", n=2 * lms.BLOCK + 9):
        bk = make_backend(backend)
        rng = np.random.default_rng(5)
        xw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, n)]
        dw = [bk.encode(float(v)) for v in rng.uniform(-2.0, 2.0, n)]
        return cancel_words(ParallelDatapath(LmsConfig(), bk), xw, dw)

    @staticmethod
    def preprocess():
        """Preprocessed words and flag totals of a channel whose bulk ops flush."""
        bk = make_backend("soft")
        samples = np.random.default_rng(6).normal(0.0, 1.0, STREAM_BLOCK + 100)
        samples[::97] = 3e-37  # the low-pass input multiply flushes these
        return bk.to_words(PreprocessChain(bk).process(samples)), bk.flags

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

    def test_round_to_nearest_after_operand_error_in_a_rejected_block(self, monkeypatch):
        update = LmsState.update
        seen = []

        def failing(self, x, d):
            update(self, x, d)
            seen.append(truncating())
            raise fpu.OperandError("inside a rejected block")

        refused = [(np.multiply, 3e38, 3e38)]  # a product past 2^128: the check refuses the block
        monkeypatch.setattr(lms._BlockKernel, "ops", lambda self, *args: refused)
        monkeypatch.setattr(LmsState, "update", failing)
        with pytest.raises(fpu.OperandError, match="inside a rejected block"):
            self.run()
        assert seen == [True]
        assert not truncating()

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("case", ["saturating", "flushing"])
    def test_no_runtime_warning_escapes(self, backend, case, request):
        # float32 overflow and float64 inf/NaN arithmetic in rejected blocks
        cfg, xw, dw = TestScaledTapReuse().inputs(case, backend, request)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cancel_words(ParallelDatapath(cfg, make_backend(backend)), xw, dw)
            cancel_words(ParallelDatapath(LmsConfig(order=4, step_size=10.0),
                                          make_backend(backend)), xw, dw)

    @pytest.mark.parametrize(
        "patch", [("_FE_TOWARDZERO", {}), ("_LIBM", "libfhrmon-absent.so")],
        ids=["unknown_architecture", "no_fesetround"],
    )
    def test_failed_probe_sends_every_block_through_update(self, patch, monkeypatch):
        want, want_preprocessed = self.run(), self.preprocess()
        assert want_preprocessed[1].underflow
        monkeypatch.setattr(numeric, "_rounding", None)
        monkeypatch.setattr(numeric, *patch)
        updates = count_updates(monkeypatch)
        assert self.run() == want
        assert updates[0] == 2 * lms.BLOCK + 9
        assert numeric._rounding is False
        # the bulk ops, every element redone by fpu_*, give the same words and flags
        assert self.preprocess() == want_preprocessed

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
