"""Adaptive canceller tests: hand cases, datapath equivalence, cycle laws."""

from __future__ import annotations

import numpy as np
import pytest

from fhrmon import lms
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
from fhrmon.numeric import make_backend


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
