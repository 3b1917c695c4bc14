"""Peak detection tests: enhancement, two-mean threshold, selection, scoring."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import reference

from fhrmon import numeric
from fhrmon.fhr import (
    ENHANCE_WINDOW,
    NoEstimateError,
    PeakSet,
    compute_fhr,
    detect_peaks,
    enhance,
    find_local_maxima,
    match_window_samples,
    min_gap_samples,
    score_detection,
    select_fetal_peaks,
)
from fhrmon.numeric import make_backend, quantized


def encode_all(backend, xs):
    return [backend.encode(float(x)) for x in xs]


def values_at(backend, sdm_seq, peaks):
    """The decoded ``sdm_seq`` words at the peak locations."""
    return [backend.decode(sdm_seq[loc]) for loc in peaks.locations]


class TestPeakSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            PeakSet([5, 5])
        with pytest.raises(ValueError):
            PeakSet([5, 3])

    def test_shift(self):
        ps = PeakSet([10, 20])
        assert ps.shifted(100).locations == [110, 120]


class TestEnhancement:
    def test_all_zero_input(self):
        bk = make_backend("soft")
        sdm, m1 = enhance(bk, encode_all(bk, np.zeros(200)))
        assert all(bk.decode(v) == 0.0 for v in sdm)
        assert bk.decode(m1) == 0.0

    def test_unit_step_hand_trace(self):
        # step at k: one squared difference of 1, smeared to 1/P for P samples
        bk = make_backend("soft")
        k = 100
        x = np.zeros(300)
        x[k:] = 1.0
        sdm, m1 = enhance(bk, encode_all(bk, x))
        vals = [bk.decode(v) for v in sdm]
        inv_p = quantized(1.0 / ENHANCE_WINDOW)
        assert vals[k - 1] == 0.0
        assert all(v == inv_p for v in vals[k : k + ENHANCE_WINDOW])
        assert vals[k + ENHANCE_WINDOW] == 0.0

    def test_streaming_equals_batch_on_sparse_signal(self):
        # ECG-like sparse fixture; soft truncation drift stays within 1e-4
        rng = np.random.default_rng(77)
        n = 5000
        x = rng.normal(0, 0.005, n)
        for loc in range(100, n - 100, 650):
            x[loc : loc + 12] += np.hanning(12) * rng.uniform(0.8, 1.2)
        bk = make_backend("soft")
        sdm, _ = enhance(bk, encode_all(bk, x))
        got = np.array([bk.decode(v) for v in sdm])
        sdiff = np.diff(x, prepend=x[:1]) ** 2
        want = np.convolve(sdiff * quantized(1.0 / ENHANCE_WINDOW), np.ones(ENHANCE_WINDOW), "full")[:n]
        rel = np.sqrt(np.mean((got - want) ** 2)) / np.sqrt(np.mean(want**2))
        assert rel < 1e-4

    def test_m1_is_mean_of_sdm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 0.5, 800)
        bk = make_backend("float64")
        sdm, m1 = enhance(bk, list(map(float, x)))
        assert m1 == pytest.approx(np.mean(sdm) * (quantized(1.0 / 800) * 800), rel=1e-9)

    def test_requires_positive_configuration(self):
        bk = make_backend("soft")
        with pytest.raises(ValueError):
            enhance(bk, [])

    @pytest.mark.parametrize(
        "backend, scales",
        [
            ("soft", [2.0**66]),  # squared differences saturate
            ("soft", [2.0**-70]),  # every square flushes
            ("soft", [2.0**66, 2.0**-70]),  # the first half saturates, the second flushes
            ("float64", [1.0]),
        ],
    )
    @pytest.mark.parametrize("scoped", [True, False], ids=["scope", "no_scope"])
    def test_matches_reference_at_the_range_edges(self, backend, scales, scoped, monkeypatch):
        # the bulk ops' oracle and the m1 chain against fpu_* one op at a time;
        # without the rounding scope every element and the chain take the exact path
        x = np.random.default_rng(3).normal(0, 1, 600)
        x *= np.repeat(scales, len(x) // len(scales))
        ar = reference.Arithmetic(backend)
        words = [ar.sample(v) for v in x]
        want_sdm, want_m1 = reference.enhance(ar, words)
        if not scoped:
            monkeypatch.setattr(numeric, "_rounding", False)
        bk = make_backend(backend)
        sdm, m1 = enhance(bk, words)
        assert sdm == want_sdm and m1 == want_m1
        assert (bk.flags.overflow, bk.flags.underflow) == (ar.flags.overflow, ar.flags.underflow)
        assert dict(bk.ops) == ar.ops


class TestLocalMaxima:
    def test_constant_below_threshold_is_degenerate(self):
        bk = make_backend("soft")
        seq = encode_all(bk, np.full(100, 0.1))
        maxima, th = find_local_maxima(bk, seq, bk.encode(0.25))
        assert len(maxima) == 0
        assert bk.decode(th) == pytest.approx(0.125)

    def test_triangular_pulse_hand_trace(self):
        bk = make_backend("soft")
        x = np.zeros(400)
        x[200:210] = np.linspace(0.0, 1.0, 10)
        x[210:220] = np.linspace(1.0, 0.0, 10)
        seq = encode_all(bk, x)
        maxima, th = find_local_maxima(bk, seq, bk.encode(0.25))
        assert maxima.locations == [209]
        assert values_at(bk, seq, maxima) == [1.0]
        # m2 equals the single apex, th the midpoint
        assert bk.decode(th) == pytest.approx((0.25 + 1.0) / 2, rel=1e-6)

    def test_two_amplitude_families_split_by_threshold(self):
        # small residual pulses and large target pulses; the two-mean
        # threshold must land strictly between the family amplitudes
        bk = make_backend("float64")
        n = 6000
        x = np.zeros(n)
        for loc in range(150, n - 100, 680):   # small family ~0.3
            x[loc : loc + 9] += 0.3 * np.hanning(9)
        for loc in range(400, n - 100, 520):   # large family ~1.0
            x[loc : loc + 9] += 1.0 * np.hanning(9)
        sdm, m1 = enhance(bk, list(map(float, x)))
        maxima, th = find_local_maxima(bk, sdm, m1)
        values = values_at(bk, sdm, maxima)
        small = [v for v in values if v < 0.5 * max(values)]
        large = [v for v in values if v >= 0.5 * max(values)]
        assert small and large
        assert max(small) < bk.decode(th) < min(large)

    def test_ties_take_earliest_index(self):
        bk = make_backend("float64")
        x = np.zeros(120)
        # one contiguous excursion above 0.4 with equal apexes at 50 and 52
        x[50:54] = [1.0, 0.9, 1.0, 0.5]
        seq = list(map(float, x))
        maxima, _ = find_local_maxima(bk, seq, 0.4)
        assert maxima.locations == [50]
        assert values_at(bk, seq, maxima) == [1.0]


class TestSelection:
    def make(self, locs, vals):
        """The backend, maxima at ``locs``, and an sdm sequence holding ``vals`` there."""
        bk = make_backend("soft")
        locs = [int(loc) for loc in locs]
        seq = [bk.zero] * (max(locs) + 1)
        for loc, v in zip(locs, vals):
            seq[loc] = bk.encode(float(v))
        return bk, PeakSet(locs), seq

    def test_all_below_threshold_empty(self):
        bk, ps, seq = self.make([100, 400], [0.5, 0.6])
        out = select_fetal_peaks(bk, seq, ps, bk.encode(2.0), 200)
        assert len(out) == 0

    def test_arbitration_keeps_larger_of_close_pair(self):
        bk, ps, seq = self.make([1000, 1150], [5.0, 9.0])
        out = select_fetal_peaks(bk, seq, ps, bk.encode(1.0), 200)
        assert out.locations == [1150]
        assert values_at(bk, seq, out) == [9.0]

    def test_arbitration_keeps_earlier_when_larger(self):
        bk, ps, seq = self.make([1000, 1150], [9.0, 5.0])
        out = select_fetal_peaks(bk, seq, ps, bk.encode(1.0), 200)
        assert out.locations == [1000]

    def test_well_separated_all_retained(self):
        bk, ps, seq = self.make([1000, 1300, 1600], [5.0, 9.0, 7.0])
        out = select_fetal_peaks(bk, seq, ps, bk.encode(1.0), 200)
        assert out.locations == [1000, 1300, 1600]

    def test_boundary_exactly_min_gap_is_arbitrated(self):
        # spacing must be strictly greater than the gap to stand alone
        bk, ps, seq = self.make([1000, 1200], [5.0, 9.0])
        out = select_fetal_peaks(bk, seq, ps, bk.encode(1.0), 200)
        assert out.locations == [1200]

    def test_output_spacing_property(self):
        rng = np.random.default_rng(15)
        locs = np.cumsum(rng.integers(30, 400, 60))
        vals = rng.uniform(1.0, 10.0, len(locs))
        bk, ps, seq = self.make(locs, vals)
        out = select_fetal_peaks(bk, seq, ps, bk.encode(0.5), 200)
        gaps = np.diff(out.locations)
        assert np.all(gaps > 200)


class TestComputeFhr:
    def test_uniform_train(self):
        locs = list(range(12100, 28000, 429))
        res = compute_fhr(PeakSet(locs), fs=1000.0)
        assert res.fhr_bpm == pytest.approx(60.0 / 0.429, rel=1e-12)
        assert res.mean_rr_seconds == pytest.approx(0.429)
        assert res.plausible

    def test_only_post_convergence_peaks_count(self):
        locs = [5000, 6000, 13000, 13500, 14000]
        res = compute_fhr(PeakSet(locs), fs=1000.0, convergence_index=12000)
        assert res.rr_intervals == [500, 500]
        assert len(res.peaks_used) == 3

    def test_single_peak_no_estimate(self):
        with pytest.raises(NoEstimateError):
            compute_fhr(PeakSet([15000]), fs=1000.0)

    def test_implausible_rate_flagged(self):
        locs = list(range(13000, 20000, 1500))  # 40 bpm
        res = compute_fhr(PeakSet(locs), fs=1000.0)
        assert not res.plausible

    def test_implausible_rate_raises_no_python_warning(self):
        locs = list(range(13000, 20000, 1500))  # 40 bpm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = compute_fhr(PeakSet(locs), fs=1000.0)
        assert not res.plausible

    def test_gap_constants_rate_relative(self):
        assert min_gap_samples(1000.0) == 200
        assert min_gap_samples(250.0) == 50
        assert match_window_samples(1000.0) == 50
        assert match_window_samples(250.0) == 12


class TestScoring:
    def test_perfect_match(self):
        det = PeakSet([100, 529, 958])
        m = score_detection(det, PeakSet([102, 530, 960]), PeakSet([300, 700]), 50)
        assert (m.sensitivity, m.specificity, m.accuracy) == (100.0, 100.0, 100.0)

    def test_one_missed_of_47(self):
        truth = PeakSet(list(range(0, 47 * 400, 400)))
        det = PeakSet(truth.locations[1:])
        m = score_detection(det, truth, PeakSet(), 50)
        assert m.sensitivity == pytest.approx(100 * 46 / 47)
        assert round(m.sensitivity, 2) == 97.87

    def test_false_positive_on_maternal_lowers_specificity(self):
        truth_f = PeakSet([1000, 2000])
        truth_m = PeakSet([1500, 2500])
        det = PeakSet([1000, 1505, 2000])  # middle detection hits maternal
        m = score_detection(det, truth_f, truth_m, 50)
        assert m.false_positives == 1
        assert m.maternal_hits == 1
        assert m.true_negatives == 1
        assert m.specificity == 50.0
        assert m.accuracy == pytest.approx(100 * 2 / 3)

    def test_matching_is_one_to_one(self):
        truth = PeakSet([1000])
        det = PeakSet([990, 1010])  # both inside the window, only one matches
        m = score_detection(det, truth, PeakSet(), 50)
        assert m.true_positives == 1
        assert m.false_positives == 1

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            score_detection(PeakSet([1]), PeakSet(), PeakSet(), 50)


class TestDetectPeaksEndToEnd:
    def test_separable_families_no_false_positives(self):
        # residual-vs-target separation: single-mean flags the residual
        # family, the two-mean norm rejects it entirely
        bk = make_backend("soft")
        n = 9000
        x = np.zeros(n)
        residual_locs = list(range(300, n - 200, 680))
        target_locs = list(range(500, n - 200, 520))
        for loc in residual_locs:
            x[loc : loc + 9] += 0.35 * np.hanning(9)
        for loc in target_locs:
            x[loc : loc + 9] += 1.0 * np.hanning(9)
        det = detect_peaks(bk, encode_all(bk, x), fs=1000.0)
        window = 60
        accepted = det["peaks"].locations
        for loc in accepted:
            assert any(abs(loc - t) <= window for t in target_locs)
        # the single-mean baseline admits residual-family maxima
        hits_residual = [
            l for l in det["maxima"].locations
            if any(abs(l - r) <= window for r in residual_locs)
            and not any(abs(l - t) <= window for t in target_locs)
        ]
        assert len(hits_residual) > 0

    def test_threshold_ordering(self):
        bk = make_backend("soft")
        rng = np.random.default_rng(6)
        x = rng.normal(0, 0.05, 4000)
        for loc in range(200, 3800, 500):
            x[loc : loc + 10] += np.hanning(10)
        det = detect_peaks(bk, encode_all(bk, x), fs=1000.0)
        maxima = det["maxima"]
        assert det["m1"] <= det["th"]
        if len(maxima):
            m2 = float(np.mean(values_at(bk, det["sdm"], maxima)))
            assert det["th"] <= m2 + 1e-6
