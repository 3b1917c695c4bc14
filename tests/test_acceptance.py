"""Acceptance suite: every release criterion at its stated tolerance.

Each test records a PASS/FAIL line that pytest prints in the terminal
summary (see conftest).  Shared session fixtures avoid repeating the
expensive soft-datapath runs.
"""

from __future__ import annotations

import json
import time

import numpy as np
import reference

from conftest import decoded, record_acceptance
from fhrmon import fhr
from fhrmon.io import SynthSpec, generate_synthetic, write_annotations, write_recording
from fhrmon.numeric import make_backend, quantized
from fhrmon.pipeline import RunConfig, compare_architectures, run_pipeline
from fhrmon.preprocess import BASELINE_WINDOW, make_notch
from test_fpu import (
    oracle_add,
    oracle_mul,
    ordered_ints,
    random_normal_words,
    _words_to_f64,
)

MIN_NORMAL = 2.0 ** -126
MAX_NORMAL = 3.4028234663852886e38


class TestCriterion1FpuDifferential:
    def test_million_pair_differential(self, million_pairs):
        # the pairs and the timed fpu calls are shared with tests/test_numeric.py
        a_words, b_words = million_pairs.a, million_pairs.b
        got_add, got_sub, got_mul = (million_pairs.words[k] for k in ("add", "sub", "mul"))
        elapsed = million_pairs.elapsed

        mismatches = 0
        for got, oracle in (
            (got_add, oracle_add(a_words, b_words)),
            (got_sub, oracle_add(a_words, b_words, subtract=True)),
            (got_mul, oracle_mul(a_words, b_words)),
        ):
            mismatches += int(np.count_nonzero(got != oracle))

        # ULP distance against correctly rounded float32, where the exact
        # result lands in the normal range
        a64, b64 = _words_to_f64(a_words), _words_to_f64(b_words)
        max_ulp = 0
        checked = 0
        with np.errstate(over="ignore", under="ignore"):
            for got, exact in (
                (got_add, a64 + b64),
                (got_sub, a64 - b64),
                (got_mul, a64 * b64),
            ):
                in_range = (np.abs(exact) >= MIN_NORMAL) & (np.abs(exact) <= MAX_NORMAL)
                rounded = exact.astype(np.float32).view(np.uint32)
                d = np.abs(ordered_ints(got[in_range]) - ordered_ints(rounded[in_range]))
                checked += int(np.count_nonzero(in_range))
                max_ulp = max(max_ulp, int(d.max()))

        ok = mismatches == 0 and max_ulp <= 1 and elapsed < 60.0
        record_acceptance(
            "criterion 1 (fpu differential, 3x10^6 ops)",
            ok,
            f"mismatches={mismatches}, max ulp={max_ulp} over {checked} in-range results, "
            f"{elapsed:.1f}s",
        )
        assert mismatches == 0
        assert max_ulp <= 1
        assert elapsed < 60.0


class TestCriterion2Comparator:
    def test_sign_corrected_matches_numeric_order(self):
        from fhrmon.fpu import CmpCode, fpu_cmp

        rng = np.random.default_rng(7070)
        per_quadrant = 25_000
        quads = []
        for sa in (0, 1):
            for sb in (0, 1):
                a = random_normal_words(rng, per_quadrant) & 0x7FFFFFFF | (sa << 31)
                b = random_normal_words(rng, per_quadrant) & 0x7FFFFFFF | (sb << 31)
                quads.append((a.astype(np.uint32), b.astype(np.uint32)))
        bad = 0
        for a, b in quads:
            av, bv = _words_to_f64(a), _words_to_f64(b)
            for aw, bw, x, y in zip(a.tolist(), b.tolist(), av, bv):
                got = fpu_cmp(aw, bw)
                want = (
                    CmpCode.GREATER if x > y else CmpCode.LESS if x < y else CmpCode.EQUAL
                )
                bad += got is not want
        verbatim = fpu_cmp(
            int(np.float32(-1.0).view(np.uint32)),
            int(np.float32(-2.0).view(np.uint32)),
            "verbatim",
        )
        ok = bad == 0 and verbatim is CmpCode.LESS and int(verbatim) == 0b10
        record_acceptance(
            "criterion 2 (comparator, 10^5 pairs)",
            ok,
            f"disagreements={bad}, verbatim(-1,-2)={int(verbatim):02b}",
        )
        assert bad == 0
        assert int(verbatim) == 0b10


class TestCriterion3FilterOracles:
    def test_impulse_constants_and_notch_attenuation(self):
        # the fpu-only reference filters, which the stream forms equal word for word
        soft = reference.Arithmetic("soft")
        lp = reference.lowpass(soft)
        first_lp = soft.value(lp.step(soft.sample(1.0)))
        nt = reference.notch(soft)
        first_nt = soft.value(nt.step(soft.sample(1.0)))

        fs = 1000.0
        nt2 = reference.notch(soft)
        t = np.arange(int(3.0 * fs)) / fs
        y = np.array(
            [soft.value(nt2.step(soft.sample(float(v)))) for v in np.sin(2 * np.pi * 50 * t)]
        )
        measured = float(np.sqrt(2.0 * np.mean(y[2000:] ** 2)))
        predicted = abs(make_notch(make_backend("soft")).frequency_response(50.0, fs))
        rel = abs(measured - predicted) / predicted

        ok = (
            first_lp == np.float32(0.00308)
            and first_nt == np.float32(0.99405)
            and rel < 0.02
        )
        record_acceptance(
            "criterion 3 (filter oracles)",
            ok,
            f"impulse[0]={first_lp:.5f}/{first_nt:.5f}, 50 Hz gain {measured:.6f} vs "
            f"|H|={predicted:.6f} (rel {rel:.2e})",
        )
        assert first_lp == np.float32(0.00308)
        assert first_nt == np.float32(0.99405)
        assert rel < 0.02


class TestCriterion4BaselineRemoval:
    def test_streamed_equals_batch_on_10k_fixture(self):
        n = 10_000
        t = np.arange(n) / 1000.0
        x = np.sin(2 * np.pi * 0.5 * t)
        x[::997] += 1.0

        soft = reference.Arithmetic("soft")
        mb = reference.Baseline(soft)
        m2s = np.array([soft.value(mb.step(soft.sample(float(v)))[0]) for v in x])

        inv = quantized(1.0 / BASELINE_WINDOW)
        m1b = np.convolve(x * inv, np.ones(BASELINE_WINDOW), "full")[:n]
        m2b = np.convolve(m1b * inv, np.ones(BASELINE_WINDOW), "full")[:n]
        warm = 2 * BASELINE_WINDOW
        rel = float(
            np.sqrt(np.mean((m2s[warm:] - m2b[warm:]) ** 2))
            / np.sqrt(np.mean(m2b[warm:] ** 2))
        )

        mb2 = reference.Baseline(soft)
        c = soft.sample(0.625)
        corr = 0.0
        for _ in range(warm + 100):
            _, cw = mb2.step(c)
            corr = soft.value(cw)

        ok = rel <= 1e-4 and abs(corr) < 1e-3
        record_acceptance(
            "criterion 4 (baseline streamed vs batch)",
            ok,
            f"rel RMS={rel:.2e}, constant-input corrected={corr:.2e}",
        )
        assert rel <= 1e-4
        assert abs(corr) < 1e-3


class TestCriterion5ArchitectureEquivalence:
    def test_bit_identical_streams_and_latency(self, default_config):
        t0 = time.perf_counter()
        cmp_result = compare_architectures(default_config)
        elapsed = time.perf_counter() - t0
        s_stats = cmp_result.series_report.cycle_stats["series"]
        p_stats = cmp_result.parallel_report.cycle_stats["parallel"]
        ok = (
            cmp_result.identical_outputs
            and s_stats["cycles_per_sample"] == 39
            and p_stats["cycles_per_sample"] == 1
            and cmp_result.cycle_ratio == 39.0
            and s_stats["samples_processed"] == 30000
            and elapsed < 60.0
        )
        record_acceptance(
            "criterion 5 (architecture equivalence, 30k samples)",
            ok,
            f"identical, cycles/sample 39 vs 1, ratio {cmp_result.cycle_ratio:.0f}, "
            f"instances {cmp_result.fpu_instances['series']}/"
            f"{cmp_result.fpu_instances['parallel']}, {elapsed:.1f}s",
        )
        assert cmp_result.identical_outputs
        assert s_stats["cycles_per_sample"] == 39
        assert p_stats["cycles_per_sample"] == 1
        assert cmp_result.cycle_ratio == 39.0
        assert cmp_result.fpu_instances == {"series": 9, "parallel": 98}
        assert elapsed < 60.0


class TestCriterion6SyntheticRow:
    def test_default_synthetic_end_to_end(self, default_config):
        t0 = time.perf_counter()
        report = run_pipeline(default_config)
        elapsed = time.perf_counter() - t0
        fhr_bpm = report.fhr["fhr_bpm"] if report.fhr else float("nan")
        m = report.metrics or {}
        ok = (
            report.ok
            and abs(fhr_bpm - 115.0) <= 2.0
            and m.get("sensitivity_pct") == 100.0
            and m.get("specificity_pct") == 100.0
            and m.get("accuracy_pct") == 100.0
            and elapsed < 60.0
        )
        record_acceptance(
            "criterion 6 (synthetic row end to end)",
            ok,
            f"FHR={fhr_bpm:.2f} bpm, sens/spec/acc="
            f"{m.get('sensitivity_pct')}/{m.get('specificity_pct')}/{m.get('accuracy_pct')}, "
            f"{elapsed:.1f}s",
        )
        assert report.ok
        assert abs(fhr_bpm - 115.0) <= 2.0
        assert m["sensitivity_pct"] == 100.0
        assert m["specificity_pct"] == 100.0
        assert m["accuracy_pct"] == 100.0
        assert elapsed < 60.0


class TestCriterion7ThresholdNorm:
    def test_two_mean_beats_single_mean_on_two_family_fixture(self):
        # residual family above m1 but below th; target family above both
        bk = make_backend("soft")
        fs = 1000.0
        n = 20_000
        x = np.zeros(n)
        residual_locs = list(range(300, n - 200, 680))
        target_locs = list(range(500, n - 200, 520))
        for loc in residual_locs:
            x[loc : loc + 9] += 0.35 * np.hanning(9)
        for loc in target_locs:
            x[loc : loc + 9] += 1.0 * np.hanning(9)
        det = fhr.detect_peaks(bk, [bk.encode(float(v)) for v in x], fs)
        window = 60
        truth_f = fhr.PeakSet(target_locs)
        truth_m = fhr.PeakSet(residual_locs)

        proposed = fhr.PeakSet(det["peaks"].locations)
        m_prop = fhr.score_detection(proposed, truth_f, truth_m, window)
        m_single = fhr.score_detection(
            fhr.PeakSet(det["maxima"].locations), truth_f, truth_m, window
        )
        ok = m_single.false_positives >= 1 and m_prop.false_positives == 0
        record_acceptance(
            "criterion 7 (threshold norm suppresses false positives)",
            ok,
            f"single-mean FP={m_single.false_positives}, two-mean FP={m_prop.false_positives}",
        )
        assert m_single.false_positives >= 1
        assert m_prop.false_positives == 0


class TestCriterion8RealDataFormat:
    def test_quarter_rate_multichannel_export_runs_end_to_end(self, tmp_path):
        # 8-channel, 2500-row, 250 Hz export with fetal/maternal annotations;
        # the pipeline must complete and produce in-range metrics
        fs = 250.0
        spec = SynthSpec(
            duration_s=10.0, fs=fs, maternal_bpm=90.0, fetal_bpm=143.0, seed=606
        )
        rec = generate_synthetic(spec)
        rng = np.random.default_rng(9)
        channels = {
            "thor1": rec.channels["thoracic"],
            "thor2": rec.channels["thoracic"] * 0.8 + rng.normal(0, 0.004, rec.n_samples),
            "thor3": rec.channels["thoracic"] * 1.1 + rng.normal(0, 0.004, rec.n_samples),
            "abd1": rec.channels["abdominal"],
            "abd2": rec.channels["abdominal"] * 0.9 + rng.normal(0, 0.004, rec.n_samples),
            "abd3": rec.channels["abdominal"] * 1.2 + rng.normal(0, 0.004, rec.n_samples),
            "abd4": rec.channels["abdominal"] * 0.7 + rng.normal(0, 0.004, rec.n_samples),
            "abd5": rec.channels["abdominal"] * 1.05 + rng.normal(0, 0.004, rec.n_samples),
        }
        export = type(rec)(channels=channels, fs=fs)
        rec_path = tmp_path / "export.csv"
        ann_path = tmp_path / "export.ann"
        write_recording(export, rec_path)
        write_annotations(ann_path, rec.annotations)

        cfg = RunConfig(
            input_path=str(rec_path),
            fs=fs,
            thoracic="thor2",
            abdominal="abd1",
            annotations_path=str(ann_path),
            backend="soft",
            out_dir=str(tmp_path / "out"),
        )
        report = run_pipeline(cfg)
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        m = report.metrics or {}
        computed = (
            report.ok
            and payload["metrics"] is not None
            and 0.0 <= m.get("sensitivity_pct", -1) <= 100.0
            and 0.0 <= m.get("specificity_pct", -1) <= 100.0
        )
        record_acceptance(
            "criterion 8 (multichannel 250 Hz export end to end)",
            bool(computed),
            f"report complete, sens={m.get('sensitivity_pct'):.1f}%, "
            f"spec={m.get('specificity_pct'):.1f}%",
        )
        assert report.ok, report.failures
        assert payload["metrics"] is not None
        assert 0.0 <= m["sensitivity_pct"] <= 100.0
        assert 0.0 <= m["specificity_pct"] <= 100.0


class TestCriterion9SoftFpuDrift:
    def test_extracted_fecg_drift(self, soft_artifacts, ref_artifacts):
        e_soft = decoded(soft_artifacts.backend, soft_artifacts.errors)
        e_ref = np.array(ref_artifacts.errors)
        assert len(e_soft) == len(e_ref) == 30000
        rel = float(np.sqrt(np.mean((e_soft - e_ref) ** 2)) / np.sqrt(np.mean(e_ref**2)))
        ok = rel <= 1e-3
        record_acceptance(
            "criterion 9 (soft vs double drift over 30k)",
            ok,
            f"relative RMS={rel:.2e}",
        )
        assert rel <= 1e-3
