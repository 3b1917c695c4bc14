"""Orchestration tests: config handling, determinism, traces, CLI contract."""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from fhrmon import fhr, fpu, lms, numeric, pipeline
from fhrmon.cli import main as cli_main
from fhrmon.io import (
    Recording,
    SynthSpec,
    generate_synthetic,
    write_annotations,
    write_recording,
)
from fhrmon.numeric import make_backend
from fhrmon.pipeline import (
    SCORING_GUARD_SAMPLES,
    ConfigError,
    RunConfig,
    baseline_comparison,
    compare_architectures,
    effective_convergence_index,
    run_pipeline,
)
from fhrmon.preprocess import PreprocessChain

# short, fast synthetic spec for orchestration-level tests
FAST_SPEC = SynthSpec(duration_s=6.0, seed=21)


def fast_config(**overrides) -> RunConfig:
    base = dict(synth=FAST_SPEC, arch="parallel", backend="float64", convergence_index=2000)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig()
        with pytest.raises(ConfigError):
            RunConfig(input_path="x.csv", synth=FAST_SPEC)

    @pytest.mark.parametrize("field, value", [("fs", 500.0), ("annotations_path", "rec.ann")])
    def test_synth_rejects_recording_fields(self, field, value):
        # a synthetic record takes its rate and annotations from the spec alone
        with pytest.raises(ConfigError, match=f"^{field} applies to input_path only"):
            RunConfig(synth=FAST_SPEC, **{field: value})

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(synth=FAST_SPEC, arch="turbo")
        with pytest.raises(ConfigError):
            RunConfig(synth=FAST_SPEC, cmp_mode="quick")
        with pytest.raises(ConfigError):
            RunConfig(synth=FAST_SPEC, backend="int8")
        with pytest.raises(ConfigError):
            RunConfig(synth=FAST_SPEC, trace=["fft"])
        with pytest.raises(ConfigError):
            RunConfig(synth=FAST_SPEC, order=0)

    def test_verbatim_comparator_needs_soft_backend(self, tmp_path, capsys):
        # the float64 backend compares in numeric order: verbatim is not ignored
        message = "cmp_mode 'verbatim' applies to backend 'soft' only"
        with pytest.raises(ConfigError, match=message):
            RunConfig(synth=FAST_SPEC, backend="float64", cmp_mode="verbatim")
        with pytest.raises(ValueError, match=message):
            make_backend("float64", "verbatim")
        assert make_backend("soft", "verbatim").cmp_mode == "verbatim"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        for command in ("run", "compare", "baseline"):
            argv = [command, "--synth", str(spec_path), "--backend", "float64"]
            assert cli_main([*argv, "--cmp-mode", "verbatim"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_backend_rejects_unknown_comparator_mode(self, backend):
        # refused when the backend is built, not at detection's first comparison
        with pytest.raises(ValueError, match=r"cmp_mode must be one of \('corrected', 'verbatim'\)"):
            make_backend(backend, "quick")

    def test_rejects_negative_convergence_index(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="convergence_index"):
            fast_config(convergence_index=-1500)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(["run", "--synth", str(spec_path), "--convergence-index", "-1500"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: convergence_index")

    def test_json_roundtrip(self, tmp_path):
        cfg = fast_config(trace=["lms"], out_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg.to_dict(), fh)
        with open(path, encoding="utf-8") as fh:
            back = RunConfig.from_dict(json.load(fh))
        assert back == cfg

    def test_convergence_index_auto_scales_for_short_records(self):
        assert effective_convergence_index(None, 30000) == 12000
        assert effective_convergence_index(None, 2500) == 1250
        assert effective_convergence_index(777, 2500) == 777


class TestRunPipeline:
    def test_unknown_channel_fails_before_processing(self, tmp_path):
        rec = generate_synthetic(FAST_SPEC)
        path = tmp_path / "rec.csv"
        write_recording(rec, path)
        cfg = RunConfig(
            input_path=str(path), fs=1000.0, thoracic="nope", abdominal="abdominal",
            backend="float64", convergence_index=2000,
        )
        with pytest.raises(Exception, match="nope"):
            run_pipeline(cfg)

    def test_report_structure(self):
        rep = run_pipeline(fast_config())
        assert rep.ok
        assert rep.n_samples == 6000
        assert rep.convergence_index == 2000
        assert rep.fhr is not None and rep.metrics is not None
        assert "parallel" in rep.cycle_stats
        assert rep.convergence_cycles["parallel"] == 2000
        assert rep.convergence_time_ms["parallel"] == pytest.approx(2000 / 50e6 * 1e3)

    def test_determinism_modulo_timestamp(self):
        cfg = fast_config()
        a = json.loads(run_pipeline(cfg).to_json())
        b = json.loads(run_pipeline(cfg).to_json())
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_both_arch_rejected(self):
        # both architectures run through compare_architectures, not a config value
        with pytest.raises(ConfigError, match="arch must be one of"):
            fast_config(arch="both")

    @pytest.mark.parametrize("duration_s", [120.0, 300.0])
    def test_fhr_of_long_record_matches_its_annotations(self, duration_s):
        # a long record misses a few fetal beats; the intervals across them must
        # not lower the rate (they read 111.1 and 111.7 bpm when averaged raw)
        spec = SynthSpec(duration_s=duration_s)
        rep = run_pipeline(RunConfig(synth=spec, backend="float64"))
        fetal = generate_synthetic(spec).annotations["fetal"].locations
        truth = [p for p in fetal if p > rep.convergence_index]
        truth_bpm = 60.0 * spec.fs * (len(truth) - 1) / (truth[-1] - truth[0])
        assert rep.fhr["inferred_beats"] > 0
        assert rep.fhr["fhr_bpm"] == pytest.approx(truth_bpm, abs=0.5)
        assert rep.warnings == []

    def test_report_names_the_rounding_scope(self, monkeypatch):
        # a soft run without the scope gives the same words far slower: the report says which
        cfg = fast_config(synth=SynthSpec(duration_s=2.0, seed=21), convergence_index=1000)
        assert run_pipeline(cfg).rounding_scope is None  # float64
        soft = cfg.replaced(backend="soft")
        scoped = run_pipeline(soft)
        assert scoped.rounding_scope is numeric.rounding_scope_available()
        monkeypatch.setattr(numeric, "_rounding", False)
        unscoped = run_pipeline(soft)
        assert unscoped.rounding_scope is False
        assert json.loads(unscoped.to_json())["rounding_scope"] is False
        assert unscoped.fhr == scoped.fhr

    def test_implausible_fhr_warned(self):
        cfg = fast_config()
        art = pipeline.execute(cfg, "parallel")
        # peaks 100 samples apart at 1 kHz: 600 bpm, above the plausible range
        peaks = fhr.PeakSet(list(range(2200, 3001, 100)))
        art.detection = dict(art.detection, peaks_absolute=peaks)
        rep = pipeline.build_report(cfg, art)
        assert rep.fhr["fhr_bpm"] == pytest.approx(600.0)
        assert rep.fhr["plausible"] is False
        assert "FHR 600.0 bpm outside plausible range" in rep.warnings
        assert rep.failures == []

    def test_annotations_loaded_from_file(self, tmp_path):
        rec = generate_synthetic(FAST_SPEC)
        rec_path = tmp_path / "rec.csv"
        ann_path = tmp_path / "rec.ann"
        write_recording(rec, rec_path)
        write_annotations(ann_path, rec.annotations)
        cfg = RunConfig(
            input_path=str(rec_path), fs=1000.0, backend="float64",
            annotations_path=str(ann_path), convergence_index=2000,
        )
        rep = run_pipeline(cfg)
        assert rep.metrics is not None

    def test_soft_pass_converts_whole_streams_only_at_the_word_edges(self, monkeypatch):
        # values flow from ingest to the canceller's output; its errors turn
        # to words once, for detection and the digests, and the enhancement
        # converts its input, its scaled terms and sdm once each: a
        # conversion per block would add entries here
        calls = []

        def counting_backend(*args):
            backend = make_backend(*args)
            for name in ("to_values", "to_words"):

                def counted(*a, _name=name, _original=getattr(backend, name)):
                    calls.append(_name)
                    return _original(*a)

                setattr(backend, name, counted)
            return backend

        monkeypatch.setattr(pipeline, "make_backend", counting_backend)
        pipeline.execute(fast_config(backend="soft"), "parallel")
        assert calls == ["to_words", "to_values", "to_words", "to_values"]


# sha256 of each trace file of the FAST_SPEC run (convergence at 2000).
TRACE_DIGESTS = {
    "soft": {
        "preprocess.csv": "77f51a9ca772039ba81518cd29156f3da8ad456582f4d9a67cb43bbf6b6f0b2e",
        "lms.csv": "d0152c1fe97e4d96df87e832fedfcbec6684abe6134cf89c0c92ad7079aeb885",
        "fhr.csv": "213ae4d63062434a49f8e8869270380e7921b311202070e1d090c493648f9076",
        "peaks.csv": "ed5b780f1b8e2cd9b0f2cb3aebb9b037fbd5deb7112491885eb62d1260b97ff3",
    },
    "float64": {
        "preprocess.csv": "bb1104717cfc12bebc653398bd0eb7c369c1c10376febebbace843668d6d1bd6",
        "lms.csv": "942eb6c77d83ebb4f1e4b8328573ea2999bdb86c2f937e6e0a2a53311f551ee4",
        "fhr.csv": "edac35a1c1520eb49d8d0d2b8935dc661805627de4703555f617a94b39d0de46",
        "peaks.csv": "a704415a8913e481c078a3376d2501fc838704fcd3a91d7a4645ef67397d164c",
    },
}


class TestTraces:
    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_trace_files_pinned(self, backend, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(out_dir=str(out), trace=["preprocess", "lms", "fhr"], backend=backend)
        run_pipeline(cfg)
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in TRACE_DIGESTS[backend]
        }
        assert digests == TRACE_DIGESTS[backend]

    def test_trace_files_written(self, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(out_dir=str(out), trace=["preprocess", "lms", "fhr"])
        run_pipeline(cfg)
        for name in ("report.json", "preprocess.csv", "lms.csv", "fhr.csv", "peaks.csv"):
            assert (out / name).exists()

    def test_lms_trace_refeeds_to_identical_peaks(self, tmp_path):
        # the canceller trace alone must reproduce the reported peak set
        out = tmp_path / "run"
        cfg = fast_config(out_dir=str(out), trace=["lms"], backend="soft")
        rep = run_pipeline(cfg)
        words = []
        with open(out / "lms.csv") as fh:
            next(fh)
            for line in fh:
                words.append(fpu.from_hex(line.split(",")[1]))
        conv = rep.convergence_index
        backend = make_backend("soft")
        det = fhr.detect_peaks(backend, words[conv:], rep.fs)
        refed = det["peaks"].shifted(conv)
        with open(out / "peaks.csv") as fh:
            next(fh)
            reported = [int(line.split(",")[0]) for line in fh]
        assert refed.locations == reported


# The series walk with cycles 19 and 20 swapped: the error's sub (op 58)
# then issues in cycle 19, before the last tap's sum y18 is made.
BROKEN_SERIES_FAILURE = (
    "series schedule issues op 58 (sub e) in cycle 19, before its operand y18 is made in cycle 20"
)


def break_error_dependence(monkeypatch) -> None:
    series = lms.Schedule.series

    def swapped(order):
        issue = list(series(order).issue)
        issue[order - 1], issue[order] = issue[order], issue[order - 1]
        return lms.Schedule(tuple(issue), lms.SERIES_FPU_INSTANCES)

    monkeypatch.setattr(lms.Schedule, "series", swapped)


class TestCompareArchitectures:
    def test_identical_streams_and_ratio(self):
        cfg = fast_config()
        cmp_result = compare_architectures(cfg)
        assert cmp_result.identical_outputs
        assert cmp_result.cycle_ratio == 39.0
        assert cmp_result.fpu_instances == {"series": 9, "parallel": 98}
        s = cmp_result.series_report
        p = cmp_result.parallel_report
        assert s.fhr == p.fhr
        assert s.metrics == p.metrics

    def test_order_one_ratio(self):
        cfg = fast_config(order=1, mu=7e-5)
        cmp_result = compare_architectures(cfg)
        assert cmp_result.cycle_ratio == 3.0

    def test_preprocesses_once_for_both_architectures(self, monkeypatch):
        calls = []
        process = PreprocessChain.process

        def counting_process(chain, samples):
            calls.append(len(samples))
            return process(chain, samples)

        monkeypatch.setattr(PreprocessChain, "process", counting_process)
        compare_architectures(fast_config())
        assert len(calls) == 2

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_detects_once_for_both_architectures(self, backend, monkeypatch):
        calls = []
        detect_peaks = fhr.detect_peaks

        def counting_detect(*args):
            calls.append(len(args[1]))
            return detect_peaks(*args)

        monkeypatch.setattr(fhr, "detect_peaks", counting_detect)
        cmp_result = compare_architectures(fast_config(backend=backend))
        assert calls == [4000]
        assert cmp_result.series_report.threshold == cmp_result.parallel_report.threshold

    def test_runs_the_canceller_and_detection_once(self, monkeypatch):
        calls = []
        run_canceller, detect_peaks = lms.run_canceller, fhr.detect_peaks

        def counting_canceller(datapath, x, d):
            calls.append(("run_canceller", len(x)))
            return run_canceller(datapath, x, d)

        def counting_detect(*args):
            calls.append(("detect_peaks", len(args[1])))
            return detect_peaks(*args)

        monkeypatch.setattr(lms, "run_canceller", counting_canceller)
        monkeypatch.setattr(fhr, "detect_peaks", counting_detect)
        cmp_result = compare_architectures(fast_config())
        assert calls == [("run_canceller", 6000), ("detect_peaks", 4000)]
        assert cmp_result.identical_outputs

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_reports_match_single_architecture_runs(self, backend):
        cfg = fast_config(backend=backend)
        cmp_result = compare_architectures(cfg)
        compared = {"series": cmp_result.series_report, "parallel": cmp_result.parallel_report}
        for arch, report in compared.items():
            alone = run_pipeline(cfg.replaced(arch=arch))
            for key in ("fhr", "metrics", "scale_factors", "cycle_stats", "threshold", "warnings"):
                assert getattr(report, key) == getattr(alone, key), (arch, key)

    def test_schedule_breaking_a_dependence_fails_both_reports(self, monkeypatch):
        break_error_dependence(monkeypatch)
        cmp_result = compare_architectures(fast_config())
        assert not cmp_result.identical_outputs
        for report in (cmp_result.series_report, cmp_result.parallel_report):
            assert report.failures[-1] == BROKEN_SERIES_FAILURE

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--out", "OUT"],
            ["compare", "--trace", "lms"],
            ["compare", "--out", "OUT", "--trace", "lms"],
            ["compare", "--config", "CFG"],
        ],
    )
    def test_out_and_trace_rejected(self, argv, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out_dir": str(out)}))
        argv = [{"OUT": str(out), "CFG": str(cfg_path)}.get(a, a) for a in argv]
        rc = cli_main(argv + ["--synth", str(spec_path), "--backend", "float64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: compare writes no files")
        assert not out.exists()


class TestBaselineComparison:
    def test_rows_side_by_side(self):
        out = baseline_comparison(fast_config())
        assert set(out) >= {"proposed", "single_mean", "threshold"}
        assert out["proposed"] is not None
        assert out["single_mean"] is not None

    def test_cli_prints_rows(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(
            ["baseline", "--synth", str(spec_path), "--backend", "float64",
             "--convergence-index", "2000"]
        )  # fmt: skip
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"proposed", "single_mean", "threshold", "failures"}
        assert out["failures"] == []
        assert out == baseline_comparison(fast_config())

    def test_requires_fetal_annotations(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_recording(generate_synthetic(SynthSpec(duration_s=0.5)), path)
        with pytest.raises(ConfigError, match="requires fetal annotations"):
            baseline_comparison(RunConfig(input_path=str(path), fs=1000.0))

    @pytest.mark.parametrize("argv", [["--out", "OUT"], ["--trace", "lms"], ["--config", "CFG"]])
    def test_out_and_trace_rejected(self, argv, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        argv = [{"OUT": str(tmp_path / "out"), "CFG": str(cfg_path)}.get(a, a) for a in argv]
        rc = cli_main(["baseline", *argv, "--synth", str(spec_path), "--backend", "float64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: baseline writes no files")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "spec.json"]


class TestCancellationQuality:
    def test_maternal_energy_reduced_in_error_signal(self, soft_artifacts):
        # post-convergence, maternal R-peak deflections in the canceller
        # output are a small fraction of their (scaled) abdominal level
        art = soft_artifacts
        bk = art.backend
        rec = art.recording
        e = np.array([bk.decode(w) for w in art.errors])
        abd = art.front_end.abdominal_pp * art.front_end.scale_d
        f_ann = np.asarray(rec.annotations["fetal"].locations)
        m_ann = [
            m
            for m in rec.annotations["maternal"].locations
            if m > 12200 and m < rec.n_samples - 100
            and np.min(np.abs(f_ann - m)) > 120
        ]
        assert len(m_ann) > 5
        residual = np.mean([np.max(np.abs(e[m - 40 : m + 40])) for m in m_ann])
        original = np.mean([np.max(np.abs(abd[m - 40 : m + 40])) for m in m_ann])
        assert residual < 0.2 * original


class TestExitStatusContract:
    def test_failing_stage_reports_and_nonzero_exit(self, tmp_path, capsys):
        # record too short for any post-convergence peaks: the report must
        # carry a failure entry and the CLI must exit nonzero
        spec = SynthSpec(duration_s=1.0, seed=4)
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        rc = cli_main(
            [
                "run", "--synth", str(spec_path), "--backend", "float64",
                "--convergence-index", "900",
            ]
        )
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failures"]

    def test_convergence_marker_past_the_end_fails_before_processing(self, monkeypatch):
        def not_reached(*args):
            raise AssertionError("the canceller ran")

        monkeypatch.setattr(lms, "run_canceller", not_reached)
        n = generate_synthetic(FAST_SPEC).n_samples
        rep = run_pipeline(fast_config(convergence_index=n))
        assert rep.failures == ["no samples after the convergence marker"]

    @pytest.mark.parametrize("past_end", [0, 500])
    def test_failure_report_names_the_configured_marker(self, past_end):
        marker = generate_synthetic(FAST_SPEC).n_samples + past_end
        rep = run_pipeline(fast_config(convergence_index=marker))
        assert not rep.ok
        assert rep.convergence_index == marker
        assert rep.scoring_start == marker + SCORING_GUARD_SAMPLES

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_degenerate_threshold_reported_once_without_python_warning(self, backend, tmp_path):
        path = tmp_path / "flat.csv"
        flat = {"thoracic": np.zeros(3000), "abdominal": np.zeros(3000)}
        write_recording(Recording(flat, fs=1000.0), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_pipeline(RunConfig(input_path=str(path), fs=1000.0, backend=backend))
        assert sum("degenerate detection threshold" in w for w in rep.warnings) == 1

    def test_empty_annotation_file_named_in_report_without_python_warning(self, tmp_path):
        rec_path, ann_path = tmp_path / "rec.csv", tmp_path / "empty.ann"
        write_recording(generate_synthetic(FAST_SPEC), rec_path)
        ann_path.write_text("")
        cfg = RunConfig(
            input_path=str(rec_path), fs=1000.0, annotations_path=str(ann_path), backend="float64"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_pipeline(cfg)
        assert rep.metrics is None
        assert f"{ann_path}: annotation file contains no entries" in rep.warnings


class TestCli:
    def test_run_synth_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(
            [
                "run", "--synth", str(spec_path), "--backend", "float64",
                "--convergence-index", "2000", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failures"] == []

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(fast_config().to_dict(), fh)
        rc = cli_main(["run", "--config", str(cfg_path), "--arch", "parallel"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["arch"] == "parallel"

    def test_exit_status_on_config_error(self, tmp_path, capsys):
        rc = cli_main(["run", "--input", "nope.csv", "--synth", "also.json"])
        assert rc == 2

    @pytest.mark.parametrize(
        "content, argv, named",
        [
            (None, ["run", "--config", "{path}"], "cannot read {path}"),
            ("{not json", ["run", "--config", "{path}"], "invalid JSON in {path}"),
            (None, ["fpu", "add", "1ffffffff", "0"], "not a 32-bit word: '1ffffffff'"),
        ],
        ids=["unreadable_config", "non_json_config", "wide_fpu_word"],
    )
    def test_bad_input_exits_2_with_one_error_line_naming_it(self, content, argv, named, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()  # opening a directory fails
        else:
            path.write_text(content)
        assert cli_main([a.format(path=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {named.format(path=path)}")

    def test_trace_without_out_exits_2_before_loading(self, tmp_path, capsys):
        # the input is never read: traces need a directory to go to first
        rc = cli_main(["run", "--input", str(tmp_path / "absent.csv"), "--fs", "1000",
                       "--trace", "lms"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "out_dir" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--input", str(tmp_path / "absent.csv"), "--fs", "1000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_channel_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        write_recording(generate_synthetic(SynthSpec(duration_s=0.5)), path)
        rc = cli_main(["run", "--input", str(path), "--fs", "1000", "--thoracic", "chest"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: channel 'chest'")

    def test_one_channel_for_both_canceller_inputs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        write_recording(generate_synthetic(SynthSpec(duration_s=0.5)), path)
        rc = cli_main(["run", "--input", str(path), "--fs", "1000",
                       "--thoracic", "abdominal", "--abdominal", "abdominal"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: thoracic and abdominal name one")

    @pytest.mark.parametrize("fs, rc", [("500", 2), ("1000", 0)])
    def test_raw_file_fs_must_match_its_header(self, fs, rc, tmp_path, capsys):
        path = tmp_path / "rec.raw"
        write_recording(generate_synthetic(FAST_SPEC), path, format="raw")
        argv = ["run", "--input", str(path), "--format", "raw", "--fs", fs,
                "--backend", "float64", "--convergence-index", "2000"]
        assert cli_main(argv) == rc
        captured = capsys.readouterr()
        if rc:
            assert captured.err == f"error: {path}: fs 500 Hz given, but the header says 1000 Hz\n"
        else:
            assert json.loads(captured.out)["fs"] == 1000.0

    def test_channels_and_annotations_after_a_byte_order_mark_resolve(self, tmp_path, capsys):
        rec = generate_synthetic(FAST_SPEC)
        rec_path, ann_path = tmp_path / "rec.csv", tmp_path / "rec.ann"
        write_recording(Recording({"a": rec.channel("thoracic"), "b": rec.channel("abdominal")},
                                  fs=rec.fs), rec_path)
        write_annotations(ann_path, rec.annotations)
        argv = ["run", "--input", str(rec_path), "--fs", "1000", "--thoracic", "a",
                "--abdominal", "b", "--annotations", str(ann_path), "--backend", "float64",
                "--convergence-index", "2000"]
        assert cli_main(argv) == 0
        want = json.loads(capsys.readouterr().out)["metrics"]
        assert want["true_positives"] > 0
        for path in (rec_path, ann_path):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as spreadsheets save it
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == []
        assert report["metrics"] == want

    def test_out_of_range_synth_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        csv_path = tmp_path / "synth.csv"
        for spec, message in (({"fetal_bpm": 10.0}, "error: fetal_bpm"),
                              ({"bogus": 1}, "error: SynthSpec.__init__() got an unexpected")):
            spec_path.write_text(json.dumps(spec))
            for argv in (["run", "--synth", str(spec_path)],
                         ["synth", "--spec", str(spec_path), "--out", str(csv_path)]):
                assert cli_main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.err.startswith(message), argv
                assert captured.out == ""
        assert not csv_path.exists()

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sample_exits_2(self, value, backend, tmp_path, capsys):
        rec = generate_synthetic(SynthSpec(duration_s=0.5))
        rec.channels["abdominal"][100] = value
        path = tmp_path / "rec.csv"
        write_recording(rec, path)
        rc = cli_main(["run", "--input", str(path), "--fs", "1000", "--backend", backend])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: channel 'abdominal' has a non-finite sample")
        assert err.rstrip().endswith("at index 100")

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_sample_float32_cannot_hold_exits_2(self, backend, tmp_path, capsys):
        rec = generate_synthetic(SynthSpec(duration_s=0.5))
        rec.channels["abdominal"][100] = 1e39
        path = tmp_path / "rec.csv"
        write_recording(rec, path)
        rc = cli_main(["run", "--input", str(path), "--fs", "1000", "--backend", backend])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: channel 'abdominal' has a sample float32 cannot hold "
            "(1e+39) at index 100\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, field", [("--fs", "fs"), ("--mu", "mu"), ("--clock-hz", "clock_hz")])
    def test_non_finite_numeric_flag_exits_2(self, flag, field, value, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        write_recording(generate_synthetic(SynthSpec(duration_s=0.5)), path)
        rc = cli_main(["run", "--input", str(path), "--fs", "1000", "--backend", "float64", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be positive and finite, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"order": 19.5', "order must be an integer, got 19.5"),
            ('"order": true', "order must be an integer, got True"),
            ('"convergence_index": 1500.5', "convergence_index must be an integer, got 1500.5"),
            ('"trace": "lms"', "trace must be a list of stage names, got 'lms'"),
        ],
        ids=["order_float", "order_bool", "convergence_index_float", "trace_string"],
    )
    def test_bad_config_file_exits_2(self, entry, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"synth": {{"duration_s": 6.0}}, {entry}}}')
        rc = cli_main(["run", "--config", str(cfg_path), "--backend", "float64"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"synth": [1]}', "synth must be a JSON object, got [1]"),
            ('{"mu": "0.1", "synth": {}}', "mu must be a number, got '0.1'"),
            ('{"input_path": 5, "fs": 1000}', "input_path must be a string, got 5"),
            ('{"synth": {}, "thoracic": 3}', "thoracic must be a string, got 3"),
            ('{"synth": {}, "abdominal": null}', "abdominal must be a string, got None"),
            ('{"synth": {}, "input_format": 1}', "input_format must be a string, got 1"),
            ('{"input_path": "r.csv", "fs": 1000, "annotations_path": ["a"]}',
             "annotations_path must be a string, got ['a']"),
            ('{"synth": {}, "out_dir": false}', "out_dir must be a string, got False"),
        ],
        ids=["synth_list", "mu_string", "input_path_int", "thoracic_int", "abdominal_null",
             "input_format_int", "annotations_path_list", "out_dir_bool"],
    )
    def test_config_value_of_wrong_type_exits_2(self, config, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        rc = cli_main(["run", "--config", str(cfg_path), "--backend", "float64"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"duration_s": "5"}, "duration_s must be a number, got '5'"),
            ({"fetal_bpm": None}, "fetal_bpm must be a number, got None"),
            ({"maternal_bpm": 0}, "maternal_bpm out of [30, 300]: 0"),
            ({"maternal_bpm": -60}, "maternal_bpm out of [30, 300]: -60"),
            ({"maternal_bpm": 1e308}, "maternal_bpm out of [30, 300]: 1e+308"),
            ({"baseline_freq_hz": "x"}, "baseline_freq_hz must be a number, got 'x'"),
            ({"baseline_freq_hz": -0.5}, "baseline_freq_hz must be non-negative and finite"),
            ({"duration_s": 1e306}, "duration_s * fs must be at most 10000000 samples, got inf"),
            ({"duration_s": 1e5}, "duration_s * fs must be at most 10000000 samples, got 1e+08"),
            ({"duration_s": 5e-4, "fs": 2e7},
             "fs 2e+07 makes the QRS pulse 1000001 samples long, longer than the 10000-sample record"),
        ],
        ids=[
            "duration_string",
            "fetal_null",
            "maternal_zero",
            "maternal_negative",
            "maternal_huge",
            "baseline_freq_string",
            "baseline_freq_negative",
            "samples_overflow",
            "samples_over_ceiling",
            "pulse_longer_than_record",
        ],
    )
    def test_bad_synth_spec_field_exits_2(self, spec, message, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "synth.csv"
        for argv in (["run", "--synth", str(spec_path), "--backend", "float64"],
                     ["synth", "--spec", str(spec_path), "--out", str(csv_path)]):
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n", argv
            assert captured.out == ""
        assert not csv_path.exists()

    @pytest.mark.parametrize("value", ["0", "-16", "NaN", "Infinity"])
    def test_bad_scale_target_exits_2(self, value, tmp_path, capsys):
        # the front end always scales to choose_scale_factor's default; a config file may not set it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"synth": {{"duration_s": 6.0}}, "scale_target": {value}}}')
        rc = cli_main(["run", "--config", str(cfg_path), "--backend", "float64"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: RunConfig.__init__() got an unexpected keyword argument 'scale_target'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content, kind", [("[1]", "list"), ('"cfg"', "str"), ("3", "int")])
    def test_json_file_not_an_object_exits_2(self, content, kind, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        csv_path = tmp_path / "synth.csv"
        for argv in (["run", "--config", str(path), "--backend", "float64"],
                     ["run", "--synth", str(path), "--backend", "float64"],
                     ["synth", "--spec", str(path), "--out", str(csv_path)]):
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {path} must hold a JSON object, not {kind}\n", argv
            assert captured.out == ""
        assert not csv_path.exists()

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_bad_synth_seed_exits_2(self, seed, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"duration_s": 0.5, "seed": seed}))
        csv_path = tmp_path / "synth.csv"
        argvs = [["run", "--synth", str(spec_path), "--backend", "float64"],
                 ["synth", "--spec", str(spec_path), "--out", str(csv_path)]]
        if seed == -1:
            argvs.append(["synth", "--seed", "-1", "--out", str(csv_path)])
        for argv in argvs:
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: seed must be a non-negative integer, got {seed!r}\n", argv
            assert captured.out == ""
        assert not csv_path.exists()

    def test_input_and_synth_flags_together_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(["run", "--input", str(tmp_path / "absent.csv"), "--synth", str(spec_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--input" in err and "--synth" in err

    @pytest.mark.parametrize(
        "flag, field, value", [("--fs", "fs", "500"), ("--annotations", "annotations_path", "rec.ann")]
    )
    def test_recording_flag_with_synth_exits_2(self, flag, field, value, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(["run", "--synth", str(spec_path), "--backend", "float64", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} applies to input_path only; synth sets its own\n"
        assert captured.out == ""

    def test_fs_in_config_with_synth_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": FAST_SPEC.to_dict(), "fs": 500.0}))
        rc = cli_main(["run", "--config", str(cfg_path), "--backend", "float64"])
        assert rc == 2
        assert capsys.readouterr().err == "error: fs applies to input_path only; synth sets its own\n"

    def test_synth_flag_overrides_config_input_path(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input_path": str(tmp_path / "absent.csv")}))
        rc = cli_main(
            [
                "run", "--config", str(cfg_path), "--synth", str(spec_path),
                "--backend", "float64", "--convergence-index", "2000",
            ]
        )  # fmt: skip
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["config"]["input_path"] is None

    def test_fpu_subcommand_add(self, capsys):
        rc = cli_main(["fpu", "add", "3f800000", "3f800000"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "40000000"
        assert out["value"] == 2.0

    def test_fpu_subcommand_cmp_modes(self, capsys):
        rc = cli_main(["fpu", "cmp", "bf800000", "c0000000", "--cmp-mode", "verbatim"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["relation"] == "LESS"
        rc = cli_main(["fpu", "cmp", "bf800000", "c0000000"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["relation"] == "GREATER"

    def test_fpu_bad_hex(self, capsys):
        rc = cli_main(["fpu", "add", "zzz", "3f800000"])
        assert rc == 2

    def test_synth_subcommand(self, tmp_path, capsys):
        rc = cli_main(["synth", "--out", str(tmp_path / "rec.csv"), "--seed", "3"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_samples"] == 30000
        assert (tmp_path / "rec.csv").exists()
        assert (tmp_path / "rec.ann").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(
            [
                "compare", "--synth", str(spec_path), "--backend", "float64",
                "--convergence-index", "2000",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["identical_outputs"]
        assert payload["summary"]["cycle_ratio"] == 39.0

    def test_compare_schedule_failure_prints_payload_and_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        break_error_dependence(monkeypatch)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(
            ["compare", "--synth", str(spec_path), "--backend", "float64",
             "--convergence-index", "2000"]
        )  # fmt: skip
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["identical_outputs"] is False
        for arch in ("series", "parallel"):
            assert payload[arch]["failures"][-1] == BROKEN_SERIES_FAILURE

    def test_saturating_compare_keeps_the_canceller_warning(self, tmp_path, capsys):
        # the parallel pass reuses the series canceller, and with it the first flag
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        argv = ["--synth", str(spec_path), "--convergence-index", "2000", "--mu", "1e30"]
        assert cli_main(["compare", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        for arch in ("series", "parallel"):
            assert cli_main(["run", "--arch", arch, *argv]) == 1
            warnings = json.loads(capsys.readouterr().out)["warnings"]
            assert payload[arch]["warnings"] == warnings
            assert "arithmetic saturation/flush first raised at sample 1" in warnings

    def test_compare_past_the_marker_prints_payload_and_exits_1(self, tmp_path, capsys):
        # a 2 s record has no samples after marker 5000: both passes fail as a run does
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SynthSpec(duration_s=2.0, seed=21).to_dict()))
        argv = ["--synth", str(spec_path), "--convergence-index", "5000"]
        assert cli_main(["run", *argv]) == 1
        run_report = json.loads(capsys.readouterr().out)
        assert cli_main(["compare", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["identical_outputs"] is False
        for arch in ("series", "parallel"):
            assert payload[arch]["failures"] == ["no samples after the convergence marker"]
            assert payload[arch]["failures"] == run_report["failures"]
            assert payload[arch]["config"]["arch"] == arch
            assert payload[arch]["convergence_index"] == 5000

    def test_baseline_past_the_marker_prints_payload_and_exits_1(self, tmp_path, capsys):
        # the failure a run reports, with both rows empty
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SynthSpec(duration_s=3.0, seed=21).to_dict()))
        argv = ["--synth", str(spec_path), "--convergence-index", "5000"]
        assert cli_main(["baseline", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload == {
            "proposed": None,
            "single_mean": None,
            "threshold": {},
            "failures": ["no samples after the convergence marker"],
        }

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_overflowing_convergence_time_is_a_named_failure(self, command, tmp_path, capsys):
        # 2000 cycles at 1e-320 Hz overflow a double: null, not Infinity, and exit 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SynthSpec(duration_s=3.0, seed=21).to_dict()))
        argv = [command, "--synth", str(spec_path), "--backend", "float64", "--clock-hz", "1e-320"]
        assert cli_main(argv) == 1

        def refuse(name):
            raise AssertionError(f"non-JSON constant {name} printed")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        reports = [payload] if command == "run" else [payload["series"], payload["parallel"]]
        for report in reports:
            assert list(report["convergence_time_ms"].values()) == [None]
            assert "convergence time at clock_hz 1e-320 is not finite" in report["failures"]

    @pytest.mark.parametrize("arch", ["series", "parallel"])
    def test_compare_rejects_single_arch_flag(self, arch, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(["compare", "--synth", str(spec_path), "--arch", arch])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: compare runs both architectures")

    def test_compare_runs_with_arch_from_config(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"arch": "series"}))
        rc = cli_main(
            ["compare", "--config", str(cfg_path), "--synth", str(spec_path), "--backend",
             "float64", "--convergence-index", "2000"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["summary"]["identical_outputs"]
