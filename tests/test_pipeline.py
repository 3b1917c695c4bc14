"""Orchestration tests: config handling, determinism, traces, CLI contract."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from fhrmon import fhr, fpu, lms
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
    PipelineError,
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
        cfg.to_json(path)
        back = RunConfig.from_json(path)
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
        with pytest.raises(ConfigError):
            run_pipeline(fast_config(arch="both"))

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


class TestTraces:
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


class TestCompareArchitectures:
    def test_identical_streams_and_ratio(self):
        cfg = fast_config(arch="both")
        cmp_result = compare_architectures(cfg)
        assert cmp_result.identical_outputs
        assert cmp_result.first_divergence is None
        assert cmp_result.cycle_ratio == 39.0
        assert cmp_result.fpu_instances == {"series": 9, "parallel": 98}
        s = cmp_result.series_report
        p = cmp_result.parallel_report
        assert s.fhr == p.fhr
        assert s.metrics == p.metrics

    def test_order_one_ratio(self):
        cfg = fast_config(arch="both", order=1, mu=7e-5)
        cmp_result = compare_architectures(cfg)
        assert cmp_result.cycle_ratio == 3.0

    def test_preprocesses_once_for_both_architectures(self, monkeypatch):
        calls = []
        process = PreprocessChain.process

        def counting_process(chain, samples):
            calls.append(len(samples))
            return process(chain, samples)

        monkeypatch.setattr(PreprocessChain, "process", counting_process)
        compare_architectures(fast_config(arch="both"))
        assert len(calls) == 2

    @pytest.mark.parametrize("backend", ["soft", "float64"])
    def test_reports_match_single_architecture_runs(self, backend):
        cfg = fast_config(arch="both", backend=backend)
        cmp_result = compare_architectures(cfg)
        compared = {"series": cmp_result.series_report, "parallel": cmp_result.parallel_report}
        for arch, report in compared.items():
            alone = run_pipeline(cfg.replaced(arch=arch))
            for key in ("fhr", "metrics", "scale_factors", "cycle_stats", "threshold", "warnings"):
                assert getattr(report, key) == getattr(alone, key), (arch, key)

    def test_divergence_names_first_differing_sample(self, monkeypatch):
        run_canceller = lms.run_canceller

        def perturbed(datapath, x, d):
            errors, first_flag = run_canceller(datapath, x, d)
            if isinstance(datapath, lms.SeriesDatapath):
                errors[7] += 1.0
                errors[9] += 1.0
            return errors, first_flag

        monkeypatch.setattr(lms, "run_canceller", perturbed)
        with pytest.raises(PipelineError, match=r"diverge at sample 7: series=\S+ parallel=\S+$"):
            compare_architectures(fast_config(arch="both"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--out", "OUT"],
            ["compare", "--trace", "lms"],
            ["compare", "--out", "OUT", "--trace", "lms"],
            ["run", "--arch", "both", "--out", "OUT"],
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
        abd = np.array([bk.decode(w) for w in art.front_end.abdominal_pp]) * art.front_end.scale_d
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
        cfg = fast_config()
        cfg.to_json(cfg_path)
        rc = cli_main(["run", "--config", str(cfg_path), "--arch", "parallel"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["arch"] == "parallel"

    def test_exit_status_on_config_error(self, tmp_path, capsys):
        rc = cli_main(["run", "--input", "nope.csv", "--synth", "also.json"])
        assert rc == 2

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

    def test_out_of_range_synth_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"fetal_bpm": 10.0}))
        rc = cli_main(["run", "--synth", str(spec_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: fetal_bpm")

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

    @pytest.mark.parametrize("value", ["0", "-16", "NaN", "Infinity"])
    def test_bad_scale_target_exits_2(self, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"synth": {{"duration_s": 6.0}}, "scale_target": {value}}}')
        rc = cli_main(["run", "--config", str(cfg_path), "--backend", "float64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: scale_target must be positive and finite")

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

    @pytest.mark.parametrize("arch", ["series", "parallel"])
    def test_compare_rejects_single_arch_flag(self, arch, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        rc = cli_main(["compare", "--synth", str(spec_path), "--arch", arch])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: compare runs both architectures")

    @pytest.mark.parametrize("argv", [["--arch", "both"], ["--config", "CFG"]])
    def test_compare_runs_with_arch_both_or_arch_from_config(self, argv, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FAST_SPEC.to_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"arch": "series"}))
        argv = [{"CFG": str(cfg_path)}.get(a, a) for a in argv]
        rc = cli_main(
            ["compare", *argv, "--synth", str(spec_path), "--backend", "float64",
             "--convergence-index", "2000"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["summary"]["identical_outputs"]
