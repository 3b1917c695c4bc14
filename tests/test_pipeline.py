"""Orchestration tests: config handling, determinism, traces, CLI contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fhrmon import fhr, fpu, lms
from fhrmon.cli import main as cli_main
from fhrmon.io import SynthSpec, generate_synthetic, write_annotations, write_recording
from fhrmon.numeric import make_backend
from fhrmon.pipeline import (
    ConfigError,
    RunConfig,
    baseline_comparison,
    compare_architectures,
    effective_convergence_index,
    run_pipeline,
)

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


class TestBaselineComparison:
    def test_rows_side_by_side(self):
        out = baseline_comparison(fast_config())
        assert set(out) >= {"proposed", "single_mean", "threshold"}
        assert out["proposed"] is not None
        assert out["single_mean"] is not None


class TestCancellationQuality:
    def test_maternal_energy_reduced_in_error_signal(self, soft_artifacts):
        # post-convergence, maternal R-peak deflections in the canceller
        # output are a small fraction of their (scaled) abdominal level
        art = soft_artifacts
        bk = art.backend
        rec = art.recording
        e = np.array([bk.decode(w) for w in art.errors])
        abd = np.array([bk.decode(w) for w in art.abdominal_pp]) * art.scale_d
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
