"""End-to-end run orchestration and reporting.

A run wires the stages in the fixed order preprocess -> adaptive canceller ->
peak detection, on a loaded or synthesized recording.  The thoracic channel
feeds the canceller as the reference input and the abdominal channel is the
primary (desired) signal, so the canceller's error output is the extracted
fetal ECG.  Detection statistics are computed on the post-convergence
segment of that output; peaks and rates are reported in absolute sample
indices.

Reports serialize to a single JSON document; optional per-stage CSV traces
(``preprocess.csv``, ``lms.csv``, ``fhr.csv``, ``peaks.csv``) carry
plot-ready data, with float32 words hex-encoded so a trace can be re-fed
bit-exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

from . import fhr, fpu, lms
from .io import Recording, SynthSpec, generate_synthetic, load_annotations, load_recording
from .numeric import make_backend
from .preprocess import PreprocessChain

DEFAULT_CLOCK_HZ = 50_000_000
SCALE_TARGET = 16.0
# Guard band after the convergence marker before scoring starts: enhancement
# ring fill plus the annotation matching window.
SCORING_GUARD_SAMPLES = 128

# Published end-to-end convergence times quoted for context next to the raw
# cycle counts this model produces (see RunReport.reference_times_ms).
REFERENCE_CONVERGENCE_MS = {"series": 18.72, "parallel": 0.48}

VALID_ARCHES = ("series", "parallel", "both")
VALID_CMP_MODES = ("corrected", "verbatim")
VALID_BACKENDS = ("soft", "float64")


class ConfigError(ValueError):
    """Raised for invalid run configuration before any processing starts."""


class PipelineError(RuntimeError):
    """Raised when a stage fails mid-run."""


@dataclass
class RunConfig:
    input_path: str | None = None
    input_format: str = "csv"
    synth: SynthSpec | None = None
    thoracic: str = "thoracic"
    abdominal: str = "abdominal"
    fs: float | None = None
    order: int = lms.DEFAULT_ORDER
    mu: float = lms.DEFAULT_STEP_SIZE
    arch: str = "parallel"
    cmp_mode: str = "corrected"
    backend: str = "soft"
    clock_hz: float = DEFAULT_CLOCK_HZ
    annotations_path: str | None = None
    out_dir: str | None = None
    trace: list[str] = field(default_factory=list)
    convergence_index: int | None = None  # None = min(12000, n // 2)
    scale_target: float = SCALE_TARGET

    def __post_init__(self):
        if (self.input_path is None) == (self.synth is None):
            raise ConfigError("exactly one of input_path or synth must be given")
        if self.synth is not None:
            # The spec sets the synthetic record's rate and its annotations.
            for name in ("fs", "annotations_path"):
                if getattr(self, name) is not None:
                    raise ConfigError(f"{name} applies to input_path only; synth sets its own")
        if self.arch not in VALID_ARCHES:
            raise ConfigError(f"arch must be one of {VALID_ARCHES}, got {self.arch!r}")
        if self.cmp_mode not in VALID_CMP_MODES:
            raise ConfigError(f"cmp_mode must be one of {VALID_CMP_MODES}")
        if self.backend not in VALID_BACKENDS:
            raise ConfigError(f"backend must be one of {VALID_BACKENDS}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        for name in ("fs", "mu", "clock_hz", "scale_target"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:  # False for NaN too
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.convergence_index is not None and self.convergence_index < 0:
            raise ConfigError(f"convergence_index must be >= 0, got {self.convergence_index}")
        bad = [s for s in self.trace if s not in ("preprocess", "lms", "fhr")]
        if bad:
            raise ConfigError(f"unknown trace stages: {bad}")

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.synth is not None:
            data["synth"] = self.synth.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        if data.get("synth") is not None:
            data["synth"] = SynthSpec.from_dict(data["synth"])
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def replaced(self, **overrides) -> "RunConfig":
        return RunConfig.from_dict({**self.to_dict(), **overrides})


@dataclass
class RunReport:
    config: dict
    n_samples: int
    fs: float
    convergence_index: int
    scoring_start: int
    # A run that fails before its stages finish leaves the rest at defaults.
    fhr: dict | None = None
    metrics: dict | None = None
    cycle_stats: dict = field(default_factory=dict)
    convergence_cycles: dict = field(default_factory=dict)
    convergence_time_ms: dict = field(default_factory=dict)
    reference_times_ms: dict = field(default_factory=lambda: dict(REFERENCE_CONVERGENCE_MS))
    scale_factors: dict = field(default_factory=dict)
    threshold: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    generated_at: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S"))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @property
    def ok(self) -> bool:
        return not self.failures


def effective_convergence_index(cfg_value: int | None, n_samples: int) -> int:
    """Fixed convergence marker, halved for records shorter than its double.

    Short recordings (e.g. 10 s exports at 250 Hz) would otherwise have no
    post-convergence region at all.
    """
    if cfg_value is not None:
        return cfg_value
    return min(fhr.CONVERGENCE_SAMPLES, n_samples // 2)


class FrontEnd(NamedTuple):
    """Both preprocessed channels and the scale factors chosen from them.

    Everything before the canceller depends only on the recording and the
    configuration, never on the architecture, so one front end can feed both
    datapaths.
    """

    thoracic_pp: list
    abdominal_pp: list
    scale_x: float
    scale_d: float


@dataclass
class RunArtifacts:
    """Everything one single-architecture pass produced."""

    recording: Recording
    backend: object  # the SoftF32Backend or Float64Backend every stage ran on
    arch: str
    front_end: FrontEnd
    convergence_index: int
    errors: list
    stats: lms.CycleStats
    detection: dict
    warnings: list[str]


def load_input(cfg: RunConfig) -> Recording:
    """Load or synthesize the configured recording, annotations attached."""
    if cfg.synth is not None:
        return generate_synthetic(cfg.synth)
    channel_map = {"thoracic": cfg.thoracic, "abdominal": cfg.abdominal}
    rec = load_recording(
        cfg.input_path, format=cfg.input_format, fs=cfg.fs, channel_map=channel_map
    )
    if cfg.annotations_path:
        rec.annotations = load_annotations(cfg.annotations_path, rec.n_samples)
    return rec


def preprocess_front_end(cfg: RunConfig, rec: Recording, backend) -> FrontEnd:
    """Preprocess both channels and choose their canceller scale factors.

    The scale factors are chosen from the samples after the chain's warm-up.
    """
    chain_t = PreprocessChain(backend)
    chain_a = PreprocessChain(backend)
    thoracic_pp = chain_t.process(rec.channel(cfg.thoracic))
    abdominal_pp = chain_a.process(rec.channel(cfg.abdominal))
    warmup = chain_t.warmup_samples

    scale_x = lms.choose_scale_factor(backend.to_values(thoracic_pp[warmup:]), cfg.scale_target)
    scale_d = lms.choose_scale_factor(backend.to_values(abdominal_pp[warmup:]), cfg.scale_target)
    return FrontEnd(thoracic_pp, abdominal_pp, scale_x, scale_d)


def execute(
    cfg: RunConfig,
    arch: str,
    recording: Recording | None = None,
    front_end: FrontEnd | None = None,
) -> RunArtifacts:
    """Run preprocess -> canceller -> detection for one architecture.

    A ``front_end`` computed earlier for the same recording and configuration
    replaces the preprocessing pass; the canceller and detection always run.
    """
    rec = recording if recording is not None else load_input(cfg)
    conv = effective_convergence_index(cfg.convergence_index, rec.n_samples)
    if conv >= rec.n_samples:
        raise PipelineError("no samples after the convergence marker")
    backend = make_backend(cfg.backend, cfg.cmp_mode)
    if front_end is None:
        front_end = preprocess_front_end(cfg, rec, backend)

    lms_cfg = lms.LmsConfig(
        order=cfg.order,
        step_size=cfg.mu,
        input_scale=front_end.scale_x,
        desired_scale=front_end.scale_d,
    )
    datapath = lms.make_datapath(arch, lms_cfg, backend)
    errors, first_flag = lms.run_canceller(
        datapath, front_end.thoracic_pp, front_end.abdominal_pp
    )
    warnings = []
    if cfg.annotations_path and rec.annotations is not None and not any(rec.annotations.values()):
        warnings.append(f"{cfg.annotations_path}: annotation file contains no entries")
    if first_flag is not None:
        warnings.append(f"arithmetic saturation/flush first raised at sample {first_flag}")

    detection = fhr.detect_peaks(backend, errors[conv:], rec.fs)
    detection["peaks_absolute"] = detection["peaks"].shifted(conv)
    detection["maxima_absolute"] = detection["maxima"].shifted(conv)
    if detection["degenerate"]:
        warnings.append("degenerate detection threshold (no maxima above m1)")
    return RunArtifacts(
        rec, backend, arch, front_end, conv, errors, datapath.stats, detection, warnings
    )


def score_against_annotations(
    rec: Recording, detected: fhr.PeakSet, scoring_start: int, fs: float
) -> fhr.Metrics | None:
    if not rec.annotations or "fetal" not in rec.annotations:
        return None
    truth_f = rec.annotations["fetal"]
    truth_m = rec.annotations.get("maternal", fhr.PeakSet())
    dets = fhr.PeakSet([p for p in detected.locations if p >= scoring_start])
    tf = fhr.PeakSet([p for p in truth_f.locations if p >= scoring_start])
    tm = fhr.PeakSet([p for p in truth_m.locations if p >= scoring_start])
    if not len(tf):
        return None
    return fhr.score_detection(dets, tf, tm, fhr.match_window_samples(fs))


def write_traces(cfg: RunConfig, art: RunArtifacts) -> None:
    if not cfg.out_dir:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    backend = art.backend
    dec = backend.decode
    is_soft = backend.name == "soft"

    def word_repr(w) -> str:
        return fpu.to_hex(w) if is_soft else repr(w)

    if "preprocess" in cfg.trace:
        fe = art.front_end
        with open(out / "preprocess.csv", "w", encoding="utf-8") as fh:
            fh.write("n,thoracic,abdominal\n")
            for i, (tw, aw) in enumerate(zip(fe.thoracic_pp, fe.abdominal_pp)):
                fh.write(f"{i},{dec(tw)!r},{dec(aw)!r}\n")
    if "lms" in cfg.trace:
        with open(out / "lms.csv", "w", encoding="utf-8") as fh:
            fh.write("n,e_word,e\n")
            for i, ew in enumerate(art.errors):
                fh.write(f"{i},{word_repr(ew)},{dec(ew)!r}\n")
    if "fhr" in cfg.trace:
        with open(out / "fhr.csv", "w", encoding="utf-8") as fh:
            fh.write("n,sdm\n")
            for i, sw in enumerate(art.detection["sdm"]):
                fh.write(f"{i + art.convergence_index},{dec(sw)!r}\n")
    peaks = art.detection["peaks_absolute"]
    with open(out / "peaks.csv", "w", encoding="utf-8") as fh:
        fh.write("index,time_s,sdm_value\n")
        values = peaks.values or [float("nan")] * len(peaks)
        for loc, val in zip(peaks.locations, values):
            fh.write(f"{loc},{loc / art.recording.fs!r},{val!r}\n")


def build_report(cfg: RunConfig, art: RunArtifacts) -> RunReport:
    rec = art.recording
    conv = art.convergence_index
    scoring_start = conv + SCORING_GUARD_SAMPLES
    peaks = art.detection["peaks_absolute"]
    warnings = list(art.warnings)
    failures = []

    fhr_dict = None
    try:
        result = fhr.compute_fhr(peaks, rec.fs, conv)
        fhr_dict = result.to_dict()
        if not result.plausible:
            warnings.append(f"FHR {result.fhr_bpm:.1f} bpm outside plausible range")
    except fhr.NoEstimateError as exc:
        failures.append(f"fhr: {exc}")
    metrics = score_against_annotations(rec, peaks, scoring_start, rec.fs)
    conv_cycles = art.stats.cycles_per_sample * conv

    return RunReport(
        config=cfg.to_dict(),
        n_samples=rec.n_samples,
        fs=rec.fs,
        convergence_index=conv,
        scoring_start=scoring_start,
        fhr=fhr_dict,
        metrics=metrics.to_dict() if metrics else None,
        cycle_stats={art.arch: art.stats.to_dict()},
        convergence_cycles={art.arch: conv_cycles},
        convergence_time_ms={art.arch: conv_cycles / cfg.clock_hz * 1000.0},
        scale_factors={"thoracic": art.front_end.scale_x, "abdominal": art.front_end.scale_d},
        threshold={"m1": art.detection["m1"], "th": art.detection["th"]},
        warnings=warnings,
        failures=failures,
    )


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute the full chain for one architecture and assemble the report."""
    if cfg.arch == "both":
        raise ConfigError("run_pipeline handles one architecture; use compare_architectures")
    rec = load_input(cfg)
    try:
        art = execute(cfg, cfg.arch, rec)
    except PipelineError as exc:
        conv = effective_convergence_index(cfg.convergence_index, rec.n_samples)
        report = RunReport(
            config=cfg.to_dict(),
            n_samples=rec.n_samples,
            fs=rec.fs,
            convergence_index=conv,
            scoring_start=conv + SCORING_GUARD_SAMPLES,
            failures=[str(exc)],
        )
    else:
        write_traces(cfg, art)
        report = build_report(cfg, art)
    if cfg.out_dir:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        report.write(Path(cfg.out_dir) / "report.json")
    return report


def _reject_file_outputs(cfg: RunConfig, command: str) -> None:
    """``command`` prints its result and writes no files, so fail on any asked for."""
    if cfg.out_dir or cfg.trace:
        raise ConfigError(
            f"{command} writes no files: out_dir (--out) and trace (--trace) do not apply"
        )


@dataclass
class ArchitectureComparison:
    series_report: RunReport
    parallel_report: RunReport
    identical_outputs: bool
    first_divergence: int | None
    cycle_ratio: float
    fpu_instances: dict

    def summary(self) -> dict:
        return {
            "identical_outputs": self.identical_outputs,
            "first_divergence": self.first_divergence,
            "cycle_ratio": self.cycle_ratio,
            "fpu_instances": self.fpu_instances,
        }


def compare_architectures(cfg: RunConfig) -> ArchitectureComparison:
    """Run both datapaths on one front end and demand bit-identical output.

    The recording is preprocessed once, in the series pass, and the parallel
    pass reuses those words and scale factors; each datapath then runs its own
    canceller and detection.  A comparison writes no files, so a configured
    ``out_dir`` or ``trace`` is a :class:`ConfigError`.

    Raises :class:`PipelineError` naming the first divergent sample if the
    error streams differ anywhere.
    """
    _reject_file_outputs(cfg, "compare")
    rec = load_input(cfg)
    series_cfg, parallel_cfg = cfg.replaced(arch="series"), cfg.replaced(arch="parallel")
    series = execute(series_cfg, "series", rec)
    parallel = execute(parallel_cfg, "parallel", rec, series.front_end)

    if series.errors != parallel.errors:
        i = next(i for i, (a, b) in enumerate(zip(series.errors, parallel.errors)) if a != b)
        raise PipelineError(
            f"architecture outputs diverge at sample {i}: "
            f"series={series.errors[i]!r} parallel={parallel.errors[i]!r}"
        )

    return ArchitectureComparison(
        series_report=build_report(series_cfg, series),
        parallel_report=build_report(parallel_cfg, parallel),
        identical_outputs=True,
        first_divergence=None,
        cycle_ratio=series.stats.total_cycles / parallel.stats.total_cycles,
        fpu_instances={
            "series": series.stats.fpu_instances,
            "parallel": parallel.stats.fpu_instances,
        },
    )


def baseline_comparison(cfg: RunConfig) -> dict:
    """Score the proposed two-mean norm against a single-mean detector.

    The single-mean baseline accepts every enhanced-signal maximum above m1
    with no second threshold and no minimum-gap arbitration.  Like a comparison
    it writes no files, so a configured ``out_dir`` or ``trace`` is a
    :class:`ConfigError`.
    """
    _reject_file_outputs(cfg, "baseline")
    rec = load_input(cfg)
    if not rec.annotations or "fetal" not in rec.annotations:
        raise ConfigError("baseline comparison requires fetal annotations")
    arch = cfg.arch if cfg.arch != "both" else "parallel"
    art = execute(cfg.replaced(arch=arch), arch, rec)
    scoring_start = art.convergence_index + SCORING_GUARD_SAMPLES

    proposed = art.detection["peaks_absolute"]
    single_mean = fhr.baseline_single_mean_peaks(art.detection["maxima_absolute"])

    out = {}
    for name, peaks in (("proposed", proposed), ("single_mean", single_mean)):
        metrics = score_against_annotations(rec, peaks, scoring_start, rec.fs)
        out[name] = metrics.to_dict() if metrics else None
    out["threshold"] = {"m1": art.detection["m1"], "th": art.detection["th"]}
    return out
