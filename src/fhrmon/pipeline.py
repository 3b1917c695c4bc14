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
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

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
        if self.arch not in VALID_ARCHES:
            raise ConfigError(f"arch must be one of {VALID_ARCHES}, got {self.arch!r}")
        if self.cmp_mode not in VALID_CMP_MODES:
            raise ConfigError(f"cmp_mode must be one of {VALID_CMP_MODES}")
        if self.backend not in VALID_BACKENDS:
            raise ConfigError(f"backend must be one of {VALID_BACKENDS}")
        if self.order < 1 or self.mu <= 0:
            raise ConfigError("order must be >= 1 and mu positive")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")
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
    fhr: dict | None
    metrics: dict | None
    cycle_stats: dict
    convergence_cycles: dict
    convergence_time_ms: dict
    reference_times_ms: dict
    scale_factors: dict
    threshold: dict
    warnings: list[str]
    failures: list[str]
    generated_at: str = ""

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


class RunArtifacts:
    """Intermediate products of one single-architecture pass."""

    def __init__(self, recording: Recording, backend, arch: str):
        self.recording = recording
        self.backend = backend
        self.arch = arch
        self.thoracic_pp: list = []
        self.abdominal_pp: list = []
        self.scale_x = 1.0
        self.scale_d = 1.0
        self.errors: list = []
        self.stats: lms.CycleStats | None = None
        self.first_flag_index: int | None = None
        self.detection: dict | None = None
        self.convergence_index = 0
        self.warnings: list[str] = []


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


def execute(cfg: RunConfig, arch: str, recording: Recording | None = None) -> RunArtifacts:
    """Run preprocess -> canceller -> detection for one architecture."""
    rec = recording if recording is not None else load_input(cfg)
    backend = make_backend(cfg.backend, cfg.cmp_mode)
    art = RunArtifacts(rec, backend, arch)
    art.convergence_index = effective_convergence_index(cfg.convergence_index, rec.n_samples)
    if art.convergence_index >= rec.n_samples:
        raise PipelineError("no samples after the convergence marker")

    chain_t = PreprocessChain(backend)
    chain_a = PreprocessChain(backend)
    art.thoracic_pp = chain_t.process(rec.channel(cfg.thoracic))
    art.abdominal_pp = chain_a.process(rec.channel(cfg.abdominal))
    warmup = chain_t.warmup_samples

    dec = backend.decode
    art.scale_x = lms.choose_scale_factor(
        np.array([dec(w) for w in art.thoracic_pp[warmup:]]), cfg.scale_target
    )
    art.scale_d = lms.choose_scale_factor(
        np.array([dec(w) for w in art.abdominal_pp[warmup:]]), cfg.scale_target
    )

    lms_cfg = lms.LmsConfig(
        order=cfg.order,
        step_size=cfg.mu,
        input_scale=art.scale_x,
        desired_scale=art.scale_d,
    )
    datapath = lms.make_datapath(arch, lms_cfg, backend)
    art.errors, art.first_flag_index = lms.run_canceller(
        datapath, art.thoracic_pp, art.abdominal_pp
    )
    art.stats = datapath.stats
    if art.first_flag_index is not None:
        art.warnings.append(
            f"arithmetic saturation/flush first raised at sample {art.first_flag_index}"
        )

    art.detection = fhr.detect_peaks(backend, art.errors[art.convergence_index :], rec.fs)
    art.detection["peaks_absolute"] = art.detection["peaks"].shifted(art.convergence_index)
    art.detection["maxima_absolute"] = art.detection["maxima"].shifted(art.convergence_index)
    if art.detection["degenerate"]:
        art.warnings.append("degenerate detection threshold (no maxima above m1)")
    return art


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
        with open(out / "preprocess.csv", "w", encoding="utf-8") as fh:
            fh.write("n,thoracic,abdominal\n")
            for i, (tw, aw) in enumerate(zip(art.thoracic_pp, art.abdominal_pp)):
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


def build_report(cfg: RunConfig, art: RunArtifacts, failures: list[str]) -> RunReport:
    rec = art.recording
    conv = art.convergence_index
    scoring_start = conv + SCORING_GUARD_SAMPLES
    warnings_list = list(art.warnings)

    fhr_dict = None
    metrics_dict = None
    threshold = {}
    stats_dict = {}
    conv_cycles = {}
    conv_ms = {}
    scale_factors = {}
    if art.detection is not None:
        threshold = {"m1": art.detection["m1"], "th": art.detection["th"]}
        try:
            result = fhr.compute_fhr(art.detection["peaks_absolute"], rec.fs, conv)
            fhr_dict = result.to_dict()
            if not result.plausible:
                warnings_list.append(f"FHR {result.fhr_bpm:.1f} bpm outside plausible range")
        except fhr.NoEstimateError as exc:
            failures = failures + [f"fhr: {exc}"]
        metrics = score_against_annotations(
            rec, art.detection["peaks_absolute"], scoring_start, rec.fs
        )
        metrics_dict = metrics.to_dict() if metrics else None
    if art.stats is not None:
        stats_dict[art.arch] = art.stats.to_dict()
        conv_cycles[art.arch] = art.stats.cycles_per_sample * conv
        conv_ms[art.arch] = conv_cycles[art.arch] / cfg.clock_hz * 1000.0
        scale_factors = {"thoracic": art.scale_x, "abdominal": art.scale_d}

    return RunReport(
        config=cfg.to_dict(),
        n_samples=rec.n_samples,
        fs=rec.fs,
        convergence_index=conv,
        scoring_start=scoring_start,
        fhr=fhr_dict,
        metrics=metrics_dict,
        cycle_stats=stats_dict,
        convergence_cycles=conv_cycles,
        convergence_time_ms=conv_ms,
        reference_times_ms=dict(REFERENCE_CONVERGENCE_MS),
        scale_factors=scale_factors,
        threshold=threshold,
        warnings=warnings_list,
        failures=failures,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute the full chain for one architecture and assemble the report."""
    if cfg.arch == "both":
        raise ConfigError("run_pipeline handles one architecture; use compare_architectures")
    failures: list[str] = []
    rec = load_input(cfg)
    art = RunArtifacts(rec, make_backend(cfg.backend, cfg.cmp_mode), cfg.arch)
    try:
        art = execute(cfg, cfg.arch, rec)
        write_traces(cfg, art)
    except (PipelineError, fpu.OperandError) as exc:
        failures.append(str(exc))
    report = build_report(cfg, art, failures)
    if cfg.out_dir:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        report.write(Path(cfg.out_dir) / "report.json")
    return report


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
    """Run both datapaths on identical inputs and demand bit-identical output.

    Raises :class:`PipelineError` naming the first divergent sample if the
    error streams differ anywhere.
    """
    rec = load_input(cfg)
    arts = {}
    for arch in ("series", "parallel"):
        sub = cfg.replaced(arch=arch, out_dir=None, trace=[])
        arts[arch] = execute(sub, arch, rec)

    first_div = None
    for i, (a, b) in enumerate(zip(arts["series"].errors, arts["parallel"].errors)):
        if a != b:
            first_div = i
            break
    if first_div is not None:
        raise PipelineError(
            f"architecture outputs diverge at sample {first_div}: "
            f"series={arts['series'].errors[first_div]!r} "
            f"parallel={arts['parallel'].errors[first_div]!r}"
        )

    reports = {
        arch: build_report(cfg.replaced(arch=arch, out_dir=None, trace=[]), arts[arch], [])
        for arch in ("series", "parallel")
    }
    ratio = arts["series"].stats.total_cycles / arts["parallel"].stats.total_cycles
    return ArchitectureComparison(
        series_report=reports["series"],
        parallel_report=reports["parallel"],
        identical_outputs=True,
        first_divergence=None,
        cycle_ratio=ratio,
        fpu_instances={
            "series": arts["series"].stats.fpu_instances,
            "parallel": arts["parallel"].stats.fpu_instances,
        },
    )


def baseline_comparison(cfg: RunConfig) -> dict:
    """Score the proposed two-mean norm against a single-mean detector.

    The single-mean baseline accepts every enhanced-signal maximum above m1
    with no second threshold and no minimum-gap arbitration.
    """
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
