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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fhr, fpu, lms
from .io import (
    Recording, SynthSpec, generate_synthetic, is_number, load_annotations, load_recording
)
from .numeric import VALID_CMP_MODES, make_backend
from .preprocess import PreprocessChain

DEFAULT_CLOCK_HZ = 50_000_000
# Guard band after the convergence marker before scoring starts: enhancement
# ring fill plus the annotation matching window.
SCORING_GUARD_SAMPLES = 128
# Trace values turned into Python floats per call: a whole stream held as
# Python floats at once raises the process's peak memory.
TRACE_BLOCK = 256

# Published end-to-end convergence times quoted for context next to the raw
# cycle counts this model produces (see RunReport.reference_times_ms).
REFERENCE_CONVERGENCE_MS = {"series": 18.72, "parallel": 0.48}

VALID_ARCHES = ("series", "parallel")
VALID_BACKENDS = ("soft", "float64")
OPTIONAL_PATHS = ("input_path", "annotations_path", "out_dir")


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

    def __post_init__(self):
        for name in ("thoracic", "abdominal", "input_format", *OPTIONAL_PATHS):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name in OPTIONAL_PATHS)):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if self.thoracic == self.abdominal:
            raise ConfigError(f"thoracic and abdominal name one channel, {self.thoracic!r}: "
                              "the canceller needs two")
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
        if self.backend == "float64" and self.cmp_mode != "corrected":
            raise ConfigError(f"cmp_mode {self.cmp_mode!r} applies to backend 'soft' only")
        for name in ("order", "convergence_index"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        for name in ("fs", "mu", "clock_hz"):
            value = getattr(self, name)
            if value is not None and not is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if value is not None and not 0 < value < math.inf:  # False for NaN too
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.convergence_index is not None and self.convergence_index < 0:
            raise ConfigError(f"convergence_index must be >= 0, got {self.convergence_index}")
        if not isinstance(self.trace, list):
            raise ConfigError(f"trace must be a list of stage names, got {self.trace!r}")
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
            if not isinstance(data["synth"], dict):
                raise ConfigError(f"synth must be a JSON object, got {data['synth']!r}")
            data["synth"] = SynthSpec.from_dict(data["synth"])
        return cls(**data)

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
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False) + "\n"

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
    """Both preprocessed channels and the scale factors chosen from them."""

    thoracic_pp: np.ndarray  # float32 values
    abdominal_pp: np.ndarray
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
    errors: list  # the canceller's error words
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

    scale_x = lms.choose_scale_factor(thoracic_pp[warmup:])
    scale_d = lms.choose_scale_factor(abdominal_pp[warmup:])
    return FrontEnd(thoracic_pp, abdominal_pp, scale_x, scale_d)


def execute(
    cfg: RunConfig,
    arch: str,
    recording: Recording | None = None,
    reference: RunArtifacts | None = None,
) -> RunArtifacts:
    """Run preprocess -> canceller -> detection for one architecture.

    A ``reference`` pass made earlier on the same recording and configuration
    lends its front end, error words, warnings and detection, which do not
    depend on the schedule; this pass only accounts its own schedule's cycles.
    """
    if reference is not None:
        stats = lms.CycleStats.of(getattr(lms.Schedule, arch)(cfg.order), len(reference.errors))
        return replace(reference, arch=arch, stats=stats, warnings=list(reference.warnings))
    rec = recording if recording is not None else load_input(cfg)
    conv = effective_convergence_index(cfg.convergence_index, rec.n_samples)
    if conv >= rec.n_samples:
        raise PipelineError("no samples after the convergence marker")
    backend = make_backend(cfg.backend, cfg.cmp_mode)
    front_end = preprocess_front_end(cfg, rec, backend)

    lms_cfg = lms.LmsConfig(
        order=cfg.order,
        step_size=cfg.mu,
        input_scale=front_end.scale_x,
        desired_scale=front_end.scale_d,
    )
    datapath = lms.make_datapath(arch, lms_cfg, backend)
    errors, first_flag = lms.run_canceller(datapath, front_end.thoracic_pp, front_end.abdominal_pp)
    errors = backend.to_words(errors)
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

    def floats(values):
        for start in range(0, len(values), TRACE_BLOCK):
            yield from values[start : start + TRACE_BLOCK].tolist()

    def write_csv(name: str, header: str, rows) -> None:
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(rows)

    if "preprocess" in cfg.trace:
        fe = art.front_end
        pairs = zip(floats(fe.thoracic_pp), floats(fe.abdominal_pp))
        write_csv("preprocess.csv", "n,thoracic,abdominal\n",
                  (f"{i},{t!r},{a!r}\n" for i, (t, a) in enumerate(pairs)))
    if "lms" in cfg.trace:
        words = map(fpu.to_hex if backend.name == "soft" else repr, art.errors)
        rows = zip(words, floats(backend.to_values(art.errors)))
        write_csv("lms.csv", "n,e_word,e\n", (f"{i},{w},{e!r}\n" for i, (w, e) in enumerate(rows)))
    if "fhr" in cfg.trace:
        rows = enumerate(floats(backend.to_values(art.detection["sdm"])), art.convergence_index)
        write_csv("fhr.csv", "n,sdm\n", (f"{i},{v!r}\n" for i, v in rows))
    locs, fs = art.detection["peaks_absolute"].locations, art.recording.fs
    sdm = art.detection["sdm"]
    values = backend.to_values([sdm[loc - art.convergence_index] for loc in locs]).tolist()
    write_csv("peaks.csv", "index,time_s,sdm_value\n",
              (f"{loc},{loc / fs!r},{v!r}\n" for loc, v in zip(locs, values)))


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
    conv_ms = conv_cycles / cfg.clock_hz * 1000.0
    if not math.isfinite(conv_ms):  # a clock so slow the time overflows
        failures.append(f"convergence time at clock_hz {cfg.clock_hz!r} is not finite")

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
        convergence_time_ms={art.arch: conv_ms if math.isfinite(conv_ms) else None},
        scale_factors={"thoracic": art.front_end.scale_x, "abdominal": art.front_end.scale_d},
        threshold={"m1": art.detection["m1"], "th": art.detection["th"]},
        warnings=warnings,
        failures=failures,
    )


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute the full chain for one architecture and assemble the report."""
    if cfg.trace and not cfg.out_dir:
        raise ConfigError(f"trace {cfg.trace} writes files into out_dir (--out), which is not set")
    rec = load_input(cfg)
    try:
        art = execute(cfg, cfg.arch, rec)
    except PipelineError as exc:
        report = _failed_report(cfg, rec, exc)
    else:
        write_traces(cfg, art)
        report = build_report(cfg, art)
    if cfg.out_dir:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.out_dir) / "report.json").write_text(report.to_json(), encoding="utf-8")
    return report


def _failed_report(cfg: RunConfig, rec: Recording, exc: PipelineError) -> RunReport:
    """The report of a pass over ``rec`` that ``exc`` stopped: the failure, and no results."""
    conv = effective_convergence_index(cfg.convergence_index, rec.n_samples)
    return RunReport(config=cfg.to_dict(), n_samples=rec.n_samples, fs=rec.fs,
                     convergence_index=conv, scoring_start=conv + SCORING_GUARD_SAMPLES,
                     failures=[str(exc)])


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
    cycle_ratio: float
    fpu_instances: dict

    def summary(self) -> dict:
        return {
            "identical_outputs": self.identical_outputs,
            "cycle_ratio": self.cycle_ratio,
            "fpu_instances": self.fpu_instances,
        }


def compare_architectures(cfg: RunConfig) -> ArchitectureComparison:
    """Run the stages once for both architectures and check both schedules.

    The parallel pass reuses the series pass's words (:func:`execute`).
    ``identical_outputs`` is True when both schedules are valid orders of
    :func:`lms.step_ops`, whose results do not depend on the order its ops
    issue in; a schedule that is not adds a failure naming the op and both
    cycles to both reports.  A :class:`PipelineError` leaves both reports
    with that failure, as :func:`run_pipeline` does, and ``identical_outputs``
    False.  A comparison writes no files, so ``out_dir`` or ``trace`` is a
    :class:`ConfigError`.
    """
    _reject_file_outputs(cfg, "compare")
    rec = load_input(cfg)
    series_cfg, parallel_cfg = cfg.replaced(arch="series"), cfg.replaced(arch="parallel")
    s, p = lms.Schedule.series(cfg.order), lms.Schedule.parallel(cfg.order)
    table = lms.step_ops(cfg.order)
    problems = [f"{arch} schedule {problem}" for arch, problem in
                (("series", s.check(table)), ("parallel", p.check(table))) if problem]
    try:
        series = execute(series_cfg, "series", rec)
        parallel = execute(parallel_cfg, "parallel", rec, series)
    except PipelineError as exc:
        reports = _failed_report(series_cfg, rec, exc), _failed_report(parallel_cfg, rec, exc)
        identical = False
    else:
        reports = build_report(series_cfg, series), build_report(parallel_cfg, parallel)
        for report in reports:
            report.failures += problems
        identical = not problems

    return ArchitectureComparison(
        *reports,
        identical_outputs=identical,
        cycle_ratio=s.cycles / p.cycles,
        fpu_instances={"series": s.fpu_instances, "parallel": p.fpu_instances},
    )


def baseline_comparison(cfg: RunConfig) -> dict:
    """Score the proposed two-mean norm against a single-mean detector.

    The single-mean baseline accepts every enhanced-signal maximum above m1
    with no second threshold and no minimum-gap arbitration.  Like a comparison
    it writes no files, so a configured ``out_dir`` or ``trace`` is a
    :class:`ConfigError`.  A :class:`PipelineError` leaves both rows None, named in ``failures``.
    """
    _reject_file_outputs(cfg, "baseline")
    rec = load_input(cfg)
    if not rec.annotations or "fetal" not in rec.annotations:
        raise ConfigError("baseline comparison requires fetal annotations")
    try:
        art = execute(cfg, cfg.arch, rec)
    except PipelineError as exc:
        return {"proposed": None, "single_mean": None, "threshold": {}, "failures": [str(exc)]}
    scoring_start = art.convergence_index + SCORING_GUARD_SAMPLES

    out = {"failures": []}
    for name, key in (("proposed", "peaks_absolute"), ("single_mean", "maxima_absolute")):
        metrics = score_against_annotations(rec, art.detection[key], scoring_start, rec.fs)
        out[name] = metrics.to_dict() if metrics else None
    out["threshold"] = {"m1": art.detection["m1"], "th": art.detection["th"]}
    return out
