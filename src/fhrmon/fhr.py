"""Fetal R-peak detection and heart-rate computation.

The detector runs in two passes over an extracted-FECG stream:

* Pass 1 (:class:`PeakEnhancer`): differentiate, square, slide a mean filter
  of length ``P`` over the squared differences, and accumulate the global
  mean ``m1`` of the enhanced signal ``sdm``.
* Pass 2 (:func:`find_local_maxima` + :func:`select_fetal_peaks`): collect
  the local maxima of ``sdm`` that rise above ``m1``, average them into
  ``m2``, set the detection threshold at ``th = (m1 + m2) / 2``, then keep
  the maxima above ``th`` while arbitrating any pair closer than the minimum
  peak gap in favor of the larger one.

The two-pass split exists because ``m1``/``m2`` are normalized by the stream
length, which is only known once the stream ends.  Heart rate follows from
the mean gap between accepted peaks.  Scoring against fetal/maternal
annotations uses greedy one-to-one matching inside a +/-50 ms window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .numeric import RunningMean, quantized

ENHANCE_WINDOW = 40  # mean-filter length P over squared differences
MIN_PEAK_GAP_S = 0.2  # accepted peaks must be further apart than this
MATCH_WINDOW_S = 0.05  # annotation matching half-window
FHR_PLAUSIBLE_BPM = (50.0, 300.0)
CONVERGENCE_SAMPLES = 12000  # canceller weights treated as converged here


class NoEstimateError(ValueError):
    """Raised when fewer than two qualifying peaks exist."""


@dataclass
class PeakSet:
    """Ordered peak locations with optional enhanced-signal values."""

    locations: list[int] = field(default_factory=list)
    values: list[float] | None = None

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.locations, self.locations[1:])):
            raise ValueError("peak locations must be strictly increasing")
        if self.values is not None and len(self.values) != len(self.locations):
            raise ValueError("values length must match locations length")

    def __len__(self) -> int:
        return len(self.locations)

    def shifted(self, offset: int) -> "PeakSet":
        return PeakSet([p + offset for p in self.locations], self.values)


@dataclass
class FhrResult:
    fhr_bpm: float
    mean_rr_seconds: float
    rr_intervals: list[int]
    peaks_used: PeakSet
    plausible: bool

    def to_dict(self) -> dict:
        return {
            "fhr_bpm": self.fhr_bpm,
            "mean_rr_seconds": self.mean_rr_seconds,
            "rr_intervals": self.rr_intervals,
            "n_peaks_used": len(self.peaks_used),
            "plausible": self.plausible,
        }


@dataclass
class Metrics:
    true_positives: int
    false_negatives: int
    false_positives: int
    true_negatives: int
    maternal_hits: int

    @property
    def sensitivity(self) -> float:
        return 100.0 * self.true_positives / (self.true_positives + self.false_negatives)

    @property
    def specificity(self) -> float:
        denom = self.true_negatives + self.maternal_hits
        return 100.0 * self.true_negatives / denom if denom else 100.0

    @property
    def accuracy(self) -> float:
        denom = self.true_positives + self.false_negatives + self.false_positives
        return 100.0 * self.true_positives / denom

    def to_dict(self) -> dict:
        return {
            "sensitivity_pct": self.sensitivity,
            "specificity_pct": self.specificity,
            "accuracy_pct": self.accuracy,
            "true_positives": self.true_positives,
            "false_negatives": self.false_negatives,
            "false_positives": self.false_positives,
            "true_negatives": self.true_negatives,
        }


class PeakEnhancer:
    """Differentiate-square-mean peak enhancement with running ``m1``.

    ``n_total`` (the stream length) must be known up front because every
    ``sdm`` sample contributes ``sdm / n_total`` to the global mean ``m1``,
    which equals the mean of ``sdm`` once all ``n_total`` samples are in.
    """

    def __init__(self, backend, n_total: int, window: int = ENHANCE_WINDOW):
        if n_total < 1:
            raise ValueError("stream length must be positive")
        self.backend = backend
        self._mean = RunningMean(backend, window)
        self._inv_n = backend.encode(quantized(1.0 / n_total))
        self._prev = backend.zero
        self.m1 = backend.zero

    def step(self, sample):
        """Consume one sample, return the current enhanced value ``sdm``."""
        bk = self.backend
        diff = bk.sub(sample, self._prev)
        self._prev = sample
        sdm = self._mean.step(bk.mul(diff, diff))
        self.m1 = bk.add(self.m1, bk.mul(sdm, self._inv_n))
        return sdm


def enhance(backend, samples) -> tuple[list, object]:
    """Run the enhancement pass; returns the sdm sequence and final m1."""
    enh = PeakEnhancer(backend, n_total=len(samples))
    sdm = [enh.step(s) for s in samples]
    return sdm, enh.m1


def find_local_maxima(backend, sdm_seq, m1) -> tuple[PeakSet, object, bool]:
    """Collect local maxima of ``sdm`` above ``m1`` and derive the threshold.

    A maximum is the largest sample (earliest index on ties) of each
    excursion above ``m1``, emitted at the downward crossing.  Returns the
    maxima, ``th = (m1 + m2) / 2`` with ``m2`` the mean of the maxima, and a
    degenerate flag.  When no sample ever exceeds ``m1`` the result is empty
    and ``th = m1 / 2``.
    """
    bk = backend
    gt, lt = bk.gt, bk.lt
    half = bk.encode(0.5)

    locations: list[int] = []
    values = []
    in_excursion = False
    cand_val = bk.zero
    cand_loc = -1
    for idx, value in enumerate(sdm_seq):
        if not in_excursion:
            if gt(value, m1):
                in_excursion = True
                cand_val = value
                cand_loc = idx
        else:
            if lt(value, m1):
                locations.append(cand_loc)
                values.append(cand_val)
                in_excursion = False
            elif gt(value, cand_val):
                cand_val = value
                cand_loc = idx

    if not locations:
        warnings.warn("no sdm sample exceeded m1; threshold is degenerate")
        return PeakSet(), bk.mul(m1, half), True

    acc = bk.zero
    for v in values:
        acc = bk.add(acc, v)
    m2 = bk.mul(acc, bk.encode(quantized(1.0 / len(values))))
    th = bk.mul(bk.add(m1, m2), half)
    decoded = [bk.decode(v) for v in values]
    return PeakSet(locations, decoded), th, False


def select_fetal_peaks(backend, maxima: PeakSet, maxima_raw, th, min_gap: int) -> PeakSet:
    """Threshold the maxima and arbitrate near-coincident survivors.

    ``maxima_raw`` carries the backend-encoded values parallel to ``maxima``
    so threshold comparisons run on the datapath's comparator.  Survivors
    closer than ``min_gap`` samples are resolved in favor of the larger
    value; accepted locations end up pairwise more than ``min_gap`` apart.
    """
    bk = backend
    survivors = [
        (loc, raw, dec)
        for loc, raw, dec in zip(maxima.locations, maxima_raw, maxima.values or [])
        if bk.gt(raw, th)
    ]
    if not survivors:
        warnings.warn("no maxima above the detection threshold")
        return PeakSet()

    out_locs: list[int] = []
    out_vals: list[float] = []
    cand_loc, cand_raw, cand_dec = survivors[0]
    for loc, raw, dec in survivors[1:]:
        if loc - cand_loc > min_gap:
            out_locs.append(cand_loc)
            out_vals.append(cand_dec)
            cand_loc, cand_raw, cand_dec = loc, raw, dec
        elif bk.gt(raw, cand_raw):
            cand_loc, cand_raw, cand_dec = loc, raw, dec
    out_locs.append(cand_loc)
    out_vals.append(cand_dec)
    return PeakSet(out_locs, out_vals)


def min_gap_samples(fs: float) -> int:
    """Minimum accepted peak spacing, rate-relative (200 samples at 1 kHz)."""
    return round(MIN_PEAK_GAP_S * fs)


def detect_peaks(backend, fecg_samples, fs: float) -> dict:
    """Run both detection passes over an extracted-FECG sample sequence.

    Returns a dict with the sdm trace, m1/th (decoded), all local maxima,
    the accepted fetal peaks, and the degenerate flag.  Locations are
    relative to the start of ``fecg_samples``.
    """
    sdm_seq, m1 = enhance(backend, fecg_samples)
    maxima, th, degenerate = find_local_maxima(backend, sdm_seq, m1)
    maxima_raw = [sdm_seq[loc] for loc in maxima.locations]
    if degenerate or not len(maxima):
        peaks = PeakSet()
    else:
        peaks = select_fetal_peaks(backend, maxima, maxima_raw, th, min_gap_samples(fs))
    return {
        "sdm": sdm_seq,
        "m1": backend.decode(m1),
        "th": backend.decode(th),
        "maxima": maxima,
        "peaks": peaks,
        "degenerate": degenerate,
    }


def compute_fhr(
    peaks: PeakSet, fs: float, convergence_index: int = CONVERGENCE_SAMPLES
) -> FhrResult:
    """Average the RR intervals of post-convergence peaks into a BPM figure."""
    locs = [p for p in peaks.locations if p > convergence_index]
    if len(locs) < 2:
        raise NoEstimateError(
            f"need at least 2 peaks after sample {convergence_index}, found {len(locs)}"
        )
    rr = [b - a for a, b in zip(locs, locs[1:])]
    mean_rr_s = (sum(rr) / len(rr)) / fs
    fhr = 60.0 / mean_rr_s
    plausible = FHR_PLAUSIBLE_BPM[0] <= fhr <= FHR_PLAUSIBLE_BPM[1]
    if not plausible:
        warnings.warn(f"FHR estimate {fhr:.1f} bpm outside plausible range")
    vals = None
    if peaks.values is not None:
        vals = [v for p, v in zip(peaks.locations, peaks.values) if p > convergence_index]
    return FhrResult(fhr, mean_rr_s, rr, PeakSet(locs, vals), plausible)


def _greedy_match(detections: list[int], truths: list[int], window: int):
    """Greedy in-order one-to-one matching; returns (matched det idx, truth idx)."""
    matched_d: set[int] = set()
    matched_t: set[int] = set()
    i = j = 0
    while i < len(detections) and j < len(truths):
        if abs(detections[i] - truths[j]) <= window:
            matched_d.add(i)
            matched_t.add(j)
            i += 1
            j += 1
        elif detections[i] < truths[j]:
            i += 1
        else:
            j += 1
    return matched_d, matched_t


def score_detection(
    detected: PeakSet,
    truth_fetal: PeakSet,
    truth_maternal: PeakSet,
    window: int,
) -> Metrics:
    """Score detections against fetal (positive) and maternal (negative) truth.

    Detections unexplained by a fetal truth peak count as false positives;
    those that additionally land on a maternal truth peak mark that maternal
    peak as hit, lowering specificity.
    """
    if not len(truth_fetal):
        raise ValueError("fetal truth set is empty")
    dets = detected.locations
    md, mt = _greedy_match(dets, truth_fetal.locations, window)
    tp = len(mt)
    fn = len(truth_fetal) - tp
    fp_dets = [d for i, d in enumerate(dets) if i not in md]
    fp = len(fp_dets)
    _, hit_m = _greedy_match(fp_dets, truth_maternal.locations, window)
    maternal_hits = len(hit_m)
    tn = len(truth_maternal) - maternal_hits
    return Metrics(tp, fn, fp, tn, maternal_hits)


def match_window_samples(fs: float) -> int:
    return round(MATCH_WINDOW_S * fs)


def baseline_single_mean_peaks(maxima: PeakSet) -> PeakSet:
    """Single-mean comparison detector: every maximum above m1 is a peak.

    No two-mean threshold, no minimum-gap arbitration; used to contrast the
    proposed norm against a plain enhanced-signal mean threshold.
    """
    return PeakSet(list(maxima.locations), list(maxima.values) if maxima.values else None)


def detection_delay_samples(window: int = ENHANCE_WINDOW) -> int:
    """Nominal lag of sdm maxima behind the underlying R peak.

    The causal mean filter centers its response roughly half a window after
    the squared-difference lobes; useful when aligning detections with
    annotations.
    """
    return window // 2
