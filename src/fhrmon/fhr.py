"""Fetal R-peak detection and heart-rate computation.

The detector runs in two passes over an extracted-FECG stream:

* Pass 1 (:func:`enhance`, after Pan & Tompkins): differentiate, square,
  slide a mean filter of length ``P`` over the squared differences, and
  accumulate the global mean ``m1`` of the enhanced signal ``sdm``.
* Pass 2 (:func:`find_local_maxima` + :func:`select_fetal_peaks`): collect
  the local maxima of ``sdm`` that rise above ``m1``, average them into
  ``m2``, set the detection threshold at ``th = (m1 + m2) / 2``, then keep
  the maxima above ``th`` while arbitrating any pair closer than the minimum
  peak gap in favor of the larger one.

The two-pass split exists because ``m1``/``m2`` are normalized by the stream
length, which is only known once the stream ends.  Pass 1 runs on values
(bulk ops, and one sum chain for ``m1``) but for its window total, which like
pass 2 runs on the backend's word methods (see :mod:`fhrmon.numeric`).  Heart
rate follows from the mean gap between accepted peaks, an interval that spans
missed beats counted as that many beats.  Scoring against fetal/maternal
annotations uses greedy one-to-one matching inside a +/-50 ms window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .numeric import quantized

ENHANCE_WINDOW = 40  # mean-filter length P over squared differences
MIN_PEAK_GAP_S = 0.2  # accepted peaks must be further apart than this
MATCH_WINDOW_S = 0.05  # annotation matching half-window
FHR_PLAUSIBLE_BPM = (50.0, 300.0)
CONVERGENCE_SAMPLES = 12000  # canceller weights treated as converged here


class NoEstimateError(ValueError):
    """Raised when fewer than two qualifying peaks exist."""


@dataclass
class PeakSet:
    """Ordered peak locations."""

    locations: list[int] = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.locations, self.locations[1:])):
            raise ValueError("peak locations must be strictly increasing")

    def __len__(self) -> int:
        return len(self.locations)

    def shifted(self, offset: int) -> "PeakSet":
        return PeakSet([p + offset for p in self.locations])


@dataclass
class FhrResult:
    fhr_bpm: float
    mean_rr_seconds: float
    rr_intervals: list[int]
    peaks_used: PeakSet
    plausible: bool
    inferred_beats: int = 0  # beats counted inside intervals that span missed ones

    def to_dict(self) -> dict:
        return {
            "fhr_bpm": self.fhr_bpm,
            "mean_rr_seconds": self.mean_rr_seconds,
            "rr_intervals": self.rr_intervals,
            "n_peaks_used": len(self.peaks_used),
            "plausible": self.plausible,
            "inferred_beats": self.inferred_beats,
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


def enhance(backend, samples) -> tuple[list, object]:
    """Differentiate, square and mean-filter a stream; returns ``sdm`` and ``m1``.

    The differences (from +0 before the first sample), their squares and
    the 1/P scaling are bulk ops.  Each scaled square enters a zero-filled
    ring of P, and ``sdm`` is their running total on the word methods,
    written over the scaled words.  ``m1`` is the last sum of one chain
    adding every ``sdm / n``: the mean of ``sdm`` once all ``n`` are in.
    """
    if not len(samples):
        raise ValueError("enhancement needs a non-empty stream")
    bk = backend
    x = bk.to_values([bk.zero, *samples])
    x = bk.bulk_sub(x[1:], x[:-1])  # the differences, freeing the stream's values
    sdm = bk.to_words(bk.bulk_mul(bk.bulk_mul(x, x), quantized(1.0 / ENHANCE_WINDOW)))
    del x  # no float array lives through the word loop
    add, sub = bk.add, bk.sub
    ring = deque([bk.zero] * ENHANCE_WINDOW, maxlen=ENHANCE_WINDOW)
    total = bk.zero
    with bk.rounding_scope():
        for k, scaled in enumerate(sdm):
            total = sdm[k] = sub(add(total, scaled), ring[0])
            ring.append(scaled)  # full ring: drops ring[0]
    bk.ops.tally(len(sdm), add=1)  # the m1 chain's sums
    m1 = bk.sum_chain(0.0, bk.bulk_mul(bk.to_values(sdm), quantized(1.0 / len(sdm))))[-1]
    return sdm, bk.encode(float(m1))


def find_local_maxima(backend, sdm_seq, m1) -> tuple[PeakSet, object]:
    """Collect local maxima of ``sdm`` above ``m1`` and derive the threshold.

    A maximum is the largest sample (earliest index on ties) of each
    excursion above ``m1``, emitted at the downward crossing.  Returns the
    maxima and ``th = (m1 + m2) / 2`` with ``m2`` the mean of the maxima.
    When no sample ever exceeds ``m1`` the result is empty and ``th = m1 / 2``.
    """
    bk = backend
    gt, lt = bk.gt, bk.lt
    half = bk.encode(0.5)

    locations: list[int] = []
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
                in_excursion = False
            elif gt(value, cand_val):
                cand_val = value
                cand_loc = idx

    if not locations:
        return PeakSet(), bk.mul(m1, half)

    with bk.rounding_scope():
        inv_count = bk.encode(quantized(1.0 / len(locations)))
        acc = bk.zero
        for loc in locations:
            acc = bk.add(acc, sdm_seq[loc])
        m2 = bk.mul(acc, inv_count)
        th = bk.mul(bk.add(m1, m2), half)
    return PeakSet(locations), th


def select_fetal_peaks(backend, sdm_seq, maxima: PeakSet, th, min_gap: int) -> PeakSet:
    """Threshold the maxima and arbitrate near-coincident survivors.

    Threshold and arbitration comparisons run on the datapath's comparator,
    over the ``sdm_seq`` words at the maxima.  Survivors closer than
    ``min_gap`` samples are resolved in favor of the larger value; accepted
    locations end up pairwise more than ``min_gap`` apart.
    """
    bk = backend
    survivors = [loc for loc in maxima.locations if bk.gt(sdm_seq[loc], th)]
    # Empty only under a caller's own th: detect_peaks' th = (m1 + m2) / 2 sits
    # below the largest maximum, which therefore always survives.
    if not survivors:
        return PeakSet()

    out: list[int] = []
    cand = survivors[0]
    for loc in survivors[1:]:
        if loc - cand > min_gap:
            out.append(cand)
            cand = loc
        elif bk.gt(sdm_seq[loc], sdm_seq[cand]):
            cand = loc
    out.append(cand)
    return PeakSet(out)


def min_gap_samples(fs: float) -> int:
    """Minimum accepted peak spacing, rate-relative (200 samples at 1 kHz)."""
    return round(MIN_PEAK_GAP_S * fs)


def detect_peaks(backend, fecg_samples, fs: float) -> dict:
    """Run both detection passes over an extracted-FECG sample sequence.

    Returns a dict with the sdm trace, m1/th (decoded), all local maxima,
    the accepted fetal peaks, and whether no maximum rose above m1.
    Locations are relative to the start of ``fecg_samples``.
    """
    sdm_seq, m1 = enhance(backend, fecg_samples)
    maxima, th = find_local_maxima(backend, sdm_seq, m1)
    return {
        "sdm": sdm_seq,
        "m1": backend.decode(m1),
        "th": backend.decode(th),
        "maxima": maxima,
        "peaks": select_fetal_peaks(backend, sdm_seq, maxima, th, min_gap_samples(fs)),
        "degenerate": not maxima,
    }


def compute_fhr(
    peaks: PeakSet, fs: float, convergence_index: int = CONVERGENCE_SAMPLES
) -> FhrResult:
    """Average the RR intervals of post-convergence peaks into a BPM figure.

    An interval counts as ``k = max(1, round(RR / median RR))`` beats, so one
    that spans a missed beat does not lower the rate: the mean RR is
    ``sum(RR) / sum(k)``, and ``inferred_beats`` is ``sum(k)`` less the intervals.
    """
    locs = [p for p in peaks.locations if p > convergence_index]
    if len(locs) < 2:
        raise NoEstimateError(
            f"need at least 2 peaks after sample {convergence_index}, found {len(locs)}"
        )
    rr = [b - a for a, b in zip(locs, locs[1:])]
    ordered, mid = sorted(rr), len(rr) // 2
    median = ordered[mid] if len(rr) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    beats = sum(max(1, round(r / median)) for r in rr)
    mean_rr_s = (sum(rr) / beats) / fs
    fhr = 60.0 / mean_rr_s
    plausible = FHR_PLAUSIBLE_BPM[0] <= fhr <= FHR_PLAUSIBLE_BPM[1]
    return FhrResult(fhr, mean_rr_s, rr, PeakSet(locs), plausible, beats - len(rr))


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
