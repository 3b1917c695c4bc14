"""An independent reference for the whole pipeline, written on fpu ops alone.

Each stage is its textbook one-sample-at-a-time loop, in the op order the
package documents, over an :class:`Arithmetic`: a table of ops with one
:class:`~fhrmon.fpu.FpuFlags` and an op count by kind.  On ``"soft"`` the
table is ``fpu_add``/``fpu_sub``/``fpu_mul``/``fpu_cmp`` on 32-bit words; on
``"float64"`` it is Python's float operators on floats.  Nothing here uses a
backend, a rounding scope or numpy arithmetic, so a fault in the package's
word adapters, value ops, casts or block kernels cannot pass in both.

From the package it takes only :mod:`fhrmon.fpu` and module-level constants.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import partial

from fhrmon import fpu
from fhrmon.fhr import ENHANCE_WINDOW, MIN_PEAK_GAP_S
from fhrmon.preprocess import (
    BASELINE_WINDOW,
    LOWPASS_INPUT_COEFFS,
    LOWPASS_OUTPUT_COEFFS,
    NOTCH_INPUT_COEFFS,
    NOTCH_OUTPUT_COEFFS,
)

OP_KINDS = ("add", "sub", "mul", "gt", "lt")  # the keys of a backend's op meter
WARMUP = 2 * BASELINE_WINDOW  # leading preprocessed samples the scale factors skip

FLOAT_TABLE = dict(
    zip(OP_KINDS, (operator.add, operator.sub, operator.mul, operator.gt, operator.lt))
)


def soft_table(flags: fpu.FpuFlags, cmp_mode: str = "corrected") -> dict:
    """The fpu's ops on words, raising ``flags``; the comparisons give bools."""
    return {
        "add": partial(fpu.fpu_add, flags=flags),
        "sub": partial(fpu.fpu_sub, flags=flags),
        "mul": partial(fpu.fpu_mul, flags=flags),
        "gt": lambda a, b: fpu.fpu_cmp(a, b, cmp_mode) is fpu.CmpCode.GREATER,
        "lt": lambda a, b: fpu.fpu_cmp(a, b, cmp_mode) is fpu.CmpCode.LESS,
    }


def _counted(ops: dict, kind: str, op):
    def counted(a, b):
        ops[kind] += 1
        return op(a, b)

    return counted


class Arithmetic:
    """One datapath's ops, flags and op count; ``add(a, b)`` and so on.

    Numbers are words on ``"soft"`` and floats on ``"float64"``.
    """

    def __init__(self, kind: str = "soft", cmp_mode: str = "corrected"):
        self.soft = kind == "soft"
        self.flags = fpu.FpuFlags()
        self.ops = dict.fromkeys(OP_KINDS, 0)
        table = soft_table(self.flags, cmp_mode) if self.soft else FLOAT_TABLE
        for name, op in table.items():
            setattr(self, name, _counted(self.ops, name, op))
        self.zero = fpu.ZERO_POS if self.soft else 0.0

    def constant(self, value: float):
        """A constant quantized to float32 (round to nearest), as the stages hold it."""
        word = fpu.encode(value)
        return word if self.soft else fpu.decode(word)

    def sample(self, value: float):
        """A raw sample as the pipeline ingests it: rounded to float32 on soft only."""
        return fpu.encode(value) if self.soft else float(value)

    def value(self, number) -> float:
        return fpu.decode(number) if self.soft else number

    def flag_total(self) -> int:
        return self.flags.overflow + self.flags.underflow


# -- preprocessing --------------------------------------------------------------


class Iir:
    """``out[k] = b0*in[k] + sum b_j*in[k-j] + sum a_j*out[k-j]``, added in that order."""

    def __init__(self, ar: Arithmetic, input_coeffs, output_coeffs):
        self.ar = ar
        self.input_coeffs = [ar.constant(c) for c in input_coeffs]
        self.output_coeffs = [ar.constant(c) for c in output_coeffs]
        # newest first
        self.input_history = [ar.zero] * (len(input_coeffs) - 1)
        self.output_history = [ar.zero] * len(output_coeffs)

    def step(self, x):
        add, mul = self.ar.add, self.ar.mul
        acc = mul(self.input_coeffs[0], x)
        for coeff, past in zip(self.input_coeffs[1:], self.input_history):
            acc = add(acc, mul(coeff, past))
        for coeff, past in zip(self.output_coeffs, self.output_history):
            acc = add(acc, mul(coeff, past))
        if self.input_history:
            self.input_history = [x] + self.input_history[:-1]
        self.output_history = [acc] + self.output_history[:-1]
        return acc


def lowpass(ar: Arithmetic) -> Iir:
    return Iir(ar, LOWPASS_INPUT_COEFFS, LOWPASS_OUTPUT_COEFFS)


def notch(ar: Arithmetic) -> Iir:
    return Iir(ar, NOTCH_INPUT_COEFFS, NOTCH_OUTPUT_COEFFS)


class Mean:
    """Running mean of ``window`` samples: each pre-scaled by 1/window into a ring."""

    def __init__(self, ar: Arithmetic, window: int):
        self.ar = ar
        self.inv = ar.constant(1.0 / window)
        self.ring = deque([ar.zero] * window, maxlen=window)
        self.mean = ar.zero

    def step(self, x):
        ar = self.ar
        scaled = ar.mul(x, self.inv)
        self.mean = ar.sub(ar.add(self.mean, scaled), self.ring[0])
        self.ring.append(scaled)
        return self.mean


class Baseline:
    """Two chained running means of ``BASELINE_WINDOW``; ``(baseline, x - baseline)``."""

    def __init__(self, ar: Arithmetic):
        self.ar = ar
        self.mean1 = Mean(ar, BASELINE_WINDOW)
        self.mean2 = Mean(ar, BASELINE_WINDOW)

    def step(self, x):
        baseline = self.mean2.step(self.mean1.step(x))
        return baseline, self.ar.sub(x, baseline)


class Chain:
    """Low-pass, notch, baseline removal."""

    def __init__(self, ar: Arithmetic):
        self.lowpass, self.notch, self.baseline = lowpass(ar), notch(ar), Baseline(ar)

    def step(self, x):
        return self.baseline.step(self.notch.step(self.lowpass.step(x)))[1]


def preprocess(ar: Arithmetic, samples) -> list:
    """A raw channel through a fresh :class:`Chain`."""
    chain = Chain(ar)
    return [chain.step(ar.sample(v)) for v in samples]


# -- adaptive canceller ---------------------------------------------------------


class Lms:
    """The LMS sample step, scaling every tap of the window afresh (5m + 3 ops).

    ``cfg`` has ``order``, ``step_size``, ``input_scale`` and ``desired_scale``,
    as an ``LmsConfig`` does.
    """

    def __init__(self, ar: Arithmetic, cfg):
        self.ar = ar
        self.input_scale = ar.constant(cfg.input_scale)
        self.desired_scale = ar.constant(cfg.desired_scale)
        self.beta = ar.constant(2.0 * cfg.step_size)
        self.window = [ar.zero] * cfg.order  # most recent first
        self.weights = [ar.zero] * cfg.order

    def step(self, x, d):
        """Returns ``(e, y)``."""
        ar = self.ar
        add, mul = ar.add, ar.mul
        self.window = [x] + self.window[:-1]
        sx = [mul(tap, self.input_scale) for tap in self.window]
        y = ar.zero
        for s, w in zip(sx, self.weights):
            y = add(y, mul(s, w))
        e = ar.sub(mul(d, self.desired_scale), y)
        be = mul(self.beta, e)
        self.weights = [add(w, mul(be, s)) for w, s in zip(self.weights, sx)]
        return e, y


def cancel(lms: Lms, xs, ds):
    """Errors over whole channels, and the first sample whose step raised a flag.

    Flags raised before the call are not counted against the canceller.
    """
    ar = lms.ar
    entry = ar.flag_total()
    errors, first_flag = [], None
    for i, (x, d) in enumerate(zip(xs, ds)):
        errors.append(lms.step(x, d)[0])
        if first_flag is None and ar.flag_total() > entry:
            first_flag = i
    return errors, first_flag


# -- detection ------------------------------------------------------------------


def enhance(ar: Arithmetic, samples, window: int = ENHANCE_WINDOW):
    """Differentiate, square, running mean; returns ``(sdm, m1)``, m1 the mean of sdm."""
    inv_n = ar.constant(1.0 / len(samples))
    mean = Mean(ar, window)
    prev = m1 = ar.zero
    sdm = []
    for x in samples:
        diff = ar.sub(x, prev)
        prev = x
        v = mean.step(ar.mul(diff, diff))
        m1 = ar.add(m1, ar.mul(v, inv_n))
        sdm.append(v)
    return sdm, m1


def local_maxima(ar: Arithmetic, sdm, m1):
    """The largest sample (earliest on ties) of each excursion above m1, ended by
    a sample below it, and ``th = (m1 + m2) / 2`` with m2 their mean (m1 / 2 if none)."""
    half = ar.constant(0.5)
    locations = []
    above, best = False, -1
    for i, v in enumerate(sdm):
        if not above:
            if ar.gt(v, m1):
                above, best = True, i
        elif ar.lt(v, m1):
            locations.append(best)
            above = False
        elif ar.gt(v, sdm[best]):
            best = i
    if not locations:
        return locations, ar.mul(m1, half)
    inv_count = ar.constant(1.0 / len(locations))
    total = ar.zero
    for i in locations:
        total = ar.add(total, sdm[i])
    return locations, ar.mul(ar.add(m1, ar.mul(total, inv_count)), half)


def select_peaks(ar: Arithmetic, sdm, maxima, th, min_gap: int) -> list:
    """The maxima above th; of two closer than ``min_gap``, the larger (the earlier on ties)."""
    peaks = []
    for i in (i for i in maxima if ar.gt(sdm[i], th)):
        if peaks and i - peaks[-1] <= min_gap:
            if ar.gt(sdm[i], sdm[peaks[-1]]):
                peaks[-1] = i
        else:
            peaks.append(i)
    return peaks


def detect(ar: Arithmetic, errors, fs: float) -> dict:
    """Both detection passes; the words of sdm, m1 and th, the maxima and the peaks."""
    sdm, m1 = enhance(ar, errors)
    maxima, th = local_maxima(ar, sdm, m1)
    peaks = select_peaks(ar, sdm, maxima, th, round(MIN_PEAK_GAP_S * fs))
    return {"sdm": sdm, "m1": m1, "th": th, "maxima": maxima, "peaks": peaks}
