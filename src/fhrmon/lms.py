"""LMS adaptive noise canceller and its two datapath realizations.

One sample step of the filter, with ``m`` taps, window ``x`` (most recent
first), weights ``w``, step size ``mu`` and ``beta = 2*mu``:

    y = sum_k scale(x[k]) * w[k]          (accumulated left to right)
    e = scale_d(d) - y
    w[k] += beta * e * scale(x[k])        (k ascending)

:func:`lms_step` is the only implementation of that step: 5m + 3 backend
operations (2m adds, one subtract, 3m + 2 multiplies) in one fixed order.
The two datapath models run it unchanged and differ only in the
:class:`Schedule` their :class:`CycleStats` are accounted from:

* :class:`SeriesDatapath` — one multiply-accumulate lane reused across
  ``2m + 1`` cycles per sample (few arithmetic units, long latency).
* :class:`ParallelDatapath` — every operation of a sample issued in a
  single cycle (one-cycle latency, many concurrent units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat

import numpy as np

from .numeric import quantized

DEFAULT_ORDER = 19
DEFAULT_STEP_SIZE = 7e-5

# Published arithmetic-unit budget of the serial datapath.  Its schedule
# peaks at 5 ops in one cycle (``CycleStats.max_ops_per_cycle``), within this
# budget; the parallel datapath needs one unit per operation of the whole
# sample step (5m + 3).
SERIES_FPU_INSTANCES = 9


def parallel_fpu_instances(order: int) -> int:
    """Concurrent arithmetic units the one-cycle datapath instantiates."""
    return 5 * order + 3


@dataclass
class LmsConfig:
    order: int = DEFAULT_ORDER
    step_size: float = DEFAULT_STEP_SIZE
    input_scale: float = 1.0  # reference-channel factor
    desired_scale: float = 1.0  # primary-channel factor

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"filter order must be >= 1, got {self.order}")
        if self.step_size <= 0:
            raise ValueError(f"step size must be positive, got {self.step_size}")

    @property
    def beta(self) -> float:
        """Weight-update gain 2*mu (exact doubling in binary floating point)."""
        return 2.0 * self.step_size


@dataclass(frozen=True)
class Schedule:
    """Issue profile of one sample step, with its totals worked out once."""

    cycles: int
    ops: int
    peak: int  # most ops issued in one cycle

    @classmethod
    def from_ops_per_cycle(cls, ops_per_cycle) -> Schedule:
        return cls(len(ops_per_cycle), sum(ops_per_cycle), max(ops_per_cycle))

    @classmethod
    def series(cls, order: int) -> Schedule:
        """Cycle walk of the serial datapath for one sample (m = order):

        * cycles 1..m — scale one window tap, multiply by its weight, add into
          the running output (3 ops/cycle).
        * cycle m+1 — scale the desired sample, form the error, compute the
          update gain ``beta*e`` and the first new weight (5 ops).
        * cycles m+2..2m — one multiply-add per remaining weight (2 ops/cycle).
        * cycle 2m+1 — store the last weight; the new input enters the window
          (no arithmetic).
        """
        return cls.from_ops_per_cycle([3] * order + [5] + [2] * (order - 1) + [0])

    @classmethod
    def parallel(cls, order: int) -> Schedule:
        """Every operation of the sample step in a single cycle."""
        return cls.from_ops_per_cycle([parallel_fpu_instances(order)])


@dataclass
class CycleStats:
    cycles_per_sample: int
    fpu_instances: int
    total_cycles: int = 0
    fpu_ops_issued: int = 0
    samples_processed: int = 0
    max_ops_per_cycle: int = 0

    def tally(self, schedule: Schedule) -> None:
        """Add one sample step run on ``schedule``."""
        self.total_cycles += schedule.cycles
        self.fpu_ops_issued += schedule.ops
        self.samples_processed += 1
        if schedule.peak > self.max_ops_per_cycle:
            self.max_ops_per_cycle = schedule.peak

    def to_dict(self) -> dict:
        return {
            "cycles_per_sample": self.cycles_per_sample,
            "total_cycles": self.total_cycles,
            "fpu_instances": self.fpu_instances,
            "fpu_ops_issued": self.fpu_ops_issued,
            "samples_processed": self.samples_processed,
            "max_ops_per_cycle": self.max_ops_per_cycle,
        }


class LmsState:
    """Tap window and weight vector, plus the encoded constants."""

    def __init__(self, cfg: LmsConfig, backend):
        self.cfg = cfg
        self.backend = backend
        self.input_scale = backend.encode(quantized(cfg.input_scale))
        self.desired_scale = backend.encode(quantized(cfg.desired_scale))
        self.beta = backend.encode(quantized(cfg.beta))
        self.window = [backend.zero] * cfg.order
        self.weights = [backend.zero] * cfg.order


def scale(backend, sample, factor):
    """Channel scaling: one multiply on the datapath."""
    return backend.mul(sample, factor)


def lms_step(state: LmsState, x_new, d_new):
    """One-sample update; returns ``(e, y)`` in backend encoding.

    Every tap is scaled afresh each sample (m multiplies) rather than once on
    entry, so the step issues exactly the 5m + 3 ops both schedules account
    for.  The backend's methods are looked up on every call, so wrappers
    installed on the backend instance see each op.
    """
    bk = state.backend
    mul, add = bk.mul, bk.add
    window = state.window = [x_new] + state.window[:-1]
    sx = list(map(mul, window, repeat(state.input_scale)))
    y = reduce(add, map(mul, sx, state.weights), bk.zero)
    e = bk.sub(mul(d_new, state.desired_scale), y)
    be = mul(state.beta, e)
    state.weights = list(map(add, state.weights, map(mul, repeat(be), sx)))
    return e, y


class _Datapath:
    """A hardware schedule around the shared :func:`lms_step`."""

    def __init__(self, cfg: LmsConfig, backend, schedule: Schedule, fpu_instances: int):
        self.state = LmsState(cfg, backend)
        self.schedule = schedule
        self.stats = CycleStats(cycles_per_sample=schedule.cycles, fpu_instances=fpu_instances)

    def step(self, x_new, d_new):
        e, _ = lms_step(self.state, x_new, d_new)
        self.stats.tally(self.schedule)
        return e, self.stats


class SeriesDatapath(_Datapath):
    """Serial schedule: 2m + 1 cycles per sample, one MAC lane."""

    def __init__(self, cfg: LmsConfig, backend):
        super().__init__(cfg, backend, Schedule.series(cfg.order), SERIES_FPU_INSTANCES)


class ParallelDatapath(_Datapath):
    """Fully unrolled schedule: every operation of a sample in one cycle."""

    def __init__(self, cfg: LmsConfig, backend):
        super().__init__(
            cfg, backend, Schedule.parallel(cfg.order), parallel_fpu_instances(cfg.order)
        )


def make_datapath(arch: str, cfg: LmsConfig, backend):
    if arch == "series":
        return SeriesDatapath(cfg, backend)
    if arch == "parallel":
        return ParallelDatapath(cfg, backend)
    raise ValueError(f"unknown architecture: {arch!r}")


def choose_scale_factor(samples: np.ndarray, target: float = 16.0) -> float:
    """Power-of-two factor bringing the 99th-percentile magnitude near target.

    Powers of two keep the scaling multiplication lossless in binary floating
    point.  ``target`` trades adaptation speed against headroom: the default
    puts QRS deflections around +/-10, fast enough for the fixed step size to
    settle within the convergence budget while staying far from saturation.
    """
    mags = np.abs(np.asarray(samples, dtype=float))
    p99 = float(np.percentile(mags, 99.0)) if len(mags) else 0.0
    if p99 <= 0.0:
        return 1.0
    return 2.0 ** round(math.log2(target / p99))


def run_canceller(datapath, x_samples, d_samples):
    """Drive a datapath over full channels; returns (e_words, first_flag_index).

    ``x_samples``/``d_samples`` are backend-encoded sequences.
    ``first_flag_index`` is the first sample whose step raised a
    saturation/flush flag, or None.  The backend's flag totals at entry are
    the reference, so flags raised by earlier stages sharing the backend are
    not blamed on the canceller.
    """
    flags = datapath.state.backend.flags
    entry_total = flags.overflow + flags.underflow
    first_flag = None
    errors = []
    step = datapath.step
    for i, (x, d) in enumerate(zip(x_samples, d_samples)):
        e, _ = step(x, d)
        errors.append(e)
        if first_flag is None and flags.overflow + flags.underflow > entry_total:
            first_flag = i
    return errors, first_flag
