"""LMS adaptive noise canceller and its two datapath realizations.

One sample step of the filter, with ``m`` taps, window ``x`` (most recent
first), weights ``w``, step size ``mu`` and ``beta = 2*mu``:

    y = sum_k scale(x[k]) * w[k]          (accumulated left to right)
    e = scale_d(d) - y
    w[k] += beta * e * scale(x[k])        (k ascending)

The modelled datapath issues 5m + 3 ops per sample (2m adds, one subtract,
3m + 2 multiplies), scaling every tap of the window afresh.
:meth:`LmsState.update` is the only implementation of that step.  It scales
each sample once, as it enters the window, and reuses the scaled tap while
it stays there: a multiply is a pure function of its operands, so the values
are the ones a fresh scaling gives, and the flags a scaling raised are
counted again on every later sample its tap is reused.  It makes 4m + 4
value-op calls, and its meter and cycle counts still read the 5m + 3 ops the
datapath issues.
:func:`lms_step` runs it on one pair of backend-encoded samples.
:func:`run_canceller` runs whole channels, converting them between words and
values once, through a block kernel: each sample's taps as numpy vectors (the
software form of the parallel datapath), on the soft backend in float32
under round-toward-zero, which is the fpu's truncation while every result
stays in the normal range.  A block whose results leave that range is rerun
by :meth:`LmsState.update`, so flags and words still come from the exact
path.  The two datapath models run the same step and differ only in the
:class:`Schedule` their :class:`CycleStats` are accounted from:

* :class:`SeriesDatapath` — one multiply-accumulate lane reused across
  ``2m + 1`` cycles per sample (few arithmetic units, long latency).
* :class:`ParallelDatapath` — every operation of a sample issued in a
  single cycle (one-cycle latency, many concurrent units).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import islice, repeat

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
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.step_size}")

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

    def tally(self, schedule: Schedule, samples: int = 1) -> None:
        """Add ``samples`` sample steps run on ``schedule``."""
        self.total_cycles += schedule.cycles * samples
        self.fpu_ops_issued += schedule.ops * samples
        self.samples_processed += samples
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
    """Tap window and weight vector, held as values, plus the constants.

    ``window`` and ``weights`` read as backend-encoded lists.  Beside the raw
    window, ``scaled_values`` holds each tap times ``input_scale``.
    """

    def __init__(self, cfg: LmsConfig, backend):
        self.backend = backend
        self.input_scale = quantized(cfg.input_scale)
        self.desired_scale = quantized(cfg.desired_scale)
        self.beta = quantized(cfg.beta)
        m = cfg.order
        self.window_values = deque([0.0] * m, maxlen=m)
        self.scaled_values = deque([backend.vmul(0.0, self.input_scale)] * m, maxlen=m)
        self.weight_values = [0.0] * m
        # [overflow, underflow, samples left] for each scaled tap whose scaling
        # raised flags and that later samples still reuse (m - 1 of them).
        self._replay = []
        self._reuses = m - 1
        self.ops_per_step = {"add": 2 * m, "sub": 1, "mul": 3 * m + 2}

    @property
    def window(self) -> list:
        return list(map(self.backend.encode, self.window_values))

    @property
    def weights(self) -> list:
        return list(map(self.backend.encode, self.weight_values))

    def update(self, x: float, d: float) -> tuple[float, float]:
        """One-sample update on values; returns ``(e, y)``.

        Only the entering sample is scaled; the other m - 1 taps reuse their
        scaled values, and any flags their scaling raised are counted again,
        so flag totals after every sample equal those of a step that scales
        every tap afresh.  The caller meters the 5m + 3 ops that step issues
        (``ops_per_step``), reused scalings included.
        """
        bk = self.backend
        mul, add = bk.vmul, bk.vadd
        flags = bk.flags
        if self._replay:
            self._replay_flags()
        overflow, underflow = flags.overflow, flags.underflow
        self.window_values.appendleft(x)
        sx = self.scaled_values
        sx.appendleft(mul(x, self.input_scale))
        if (flags.overflow != overflow or flags.underflow != underflow) and self._reuses:
            self._replay.append([flags.overflow - overflow, flags.underflow - underflow, self._reuses])
        y = reduce(add, map(mul, sx, self.weight_values), 0.0)
        e = bk.vsub(mul(d, self.desired_scale), y)
        be = mul(self.beta, e)
        self.weight_values = list(map(add, self.weight_values, map(mul, repeat(be), sx)))
        return e, y

    def _replay_flags(self) -> None:
        """Count the flags of each reused flagged tap's scaling once more."""
        flags = self.backend.flags
        for tap in self._replay:
            flags.overflow += tap[0]
            flags.underflow += tap[1]
            tap[2] -= 1
        self._replay = [tap for tap in self._replay if tap[2]]


def scale(backend, sample, factor):
    """Channel scaling: one multiply on the datapath."""
    return backend.mul(sample, factor)


def lms_step(state: LmsState, x_new, d_new):
    """One-sample update on backend-encoded samples; returns ``(e, y)`` encoded."""
    bk = state.backend
    e, y = state.update(bk.decode(x_new), bk.decode(d_new))
    bk.ops.tally(1, **state.ops_per_step)
    return bk.encode(e), bk.encode(y)


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

    ``x_samples``/``d_samples`` are backend-encoded sequences, converted to
    values once; the errors are converted back to words once.
    ``first_flag_index`` is the first sample whose step raised a
    saturation/flush flag, or None.  The backend's flag totals at entry are
    the reference, so flags raised by earlier stages sharing the backend are
    not blamed on the canceller.
    """
    state = datapath.state
    bk = state.backend
    # The value streams and the kernel's buffers are freed before the words
    # are built, so the two never add up in peak memory.
    errors, first_flag = _run_blocks(state, bk.to_values(x_samples), bk.to_values(d_samples))
    words = bk.to_words(errors)
    bk.ops.tally(len(errors), **state.ops_per_step)
    datapath.stats.tally(datapath.schedule, len(errors))
    return words, first_flag


def _run_blocks(state: LmsState, x_values: np.ndarray, d_values: np.ndarray):
    """Error values and the first flagged sample, ``BLOCK`` samples at a time.

    Each block runs through :class:`_BlockKernel`.  A block it rejects, and
    a block that starts while a flagged scaling is still being reused, runs
    through :meth:`LmsState.update` from the same state instead, so every
    flag is raised on the exact path.
    """
    flags = state.backend.flags
    entry_total = flags.overflow + flags.underflow
    first_flag = None
    n = min(len(x_values), len(d_values))
    errors = np.empty(n)
    kernel = _BlockKernel(state)
    with np.errstate(all="ignore"):
        for start in range(0, n, BLOCK):
            x, d = x_values[start : start + BLOCK], d_values[start : start + BLOCK]
            out = errors[start : start + BLOCK]
            if not state._replay and kernel.run(x, d, out):
                continue
            for i, xi, di in zip(range(len(out)), x.tolist(), d.tolist()):
                out[i] = state.update(xi, di)[0]
                if first_flag is None and flags.overflow + flags.underflow > entry_total:
                    first_flag = start + i
    return errors, first_flag


BLOCK = 512  # samples per block of the vector kernel


class _BlockKernel:
    """:meth:`LmsState.update` over a block of samples as numpy vector ops.

    Each sample's taps run as whole vectors in the backend's
    ``block_dtype``, in the step's op order: products, their sum
    accumulated from +0 in tap order, the error, ``beta*e``, the update
    terms and the new weights.  Every intermediate is kept, one row per
    sample, so that on a backend with a ``block_range`` one bulk check can
    rebuild the exact result of each op and reject the block if any lies
    outside it.  A block is committed to the state only if it is accepted.
    """

    def __init__(self, state: LmsState):
        self.state = state
        bk = state.backend
        dt = bk.block_dtype
        self.order = m = len(state.weight_values)
        self.input_scale, self.desired_scale, self.beta = (
            dt(state.input_scale), dt(state.desired_scale), dt(state.beta)
        )
        # Scaled taps, newest first: the block's samples, then the m - 1 it
        # inherits.  Row j of ``windows`` is taps[j : j + m].
        self.taps = np.zeros(BLOCK + m - 1, dt)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.taps, m)
        self.products = np.zeros((BLOCK, m + 1), dt)  # column 0 stays +0: the sum's start
        self.sums = np.empty((BLOCK, m + 1), dt)
        self.terms = np.empty((BLOCK, m), dt)
        self.weights = np.empty((BLOCK + 1, m), dt)  # row i: the weights sample i reads

    def run(self, x: np.ndarray, d: np.ndarray, out: np.ndarray) -> bool:
        """Run a block of values; on success write its errors to ``out``."""
        bk = self.state.backend
        with bk.rounding_scope() as available:
            if not available:
                return False
            sd, e, be = self.compute(x, d)
        if bk.block_range is not None and not self.in_range(x, d, sd, e, be, *bk.block_range):
            return False
        self.commit(x, len(d))
        out[:] = e
        return True

    def compute(self, x, d):
        """The block's arithmetic; returns the scaled desired samples, errors and gains."""
        st, n, m = self.state, len(d), self.order
        dt = self.taps.dtype
        multiply, add, accumulate = np.multiply, np.add, np.add.accumulate
        self.taps[n : n + m - 1] = list(islice(st.scaled_values, m - 1))
        multiply(x[::-1].astype(dt), self.input_scale, out=self.taps[:n])
        sd = multiply(d.astype(dt), self.desired_scale)
        self.weights[0] = st.weight_values
        beta = self.beta
        # sample i of a block of n reads window n - 1 - i
        for win, w, w_next, p, p_taps, s, u, sd_i in zip(
            self.windows[n - 1 :: -1], self.weights, self.weights[1:], self.products,
            self.products[:, 1:], self.sums, self.terms, sd,
        ):
            multiply(win, w, p_taps)
            accumulate(p, out=s)
            multiply(beta * (sd_i - s[m]), win, u)
            add(w, u, w_next)
        e = sd - self.sums[:n, m]
        return sd, e, beta * e

    def in_range(self, x, d, sd, e, be, lo, hi) -> bool:
        """Whether each op's exact result is zero or has a magnitude in [lo, hi).

        Each op is redone in float64.  Products of two float32 values are
        exact there; a float64 sum of two is exact below 2^-125 and rounds
        monotonically, so it leaves [lo, hi) exactly when the exact sum does.
        """
        n, m = len(d), self.order
        wins, weights, sums = self.windows[n - 1 :: -1], self.weights[:n], self.sums[:n]
        ops = (
            (np.multiply, x, self.input_scale),
            (np.multiply, d, self.desired_scale),
            (np.multiply, wins, weights),
            (np.add, sums[:, :-1], self.products[:n, 1:]),
            (np.subtract, sd, sums[:, m]),
            (np.multiply, self.beta, e),
            (np.multiply, be[:, None], wins),
            (np.add, weights, self.terms[:n]),
        )
        for op, a, b in ops:
            mag = np.abs(op(a, b, dtype=np.float64))
            if not (((mag >= lo) & (mag < hi)) | (mag == 0.0)).all():
                return False
        return True

    def commit(self, x, n: int) -> None:
        """Leave the state as :meth:`LmsState.update` would after the block."""
        st = self.state
        st.window_values.extendleft(x.tolist())
        st.scaled_values.extendleft(self.taps[n - 1 :: -1].tolist())
        st.weight_values = self.weights[n].tolist()
