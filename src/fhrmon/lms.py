"""LMS adaptive noise canceller and its two datapath realizations.

One sample step of the filter, with ``m`` taps, window ``x`` (most recent
first), weights ``w``, step size ``mu``, ``beta = 2*mu`` and the channel
factors ``s_x`` and ``s_d``:

    y = sum_k (x[k] * s_x) * w[k]         (accumulated left to right)
    e = d * s_d - y
    w[k] += beta * e * (x[k] * s_x)       (k ascending)

The modelled datapath issues 5m + 3 ops per sample (2m adds, one subtract,
3m + 2 multiplies), scaling every tap of the window afresh: :func:`step_ops`.
:meth:`LmsState.update` is that step on values, op for op, and the exact
path the block kernel falls back to; its caller opens the rounding scope
around the loop of steps, as for every other exact loop.
:func:`run_canceller` runs whole channels of values through a block kernel:
each sample's taps as numpy vectors (the software form of the parallel
datapath), on the soft backend in float32 under round-toward-zero, which is
the fpu's truncation while every result stays in the normal range.  Each
block goes through :meth:`~fhrmon.numeric._Backend.checked`, whose exact
path declines: a block whose results leave that range, the scalings of the
taps it inherits included, is rerun by :meth:`LmsState.update`, so flags and
words still come from the exact path.
The two datapath models run the same step and differ only in the
:class:`Schedule`, an assignment of those ops to cycles, that their
:class:`CycleStats` are accounted from:

* :class:`SeriesDatapath` — one multiply-accumulate lane reused across
  ``2m + 1`` cycles per sample (few arithmetic units, long latency).
* :class:`ParallelDatapath` — every operation of a sample issued in a
  single cycle (one-cycle latency, many concurrent units).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from dataclasses import asdict, dataclass
from functools import partial, reduce
from itertools import accumulate, islice, repeat

import numpy as np

from .numeric import quantized

DEFAULT_ORDER = 19
DEFAULT_STEP_SIZE = 7e-5

# Published arithmetic-unit budget of the serial datapath, whose schedule peaks at 5.
SERIES_FPU_INSTANCES = 9


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


def step_ops(order: int) -> list[tuple]:
    """The 5m + 3 ops of one sample step as ``(kind, result, operands)``, in
    :meth:`LmsState.update`'s order.  Operands no op makes are the step's inputs.
    """
    ops = []
    for k in range(order):
        ops += [("mul", f"sx{k}", (f"x{k}", "s_x")), ("mul", f"p{k}", (f"sx{k}", f"w{k}")),
                ("add", f"y{k}", (f"y{k - 1}" if k else "0", f"p{k}"))]
    ops += [("mul", "sd", ("d", "s_d")), ("sub", "e", ("sd", f"y{order - 1}")),
            ("mul", "be", ("beta", "e"))]
    for k in range(order):
        ops += [("mul", f"u{k}", ("be", f"sx{k}")), ("add", f"w{k}'", (f"w{k}", f"u{k}"))]
    return ops


@dataclass(frozen=True)
class Schedule:
    """The cycles :func:`step_ops`' ops issue in, and the arithmetic units they need."""

    issue: tuple  # issue[c]: the indices of the ops issued in cycle c + 1
    fpu_instances: int

    cycles = property(lambda self: len(self.issue))
    ops = property(lambda self: sum(map(len, self.issue)))
    peak = property(lambda self: max(map(len, self.issue)))  # most ops issued in one cycle

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
        walk = [3] * order + [5] + [2] * (order - 1) + [0]
        return cls(tuple(tuple(range(end - n, end)) for n, end in zip(walk, accumulate(walk))),
                   SERIES_FPU_INSTANCES)

    @classmethod
    def parallel(cls, order: int) -> Schedule:
        """Every operation of the sample step in one cycle, on a unit of its own."""
        ops = len(step_ops(order))
        return cls((tuple(range(ops)),), ops)

    def check(self, table: list[tuple]) -> str | None:
        """None if each op of ``table`` issues once, in no cycle before its operands are
        made (ops chain within a cycle), on no more units than there are; else the first fault."""
        made = {table[i][1]: c for c, ops in enumerate(self.issue, 1) for i in ops}
        if self.ops != len(table) or len(made) != len(table):
            return f"issues {self.ops} ops, not each of the table's {len(table)} once"
        late = [(c, i, a) for c, ops in enumerate(self.issue, 1) for i in ops
                for a in table[i][2] if made.get(a, 0) > c]
        if late:
            c, i, a = late[0]
            return (f"issues op {i} ({table[i][0]} {table[i][1]}) in cycle {c}, "
                    f"before its operand {a} is made in cycle {made[a]}")
        if self.peak > self.fpu_instances:
            return f"issues {self.peak} ops in one cycle on {self.fpu_instances} units"
        return None


@dataclass(frozen=True)
class CycleStats:
    """What ``samples_processed`` sample steps on one schedule add up to."""

    cycles_per_sample: int
    total_cycles: int
    fpu_instances: int
    fpu_ops_issued: int
    samples_processed: int
    max_ops_per_cycle: int

    @classmethod
    def of(cls, s: Schedule, samples: int) -> CycleStats:
        return cls(s.cycles, s.cycles * samples, s.fpu_instances, s.ops * samples, samples, s.peak)

    to_dict = asdict


class LmsState:
    """Tap window and weight vector, held as values, plus the constants."""

    def __init__(self, cfg: LmsConfig, backend):
        self.backend = backend
        self.input_scale = quantized(cfg.input_scale)
        self.desired_scale = quantized(cfg.desired_scale)
        self.beta = quantized(cfg.beta)
        m = cfg.order
        self.window_values = deque([0.0] * m, maxlen=m)
        self.weight_values = [0.0] * m
        self.ops_per_step = Counter(kind for kind, _, _ in step_ops(m))

    def update(self, x: float, d: float) -> float:
        """One-sample update on values; returns the error ``e``.

        Scales every tap of the window afresh, as the datapath does, so each
        scaling raises its flags on every sample its tap is in the window.
        The caller opens the backend's rounding scope around its loop of
        steps (outside it every soft op goes to ``fpu_*``: the same words,
        slower) and meters the 5m + 3 ops of the step (``ops_per_step``).
        """
        bk = self.backend
        mul, add = bk.vmul, bk.vadd
        self.window_values.appendleft(x)
        sx = [mul(tap, self.input_scale) for tap in self.window_values]
        y = reduce(add, map(mul, sx, self.weight_values), 0.0)
        e = bk.vsub(mul(d, self.desired_scale), y)
        be = mul(self.beta, e)
        self.weight_values = list(map(add, self.weight_values, map(mul, repeat(be), sx)))
        return e


class _Datapath:
    """A hardware schedule around the shared :class:`LmsState`."""

    make_schedule = None  # Schedule.series or Schedule.parallel

    def __init__(self, cfg: LmsConfig, backend):
        self.state = LmsState(cfg, backend)
        self.schedule = self.make_schedule(cfg.order)
        self.samples = 0  # sample steps run, counted by run_canceller

    @property
    def stats(self) -> CycleStats:
        return CycleStats.of(self.schedule, self.samples)


class SeriesDatapath(_Datapath):
    """Serial schedule: 2m + 1 cycles per sample, one MAC lane."""

    make_schedule = Schedule.series


class ParallelDatapath(_Datapath):
    """Fully unrolled schedule: every operation of a sample in one cycle."""

    make_schedule = Schedule.parallel


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
    The exponent stops at 127, the largest power of two float32 holds.
    """
    mags = np.abs(np.asarray(samples, dtype=float))
    p99 = float(np.percentile(mags, 99.0)) if len(mags) else 0.0
    if p99 <= 0.0:
        return 1.0
    return 2.0 ** min(round(math.log2(target / p99)), 127)


def run_canceller(datapath, x_values, d_values):
    """Drive a datapath over full channels; returns (errors, first_flag_index).

    The channels and the errors are numpy arrays of values.  Each ``BLOCK``
    samples run through :class:`_BlockKernel`; a block the backend's
    ``checked`` refuses runs through :meth:`LmsState.update` from the same
    state instead, in one rounding scope, so every flag is raised on the
    exact path.
    ``first_flag_index`` is the first sample whose step raised a
    saturation/flush flag, or None.  The backend's flag totals at entry are
    the reference, so flags raised by earlier stages sharing the backend are
    not blamed on the canceller.
    """
    state = datapath.state
    bk = state.backend
    entry_total = bk.flags.overflow + bk.flags.underflow
    first_flag = None
    n = min(len(x_values), len(d_values))
    errors = np.empty(n)
    kernel = _BlockKernel(state)
    for start in range(0, n, BLOCK):
        x, d = x_values[start : start + BLOCK], d_values[start : start + BLOCK]
        out = errors[start : start + BLOCK]
        # The kernel's exact path declines: a refused block steps on update instead.
        e = bk.checked(partial(kernel.compute, x, d), lambda: None)
        if e is not None:
            kernel.commit(x, len(d))
            out[:] = e
            continue
        with bk.rounding_scope():
            for i, xi, di in zip(range(len(out)), x.tolist(), d.tolist()):
                out[i] = state.update(xi, di)
                if first_flag is None and bk.flags.overflow + bk.flags.underflow > entry_total:
                    first_flag = start + i
    bk.ops.tally(n, **state.ops_per_step)
    datapath.samples += n
    return errors, first_flag


BLOCK = 512  # samples per block of the vector kernel


class _BlockKernel:
    """:meth:`LmsState.update` over a block of samples as numpy vector ops.

    Each sample's taps run as whole vectors in the backend's
    ``block_dtype``, in the step's op order: products, their sum
    accumulated from +0 in tap order, the error, ``beta*e``, the update
    terms and the new weights.  Every intermediate is kept, one row per
    sample, so that :meth:`ops` can hand the backend's ``checked`` every op,
    whose exact result it rebuilds to refuse the block if any lies outside
    the normal range.  A block is committed to the state only if it is accepted.
    Each tap is scaled once per block: a multiply depends only on its
    operands, so every sample reads the value its own scaling would give,
    and an accepted block has no scaling that raises a flag.
    """

    def __init__(self, state: LmsState):
        self.state = state
        bk = state.backend
        dt = bk.block_dtype
        self.order = m = len(state.weight_values)
        self.input_scale, self.desired_scale, self.beta = (
            dt(state.input_scale), dt(state.desired_scale), dt(state.beta)
        )
        # Raw and scaled taps, newest first: the block's samples, then the
        # m - 1 it inherits.  Row j of ``windows`` is taps[j : j + m].
        self.raw_taps = np.zeros(BLOCK + m - 1, dt)
        self.taps = np.zeros(BLOCK + m - 1, dt)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.taps, m)
        self.products = np.zeros((BLOCK, m + 1), dt)  # column 0 stays +0: the sum's start
        self.sums = np.empty((BLOCK, m + 1), dt)
        self.terms = np.empty((BLOCK, m), dt)
        self.weights = np.empty((BLOCK + 1, m), dt)  # row i: the weights sample i reads
        # Row views made once, as lists, so that a block's loop makes none.
        self.window_rows = list(self.windows)
        self.rows = list(zip(self.weights, self.weights[1:], self.products,
                             self.products[:, 1:], self.sums, self.terms))

    def compute(self, x, d):
        """The block's arithmetic; returns the errors and the block's :meth:`ops`."""
        st, n, m = self.state, len(d), self.order
        dt = self.taps.dtype
        multiply, add, accumulate = np.multiply, np.add, np.add.accumulate
        raw = self.raw_taps[: n + m - 1]
        raw[:n] = x[::-1]
        raw[n:] = list(islice(st.window_values, m - 1))
        multiply(raw, self.input_scale, out=self.taps[: n + m - 1])
        sd = multiply(d.astype(dt), self.desired_scale)
        self.weights[0] = st.weight_values
        # The gain beta*e is cast as the value ops cast: e through a slot, then
        # the product into a 0-d array, the operand numpy takes fastest.
        beta, slot, gain = st.beta, array(dt.char, [0.0]), np.zeros((), dt)
        # sample i of a block of n reads window n - 1 - i
        for win, (w, w_next, p, p_taps, s, u), sd_i in zip(
            self.window_rows[n - 1 :: -1], self.rows, sd.tolist()
        ):
            multiply(win, w, p_taps)
            accumulate(p, out=s)
            slot[0] = sd_i - s.item(m)
            gain[()] = beta * slot[0]
            multiply(gain, win, u)
            add(w, u, w_next)
        e = sd - self.sums[:n, m]
        return e, self.ops(d, sd, e, self.beta * e)

    def ops(self, d, sd, e, be) -> tuple:
        """Every op of the block as ``(ufunc, a, b)``, after :meth:`compute`."""
        n, m = len(d), self.order
        wins, weights, sums = self.windows[n - 1 :: -1], self.weights[:n], self.sums[:n]
        return (
            (np.multiply, self.raw_taps[: n + m - 1], self.input_scale),
            (np.multiply, d, self.desired_scale),
            (np.multiply, wins, weights),
            (np.add, sums[:, :-1], self.products[:n, 1:]),
            (np.subtract, sd, sums[:, m]),
            (np.multiply, self.beta, e),
            (np.multiply, be[:, None], wins),
            (np.add, weights, self.terms[:n]),
        )

    def commit(self, x, n: int) -> None:
        """Leave the state as :meth:`LmsState.update` would after the block."""
        st = self.state
        st.window_values.extendleft(x.tolist())
        st.weight_values = self.weights[n].tolist()
