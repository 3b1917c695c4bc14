"""Numeric backends shared by the streaming pipeline stages.

Every filter/datapath in this package is written once and parameterized by a
backend: the soft-float32 backend reproduces the bit-level unit in
:mod:`fhrmon.fpu` (the hardware-faithful mode), while the float64 backend
runs the identical algorithm in native double precision.  The second path
exists so tests can bound the truncation drift of the first.

Each backend offers three forms of add/sub/mul:

* word methods ``add``/``sub``/``mul`` (and ``gt``/``lt``) on backend
  encodings: integer words on the soft path, plain floats on the reference
  path.  ``encode``/``decode`` convert single values at the edges.
* scalar value ops ``vadd``/``vsub``/``vmul`` on Python floats.  On the soft
  path a float32 is carried as the exact double that holds it: a product is
  exact in a double and is truncated to 24 bits; a sum is rounded, and its
  exact residual (TwoSum) says whether the truncated sum is one step lower.
* bulk ops ``bulk_add``/``bulk_sub``/``bulk_mul`` on numpy arrays, elementwise
  and bit-identical to the scalar value ops.

Whole streams cross between words and values with ``to_values``/``to_words``
and enter from raw samples through ``ingest``.  On the soft path, any result
outside the normal range [2^-126, max normal], and any operand word that is
not a normal number, goes to the unchanged ``fpu_*`` function for that
element alone, so saturation/flush flags and ``OperandError`` messages come
from :mod:`fhrmon.fpu` itself, which stays the bit-level oracle.

Block kernels run whole vectors of float32 (soft) or float64 ops in numpy
inside the backend's ``rounding_scope()``.  On the soft path the scope sets
the C library's rounding mode to round-toward-zero, in which IEEE float32
arithmetic is the fpu's truncation wherever a result stays in the normal
range; ``block_range`` names that range so a kernel can check its results
and redo out-of-range work on the value ops.

Each backend owns an op meter, ``ops``: the operations the modelled
datapath issues, by method name (``gt`` and ``lt`` are the comparisons).  A
word method adds 1 per call, a bulk op adds its element count, and a stage
kernel adds the ops of its loop body once per iteration through
:meth:`OpMeter.tally`; scalar value ops do not count themselves.
"""

from __future__ import annotations

import operator
import os
from array import array
from collections import deque
from contextlib import contextmanager, nullcontext
from math import ulp

import numpy as np

from . import fpu
from .fpu import CmpCode, FpuFlags

OP_NAMES = ("add", "sub", "mul", "gt", "lt")

# Sign-and-exponent fields (word >> 23) of the nonzero normal 32-bit words;
# only those operands take the value path in the soft word methods.
_NORMAL_FIELDS = frozenset(h for h in range(512) if 0 < h & 0xFF < 255)

_MIN_NORMAL = 2.0**-126
_MAX_NORMAL = fpu.decode(fpu.MAX_NORMAL_MAG)
_OVERFLOW = 2.0**128  # an exact result this large saturates
_SPLIT = 2.0**29 + 1  # Veltkamp: t = x * _SPLIT; t - (t - x) is x rounded to 24 bits
_ULP24 = 2.0**29  # math.ulp(x) * _ULP24: float32 spacing in the binade of x
_POW2_ULP24 = 2.0**-23  # the float32 spacing at x is x * this iff x is a power of two
_LOW29 = np.uint64((1 << 29) - 1)  # double fraction bits below a float32's 23
_STEP24 = np.uint64(1 << 29)  # one float32 step, on a double's bit pattern

# fesetround's FE_TOWARDZERO by machine; on any other machine the soft
# rounding scope is unavailable and block kernels fall back to the value ops.
_FE_TOWARDZERO = {"x86_64": 0xC00, "aarch64": 0xC00000}
_LIBM = "libm.so.6"  # glibc's; elsewhere loading it fails and the scope is unavailable
# (fesetround, fegetround, FE_TOWARDZERO) once loaded and probed, False once
# that failed, None before the first soft rounding scope.
_rounding = None


def _load_rounding():
    """The C library's rounding controls, if they make numpy float32 truncate."""
    mode = _FE_TOWARDZERO.get(os.uname().machine if hasattr(os, "uname") else "")
    if mode is None:
        return False
    try:
        import ctypes

        libm = ctypes.CDLL(_LIBM)
        setter, getter = libm.fesetround, libm.fegetround
    except (ImportError, OSError, AttributeError):
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    getter.argtypes, getter.restype = [], ctypes.c_int
    previous = getter()
    if setter(mode):
        return False
    try:
        # 1 - 2^-30 and (1 + 2^-23)(1 - 2^-23) = 1 - 2^-46 both truncate to
        # 1 - 2^-24; round-to-nearest would give 1.
        one, tiny, step = np.ones(2, np.float32), np.float32(2.0**-30), np.float32(2.0**-23)
        below_one = np.float32(1.0 - 2.0**-24)
        truncates = ((one - tiny) == below_one).all() and (
            (one + step) * (one - step) == below_one
        ).all()
    finally:
        setter(previous)
    return (setter, getter, mode) if truncates else False


@contextmanager
def _toward_zero():
    """Round-toward-zero for the duration; yields False if it cannot be set."""
    global _rounding
    if _rounding is None:
        _rounding = _load_rounding()
    if not _rounding:
        yield False
        return
    setter, getter, mode = _rounding
    previous = getter()
    setter(mode)
    try:
        yield True
    finally:
        setter(previous)


class OpMeter(dict):
    """Backend operations issued, by method name; starts at zero.

    It counts the ops of the modelled step, not the calls a kernel makes: the
    LMS kernel reuses each tap's scaling from the sample it entered on, and
    the meter still counts a scaling per tap per sample, as issued.
    """

    def __init__(self):
        super().__init__(dict.fromkeys(OP_NAMES, 0))

    def tally(self, iterations: int, **ops_per_iteration: int) -> None:
        """Add a loop of ``iterations`` runs, each issuing ``ops_per_iteration``."""
        for name, count in ops_per_iteration.items():
            self[name] += iterations * count


class SoftF32Backend:
    """Bit-level float32 arithmetic with an owned flag accumulator and op meter.

    ``add``/``sub``/``mul`` return exactly what ``fpu_add``/``fpu_sub``/
    ``fpu_mul`` return for the same words, raise the same flags and errors;
    the value and bulk ops do the same on the values of those words.
    """

    name = "soft"
    block_dtype = np.float32
    block_range = (_MIN_NORMAL, _MAX_NORMAL)  # [lo, hi): max normal itself counts as out

    def __init__(self, cmp_mode: str = "corrected"):
        self.cmp_mode = cmp_mode
        self.flags = FpuFlags()
        self.ops = OpMeter()
        self.zero = fpu.ZERO_POS
        # Two words, also viewed as the two float32 values they hold: operands
        # cross between words and values here, one op at a time.
        self._words = array("I", [0, 0])
        self._values = memoryview(self._words).cast("B").cast("f")

    def encode(self, value: float) -> int:
        return fpu.encode(value)

    def decode(self, word: int) -> float:
        return fpu.decode(word)

    @staticmethod
    def rounding_scope():
        """Float32 numpy arithmetic truncates inside; yields whether it does.

        The rounding mode is the C library's, per thread, set with
        ``fesetround`` (loaded through ctypes on first use) and restored on
        exit.  Within ``block_range`` the results are the value ops' words;
        outside it, and for subnormal results, they are not, and the caller
        must check.  Every double op made inside the scope truncates too.
        """
        return _toward_zero()

    # -- word methods: adapters over the value ops ------------------------

    def add(self, a: int, b: int) -> int:
        self.ops["add"] += 1
        if a >> 23 in _NORMAL_FIELDS and b >> 23 in _NORMAL_FIELDS:
            return self._word_op(self.vadd, a, b)
        return fpu.fpu_add(a, b, self.flags)

    def sub(self, a: int, b: int) -> int:
        self.ops["sub"] += 1
        if a >> 23 in _NORMAL_FIELDS and b >> 23 in _NORMAL_FIELDS:
            return self._word_op(self.vsub, a, b)
        return fpu.fpu_sub(a, b, self.flags)

    def mul(self, a: int, b: int) -> int:
        self.ops["mul"] += 1
        if a >> 23 in _NORMAL_FIELDS and b >> 23 in _NORMAL_FIELDS:
            return self._word_op(self.vmul, a, b)
        return fpu.fpu_mul(a, b, self.flags)

    def _word_op(self, op, a: int, b: int) -> int:
        """A value op on two 32-bit words, returning the result's word."""
        words, values = self._words, self._values
        words[0] = a
        words[1] = b
        values[0] = op(values[0], values[1])
        return words[0]

    def gt(self, a: int, b: int) -> bool:
        self.ops["gt"] += 1
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.GREATER

    def lt(self, a: int, b: int) -> bool:
        self.ops["lt"] += 1
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.LESS

    # -- scalar value ops ---------------------------------------------------

    # vadd and vmul run once per add or multiply of every stage loop.  They
    # branch on the sign of the result instead of calling abs/copysign, and
    # compare with float literals (0.0, not 0), which CPython's float-compare
    # fast path needs.

    def vadd(self, a: float, b: float) -> float:
        """``fpu_add`` on float32 values."""
        s = a + b
        if s > 0.0:
            if _MIN_NORMAL <= s < _OVERFLOW:
                t = s * _SPLIT
                h = t - (t - s)
                if h != s:
                    # s is off the float32 grid, so the exact sum lies between
                    # the same two neighbours: truncate s.
                    return h if h < s else h - ulp(s) * _ULP24
                z = s - a
                if (a - (s - z)) + (b - z) >= 0.0:  # TwoSum residual
                    return s  # exact, or rounded toward zero
                # Rounded away from zero onto the grid: step one float32
                # inward, a half step below a power of two.
                u = ulp(s) * _ULP24
                return s - (u * 0.5 if u == s * _POW2_ULP24 else u)
        elif s < 0.0:
            if -_OVERFLOW < s <= -_MIN_NORMAL:
                t = s * _SPLIT
                h = t - (t - s)
                if h != s:
                    return h if h > s else h + ulp(s) * _ULP24
                z = s - a
                if (a - (s - z)) + (b - z) <= 0.0:
                    return s
                u = ulp(s) * _ULP24
                return s + (u * 0.5 if u == -s * _POW2_ULP24 else u)
        elif s == 0.0:
            return s  # an exact zero takes IEEE's sign, as fpu_add does
        return self._oracle(fpu.fpu_add, a, b)

    def vsub(self, a: float, b: float) -> float:
        """``fpu_sub`` on float32 values: the add on ``b`` negated."""
        return self.vadd(a, -b)

    def vmul(self, a: float, b: float) -> float:
        """``fpu_mul`` on float32 values."""
        p = a * b  # exact: 24 x 24 mantissa bits fit in 53
        if p > 0.0:
            if _MIN_NORMAL <= p < _OVERFLOW:
                t = p * _SPLIT
                h = t - (t - p)  # p rounded to 24 bits; truncate instead
                return h if h <= p else h - ulp(p) * _ULP24
        elif p < 0.0:
            if -_OVERFLOW < p <= -_MIN_NORMAL:
                t = p * _SPLIT
                h = t - (t - p)
                return h if h >= p else h + ulp(p) * _ULP24
        elif p == 0.0:
            return p  # a zero operand: the XOR of the signs, as fpu_mul gives
        return self._oracle(fpu.fpu_mul, a, b)

    def _oracle(self, op, a: float, b: float) -> float:
        """``op`` on the words of two values, raising this backend's flags."""
        words, values = self._words, self._values
        values[0] = a
        values[1] = b
        words[0] = op(words[0], words[1], self.flags)
        return values[0]

    # -- bulk ops -------------------------------------------------------------

    def bulk_add(self, a, b) -> np.ndarray:
        """``vadd`` elementwise; either operand may be a scalar."""
        return self._bulk_sum("add", a, b)

    def bulk_sub(self, a, b) -> np.ndarray:
        """``vsub`` elementwise."""
        return self._bulk_sum("sub", a, np.negative(b))

    def bulk_mul(self, a, b) -> np.ndarray:
        """``vmul`` elementwise; either operand may be a scalar."""
        p = np.multiply(a, b)
        bits = p.view(np.uint64)
        bits &= ~_LOW29
        return self._bulk_checked("mul", p, fpu.fpu_mul, a, b)

    def _bulk_sum(self, name: str, a, b) -> np.ndarray:
        s = np.add(a, b)
        z = s - a
        err = (a - (s - z)) + (b - z)  # TwoSum: exactly a + b - s
        bits = s.view(np.uint64)
        on_grid = (bits & _LOW29) == 0
        bits &= ~_LOW29
        # On the grid with the residual pointing inward: one float32 lower.
        bits[on_grid & (err != 0) & (np.signbit(err) != np.signbit(s))] -= _STEP24
        return self._bulk_checked(name, s, fpu.fpu_add, a, b)

    def _bulk_checked(self, name: str, out: np.ndarray, op, a, b) -> np.ndarray:
        """Redo through ``op`` every element that left the normal range."""
        self.ops[name] += out.size
        mag = np.abs(out)
        bad = np.flatnonzero((mag > _MAX_NORMAL) | ((mag < _MIN_NORMAL) & (mag != 0)))
        if len(bad):
            a, b = np.broadcast_arrays(a, b)
            for i in bad.tolist():
                out[i] = self._oracle(op, float(a[i]), float(b[i]))
        return out

    # -- whole streams --------------------------------------------------------

    def ingest(self, samples) -> np.ndarray:
        """Samples as float32 values: ``encode`` then ``decode``, for a whole stream."""
        x = np.asarray(samples, dtype=np.float64)
        with np.errstate(over="ignore"):
            f = x.astype(np.float32)
        if not np.isfinite(f).all():
            self.encode(float(x[np.flatnonzero(~np.isfinite(f))[0]]))  # raises its error
        f[np.abs(f) < np.float32(_MIN_NORMAL)] *= 0  # flush subnormals, keeping the sign
        return f.astype(np.float64)

    def to_values(self, words) -> np.ndarray:
        """Exact values of a stream of words, each checked as an operand."""
        w = np.asarray(words, dtype=np.uint32)
        exponent = w & fpu.EXP_MASK
        subnormal = (exponent == 0) & (w & fpu.FRAC_MASK != 0)
        bad = np.flatnonzero((exponent == fpu.EXP_MASK) | subnormal)
        if len(bad):
            fpu._check_operand(int(w[bad[0]]))  # raises its OperandError
        return w.view(np.float32).astype(np.float64)

    @staticmethod
    def to_words(values) -> list:
        """Words of a stream of float32 values."""
        return np.asarray(values, dtype=np.float64).astype(np.float32).view(np.uint32).tolist()


class Float64Backend:
    """Native double-precision reference arithmetic (test/diagnostic path)."""

    name = "float64"
    block_dtype = np.float64
    block_range = None  # block arithmetic matches the value ops everywhere

    vadd = staticmethod(operator.add)
    vsub = staticmethod(operator.sub)
    vmul = staticmethod(operator.mul)

    def __init__(self):
        self.flags = FpuFlags()
        self.ops = OpMeter()
        self.zero = 0.0

    @staticmethod
    def rounding_scope():
        """Block arithmetic needs no rounding change here."""
        return nullcontext(True)

    def encode(self, value: float) -> float:
        return float(value)

    def decode(self, value: float) -> float:
        return value

    def add(self, a: float, b: float) -> float:
        self.ops["add"] += 1
        return a + b

    def sub(self, a: float, b: float) -> float:
        self.ops["sub"] += 1
        return a - b

    def mul(self, a: float, b: float) -> float:
        self.ops["mul"] += 1
        return a * b

    def gt(self, a: float, b: float) -> bool:
        self.ops["gt"] += 1
        return a > b

    def lt(self, a: float, b: float) -> bool:
        self.ops["lt"] += 1
        return a < b

    def bulk_add(self, a, b) -> np.ndarray:
        out = np.add(a, b)
        self.ops["add"] += out.size
        return out

    def bulk_sub(self, a, b) -> np.ndarray:
        out = np.subtract(a, b)
        self.ops["sub"] += out.size
        return out

    def bulk_mul(self, a, b) -> np.ndarray:
        out = np.multiply(a, b)
        self.ops["mul"] += out.size
        return out

    @staticmethod
    def to_values(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    ingest = to_values

    @staticmethod
    def to_words(values) -> list:
        return np.asarray(values, dtype=np.float64).tolist()


def make_backend(name: str, cmp_mode: str = "corrected"):
    if name == "soft":
        return SoftF32Backend(cmp_mode)
    if name == "float64":
        return Float64Backend()
    raise ValueError(f"unknown backend: {name!r}")


def quantized(value: float) -> float:
    """The float32-quantized double value of ``value``.

    Both backends draw their constants from here so they run with identical
    coefficients and differ only in arithmetic.
    """
    return fpu.decode(fpu.encode(value))


class RunningMean:
    """Mean of the last ``window`` samples, updated one sample per step.

    Each sample is pre-scaled by 1/window and kept in a zero-filled ring; the
    mean is a running total that adds the new scaled sample and subtracts the
    one it evicts (a zero until the ring has filled).
    """

    def __init__(self, backend, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.backend = backend
        self._inv = backend.encode(quantized(1.0 / window))
        self.ring = deque([backend.zero] * window, maxlen=window)
        self.mean = backend.zero

    def step(self, sample):
        """Consume one sample and return the updated mean."""
        bk = self.backend
        scaled = bk.mul(sample, self._inv)
        self.mean = bk.sub(bk.add(self.mean, scaled), self.ring[0])
        self.ring.append(scaled)  # full ring: drops ring[0]
        return self.mean

    def run(self, values: np.ndarray) -> np.ndarray:
        """:meth:`step` over a whole stream of values, returning the means."""
        bk = self.backend
        vadd, vsub = bk.vadd, bk.vsub
        window = self.ring.maxlen
        scaled = bk.bulk_mul(values, bk.decode(self._inv))
        # Sample k evicts element k of the ring followed by the scaled stream.
        queue = np.concatenate([bk.to_values(list(self.ring)), scaled])
        mean = bk.decode(self.mean)
        means = array("d")
        append = means.append
        for new, old in zip(memoryview(scaled), memoryview(queue)):
            mean = vsub(vadd(mean, new), old)
            append(mean)
        bk.ops.tally(len(scaled), add=1, sub=1)
        self.ring.extend(bk.to_words(queue[-window:]))
        self.mean = bk.encode(mean)
        return np.frombuffer(means, dtype=np.float64)
