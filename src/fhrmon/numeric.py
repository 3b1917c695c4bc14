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
  path a float32 is carried as the exact double that holds it.
* bulk ops ``bulk_add``/``bulk_sub``/``bulk_mul`` on numpy arrays of values.

Raw samples enter as values through ``ingest``, and the stages hand each
other numpy arrays of values.  ``to_values``/``to_words`` convert whole
streams where words remain: the canceller's errors, for the traces and the
digests, and in detection the enhancement's window total and pass 2.

Bulk ops and block kernels run whole vectors in the backend's ``block_dtype``
inside its ``rounding_scope()``.  On the soft path the scope sets the C
library's rounding mode to round-toward-zero, in which IEEE float32
arithmetic is the fpu's truncation wherever a result stays in the normal
range, ``block_range``.  :func:`out_of_range` is the one check of that range:
every result it flags, and every result when the scope is unavailable, is
redone on the exact path.  A bulk op redoes each such element alone; a block
form, whose results depend on each other, is kept or redone whole by
:meth:`_Backend.checked`, the one rule for that: the sum chain here, a
filter's recursion (:mod:`fhrmon.preprocess`) and the LMS block kernel
(:mod:`fhrmon.lms`).  On the exact path any result outside the normal range
[2^-126, 2^128), and any operand word that is not a normal number, goes
to the unchanged ``fpu_*`` function for that element alone, so
saturation/flush flags and ``OperandError`` messages come from
:mod:`fhrmon.fpu` itself, which stays the bit-level oracle.

Scalar arithmetic on the soft path is one form, the float32 cast: the Python
double op, then a store into a float32 view of the backend's two words.  In
the scope that C cast truncates; a product of two float32 values is exact in
a double, and a sum truncated to 53 bits and then to 24 is the sum truncated
to 24, so every result in the normal range is the fpu's word.  The cast flags
nothing (an overflow gives max normal, a subnormal stays), so:

* the scalar value ops, and the word methods on a two-word view of their
  operands' values, test each double result as :func:`out_of_range` would,
  and send one outside the range to ``fpu_*``.  They cast only while their
  own backend's scope is open, a flag the backend sets and restores, so none
  can return a round-to-nearest word.  Each caller opens the scope once
  around its op loop; ``encode`` rounds to nearest in it too.
* a chain of sums, in which each sum needs the one before (the running
  means), is one ``np.add.accumulate`` in ``block_dtype`` inside the scope
  (:meth:`_Backend.sum_chain`), which adds strictly in sequence.  Through
  :meth:`_Backend.checked`, a chain with any sum outside the range, and
  every chain without the scope, is redone on ``vadd``.

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
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import accumulate

import numpy as np

from . import fpu
from .fpu import CmpCode, FpuFlags

OP_NAMES = ("add", "sub", "mul", "gt", "lt")
VALID_CMP_MODES = ("corrected", "verbatim")  # fpu_cmp's modes

# Sign-and-exponent fields (word >> 23) of the nonzero normal 32-bit words;
# only those operands take the value path in the soft word methods.
_NORMAL_FIELDS = frozenset(h for h in range(512) if 0 < h & 0xFF < 255)
_ZEROS = (0, 0x80000000)


def _keyed(a: int, b: int) -> bool:
    """Whether two words are each normal or a zero, which corrected soft comparisons order
    by keys w, or 0x7FFFFFFF - w if negative: fpu_cmp's order, -0 just below +0."""
    return (a >> 23 in _NORMAL_FIELDS or a in _ZEROS) and (b >> 23 in _NORMAL_FIELDS or b in _ZEROS)


_MIN_NORMAL = 2.0**-126
# Exclusive upper edge of the normal range: a result in [max normal, 2^128)
# truncates to max normal, as fpu_* packs it, with no flag.
_RANGE_END = 2.0**128

# fesetround's FE_TOWARDZERO by machine (macOS names aarch64 arm64); on any
# other machine the soft rounding scope is unavailable and vector work falls
# back to the exact path.
_FE_TOWARDZERO = {"x86_64": 0xC00, "aarch64": 0xC00000, "arm64": 0xC00000}
# glibc's libm, tried first: only off Linux does ctypes.util.find_library look
# further, since on Linux it spawns ldconfig.
_LIBM = "libm.so.6"
# (fesetround, fegetround, FE_TOWARDZERO) once loaded and probed, False once
# that failed, None before the first soft rounding scope.
_rounding = None


def rounding_scope_available() -> bool:
    """Whether the soft rounding scope can make float32 arithmetic truncate here.

    Without it every soft block takes the exact path: the same words, many
    times slower.
    """
    global _rounding
    if _rounding is None:
        _rounding = _load_rounding()
    return bool(_rounding)


def _load_rounding():
    """The C library's rounding controls, if they make numpy float32 truncate."""
    uname = os.uname() if hasattr(os, "uname") else None
    mode = _FE_TOWARDZERO.get(uname.machine if uname else "")
    if mode is None:
        return False
    try:
        import ctypes

        try:
            libm = ctypes.CDLL(_LIBM)
        except OSError:
            if uname.sysname == "Linux":
                raise
            import ctypes.util

            libm = ctypes.CDLL(ctypes.util.find_library("m"))
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


def out_of_range(exact, lo: float, hi: float) -> np.ndarray:
    """Where exact results are nonzero with a magnitude outside [lo, hi), or NaN.

    A float64 op on float32 values may stand in for the exact one: a product
    is exact, and a sum is exact below 2^-125 and rounds monotonically.
    ``exact`` is the caller's own redo: its magnitudes overwrite it.
    """
    mag = np.abs(exact, out=np.asarray(exact))
    inside = mag >= lo
    inside &= mag < hi
    inside |= mag == 0.0
    return ~inside


def any_out_of_range(ops, lo: float, hi: float) -> bool:
    """Whether any ``(ufunc, a, b)`` of ``ops``, redone in float64, is :func:`out_of_range`.

    ``ops`` may be a generator: it is consumed only up to the first such op.
    """
    return any(out_of_range(op(a, b, dtype=np.float64), lo, hi).any() for op, a, b in ops)


class OpMeter(dict):
    """Backend operations issued, by method name; starts at zero.

    It counts the ops of the modelled step, not the calls a kernel makes:
    scalar value ops count nothing themselves, and the LMS kernels' callers
    tally the 5m + 3 ops per sample that the datapath issues.
    """

    def __init__(self):
        super().__init__(dict.fromkeys(OP_NAMES, 0))

    def tally(self, iterations: int, **ops_per_iteration: int) -> None:
        """Add a loop of ``iterations`` runs, each issuing ``ops_per_iteration``."""
        for name, count in ops_per_iteration.items():
            self[name] += iterations * count


class _Backend:
    """Bulk ops, the block check and sum chains for both backends."""

    def bulk_add(self, a, b) -> np.ndarray:
        """``vadd`` elementwise; either operand may be a scalar."""
        return self._bulk("add", np.add, fpu.fpu_add, a, b)

    def bulk_sub(self, a, b) -> np.ndarray:
        """``vsub`` elementwise."""
        return self._bulk("sub", np.subtract, fpu.fpu_sub, a, b)

    def bulk_mul(self, a, b) -> np.ndarray:
        """``vmul`` elementwise; either operand may be a scalar."""
        return self._bulk("mul", np.multiply, fpu.fpu_mul, a, b)

    def _bulk(self, name: str, ufunc, oracle, a, b) -> np.ndarray:
        """``ufunc`` elementwise, metered as ``name``.

        With ``block_range`` set, ``oracle`` redoes each element that
        :func:`out_of_range` flags, or every element without the scope.
        """
        with self.rounding_scope() as available, np.errstate(all="ignore"):
            out = ufunc(a, b, dtype=self.block_dtype).astype(np.float64, copy=False)
        self.ops[name] += out.size
        if self.block_range is None:
            return out
        bad = range(out.size)
        if available:
            bad = np.flatnonzero(out_of_range(ufunc(a, b, dtype=np.float64), *self.block_range))
        if len(bad):
            a, b = np.broadcast_arrays(a, b)
            for i in bad:
                out[i] = self._oracle(oracle, float(a[i]), float(b[i]))
        return out

    def checked(self, fast, exact):
        """``fast()``'s result if no op it made is out of range, else ``exact()``'s.

        ``fast`` returns ``(result, ops)``, ``ops`` each op it made as a
        ``(ufunc, a, b)``.  Both run in one :meth:`rounding_scope` with numpy's
        float warnings off.  Without the scope only ``exact`` runs; a backend
        without a ``block_range`` takes every fast result unchecked.
        """
        with self.rounding_scope() as available, np.errstate(all="ignore"):
            if available:
                result, ops = fast()
                if self.block_range is None or not any_out_of_range(ops, *self.block_range):
                    return result
            return exact()

    def sum_chain(self, start: float, terms: np.ndarray) -> np.ndarray:
        """The sums ``start + terms[0]``, ``+ terms[1]`` and so on, as ``vadd`` gives each."""
        return self.checked(partial(self._accumulated, start, terms),
                            partial(self._vadd_chain, start, terms))

    def _accumulated(self, start: float, terms: np.ndarray):
        """The chain as one accumulate, and its sums as ops."""
        chain = np.add.accumulate(np.append(start, terms), dtype=self.block_dtype).astype(float)
        return chain[1:], [(np.add, chain[:-1], terms)]

    def _vadd_chain(self, start: float, terms: np.ndarray) -> np.ndarray:
        """The chain on ``vadd``, one sum at a time: the exact path."""
        return np.fromiter(accumulate(terms.tolist(), self.vadd, initial=start), float)[1:]


class SoftF32Backend(_Backend):
    """Bit-level float32 arithmetic with an owned flag accumulator and op meter.

    ``add``/``sub``/``mul`` return exactly what ``fpu_add``/``fpu_sub``/
    ``fpu_mul`` return for the same words, raise the same flags and errors;
    the value and bulk ops do the same on the values of those words.
    """

    name = "soft"
    block_dtype = np.float32
    block_range = (_MIN_NORMAL, _RANGE_END)

    def __init__(self, cmp_mode: str = "corrected"):
        self.cmp_mode = cmp_mode
        self.flags = FpuFlags()
        self.ops = OpMeter()
        self.zero = fpu.ZERO_POS
        self._scoped = False  # whether a truncating rounding scope is open
        # Two words, also viewed as the two float32 values they hold: operands
        # cross between words and values here, and a store into a value casts.
        self._words = array("I", [0, 0])
        self._values = memoryview(self._words).cast("B").cast("f")

    def encode(self, value: float) -> int:
        return fpu.encode(value)

    def decode(self, word: int) -> float:
        return fpu.decode(word)

    @contextmanager
    def rounding_scope(self):
        """Float32 arithmetic truncates inside; entering gives whether it does.

        The rounding mode is the C library's, per thread, set with
        ``fesetround`` (loaded through ctypes on first use) and restored on
        exit.  Within ``block_range`` the results are the value ops' words;
        outside it, and for subnormal results, they are not, and the caller
        must check.  Every double op made inside the scope truncates too.
        The scalar value ops cast only while this backend's scope is open; a
        scope opened inside it gives its answer and changes nothing.
        """
        if self._scoped or not rounding_scope_available():
            yield self._scoped
            return
        setter, getter, mode = _rounding
        previous = getter()
        setter(mode)
        self._scoped = True
        try:
            yield True
        finally:
            self._scoped = False
            setter(previous)

    # -- word methods: the value ops on the two-word view ------------------

    def add(self, a: int, b: int) -> int:
        self.ops["add"] += 1
        return self._on_values(operator.add, fpu.fpu_add, a, b)

    def sub(self, a: int, b: int) -> int:
        self.ops["sub"] += 1
        return self._on_values(operator.sub, fpu.fpu_sub, a, b)

    def mul(self, a: int, b: int) -> int:
        self.ops["mul"] += 1
        return self._on_values(operator.mul, fpu.fpu_mul, a, b)

    def _on_values(self, op, oracle, a: int, b: int) -> int:
        """``op`` on two words' values as ``vadd`` runs it, else ``oracle`` on the words."""
        if self._scoped and a >> 23 in _NORMAL_FIELDS and b >> 23 in _NORMAL_FIELDS:
            words, values = self._words, self._values
            words[0], words[1] = a, b
            r = op(values[0], values[1])
            if _MIN_NORMAL <= r < _RANGE_END or _MIN_NORMAL <= -r < _RANGE_END or r == 0.0:
                values[0] = r
                return words[0]
        return oracle(a, b, self.flags)

    def gt(self, a: int, b: int) -> bool:
        self.ops["gt"] += 1
        if self.cmp_mode == "corrected" and _keyed(a, b):
            return (0x7FFFFFFF - a if a >> 31 else a) > (0x7FFFFFFF - b if b >> 31 else b)
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.GREATER

    def lt(self, a: int, b: int) -> bool:
        self.ops["lt"] += 1
        if self.cmp_mode == "corrected" and _keyed(a, b):
            return (0x7FFFFFFF - a if a >> 31 else a) < (0x7FFFFFFF - b if b >> 31 else b)
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.LESS

    # -- scalar value ops ---------------------------------------------------

    # vadd and vmul run once per op of the exact paths.  They compare floats
    # with floats, which CPython's float-compare fast path needs, and test -s
    # instead of calling abs.

    def vadd(self, a: float, b: float) -> float:
        """``fpu_add`` on float32 values."""
        if self._scoped:
            s = a + b  # the exact sum truncated to 53 bits
            if _MIN_NORMAL <= s < _RANGE_END or _MIN_NORMAL <= -s < _RANGE_END or s == 0.0:
                values = self._values
                values[0] = s  # and to 24
                return values[0]
        return self._oracle(fpu.fpu_add, a, b)

    def vsub(self, a: float, b: float) -> float:
        """``fpu_sub`` on float32 values: the add on ``b`` negated."""
        return self.vadd(a, -b)

    def vmul(self, a: float, b: float) -> float:
        """``fpu_mul`` on float32 values."""
        if self._scoped:
            p = a * b  # exact: 24 x 24 mantissa bits fit in 53
            if _MIN_NORMAL <= p < _RANGE_END or _MIN_NORMAL <= -p < _RANGE_END or p == 0.0:
                values = self._values
                values[0] = p
                return values[0]
        return self._oracle(fpu.fpu_mul, a, b)

    def _oracle(self, op, a: float, b: float) -> float:
        """``op`` on the words of two values, raising this backend's flags."""
        words, values = self._words, self._values
        values[0] = a
        values[1] = b
        words[0] = op(words[0], words[1], self.flags)
        return values[0]

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
    def scalars(values) -> np.ndarray:
        """Values whose items are ``np.float32``: no Python float, which NumPy 1.x widens."""
        return np.asarray(values, dtype=np.float32)

    @staticmethod
    def to_words(values) -> list:
        """Words of a stream of float32 values."""
        return np.asarray(values, dtype=np.float64).astype(np.float32).view(np.uint32).tolist()


class Float64Backend(_Backend):
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

    @staticmethod
    def to_values(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    ingest = to_values

    @staticmethod
    def to_words(values) -> list:
        return np.asarray(values, dtype=np.float64).tolist()

    @staticmethod
    def scalars(values) -> memoryview:
        """Values that iterate as Python floats, whose arithmetic is the value ops."""
        return memoryview(np.asarray(values, dtype=np.float64))


def make_backend(name: str, cmp_mode: str = "corrected"):
    if cmp_mode not in VALID_CMP_MODES:
        raise ValueError(f"cmp_mode must be one of {VALID_CMP_MODES}, got {cmp_mode!r}")
    if name == "soft":
        return SoftF32Backend(cmp_mode)
    if name == "float64":
        if cmp_mode != "corrected":
            raise ValueError(f"cmp_mode {cmp_mode!r} applies to backend 'soft' only")
        return Float64Backend()
    raise ValueError(f"unknown backend: {name!r}")


def quantized(value: float) -> float:
    """The float32-quantized double value of ``value``.

    Both backends draw their constants from here so they run with identical
    coefficients and differ only in arithmetic.
    """
    return fpu.decode(fpu.encode(value))


class RunningMean:
    """Mean of the last ``window`` values, over a stream of values.

    Each sample is pre-scaled by 1/window and kept in a zero-filled ring; the
    mean is a running total that adds the new scaled sample and subtracts the
    one it evicts (a zero until the ring has filled).
    """

    def __init__(self, backend, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.backend = backend
        self._inv = quantized(1.0 / window)
        self.ring = np.zeros(window)
        self.mean = 0.0

    def run(self, values: np.ndarray) -> np.ndarray:
        """The mean after each sample of a whole stream of values."""
        bk = self.backend
        scaled = bk.bulk_mul(values, self._inv)
        n = len(scaled)
        # Sample k adds its scaled value, then the negation (exact) of the one
        # it evicts: element k of the ring followed by the scaled stream.
        queue = np.concatenate([self.ring, scaled])
        terms = np.column_stack([scaled, -queue[:n]]).ravel()
        means = bk.sum_chain(self.mean, terms)[1::2]
        bk.ops.tally(n, add=1, sub=1)
        self.mean = float(means[-1]) if n else self.mean
        self.ring = queue[-len(self.ring) :].copy()
        return means
