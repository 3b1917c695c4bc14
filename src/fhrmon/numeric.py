"""Numeric backends shared by the streaming pipeline stages.

Every filter/datapath in this package is written once and parameterized by a
backend: the soft-float32 backend routes each operation through the bit-level
unit in :mod:`fhrmon.fpu` (the hardware-faithful mode), while the float64
backend runs the identical algorithm in native double precision.  The second
path exists so tests can bound the truncation drift of the first.

Values are opaque to the algorithms: integer words on the soft path, plain
floats on the reference path.  ``encode``/``decode`` convert at the edges.

The soft backend's add/sub/mul first try a word-in/word-out fast path that
covers normal operands with a normal result, the bulk of every pipeline
stage.  Any other case (a zero operand, an exponent leaving [1, 254], an
operand that is not a normal 32-bit word) goes to the unchanged ``fpu_*``
function, so saturation/flush flags and ``OperandError`` messages come from
:mod:`fhrmon.fpu` itself, which stays the bit-level oracle for both paths.
"""

from __future__ import annotations

from collections import deque

from . import fpu
from .fpu import EXP_MASK, FRAC_MASK, IMPLICIT_BIT, SIGN_MASK, CmpCode, FpuFlags

# Sign-and-exponent field (word >> 23) of every normal word -> exponent - 1.
# A missing key is a zero, subnormal, inf/NaN or an int outside 32 bits.
_EXP_LESS_ONE = {h: (h & 0xFF) - 1 for h in range(512) if 0 < h & 0xFF < 255}


def _add_word(a: int, b: int) -> int | None:
    """``fpu_add(a, b)`` for normal operands with a normal result, else None.

    Signed mantissas are aligned at the smaller exponent (exact, like
    ``fpu_add``), summed, and the sum truncated to 24 bits once.
    """
    try:
        ea = _EXP_LESS_ONE[a >> 23]
        eb = _EXP_LESS_ONE[b >> 23]
    except KeyError:
        return None
    ma = a & FRAC_MASK | IMPLICIT_BIT
    if a & SIGN_MASK:
        ma = -ma
    mb = b & FRAC_MASK | IMPLICIT_BIT
    if b & SIGN_MASK:
        mb = -mb
    if ea >= eb:
        s = (ma << ea - eb) + mb
        base = eb
    else:
        s = ma + (mb << eb - ea)
        base = ea
    if s > 0:
        sign = 0
    elif s:
        sign = SIGN_MASK
        s = -s
    else:
        return 0  # exact cancellation gives +0
    shift = s.bit_length() - 24
    # (exponent - 1) << 23 plus the 24-bit mantissa, whose top bit carries
    # into the exponent field, packs the sign-less word; it is a normal
    # number iff it lies in [IMPLICIT_BIT, EXP_MASK).
    word = (base + shift << 23) + (s >> shift if shift >= 0 else s << -shift)
    if IMPLICIT_BIT <= word < EXP_MASK:
        return sign | word
    return None


def _mul_word(a: int, b: int) -> int | None:
    """``fpu_mul(a, b)`` for normal operands with a normal result, else None.

    The 24x24-bit mantissa product has 47 or 48 bits; its top 24 are kept.
    """
    try:
        e = _EXP_LESS_ONE[a >> 23] + _EXP_LESS_ONE[b >> 23]
    except KeyError:
        return None
    p = (a & FRAC_MASK | IMPLICIT_BIT) * (b & FRAC_MASK | IMPLICIT_BIT)
    # e = ea + eb - 2; the result's exponent less one, ea + eb - 128, is one
    # higher when the product reaches bit 47.  Packed as in _add_word.
    if p >> 47:
        word = (e - 125 << 23) + (p >> 24)
    else:
        word = (e - 126 << 23) + (p >> 23)
    if IMPLICIT_BIT <= word < EXP_MASK:
        return (a ^ b) & SIGN_MASK | word
    return None


class SoftF32Backend:
    """Bit-level float32 arithmetic with an owned flag accumulator.

    ``add``/``sub``/``mul`` return exactly what ``fpu_add``/``fpu_sub``/
    ``fpu_mul`` return for the same words, raise the same flags and errors.
    """

    name = "soft"

    def __init__(self, cmp_mode: str = "corrected"):
        self.cmp_mode = cmp_mode
        self.flags = FpuFlags()
        self.zero = fpu.ZERO_POS

    def encode(self, value: float) -> int:
        return fpu.encode(value)

    def decode(self, word: int) -> float:
        return fpu.decode(word)

    def add(self, a: int, b: int) -> int:
        word = _add_word(a, b)
        return fpu.fpu_add(a, b, self.flags) if word is None else word

    def sub(self, a: int, b: int) -> int:
        # a - b is a + (-b) bit for bit; the fallback keeps fpu_sub's flags
        # and its OperandError naming the word the caller passed.
        word = _add_word(a, b ^ SIGN_MASK)
        return fpu.fpu_sub(a, b, self.flags) if word is None else word

    def mul(self, a: int, b: int) -> int:
        word = _mul_word(a, b)
        return fpu.fpu_mul(a, b, self.flags) if word is None else word

    def gt(self, a: int, b: int) -> bool:
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.GREATER

    def lt(self, a: int, b: int) -> bool:
        return fpu.fpu_cmp(a, b, self.cmp_mode) is CmpCode.LESS


class Float64Backend:
    """Native double-precision reference arithmetic (test/diagnostic path)."""

    name = "float64"

    def __init__(self):
        self.flags = FpuFlags()
        self.zero = 0.0

    def encode(self, value: float) -> float:
        return float(value)

    def decode(self, value: float) -> float:
        return value

    @staticmethod
    def add(a: float, b: float) -> float:
        return a + b

    @staticmethod
    def sub(a: float, b: float) -> float:
        return a - b

    @staticmethod
    def mul(a: float, b: float) -> float:
        return a * b

    @staticmethod
    def gt(a: float, b: float) -> bool:
        return a > b

    @staticmethod
    def lt(a: float, b: float) -> bool:
        return a < b


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
