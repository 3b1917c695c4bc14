"""Software float32 unit: bit-level add, subtract, multiply and compare.

All values travel as 32-bit integer words laid out like IEEE-754 single
precision (sign bit 31, 8 exponent bits, 23 fraction bits, bias 127).
Arithmetic is performed on the decoded sign/exponent/mantissa fields with
exact integer magnitudes and a single truncation (never rounding) when the
result is packed back to 24 mantissa bits.  Only normal numbers and signed
zeros exist in this world: exponent overflow saturates to the largest
normal magnitude, underflow flushes to a signed zero, and both events are
reported through an optional :class:`FpuFlags` accumulator.  Subnormals,
infinities and NaNs are rejected as operands.

Every operation is a pure function of its inputs; the flags accumulator is
owned by the caller, so concurrent streams simply use separate accumulators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

WORD_MASK = 0xFFFFFFFF
SIGN_MASK = 0x80000000
EXP_MASK = 0x7F800000
FRAC_MASK = 0x007FFFFF
IMPLICIT_BIT = 0x00800000
BIAS = 127
MAX_NORMAL_MAG = 0x7F7FFFFF  # e=254, f=all ones

ZERO_POS = 0x00000000
ZERO_NEG = 0x80000000


class FpuOpCode(IntEnum):
    """2-bit operation selector."""

    ADD = 0b00
    SUB = 0b01
    MUL = 0b10
    CMP = 0b11


class CmpCode(IntEnum):
    """2-bit comparison result, stored in the low bits of a 32-bit word."""

    EQUAL = 0b00
    GREATER = 0b01
    LESS = 0b10


@dataclass
class FpuFlags:
    """Sticky event counters for exponent-range violations.

    ``overflow`` counts saturations to the maximum normal magnitude,
    ``underflow`` counts flushes to signed zero.
    """

    overflow: int = 0
    underflow: int = 0

    def reset(self) -> None:
        self.overflow = 0
        self.underflow = 0

    def any(self) -> bool:
        return bool(self.overflow or self.underflow)


class OperandError(ValueError):
    """Raised when an operand word is not a normal number or a signed zero."""


def split(word: int) -> tuple[int, int, int]:
    """Return the (sign, exponent, fraction) fields of a word."""
    return word >> 31, (word >> 23) & 0xFF, word & FRAC_MASK


def join(sign: int, exponent: int, fraction: int) -> int:
    """Pack (sign, exponent, fraction) fields into a word."""
    if sign not in (0, 1):
        raise ValueError(f"sign must be 0 or 1, got {sign}")
    if not 0 <= exponent <= 0xFF:
        raise ValueError(f"exponent out of range: {exponent}")
    if not 0 <= fraction <= FRAC_MASK:
        raise ValueError(f"fraction out of range: {fraction}")
    return (sign << 31) | (exponent << 23) | fraction


def is_zero(word: int) -> bool:
    return word & ~SIGN_MASK == 0


def is_normal(word: int) -> bool:
    return 1 <= (word >> 23) & 0xFF <= 254


def encode(value: float) -> int:
    """Quantize a Python float to a word (round-to-nearest, ingest only)."""
    word = struct.unpack("<I", struct.pack("<f", value))[0]
    e = (word >> 23) & 0xFF
    if e == 0:
        return word & SIGN_MASK  # flush subnormals at ingest
    if e == 0xFF:
        raise ValueError(f"value not representable as a normal float32: {value!r}")
    return word


def decode(word: int) -> float:
    """Exact float value of a word (normal numbers and zeros)."""
    return struct.unpack("<f", struct.pack("<I", word & WORD_MASK))[0]


def to_hex(word: int) -> str:
    return f"{word & WORD_MASK:08x}"


def from_hex(text: str) -> int:
    word = int(text, 16)
    if not 0 <= word <= WORD_MASK:
        raise ValueError(f"not a 32-bit word: {text!r}")
    return word


def _check_operand(word: int) -> None:
    e = (word >> 23) & 0xFF
    if e == 0xFF or (e == 0 and word & FRAC_MASK):
        raise OperandError(f"operand {to_hex(word)} is not a normal number or zero")


def _pack(sign: int, mag: int, scale_exp: int, flags: FpuFlags | None) -> int:
    """Truncate an exact magnitude ``mag * 2**(scale_exp - BIAS - 23)`` to a word.

    ``mag`` is an arbitrary-precision positive integer; the top bit lands in
    the implicit-mantissa slot and everything below the 23 kept fraction bits
    is dropped.  Out-of-range exponents saturate or flush.
    """
    top = mag.bit_length() - 1
    exp = scale_exp + top - 23
    if exp > 254:
        if flags is not None:
            flags.overflow += 1
        return (sign << 31) | MAX_NORMAL_MAG
    if exp < 1:
        if flags is not None:
            flags.underflow += 1
        return sign << 31
    if top > 23:
        m24 = mag >> (top - 23)
    else:
        m24 = mag << (23 - top)
    return (sign << 31) | (exp << 23) | (m24 & FRAC_MASK)


def fpu_add(a: int, b: int, flags: FpuFlags | None = None) -> int:
    """Add two words.

    The smaller operand is aligned without losing any shifted-out bits, the
    magnitudes are combined exactly and the result is truncated once while
    being normalized.  Exact cancellation yields +0.
    """
    _check_operand(a)
    _check_operand(b)
    if a & ~SIGN_MASK == 0:
        if b & ~SIGN_MASK == 0:
            return a if a == b else ZERO_POS
        return b
    if b & ~SIGN_MASK == 0:
        return a

    sa = a >> 31
    ea = (a >> 23) & 0xFF
    ma = (a & FRAC_MASK) | IMPLICIT_BIT
    sb = b >> 31
    eb = (b >> 23) & 0xFF
    mb = (b & FRAC_MASK) | IMPLICIT_BIT

    # Align at the smaller exponent's scale: widening the larger operand keeps
    # the combination exact, truncation happens only in _pack.
    if ea >= eb:
        base = eb
        ma <<= ea - eb
    else:
        base = ea
        mb <<= eb - ea

    if sa == sb:
        return _pack(sa, ma + mb, base, flags)
    if ma > mb:
        return _pack(sa, ma - mb, base, flags)
    if mb > ma:
        return _pack(sb, mb - ma, base, flags)
    return ZERO_POS


def fpu_sub(a: int, b: int, flags: FpuFlags | None = None) -> int:
    """Subtract ``b`` from ``a``: :func:`fpu_add` of ``a`` and ``b`` negated.

    The operands are checked first so an :class:`OperandError` names the
    word the caller passed, not its negation.
    """
    _check_operand(a)
    _check_operand(b)
    return fpu_add(a, b ^ SIGN_MASK, flags)


def fpu_mul(a: int, b: int, flags: FpuFlags | None = None) -> int:
    """Multiply two words: XOR of signs, exponents added minus the bias,
    exact 48-bit mantissa product truncated back to 24 bits."""
    _check_operand(a)
    _check_operand(b)
    sign = (a >> 31) ^ (b >> 31)
    if a & ~SIGN_MASK == 0 or b & ~SIGN_MASK == 0:
        return sign << 31
    ea = (a >> 23) & 0xFF
    eb = (b >> 23) & 0xFF
    prod = (((a & FRAC_MASK) | IMPLICIT_BIT)) * ((b & FRAC_MASK) | IMPLICIT_BIT)
    # prod carries 46..47 fraction-scale bits below the implicit slot
    return _pack(sign, prod, ea + eb - BIAS - 23, flags)


def normalize(
    mantissa: int,
    exponent: int,
    frac_bits: int = 23,
    flags: FpuFlags | None = None,
) -> tuple[int, int]:
    """Normalize a raw mantissa so the leading 1 sits in the implicit slot.

    ``mantissa`` is a positive integer whose low ``frac_bits`` bits sit below
    the implicit-bit position; a 24-bit pattern with bit 23 set is already in
    ``1.f`` form for the default ``frac_bits``.  Returns the truncated 23-bit
    fraction and the adjusted 8-bit exponent.  Exponent excursions outside
    [1, 254] are reported via ``flags`` and clamped.
    """
    if mantissa <= 0:
        raise ValueError("normalize requires a nonzero positive mantissa")
    word = _pack(0, mantissa, exponent + (23 - frac_bits), flags)
    return word & FRAC_MASK, (word >> 23) & 0xFF


def fpu_cmp(a: int, b: int, mode: str = "corrected") -> CmpCode:
    """Compare two words: sign test, then exponent test, then fraction test.

    ``mode="verbatim"`` replays the raw field comparison, which orders
    negative pairs by magnitude (so -1 < -2).  ``mode="corrected"`` flips the
    exponent/fraction ordering when both operands are negative, giving the
    true numeric order for all pairs of distinct normal numbers.
    """
    if mode not in ("corrected", "verbatim"):
        raise ValueError(f"unknown comparison mode: {mode!r}")
    _check_operand(a)
    _check_operand(b)
    sa, ea, fa = split(a)
    sb, eb, fb = split(b)
    if sa > sb:
        return CmpCode.LESS
    if sb > sa:
        return CmpCode.GREATER
    gt, lt = CmpCode.GREATER, CmpCode.LESS
    if mode == "corrected" and sa == 1:
        gt, lt = lt, gt
    if ea > eb:
        return gt
    if eb > ea:
        return lt
    if fa > fb:
        return gt
    if fb > fa:
        return lt
    return CmpCode.EQUAL


def fpu_op(
    code: FpuOpCode | int,
    a: int,
    b: int,
    flags: FpuFlags | None = None,
    cmp_mode: str = "corrected",
) -> int:
    """Dispatch one operation by its 2-bit selector, returning a 32-bit word.

    Comparison results occupy the low two bits with the upper 30 bits zero.
    """
    try:
        code = FpuOpCode(code)
    except ValueError:
        raise ValueError(f"invalid operation selector: {code!r}") from None
    if code is FpuOpCode.ADD:
        return fpu_add(a, b, flags)
    if code is FpuOpCode.SUB:
        return fpu_sub(a, b, flags)
    if code is FpuOpCode.MUL:
        return fpu_mul(a, b, flags)
    return int(fpu_cmp(a, b, cmp_mode))
