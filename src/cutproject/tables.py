"""CSV tables: the exact ``%.17g`` writer, and spectrum CSV files.

``_write_table`` writes numpy columns byte for byte as Python's ``%`` formats
each value; every table of the command line goes through it.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from functools import cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .spectra import DiffractionSpectrum

_TABLE_CHUNK = 2048  # rows per _write_table encoding pass; bounds its memory, ~280 bytes a value
_POW_LO, _POW_HI = -300, 350  # index k - _POW_LO: 10**k and exponent 16 - k, each float64's +- 1
# Relative distance from a half-integer within which a product's rint is not trusted: twice the
# eps / 2 + eps / 2 of the power's and the product's roundings, + 2**-106 for a wider longdouble.
_TIE_BOUND = 2 * float(np.finfo(np.longdouble).eps) + 2.0 ** -106
# Slots: every byte a value's text can hold, then two for the separator after it (the first kept).
# Float: sign, "0.000", the 17 digits each followed by a point slot, "e", exponent sign, 3 digits.
_FLOAT_ROW = b"-0.000" + b"0." * 16 + b"0e+000" + b"\0\0"
_INT_ROW = b"-" + b"0" * 19 + b"\0\0"


class _Decimal(NamedTuple):
    """Tables of the value encoders, built once per process by ``_decimal_tables``."""

    words: np.ndarray  # the bytes "0000".."9999" read as uint32, so a view as uint8 gives them back
    dotted: np.ndarray  # uint64: 4 digits with a point slot each, then with "e" last, then heads
    tails: np.ndarray  # trailing zeros of each 4-digit group, 16 for 0000
    powers: np.ndarray  # 10**k for k = _POW_LO.._POW_HI as longdouble, inf beyond its range
    exponents: np.ndarray  # exponent sign and 3 digits of each e, as uint32
    layouts: np.ndarray  # each e's row offset in float_keeps
    float_keeps: np.ndarray  # _FLOAT_ROW keep masks by (sign, layout, significant digits)
    int_keeps: np.ndarray  # _INT_ROW keep masks by (sign, digits)


def _rounded(num: int, den: int, bits: int) -> tuple[int, int]:
    """(m, s) with m / 2**s the nearest-even rounding of num / den to ``bits`` significant bits."""
    s = bits - num.bit_length() + den.bit_length()
    if num << max(s, 0) >= den << (max(-s, 0) + bits):
        s -= 1
    m, rem = divmod(num << max(s, 0), den << max(-s, 0))
    twice = 2 * rem - (den << max(-s, 0))
    return m + (twice > 0 or (twice == 0 and m & 1)), s


@cache
def _decimal_tables() -> _Decimal:
    """The encoders' tables, on first use.

    Each power is 10**k rounded to nearest-even at the longdouble precision in
    Python integers, then assembled exactly from 32-bit pieces and one
    ``ldexp``: it is within half an ulp of 10**k whatever numpy's own
    conversions do.  Float layouts 0..20 are the fixed form of exponents -4..16,
    21 and 22 the exponent form with a 2- and a 3-digit exponent.
    """
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (ord("0") + digits).astype(np.uint8)
    dotted = np.full((2, 10000, 8), ord("."), np.uint8)
    dotted[:, :, ::2], dotted[1, :, 7] = chars, ord("e")
    heads = np.frombuffer(b"".join(_FLOAT_ROW[:6] + b"%d." % k for k in range(10)), np.uint64)  # lead
    tails = np.where(digits.any(axis=1), np.argmax(digits[:, ::-1] != 0, axis=1), 16).astype(np.int8)
    bits = np.finfo(np.longdouble).nmant + 1
    ms, ss = zip(*(_rounded(10 ** max(k, 0), 10 ** max(-k, 0), bits)
                   for k in range(_POW_LO, _POW_HI + 1)))
    powers = np.zeros(len(ms), np.longdouble)
    for shift in range(32 * (bits // 32), -1, -32):
        powers = powers * 2 ** 32 + np.array([(m >> shift) & 0xFFFFFFFF for m in ms], np.longdouble)
    with np.errstate(over="ignore", under="ignore"):
        powers = np.ldexp(powers, -np.array(ss))

    e = 16 - np.arange(_POW_LO, _POW_HI + 1)
    exponents = np.frombuffer(b"".join(b"%+04d" % k for k in e), np.uint32)
    layouts = 18 * np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100))
    neg = np.arange(2)[:, None, None]
    layout = np.arange(23)[None, :, None]
    sig = np.arange(18)[None, None, :]
    fixed, fixed_e = layout <= 20, layout - 4
    whole = np.where(fixed, np.maximum(fixed_e + 1, 0), 1)  # digits before the point
    zeros = np.where(fixed & (fixed_e < 0), 1 - fixed_e, 0)  # of "0.000" before the digits
    float_keeps = np.zeros((2, 23, 18, len(_FLOAT_ROW)), bool)
    float_keeps[..., 0] = neg
    float_keeps[..., 1:6] = np.arange(5) < zeros[..., None]
    float_keeps[..., 6:39:2] = np.arange(17) < np.maximum(sig, whole)[..., None]
    float_keeps[..., 7:38:2] = np.arange(16) == np.where(sig > whole, whole - 1, -1)[..., None]
    float_keeps[..., 39:41] = float_keeps[..., 42:44] = ~fixed[..., None]
    float_keeps[..., 41], float_keeps[..., 44] = layout == 22, True  # 44: the separator's first
    int_keeps = np.zeros((2, 20, len(_INT_ROW)), bool)
    int_keeps[..., 0], int_keeps[..., 20] = np.arange(2)[:, None], True
    int_keeps[..., 1:20] = np.arange(19) >= 19 - np.maximum(np.arange(20), 1)[:, None]
    return _Decimal(chars.view(np.uint32).ravel(), np.append(dotted.view(np.uint64), heads), tails,
                    powers, exponents, layouts, float_keeps.reshape(-1, len(_FLOAT_ROW)),
                    int_keeps.reshape(-1, len(_INT_ROW)))


def _encode_floats(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write the (rows, k) values ``x`` into (rows, k, ``_FLOAT_ROW``) views: the kept ``chars``
    of a value are ``"%.17g" % x``, and the separator's first keep slot is set.

    The 17 digits are ``rint`` of |x| * 10**(16 - e), one longdouble product with
    e = floor(log10|x|), moved by one where the product leaves [1e16, 1e17).
    The power's rounding and the product's each move the product by at most
    eps / 2 times itself, so where its fraction ``prod - rint(prod)`` is more
    than twice eps times the digits from a half-integer (a float64 test) its
    ``rint`` is the correctly rounded 17-digit significand.  Every other value
    (zero, inf, nan, a near-tie, a product out of range) is formatted by ``%``;
    where longdouble is float64 that is every value.
    """
    t = _decimal_tables()
    mag = np.abs(x)
    exact = (mag > 0) & (mag < np.inf)
    mag = np.where(exact, mag, 1.0)
    ix = 16 - _POW_LO - np.floor(np.log10(mag)).astype(np.int64)  # the tables' index of e
    mag = mag.astype(np.longdouble)
    prod = mag * t.powers[ix]
    off = np.nonzero((prod < 1e16) | (prod >= 1e17))  # log10 is off next to powers of ten
    if len(off[0]):
        ix[off] += np.where(prod[off] < 1e16, 1, -1)
        prod[off] = mag[off] * t.powers[ix[off]]
        exact[off] &= (prod[off] >= 1e16) & (prod[off] < 1e17)
        prod[off] = np.where(exact[off], prod[off], 1e16)
    digits = np.rint(prod)
    n = digits.astype(np.int64)
    exact &= 0.5 - np.abs((prod - digits).astype(float)) > _TIE_BOUND * n  # exact fraction on x87
    carry = np.nonzero(n == 10 ** 17)
    n[carry], ix[carry] = 10 ** 16, ix[carry] - 1
    top = n // 10 ** 8  # by a constant, // is several times faster than % or divmod
    low = n - top * 10 ** 8
    lead, mid, high = top // 10 ** 8, top // 10 ** 4, low // 10 ** 4
    groups = [mid - lead * 10 ** 4, top - mid * 10 ** 4, high, low - high * 10 ** 4]
    tails = [np.take(t.tails, g) for g in groups]  # the last nonzero group's, then 4 a group
    tails = np.minimum(tails[3], 4 + np.minimum(tails[2], 4 + np.minimum(tails[1], 4 + tails[0])))
    words = chars[..., :40].view(np.uint64)
    for i, g in enumerate([lead + 20000, *groups[:3], groups[3] + 10000]):
        words[..., i] = np.take(t.dotted, g)
    chars[..., 40:44].view(np.uint32)[..., 0] = np.take(t.exponents, ix)
    row = np.take(t.layouts, ix) + np.signbit(x) * (23 * 18) + (17 - tails)
    np.take(t.float_keeps, row, axis=0, out=keep, mode="clip")  # "raise" would copy out
    rest = (*np.nonzero(~exact), slice(None, -2))  # each written over its slot but the separator's
    if len(rest[0]):
        text = np.array(["%.17g" % v for v in x[rest[:2]].tolist()], f"S{len(_FLOAT_ROW) - 2}")
        chars[rest] = text = text.view(np.uint8).reshape(len(rest[0]), -1)
        keep[rest] = text != 0


def _encode_ints(v: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """``_encode_floats`` for int64 values into ``_INT_ROW`` views, each kept as ``"%d" % v``."""
    t = _decimal_tables()
    mag = v.view(np.uint64)
    mag = np.where(v < 0, np.uint64(0) - mag, mag)  # |int64 min| = 2**63 fits uint64
    words = chars[..., :20].view(np.uint32)
    for i, div in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1)):
        words[..., i] = np.take(t.words, mag // div % 10 ** 4)
    chars[..., 0] = ord("-")  # over the "0" of mag // 10**16, which is at most 922
    length = np.searchsorted(10 ** np.arange(19, dtype=np.uint64), mag, side="right")
    np.take(t.int_keeps, (v < 0) * 20 + length, axis=0, out=keep, mode="clip")


def _write_table(path, header, columns) -> None:
    """Write a CSV table: the header, then row i holds element i of every column.

    Float columns are written ``%.17g``, which round-trips every float64, and
    integer columns in decimal, byte for byte as Python's ``%`` writes them.
    ``_TABLE_CHUNK`` rows at a time are encoded into one buffer of the columns'
    ``_FLOAT_ROW`` and ``_INT_ROW`` slots, a run of adjacent columns of one kind
    by one ``_encode_floats`` or ``_encode_ints``, separators once per table, and
    each chunk's kept bytes taken in one pass.  A ``path`` of None or "" is stdout.
    """
    n, is_int = len(columns[0]), [col.dtype.kind in "iu" for col in columns]
    ends = np.cumsum([len(_INT_ROW if i else _FLOAT_ROW) for i in is_int])
    chars, keep = (np.empty((min(n, _TABLE_CHUNK), ends[-1]), dtype) for dtype in (np.uint8, bool))
    chars[:, ends - 2] = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)  # encoders keep these
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _TABLE_CHUNK):
            rows = min(n - lo, _TABLE_CHUNK)
            for i, run in groupby(range(len(columns)), is_int.__getitem__):
                run, width = list(run), len(_INT_ROW if i else _FLOAT_ROW)
                block = np.stack([columns[j][lo : lo + rows] for j in run], 1, dtype=np.int64 if i else float)
                slot = np.s_[:rows, ends[run[0]] - width : ends[run[-1]]]
                (_encode_ints if i else _encode_floats)(
                    block, *(a[slot].reshape(rows, len(run), width) for a in (chars, keep)))
            fh.write(np.compress(keep[:rows].reshape(-1), chars[:rows]).tobytes().decode("ascii"))


def spectrum_to_csv(spectrum: DiffractionSpectrum, path) -> None:
    """Rows k1..kd,re,im,intensity in lexicographic peak order; no path writes to stdout."""
    header = [f"k{i + 1}" for i in range(spectrum.d)] + ["re", "im", "intensity"]
    amps = spectrum.amplitudes
    _write_table(path, header, [*spectrum.ks.T, amps.real, amps.imag, spectrum.intensities])
