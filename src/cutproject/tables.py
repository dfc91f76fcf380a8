"""CSV tables: the exact ``%.17g`` writer, and comb and spectrum CSV files.

``_write_table`` writes numpy columns byte for byte as Python's ``%`` formats
each value; every table of the command line goes through it.
"""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from functools import cache
from typing import NamedTuple

import numpy as np

from .comb import WeightedComb
from .spectra import DiffractionSpectrum

_TABLE_CHUNK = 2048  # rows per _write_table encoding pass; bounds its memory, ~400 bytes a value
_POW_LO, _POW_HI = -300, 350  # 10**(16 - e) for every float64 exponent e, with room for e +- 1
_EXP_LIM = 330  # exponents of the per-exponent tables run from -_EXP_LIM to _EXP_LIM
# Relative distance from a half-integer within which a longdouble product's rint is not
# trusted: twice the eps / 2 + eps / 2 that the power's and the product's roundings allow.
_TIE_BOUND = 2 * float(np.finfo(np.longdouble).eps)
# Superset rows: every byte a value's text can hold, then two slots for the separator after it.
# Float: sign, "0.000", the 17 digits each followed by a point slot, "e", exponent sign, 3 digits.
_FLOAT_ROW = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000" + b"\0\0", np.uint8)
_INT_ROW = np.frombuffer(b"-" + b"0" * 19 + b"\0\0", np.uint8)


class _Decimal(NamedTuple):
    """Tables of the value encoders, built once per process by ``_decimal_tables``."""

    words: np.ndarray  # the bytes "0000".."9999" read as uint32, so a view as uint8 gives them back
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
    words = (ord("0") + digits).astype(np.uint8).view(np.uint32).reshape(-1)
    bits = np.finfo(np.longdouble).nmant + 1
    ms, ss = zip(*(_rounded(10 ** max(k, 0), 10 ** max(-k, 0), bits)
                   for k in range(_POW_LO, _POW_HI + 1)))
    powers = np.zeros(len(ms), np.longdouble)
    for shift in range(32 * (bits // 32), -1, -32):
        powers = powers * 2 ** 32 + np.array([(m >> shift) & 0xFFFFFFFF for m in ms], np.longdouble)
    with np.errstate(over="ignore", under="ignore"):
        powers = np.ldexp(powers, -np.array(ss))

    e = np.arange(-_EXP_LIM, _EXP_LIM + 1)
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
    float_keeps[..., 41] = layout == 22
    int_keeps = np.zeros((2, 20, len(_INT_ROW)), bool)
    int_keeps[..., 0] = np.arange(2)[:, None]
    int_keeps[..., 1:20] = np.arange(19) >= 19 - np.maximum(np.arange(20), 1)[:, None]
    return _Decimal(words, powers, exponents, layouts, float_keeps.reshape(-1, len(_FLOAT_ROW)),
                    int_keeps.reshape(-1, len(_INT_ROW)))


def _encode_floats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Characters and keep mask, one ``_FLOAT_ROW`` each, whose kept bytes are ``"%.17g" % x``.

    The 17 digits are ``rint`` of |x| * 10**(16 - e), one longdouble product with
    e = floor(log10|x|), moved by one where the product leaves [1e16, 1e17).
    The power's rounding and the product's each move the product by at most
    eps / 2 times itself, so where it is more than twice eps times itself from
    a half-integer its ``rint`` is the correctly rounded 17-digit significand.
    Every other value (zero, inf, nan, a near-tie, a product out of range) is
    formatted by ``%``; where longdouble is float64 that is every value.
    The separator slots are left for the caller.
    """
    t = _decimal_tables()
    mag = np.abs(x)
    finite = np.isfinite(mag) & (mag > 0)
    mag = np.where(finite, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.int64)
    mag = mag.astype(np.longdouble)
    prod = mag * t.powers[16 - _POW_LO - e]
    off = np.flatnonzero((prod < 1e16) | (prod >= 1e17))  # log10 is off next to powers of ten
    if len(off):
        e[off] += np.where(prod[off] < 1e16, -1, 1)
        prod[off] = mag[off] * t.powers[16 - _POW_LO - e[off]]
    exact = finite & (prod >= 1e16) & (prod < 1e17)
    prod = np.where(exact, prod, 1e16)
    digits = np.rint(prod)
    exact &= 0.5 - np.abs(prod - digits) > _TIE_BOUND * prod
    n = digits.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    top, low = np.divmod(n, 10 ** 8)
    groups = np.empty((len(x), 4), np.int64)
    np.divmod(top % 10 ** 8, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    chars = np.empty((len(x), len(_FLOAT_ROW)), np.uint8)
    chars[:] = _FLOAT_ROW
    chars[:, 6] = ord("0") + top // 10 ** 8
    chars[:, 8:39:2] = np.take(t.words, groups).view(np.uint8).reshape(-1, 16)
    chars[:, 40:44] = np.take(t.exponents, e + _EXP_LIM).view(np.uint8).reshape(-1, 4)
    sig = 17 - np.argmax(chars[:, 38:5:-2] != ord("0"), axis=1)  # trailing zeros stripped
    row = np.take(t.layouts, e + _EXP_LIM) + np.signbit(x) * (23 * 18) + sig
    keep = np.take(t.float_keeps, row, axis=0)
    rest = np.flatnonzero(~exact)
    if len(rest):
        text = np.array(["%.17g" % v for v in x[rest].tolist()], f"S{len(_FLOAT_ROW)}")
        chars[rest] = text.view(np.uint8).reshape(len(rest), -1)
        keep[rest] = chars[rest] != 0
    return chars, keep


def _encode_ints(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Characters and keep mask, one ``_INT_ROW`` each, whose kept bytes are ``"%d" % v``.

    The separator slots are left for the caller.
    """
    t = _decimal_tables()
    mag = v.view(np.uint64)
    mag = np.where(v < 0, np.uint64(0) - mag, mag)  # |int64 min| = 2**63 fits uint64
    top, low = np.divmod(mag, np.uint64(10 ** 16))
    groups = np.stack([top, low // 10 ** 12, low // 10 ** 8 % 10 ** 4, low // 10 ** 4 % 10 ** 4,
                       low % 10 ** 4], axis=1).astype(np.intp)
    chars = np.empty((len(v), len(_INT_ROW)), np.uint8)
    chars[:, 0] = ord("-")
    chars[:, 1:20] = np.take(t.words, groups).view(np.uint8).reshape(-1, 20)[:, 1:]
    length = np.searchsorted(10 ** np.arange(19, dtype=np.uint64), mag, side="right")
    return chars, np.take(t.int_keeps, (v < 0) * 20 + length, axis=0)


def _write_table(path, header, columns, newline: str = "\n") -> None:
    """Write a CSV table: the header, then row i holds element i of every column.

    Float columns are written ``%.17g``, which round-trips every float64, and
    integer columns in decimal, byte for byte as Python's ``%`` writes them.
    ``_TABLE_CHUNK`` rows at a time are encoded, all float columns in one call
    of ``_encode_floats`` and all integer columns in one of ``_encode_ints``;
    the kept bytes of the chunk are taken in one pass and written.
    A ``path`` of None or "" writes to standard output.
    """
    ends = [sep.encode().ljust(2, b"\0") for sep in [","] * (len(columns) - 1) + [newline]]
    kinds = []  # per column kind: its encoder, dtype, columns and their separator bytes
    for encode, dtype, is_int in ((_encode_floats, float, False), (_encode_ints, np.int64, True)):
        index = [j for j, col in enumerate(columns) if (col.dtype.kind in "iu") == is_int]
        if index:
            sep = np.array([list(ends[j]) for j in index], np.uint8)
            kinds.append((encode, dtype, index, sep))
    n = len(columns[0])
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, n, _TABLE_CHUNK):
            rows = min(n - lo, _TABLE_CHUNK)
            slots = [None] * len(columns)
            for encode, dtype, index, sep in kinds:
                block = np.stack([columns[j][lo : lo + rows] for j in index], axis=1, dtype=dtype)
                chars, keep = (a.reshape(rows, len(index), -1) for a in encode(block.reshape(-1)))
                chars[:, :, -2:] = sep
                keep[:, :, -2:] = sep > 0
                for i, j in enumerate(index):
                    slots[j] = chars[:, i], keep[:, i]
            chars, keep = (np.concatenate(part, axis=1) for part in zip(*slots))
            fh.write(np.compress(keep.reshape(-1), chars).tobytes().decode("ascii"))


def comb_to_csv(comb: WeightedComb, path) -> None:
    """Write atoms as rows x1,...,xd,re,im, each line ended by CRLF."""
    header = [f"x{i + 1}" for i in range(comb.dim)] + ["re", "im"]
    _write_table(path, header, [*comb.positions.T, comb.weights.real, comb.weights.imag],
                 newline="\r\n")


def comb_from_csv(path) -> WeightedComb:
    """Read a comb written by comb_to_csv; duplicate positions are rejected."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("comb csv is empty: no header line")
        if len(header) < 3 or header[-2:] != ["re", "im"]:
            raise ValueError("comb csv must end with re,im columns")
        dim = len(header) - 2
        positions, weights = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"comb csv line {reader.line_num} has {len(row)} fields, "
                                 f"the header {len(header)}")
            values = [float(v) for v in row]
            positions.append(values[:dim])
            weights.append(complex(values[dim], values[dim + 1]))
    if not positions:
        return WeightedComb(np.zeros((0, dim)), np.zeros(0, complex))
    return WeightedComb(np.array(positions), np.array(weights))

def spectrum_to_csv(spectrum: DiffractionSpectrum, path) -> None:
    """Rows k1..kd,re,im,intensity in lexicographic peak order; no path writes to stdout."""
    header = [f"k{i + 1}" for i in range(spectrum.d)] + ["re", "im", "intensity"]
    amps = spectrum.amplitudes
    _write_table(path, header, [*spectrum.ks.T, amps.real, amps.imag, spectrum.intensities])
