"""Full-rank lattices in R^n: basis arithmetic, duals, density, box enumeration.

A lattice is given by an invertible basis matrix whose columns generate it;
every point is ``basis @ z`` for an integer vector ``z``.  All enumeration
routines return those integer coordinates alongside the real positions, so
downstream identities can be checked exactly in ``z`` instead of matching
floating-point positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Most candidates one level of ``lattice_points_in_box`` may materialise; the
# last level holds about as many candidates as the box holds lattice points.
DEFAULT_BUDGET = 100_000_000
BOUNDARY_TOL = 1e-9  # how far outside a closed box or window a point still counts as in


class BudgetError(RuntimeError):
    """An enumeration would materialise more candidates than its budget allows."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box [lo_i, hi_i]; hi < lo in a coordinate marks it empty."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi) -> None:
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        object.__setattr__(self, "lo", _readonly(lo))
        object.__setattr__(self, "hi", _readonly(hi))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return bool((self.hi < self.lo).any())

    @property
    def volume(self) -> float:
        if self.is_empty:
            return 0.0
        return float(np.prod(self.sides))

    def contains(self, points):
        """Closed-box membership within ``BOUNDARY_TOL``; vectorised over rows."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points of width {pts.shape[1]} against a box of dimension {self.dim}")
        ok = ((pts >= self.lo - BOUNDARY_TOL).all(axis=1)
              & (pts <= self.hi + BOUNDARY_TOL).all(axis=1))
        return bool(ok[0]) if single else ok

    def contains_box(self, other: "Box") -> bool:
        if other.is_empty:
            return True
        return bool((other.lo >= self.lo - BOUNDARY_TOL).all()
                    and (other.hi <= self.hi + BOUNDARY_TOL).all())

    def intersect(self, other: "Box") -> "Box":
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    def inflate(self, margin) -> "Box":
        margin = np.asarray(margin, dtype=float)
        return Box(self.lo - margin, self.hi + margin)

    def shifted(self, t) -> "Box":
        t = np.asarray(t, dtype=float)
        return Box(self.lo + t, self.hi + t)

    @staticmethod
    def product(first: "Box", second: "Box") -> "Box":
        return Box(np.concatenate([first.lo, second.lo]), np.concatenate([first.hi, second.hi]))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in R^n; ``basis`` columns generate, ``inv_basis`` is cached."""

    basis: np.ndarray
    inv_basis: np.ndarray
    det_abs: float

    def __init__(self, basis) -> None:
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or basis.shape[0] == 0:
            raise ValueError("basis must be a non-empty square matrix")
        if not np.isfinite(basis).all():
            raise ValueError("basis entries must be finite")
        n = basis.shape[0]
        det = float(np.linalg.det(basis))
        col_scale = float(np.max(np.linalg.norm(basis, axis=0)))
        if abs(det) <= 1e-12 * max(col_scale, 1e-300) ** n:
            raise ValueError("singular basis")
        inv_basis = np.linalg.inv(basis)
        if not np.isfinite(inv_basis).all():
            raise ValueError("basis inverse is not finite; rescale the basis")
        object.__setattr__(self, "basis", _readonly(basis))
        object.__setattr__(self, "inv_basis", _readonly(inv_basis))
        object.__setattr__(self, "det_abs", abs(det))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def points(self, z) -> np.ndarray:
        """Positions ``basis @ z`` for integer coordinate rows ``z``.

        Accumulates column by column in a fixed order so that the same ``z``
        yields bit-identical positions from every call site, independent of
        batch size.
        """
        z = np.asarray(z)
        if z.shape[-1] != self.n:
            raise ValueError(f"integer coordinates must have length {self.n}")
        zz = np.atleast_2d(z).astype(float)
        out = np.zeros((zz.shape[0], self.n))
        for j in range(self.n):
            out += zz[:, j : j + 1] * self.basis[:, j]
        return out[0] if z.ndim == 1 else out

    def coordinates(self, points) -> np.ndarray:
        """Real-valued preimage ``inv_basis @ p`` of positions."""
        return np.asarray(points, dtype=float) @ self.inv_basis.T


def density(lat: Lattice) -> float:
    """Points per unit volume, 1 / |det basis|."""
    return 1.0 / lat.det_abs


def dual(lat: Lattice) -> Lattice:
    """Dual lattice under the pairing exp(2*pi*i k.l); basis is the inverse transpose."""
    return Lattice(lat.inv_basis.T.copy())


def _integer_ranges(lat: Lattice, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate integer bounds covering the preimage of ``box``.

    Interval arithmetic on inv_basis applied to the box makes the cover
    complete; the small pad absorbs floating-point rounding.
    """
    lo = np.empty(lat.n, dtype=np.int64)
    hi = np.empty(lat.n, dtype=np.int64)
    for i in range(lat.n):
        row = lat.inv_basis[i]
        t_lo = np.minimum(row * box.lo, row * box.hi)
        t_hi = np.maximum(row * box.lo, row * box.hi)
        s_lo, s_hi = float(t_lo.sum()), float(t_hi.sum())
        reach = float(np.max(np.abs([s_lo, s_hi])))  # nan propagates
        if not reach <= 2.0**53:  # beyond it consecutive integers are not distinct floats
            raise BudgetError(
                f"enumeration budget exceeded: the box's preimage reaches |z{i}| = {reach:.3e} "
                "> 2**53; shrink the box or use a better-conditioned basis"
            )
        pad = 1e-6 + 1e-12 * reach
        lo[i] = int(np.ceil(s_lo - pad))
        hi[i] = int(np.floor(s_hi + pad))
    return lo, hi


# Relative slack added to every bound row: it absorbs the rounding of
# ``Lattice.points``, of the elimination and of evaluating the bounds, each
# many orders of magnitude below it.  Slack only adds candidates.
_ROW_PAD = 1e-9
# A coefficient whose largest term on the cover is below this fraction of its
# row's magnitude is folded into the right-hand side.
_TINY_TERM = 1e-12


def _tidy(a, b, hist, m):
    """Relax negligible coefficients into ``b``, drop void rows, scale rows to unit size.

    On the cover |z_j| <= m_j, so replacing a_j z_j by its bound |a_j| m_j
    only weakens a row; so does dropping a row.  Afterwards no coefficient
    is tiny against its row, which keeps the divisions in ``_eliminate``
    finite even for subnormal basis entries.
    """
    w = np.abs(a) * m
    tiny = w <= _TINY_TERM * (w.sum(axis=1) + np.abs(b))[:, None]
    b = b + np.where(tiny, w, 0.0).sum(axis=1)
    a = np.where(tiny, 0.0, a)
    live = (a != 0).any(axis=1)
    a, b, hist = a[live], b[live], hist[live]
    scale = (np.abs(a) * m).sum(axis=1) + np.abs(b)
    return a / scale[:, None], b / scale, hist


def _eliminate(a, b, hist, k, m):
    """Fourier-Motzkin: project the rows ``a z <= b`` along coordinate ``k``.

    ``hist`` marks the original rows each row combines.  After eliminating
    s coordinates a row combining more than s + 1 of them is redundant
    (Chernikov's rule), and rows with the same history coincide; dropping
    both kinds keeps the system small without loosening it.
    """
    c = a[:, k]
    pos, neg = c > 0, c < 0
    ap, bp = a[pos] / c[pos, None], b[pos] / c[pos]
    an, bn = a[neg] / -c[neg, None], b[neg] / -c[neg]
    mag_p = np.abs(ap) @ m + np.abs(bp)
    mag_n = np.abs(an) @ m + np.abs(bn)
    new_a = (ap[:, None, :] + an[None, :, :]).reshape(-1, a.shape[1])
    new_a[:, k] = 0.0
    new_b = (bp[:, None] + bn[None, :] + _ROW_PAD * (mag_p[:, None] + mag_n[None, :])).reshape(-1)
    new_h = (hist[pos][:, None, :] | hist[neg][None, :, :]).reshape(-1, hist.shape[1])

    eliminated = a.shape[1] - k
    keep = new_h.sum(axis=1) <= eliminated + 1
    a = np.concatenate([a[~(pos | neg)], new_a[keep]])
    b = np.concatenate([b[~(pos | neg)], new_b[keep]])
    hist = np.concatenate([hist[~(pos | neg)], new_h[keep]])
    _, first = np.unique(hist, axis=0, return_index=True)
    return _tidy(a[first], b[first], hist[first], m)


def lattice_points_in_box(
    lat: Lattice, box: Box, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points inside the closed ``box``: arrays (Z, P).

    Output-sensitive and complete by construction, in the style of
    Fincke-Pohst.  The box is the system ``B z <= hi + BOUNDARY_TOL``,
    ``-B z <= -(lo - BOUNDARY_TOL)``; Fourier-Motzkin elimination of
    z_{n-1}, ..., z_1 yields, for every k, rows bounding z_k given
    z_0..z_{k-1}.  Prefixes are expanded level by level, z_0 outermost, each
    range clamped to the interval-arithmetic cover of the preimage, so rows
    come out in lexicographic order of z.  Positions are then filtered
    against the box with ``Box.contains``.  Every row carries a small relative slack,
    which can only add candidates.  Raises BudgetError before materialising
    a level whose candidate count exceeds ``budget``; the last level holds
    about as many candidates as there are points in the box.
    """
    if box.dim != lat.n:
        raise ValueError(f"box dimension {box.dim} does not match lattice dimension {lat.n}")
    n = lat.n
    empty = (np.zeros((0, n), dtype=np.int64), np.zeros((0, n)))
    if box.is_empty:
        return empty
    cover_lo, cover_hi = _integer_ranges(lat, box)
    if (cover_hi < cover_lo).any():
        return empty
    m = np.maximum(np.abs(cover_lo), np.abs(cover_hi)).astype(float)

    a = np.concatenate([lat.basis, -lat.basis])
    b = np.concatenate([box.hi + BOUNDARY_TOL, -(box.lo - BOUNDARY_TOL)])
    b = b + _ROW_PAD * (np.abs(a) @ m + np.abs(b))
    systems = [_tidy(a, b, np.eye(2 * n, dtype=bool), m)]
    for k in range(n - 1, 0, -1):
        systems.append(_eliminate(*systems[-1], k, m))
    systems.reverse()

    z = np.zeros((1, 0), dtype=np.int64)
    for k, (a, b, _) in enumerate(systems):
        c = a[:, k]
        pos, neg = c > 0, c < 0
        rhs = b - z.astype(float) @ a[:, :k].T
        up = np.min(rhs[:, pos] / c[pos], axis=1, initial=np.inf)
        down = np.max(rhs[:, neg] / c[neg], axis=1, initial=-np.inf)
        first = np.ceil(np.fmax(down, cover_lo[k])).astype(np.int64)
        last = np.floor(np.fmin(up, cover_hi[k])).astype(np.int64)
        counts = np.maximum(last - first + 1, 0)
        total = int(counts.sum())
        if total > budget:
            raise BudgetError(
                f"enumeration budget exceeded: {total} candidates for coordinate z{k} > "
                f"budget {budget}; raise `budget = ...` in the config or pass --budget"
            )
        rows = np.repeat(np.arange(len(z)), counts)
        step = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        z = np.column_stack([z[rows], first[rows] + step])

    p = lat.points(z)
    keep = box.contains(p)
    return z[keep], p[keep]


def _row_radix(rows: np.ndarray) -> tuple[list, list[int]] | None:
    """Column minima and spans of int64 rows, or None when there are no rows or
    the product of the spans passes 2**63, where a ``_radix_key`` would overflow."""
    if rows.size == 0:
        return None
    lo, spans, total = [], [], 1
    for col in rows.T:  # column by column: a strided min(axis=0) is several times slower
        col_lo = col.min()
        span = int(col.max()) - int(col_lo) + 1
        if total * span > 2**63:
            return None
        lo.append(col_lo)
        spans.append(span)
        total *= span
    return lo, spans


def _radix_key(rows: np.ndarray, lo: list, spans: list[int]) -> np.ndarray:
    """One int64 per row, equal exactly where the rows are.

    The key is the row's offset from ``lo`` read as a mixed-radix number whose
    digits run over ``spans``.  A row outside the spans gets a meaningless
    key: its int64 arithmetic may wrap.
    """
    key, total = None, 1
    for col, col_lo, span in zip(rows.T, lo, spans):
        digit = np.subtract(col, col_lo, dtype=np.int64)
        # while every earlier column is constant the key is this digit; after
        # that total >= 2, so span <= 2**62 and key * span cannot overflow
        key = digit if total == 1 else key * span + digit
        total *= span
    return key


def _row_key(rows: np.ndarray) -> np.ndarray | None:
    """``_radix_key`` over the rows' own column spans, or None where it would overflow."""
    radix = _row_radix(rows)
    return None if radix is None else _radix_key(rows, *radix)


class _RowIndex:
    """Exact lookup of int64 query rows among key rows sorted once.

    The keys are sorted on ``_radix_key`` over their own column spans; a query
    row outside those spans matches no key, one inside is found by
    ``searchsorted``.  Keys whose spans would overflow the radix key are
    grouped with each call's queries instead.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.radix = _row_radix(keys)
        if self.radix is not None:
            radix_key = _radix_key(keys, *self.radix)
            self.order = np.argsort(radix_key, kind="stable")  # repeats find their lowest index
            self.sorted = radix_key[self.order]
            self.lo, self.hi = keys.min(axis=0), keys.max(axis=0)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row among the keys (the lowest on repeats), ``len(keys)`` where absent."""
        n = len(self.keys)
        if self.radix is None:
            label, first = _group_rows(np.concatenate([self.keys, rows]))
            return np.minimum(first[label[n:]], n)
        inside = np.ones(len(rows), dtype=bool)
        for col, col_lo, col_hi in zip(rows.T, self.lo, self.hi):  # faster than a 2-D all(axis=1)
            inside &= (col >= col_lo) & (col <= col_hi)
        key = _radix_key(rows, *self.radix)
        pos = np.minimum(np.searchsorted(self.sorted, key), n - 1)
        return np.where(inside & (self.sorted[pos] == key), self.order[pos], n)


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of an int64 array exactly: arrays (label, first).

    Groups are numbered by their lowest member index; ``label[i]`` is the
    group of row i and ``first[g]`` the lowest index in group g.  Looking up
    queries among keys is this grouping of the keys and queries concatenated.
    Rows are sorted on their ``_row_key`` when it exists, else on all columns.
    """
    starts = np.ones(len(rows), dtype=bool)
    key = _row_key(rows)
    if key is None:
        order = np.lexsort(rows.T)
        srt = rows[order]
        starts[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    else:
        order = np.argsort(key)  # not stable: each run's lowest index is taken below
        srt = key[order]
        starts[1:] = srt[1:] != srt[:-1]
    del key, srt  # freed before the label arrays are built
    run_first = np.minimum.reduceat(order, np.flatnonzero(starts))
    by_first = np.argsort(run_first)
    rank = np.empty(len(by_first), dtype=np.int64)
    rank[by_first] = np.arange(len(by_first))
    label = np.empty(len(rows), dtype=np.int64)
    label[order] = rank[np.cumsum(starts) - 1]
    return label, run_first[by_first]
