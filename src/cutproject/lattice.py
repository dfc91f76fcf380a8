"""Full-rank lattices in R^n: basis arithmetic, duals, density, box enumeration.

A lattice is given by an invertible basis matrix whose columns generate it;
every point is ``basis @ z`` for an integer vector ``z``.  All enumeration
routines return those integer coordinates alongside the real positions, so
downstream identities can be checked exactly in ``z`` instead of matching
floating-point positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

DEFAULT_BUDGET = 100_000_000  # most candidates one level of ``lattice_points_in_box`` may materialise
BOUNDARY_TOL = 1e-9  # how far outside a closed box or window a point still counts as in
MERGE_TOL = 1e-9  # absolute position tolerance when coinciding atoms are merged


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
        ok = np.ones(len(pts), dtype=bool)  # by column: all(axis=1) reduces each short row alone
        for col, lo, hi in zip(pts.T, self.lo - BOUNDARY_TOL, self.hi + BOUNDARY_TOL):
            ok &= (col >= lo) & (col <= hi)
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

        Coordinate i is 0.0 plus ``z_j * basis[i, j]`` for j = 0, 1, ... in turn
        (``_positions``), so a ``z`` has the same bits from every call site and batch.
        """
        z = np.asarray(z)
        if z.shape[-1] != self.n:
            raise ValueError(f"integer coordinates must have length {self.n}")
        out = self._positions(np.atleast_2d(z).T).T.copy()
        return out[0] if z.ndim == 1 else out

    def _positions(self, cols) -> np.ndarray:
        """``points`` as an (n, k) array, from the k-long columns ``cols`` of z."""
        out = np.zeros((self.n, len(cols[0])))
        for j, col in enumerate(cols):
            out += self.basis[:, j : j + 1] * np.asarray(col, dtype=float)
        return out

    def coordinates(self, points) -> np.ndarray:
        """Real-valued preimage ``inv_basis @ p`` of positions."""
        return np.asarray(points, dtype=float) @ self.inv_basis.T

    @cached_property
    def _elimination(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The box rows eliminated once per lattice, for ``lattice_points_in_box``."""
        return _fourier_motzkin(self)

    @cached_property
    def _bound_rows(self) -> tuple[np.ndarray, np.ndarray, list]:
        """``_elimination`` as ``_points_in_boxes`` reads it: arrays (lam, dropped) and the levels.

        ``lam`` and ``dropped`` stack every level's multipliers and dropped
        coefficients, so one product per box forms every right-hand side.  Level
        k is (its rows of them, ``a[:, :k]``, ``a[:, k]`` as a column, how many
        rows bound z_k from above); those rows come first.
        """
        levels, lams, drops, start = [], [], [], 0
        for k, (a, lam, dropped) in enumerate(self._elimination):
            up_first = np.argsort(a[:, k] < 0, kind="stable")
            a, lam, dropped = a[up_first], lam[up_first], dropped[up_first]
            levels.append((slice(start, start + len(a)), _readonly(a[:, :k]), _readonly(a[:, k : k + 1]),
                           int((a[:, k] > 0).sum())))
            lams.append(lam)
            drops.append(dropped)
            start += len(a)
        return _readonly(np.concatenate(lams)), _readonly(np.concatenate(drops)), levels


def density(lat: Lattice) -> float:
    """Points per unit volume, 1 / |det basis|."""
    return 1.0 / lat.det_abs


def dual(lat: Lattice) -> Lattice:
    """Dual lattice under the pairing exp(2*pi*i k.l); basis is the inverse transpose."""
    return Lattice(lat.inv_basis.T.copy())


def _integer_ranges(lat: Lattice, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate integer bounds covering the preimages of the boxes [lo, hi], one row each.

    Interval arithmetic on inv_basis applied to each box makes the cover
    complete; the small pad absorbs floating-point rounding.
    """
    at_lo, at_hi = lat.inv_basis * lo[:, None, :], lat.inv_basis * hi[:, None, :]
    s_lo = np.minimum(at_lo, at_hi).sum(axis=2)
    s_hi = np.maximum(at_lo, at_hi).sum(axis=2)
    reach = np.maximum(np.abs(s_lo), np.abs(s_hi))  # nan propagates
    far = ~(reach <= 2.0**53)  # beyond it consecutive integers are not distinct floats
    if far.any():
        b, i = np.argwhere(far)[0]
        raise BudgetError(
            f"enumeration budget exceeded: the box's preimage reaches |z{i}| = {reach[b, i]:.3e} "
            "> 2**53; shrink the box or use a better-conditioned basis"
        )
    pad = 1e-6 + 1e-12 * reach
    return np.ceil(s_lo - pad).astype(np.int64), np.floor(s_hi + pad).astype(np.int64)


# Relative slack added to every bound row: it absorbs the rounding of
# ``Lattice.points``, of the elimination and of evaluating the bounds, each
# many orders of magnitude below it.  Slack only adds candidates.
_ROW_PAD = 1e-9
# A coefficient whose term is below this fraction of the terms its row
# combines is zeroed; each box folds it into the right-hand side.
_TINY_TERM = 1e-12


def _fourier_motzkin(lat: Lattice) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fourier-Motzkin elimination of the box rows ``A0 = [B; -B]``, from the basis alone.

    Level k holds arrays (a, lam, dropped), one row per inequality bounding
    z_k given z_0..z_{k-1}: ``a`` its coefficients on z_0..z_k (a[:, k] != 0),
    ``lam`` its nonnegative multipliers over the 2n rows of A0, and ``dropped``
    the absolute values of the coefficients zeroed as negligible.  So
    ``a z + (zeroed terms) = lam A0 z`` up to rounding, and any z with
    ``A0 z <= b0`` satisfies ``a z <= lam b0 + dropped |z|``.

    Coefficients are weighted by ``w_j``, the sum of |inv_basis[j]|, which
    bounds |z_j| per unit of box corner: a term |a_j| w_j at most
    ``_TINY_TERM`` times the row's combined ``lam |A0| w`` is zeroed, and rows
    are scaled to ``lam |A0| w = 1``.  Afterwards no coefficient is tiny
    against its row, which keeps the divisions finite even for subnormal
    basis entries, and cancellation leaves no noise coefficients.  After
    eliminating s coordinates a row combining more than s + 1 original rows
    is redundant (Chernikov's rule), and rows combining the same ones
    coincide; dropping both kinds keeps the system small without loosening it.
    """
    n = lat.n
    w = np.abs(lat.inv_basis).sum(axis=1)
    a0 = np.concatenate([lat.basis, -lat.basis])
    a0_w = np.abs(a0) @ w
    a, lam, dropped = a0, np.eye(2 * n), np.zeros((2 * n, n))
    levels = []
    for k in range(n - 1, -1, -1):
        # zero negligible coefficients, drop void rows, scale rows to unit size
        weight = lam @ a0_w
        tiny = np.abs(a) * w <= _TINY_TERM * weight[:, None]
        dropped = dropped + np.where(tiny, np.abs(a), 0.0)
        a = np.where(tiny, 0.0, a)
        live = (a != 0).any(axis=1)
        scale = weight[live, None]
        a, lam, dropped = a[live] / scale, lam[live] / scale, dropped[live] / scale
        c = a[:, k]
        bounding = c != 0
        levels.append((a[bounding, : k + 1], lam[bounding], dropped[bounding]))
        if k == 0:
            break
        # eliminate z_k: every positive row against every negative one
        pos, neg = c > 0, c < 0
        up = [x[pos] / c[pos, None] for x in (a, lam, dropped)]
        down = [x[neg] / -c[neg, None] for x in (a, lam, dropped)]
        new_a, new_lam, new_dropped = [
            (p[:, None, :] + q[None, :, :]).reshape(-1, p.shape[1]) for p, q in zip(up, down)
        ]
        new_a[:, k] = 0.0
        keep = (new_lam > 0).sum(axis=1) <= n - k + 1
        a = np.concatenate([a[~bounding], new_a[keep]])
        lam = np.concatenate([lam[~bounding], new_lam[keep]])
        dropped = np.concatenate([dropped[~bounding], new_dropped[keep]])
        # one row per support; its packed bits, column 0 the most significant, sort
        # as ``np.unique(lam > 0, axis=0)`` sorts the rows, and far faster
        support = np.packbits(lam > 0, axis=1)
        _, first = np.unique(support.view(f"V{support.shape[1]}")[:, 0], return_index=True)
        a, lam, dropped = a[first], lam[first], dropped[first]
    return [tuple(_readonly(x) for x in level) for level in reversed(levels)]


def lattice_points_in_box(
    lat: Lattice, box: Box, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points inside the closed ``box``: arrays (Z, P).

    Complete by construction, in the style of Fincke-Pohst.  The box is the
    system ``A0 z <= b0`` with ``A0 = [B; -B]``
    and ``b0 = [hi + BOUNDARY_TOL; -(lo - BOUNDARY_TOL)]``.  Fourier-Motzkin
    elimination of z_{n-1}, ..., z_1 depends on A0 alone, so it runs once
    per lattice (``Lattice._elimination``): for every k it yields rows
    ``a z <= rhs`` bounding z_k given z_0..z_{k-1}, each a combination of
    the rows of A0 with nonnegative multipliers lam.  Each call only forms
    the right-hand sides: ``lam b0`` is valid because the multipliers are
    nonnegative; a coefficient a_j zeroed as negligible is folded in as
    |a_j| m_j, its largest term on the cover |z_j| <= m_j; and the slack
    ``_ROW_PAD * lam (|A0| m + |b0|)`` absorbs every rounding.  Each step
    only weakens a row, so no lattice point of the box is lost.

    Prefixes are expanded level by level, z_0 outermost, as int64 columns,
    each range clamped to the interval-arithmetic cover of the preimage, so
    rows come out in lexicographic order of z.  Positions are then filtered
    against the box as ``Box.contains`` filters: the output is the same whichever
    complete system produced the candidates.  The cost follows the candidates,
    not the output (a thin, long box's preimage spans far more prefixes than
    it holds points); BudgetError is raised before a level passes ``budget``.
    """
    return _points_in_boxes(lat, [box], budget)


def _points_in_boxes(lat: Lattice, boxes: list[Box], budget: int = DEFAULT_BUDGET
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``lattice_points_in_box`` of each box, concatenated box after box, in one pass.

    The prefixes of all boxes are expanded together, level by level, each
    box's prefixes kept consecutive, so a list of boxes pays each level's
    fixed costs once.  Each box keeps its own right-hand sides, cover and budget:
    ``budget`` bounds the candidates of each box's levels, not their sum, and a
    box over it raises the error its own call raises, the first such box's.
    One box needs no box indices and broadcasts its bounds instead.
    """
    for box in boxes:
        if box.dim != lat.n:
            raise ValueError(f"box dimension {box.dim} does not match lattice dimension {lat.n}")
    try:
        return _expand_boxes(lat, boxes, budget)
    except BudgetError:
        if len(boxes) > 1:  # box by box, as the boxes' own calls would meet it
            for box in boxes:
                _expand_boxes(lat, [box], budget)
        raise


def _expand_boxes(lat: Lattice, boxes: list[Box], budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The body of ``_points_in_boxes``; its BudgetError is the first over-budget level's."""
    lo = np.array([box.lo for box in boxes]).reshape(-1, lat.n)
    hi = np.array([box.hi for box in boxes]).reshape(-1, lat.n)
    nonempty = (lo <= hi).all(axis=1)
    lo, hi = lo[nonempty], hi[nonempty]
    cover_lo, cover_hi = _integer_ranges(lat, lo, hi)
    live = (cover_lo <= cover_hi).all(axis=1)
    if not live.any():
        return np.zeros((0, lat.n), dtype=np.int64), np.zeros((0, lat.n))
    # one column per box that can hold a point, from here on
    lo, hi = lo[live].T - BOUNDARY_TOL, hi[live].T + BOUNDARY_TOL
    cover_lo, cover_hi = cover_lo[live].T, cover_hi[live].T
    m = np.maximum(np.abs(cover_lo), np.abs(cover_hi)).astype(float)

    b0 = np.concatenate([hi, -lo])
    mag = np.abs(lat.basis) @ m
    b0 = b0 + _ROW_PAD * (np.concatenate([mag, mag]) + np.abs(b0))  # so lam b0 carries the slack
    lam, dropped, levels = lat._bound_rows
    rhs = lam @ b0 + dropped @ m  # one row per row of every level
    single = lo.shape[1] == 1
    sizes = np.ones(lo.shape[1], dtype=np.int64)  # each box's prefixes, which are consecutive

    def per_prefix(x):  # the last axis of a per-box array, one entry per prefix; one box broadcasts
        return x if single else np.repeat(x, sizes, axis=-1)

    cols = []  # z_0..z_{k-1} of every prefix
    for k, (part, a, c, n_up) in enumerate(levels):
        prefix = np.array(cols, dtype=float) if cols else np.zeros((0, len(sizes)))
        bound = a @ prefix  # in place from here: fresh (rows, prefixes) temporaries cost page faults
        np.subtract(per_prefix(rhs[part]), bound, out=bound)
        bound /= c  # z_k <= bound on the first n_up rows, >= bound on the others
        up = np.min(bound[:n_up], axis=0, initial=np.inf)
        down = np.max(bound[n_up:], axis=0, initial=-np.inf)
        first = np.ceil(np.fmax(down, per_prefix(cover_lo[k]))).astype(np.int64)
        last = np.floor(np.fmin(up, per_prefix(cover_hi[k]))).astype(np.int64)
        counts = np.maximum(last - first + 1, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        # each box's candidates: what ends gains over the box's prefixes
        sizes = ends[-1:] if single else np.diff(np.append(0, ends)[np.append(0, np.cumsum(sizes))])
        over = sizes[sizes > budget]
        if len(over):  # a box's own candidates, not all boxes' together, are held to the budget
            raise BudgetError(
                f"enumeration budget exceeded: {over[0]} candidates for coordinate z{k} > "
                f"budget {budget}; raise `budget = ...` in the config or pass --budget"
            )
        cols = [np.repeat(col, counts) for col in cols]
        cols.append(np.repeat(first - (ends - counts), counts) + np.arange(total))

    p = lat._positions(cols)
    keep = np.ones(p.shape[1], dtype=bool)  # ``Box.contains`` of each point's box
    for row, row_lo, row_hi in zip(p, lo, hi):
        keep &= (row >= per_prefix(row_lo)) & (row <= per_prefix(row_hi))
    return tuple(np.stack([col[keep] for col in a], axis=1) for a in (cols, p))


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


def _near(points: np.ndarray, queries: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (query i, point j) at most ``r`` apart in the sup norm, as arrays (i, j).

    This closed sup-norm ball is the one rule by which float positions match:
    merges, duplicate checks, lifts, atom lookups and ``oracle --k`` all ask it.
    Pairs are ordered by i, then j, so ``_first_near``, which needs one match
    per query, takes its first pair, the lowest-index point.
    """
    tree = cKDTree(points)
    query_tree = tree if queries is points else cKDTree(queries)  # a self-join builds one tree
    pairs = query_tree.sparse_distance_matrix(tree, r, p=np.inf, output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    order = np.argsort(i * len(points) + j)  # distinct pairs, distinct keys: any sort will do
    return i[order], j[order]


def _first_near(points: np.ndarray, queries: np.ndarray, r: float) -> np.ndarray:
    """Per query, the lowest index of a point at most ``r`` away (sup norm), or ``len(points)``."""
    query, point = _near(points, queries, r)
    idx = np.full(len(queries), len(points))
    hit, first = np.unique(query, return_index=True)  # each query's first pair
    idx[hit] = point[first]
    return idx


def _nearest(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Euclidean distances from each query to its ``k`` nearest points, nearest first (k = 1: a 1-D array)."""
    return cKDTree(points).query(queries, k=k)[0]


def _components(points: np.ndarray, r: float) -> np.ndarray:
    """Connected-component label of each point, two points joined when ``_near`` pairs them."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    i, j = _near(points, points, r)
    graph = coo_array((np.ones(len(i)), (i, j)), shape=(len(points), len(points)))
    return connected_components(graph, directed=False)[1]
