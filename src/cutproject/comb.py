"""Finite-patch weighted Dirac combs and the operators acting on them.

A comb is a finite list of atoms (position, complex weight) standing in for a
translation-bounded atomic measure; quantities of sup type (window norms,
almost-period defects) are evaluated on declared interior regions so the
patch boundary never leaks into a result.  Combs supported on a lattice can
carry the integer coordinates of their atoms.  Those coordinates are then the
atom's identity: duplicates, merging and the lift/descent round trip are
decided exactly on them, and only combs without them match positions within
``MERGE_TOL``.
"""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cps import CutProjectScheme, Window
from .lattice import (BOUNDARY_TOL, DEFAULT_BUDGET, Box, BudgetError, _group_rows,
                      lattice_points_in_box)

MERGE_TOL = 1e-9  # absolute position tolerance when coinciding atoms are merged
LIFT_TOL = 1e-7  # how far an atom may sit from the lattice point it is lifted to
_TABLE_CHUNK = 65536  # rows formatted at once by _write_table


def _min_pairwise_distance(positions: np.ndarray) -> float:
    if len(positions) < 2:
        return np.inf
    dist, _ = cKDTree(positions).query(positions, k=2)
    return float(np.min(dist[:, 1]))


@dataclass(frozen=True)
class WeightedComb:
    """Finite weighted Dirac comb: distinct atoms with complex weights.

    ``refs`` optionally carries a parallel array of integer lattice
    coordinates when the comb is supported on a lattice (positions then equal
    the lattice map of the coordinates, or its physical projection).  Atoms
    are distinct when their ``refs`` rows are; a comb without ``refs`` needs
    positions more than ``MERGE_TOL`` apart.
    """

    dim: int
    positions: np.ndarray
    weights: np.ndarray
    refs: np.ndarray | None = None

    def __init__(self, positions, weights, refs=None, dim=None, validate=True) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.size == 0:
            positions = positions.reshape(0, dim if dim is not None else 1)
        positions = np.atleast_2d(positions)
        weights = np.asarray(weights, dtype=complex).reshape(-1)
        if len(weights) != len(positions):
            raise ValueError("positions and weights must have equal length")
        if refs is not None:
            refs = np.atleast_2d(np.asarray(refs, dtype=np.int64))
            if len(refs) != len(positions):
                raise ValueError("refs must parallel the atom list")
        if validate:
            if not np.isfinite(positions).all():
                raise ValueError("atom positions must be finite")
            if not np.isfinite(weights).all():
                raise ValueError("atom weights must be finite")
            if refs is not None:
                if len(_group_rows(refs)[1]) < len(refs):
                    raise ValueError("duplicate positions: atoms share integer coordinates")
            elif _min_pairwise_distance(positions) <= MERGE_TOL:
                raise ValueError("duplicate positions: atoms closer than the merge tolerance")
        positions = positions.copy()
        weights = weights.copy()
        positions.setflags(write=False)
        weights.setflags(write=False)
        if refs is not None:
            refs = refs.copy()
            refs.setflags(write=False)
        object.__setattr__(self, "dim", positions.shape[1])
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "refs", refs)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def extent(self) -> Box | None:
        """Bounding box of the atoms, or None for the empty comb."""
        if self.n_atoms == 0:
            return None
        return Box(self.positions.min(axis=0), self.positions.max(axis=0))

    def translated(self, t) -> "WeightedComb":
        # integer coordinates do not survive an arbitrary translation
        return WeightedComb(self.positions + np.asarray(t, dtype=float), self.weights,
                            dim=self.dim, validate=False)

    def restricted(self, box: Box, tol: float = BOUNDARY_TOL) -> "WeightedComb":
        keep = box.contains(self.positions, tol=tol) if self.n_atoms else np.zeros(0, bool)
        refs = self.refs[keep] if self.refs is not None else None
        return WeightedComb(self.positions[keep], self.weights[keep], refs=refs,
                            dim=self.dim, validate=False)

    def scaled(self, factor: complex) -> "WeightedComb":
        return WeightedComb(self.positions, self.weights * factor, refs=self.refs,
                            dim=self.dim, validate=False)


def strip_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^(d+m) supported on the lattice points with coordinates ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z), weights, refs=z, dim=cps.lat.n)


def model_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^d supported on the physical projections of the points ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z)[:, : cps.d], weights, refs=z, dim=cps.d)


def merge_atoms(
    positions: np.ndarray,
    weights: np.ndarray,
    refs: np.ndarray | None = None,
    tol: float = MERGE_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Merge the atoms that sit at the same point.

    With ``refs`` an atom is its integer coordinates: atoms merge exactly when
    their rows are equal, whatever their positions.  Without them, groups are
    the connected components of the within-``tol`` relation (sup-norm) on
    positions.  The group representative is its lowest-index member, groups
    are ordered by it, and weights are summed in index order, so the result
    is deterministic.
    """
    if refs is None:
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        n = len(positions)
        pairs = cKDTree(positions).query_pairs(r=tol, p=np.inf, output_type="ndarray")
        graph = coo_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        label, first = _group_rows(connected_components(graph, directed=False)[1][:, None])
    else:
        label, first = _group_rows(refs)
    out_refs = refs[first] if refs is not None else None
    return positions[first], _sum_groups(weights, label, first), out_refs


def _sum_groups(weights: np.ndarray, label: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Weight sum of each group of ``_group_rows``, members added in index order."""
    order = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[order], np.arange(len(first)))
    return np.add.reduceat(weights[order], starts)


def lift(
    cps: CutProjectScheme,
    gamma: WeightedComb,
    window: Window,
    search: Window,
    tol: float = LIFT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> WeightedComb:
    """Lift a comb on R^d to the lattice strip: atom at x becomes atom at (x, xstar).

    Every atom must sit (within ``tol``) on the physical part of exactly one
    lattice point whose internal part lies in the ``search`` window.  Weights
    and atom count are preserved.  When the input already carries integer
    coordinates they are trusted after validation, which keeps the round trip
    with ``descent`` exact.
    """
    if gamma.dim != cps.d:
        raise ValueError("comb dimension does not match the scheme's physical dimension")
    if search.m != cps.m or window.m != cps.m:
        raise ValueError("window dimension does not match the scheme's internal dimension")
    if gamma.n_atoms == 0:
        return WeightedComb(np.zeros((0, cps.lat.n)), np.zeros(0, complex),
                            refs=np.zeros((0, cps.lat.n), np.int64), dim=cps.lat.n)

    if gamma.refs is not None:
        z = gamma.refs
        if z.shape[1] != cps.lat.n:
            raise ValueError("integer coordinates must have the full lattice dimension")
        full = cps.lat.points(z)
        if not search.contains(full[:, cps.d :]).all():
            raise ValueError("atom not on Lambda(search): internal part outside the search window")
        if np.max(np.abs(full[:, : cps.d] - gamma.positions)) > tol:
            raise ValueError("atom not on Lambda(search): position does not match its coordinates")
        return WeightedComb(full, gamma.weights, refs=z, dim=cps.lat.n, validate=False)

    phys_box = gamma.extent.inflate(tol)
    full_box = Box.product(phys_box, search.bounding_box())
    z, p = lattice_points_in_box(cps.lat, full_box, budget=budget)
    keep = search.contains(p[:, cps.d :])
    z, p = z[keep], p[keep]
    if len(z) == 0:
        raise ValueError("atom not on Lambda(search): no candidate lattice points")
    tree = cKDTree(p[:, : cps.d])
    k = min(2, len(z))
    dist, idx = tree.query(gamma.positions, k=k)
    dist = np.atleast_2d(dist.reshape(len(gamma.positions), -1))
    idx = np.atleast_2d(idx.reshape(len(gamma.positions), -1))
    for i in range(gamma.n_atoms):
        if dist[i, 0] > tol:
            raise ValueError(f"atom not on Lambda(search): atom {i} at distance {dist[i, 0]:.3e}")
        if k > 1 and dist[i, 1] <= tol:
            raise ValueError(f"injectivity violation at atom {i}: two lattice points within tolerance")
    matched = idx[:, 0]
    return WeightedComb(p[matched], gamma.weights, refs=z[matched], dim=cps.lat.n, validate=False)


def descent(cps: CutProjectScheme, eta: WeightedComb) -> WeightedComb:
    """Drop the internal coordinate of a strip-supported comb: atom at (x, xstar) to x.

    Requires integer coordinates; positions are recomputed from them so that
    descent(lift(gamma)) reproduces gamma bit for bit.
    """
    if eta.dim != cps.lat.n:
        raise ValueError("comb dimension does not match the scheme's ambient dimension")
    if eta.refs is None:
        raise ValueError("descent requires integer lattice coordinates on the comb")
    positions = cps.lat.points(eta.refs)[:, : cps.d] if eta.n_atoms else np.zeros((0, cps.d))
    return WeightedComb(positions, eta.weights, refs=eta.refs, dim=cps.d, validate=False)


def _translate_range(a_box: Box, region: Box) -> tuple[np.ndarray, np.ndarray]:
    t_lo = region.lo - a_box.lo
    t_hi = region.hi - a_box.hi
    if (t_hi < t_lo).any():
        raise ValueError("eval region too small for the window box")
    return t_lo, t_hi


def _window_mass_1d(sorted_pos, csum, lo, hi, tol):
    i = np.searchsorted(sorted_pos, lo - tol, side="left")
    j = np.searchsorted(sorted_pos, hi + tol, side="right")
    return csum[j] - csum[i]


def a_norm(comb: WeightedComb, a_box: Box, eval_region: Box, tol: float = BOUNDARY_TOL) -> float:
    """sup over translates t with t + a_box inside eval_region of |comb|(t + a_box).

    The supremum of the window mass is attained where some atom touches a
    face of the box, so only finitely many translates per axis need checking;
    the sweep below enumerates exactly those events and is exact.
    """
    if a_box.dim != comb.dim or eval_region.dim != comb.dim:
        raise ValueError("box dimensions must match the comb dimension")
    if (a_box.sides <= 0).any():
        raise ValueError("window box must have positive side lengths")
    t_lo, t_hi = _translate_range(a_box, eval_region)
    if comb.n_atoms == 0:
        return 0.0
    mags = np.abs(comb.weights)

    if comb.dim == 1:
        pos = comb.positions[:, 0]
        order = np.argsort(pos)
        sorted_pos = pos[order]
        csum = np.concatenate([[0.0], np.cumsum(mags[order])])
        events = np.concatenate([pos - a_box.hi[0], pos - a_box.lo[0], t_lo, t_hi])
        events = np.clip(events, t_lo[0], t_hi[0])
        lo_idx = np.searchsorted(sorted_pos, events + a_box.lo[0] - tol, side="left")
        hi_idx = np.searchsorted(sorted_pos, events + a_box.hi[0] + tol, side="right")
        return float(np.max(csum[hi_idx] - csum[lo_idx]))

    # general case: per-axis face events, then a dense product sweep
    axis_events = []
    for i in range(comb.dim):
        ev = np.concatenate(
            [comb.positions[:, i] - a_box.hi[i], comb.positions[:, i] - a_box.lo[i],
             [t_lo[i], t_hi[i]]]
        )
        axis_events.append(np.unique(np.clip(ev, t_lo[i], t_hi[i])))
    masks = []
    for i in range(comb.dim):
        ev = axis_events[i]
        inside = (comb.positions[None, :, i] >= ev[:, None] + a_box.lo[i] - tol) & (
            comb.positions[None, :, i] <= ev[:, None] + a_box.hi[i] + tol
        )
        masks.append(inside)
    if comb.dim == 2:
        acc = (masks[0] * mags[None, :]) @ masks[1].T.astype(float)
        return float(np.max(acc))
    # dimensions above 2: explicit loop over the event grid
    best = 0.0
    grids = np.meshgrid(*[np.arange(len(e)) for e in axis_events], indexing="ij")
    flat = np.stack([g.reshape(-1) for g in grids], axis=1)
    for sel in flat:
        inside = np.ones(comb.n_atoms, dtype=bool)
        for i in range(comb.dim):
            inside &= masks[i][sel[i]]
        best = max(best, float(mags[inside].sum()))
    return best


@dataclass(frozen=True)
class AlmostPeriodScan:
    """Outcome of an almost-period scan: accepted (t, norm) pairs plus diagnostics."""

    accepted: tuple[tuple[np.ndarray, float], ...]
    rejected: tuple[tuple[np.ndarray, float], ...]
    skipped: tuple[tuple[np.ndarray, str], ...]
    max_gap: float


def _accepted_max_gap(ts: list[np.ndarray]) -> float:
    if len(ts) < 2:
        return np.inf
    arr = np.stack(ts)
    if arr.shape[1] == 1:
        vals = np.sort(arr[:, 0])
        return float(np.max(np.diff(vals)))
    dist, _ = cKDTree(arr).query(arr, k=2)
    return float(np.max(dist[:, 1]))


def eps_norm_almost_periods(
    comb: WeightedComb,
    a_box: Box,
    eps: float,
    candidates,
    min_diameters: float = 10.0,
    shifts=None,
) -> AlmostPeriodScan:
    """Evaluate || T^t comb - comb ||_A on the overlap interior for each candidate t.

    Candidates whose overlap cannot hold an evaluation region of at least
    ``min_diameters`` window spans per axis are skipped with a reason rather
    than failing the scan.  Accepted translations are those with norm below
    ``eps``; the recorded max gap over the accepted set is the finite-scale
    relative-denseness diagnostic.

    ``shifts`` optionally gives, parallel to the candidates, the integer
    translate whose image is each t; the comb must then carry ``refs``.  The
    atoms of T^t comb - comb are merged exactly on (refs + shift, refs), the
    translated copy first, and a merged pair more than ``MERGE_TOL`` apart
    raises ``ValueError``.  Without shifts, atoms within ``MERGE_TOL`` merge.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[1] != comb.dim:
        raise ValueError("candidate translations must match the comb dimension")
    if comb.n_atoms == 0:
        raise ValueError("cannot scan an empty comb")
    if shifts is not None:
        if comb.refs is None:
            raise ValueError("shifts need a comb that carries integer coordinates")
        shifts = np.atleast_2d(np.asarray(shifts, dtype=np.int64))
        if shifts.shape != (len(cands), comb.refs.shape[1]):
            raise ValueError("shifts must hold one integer row per candidate translation")
    extent = comb.extent
    span = a_box.sides

    accepted, rejected, skipped = [], [], []
    for k, t in enumerate(cands):
        overlap = extent.intersect(extent.shifted(t))
        usable = overlap.sides - 2 * span
        if overlap.is_empty or (usable < min_diameters * span).any():
            skipped.append((t, "overlap too small"))
            continue
        eval_region = Box(overlap.lo + span, overlap.hi - span)
        moved = comb.positions + t
        pos = np.concatenate([moved, comb.positions])
        wts = np.concatenate([comb.weights, -comb.weights])
        if shifts is not None:
            label, first = _group_rows(np.concatenate([comb.refs + shifts[k], comb.refs]))
            gap = float(np.max(np.abs(pos - pos[first[label]])))
            if gap > MERGE_TOL:
                raise ValueError(f"shift {shifts[k].tolist()} does not translate by t = "
                                 f"{t.tolist()}: merged atoms {gap:.3e} apart")
            pos, wts = pos[first], _sum_groups(wts, label, first)
        else:
            pos, wts, _ = merge_atoms(pos, wts)
        live = wts != 0
        pos, wts = pos[live], wts[live]
        inside = overlap.contains(pos) if len(pos) else np.zeros(0, bool)
        diff = WeightedComb(pos[inside], wts[inside], dim=comb.dim, validate=False)
        value = a_norm(diff, a_box, eval_region) if diff.n_atoms else 0.0
        if value < eps:
            accepted.append((t, value))
        else:
            rejected.append((t, value))
    gap = _accepted_max_gap([t for t, _ in accepted])
    return AlmostPeriodScan(tuple(accepted), tuple(rejected), tuple(skipped), gap)


def _lex_positive(diffs: np.ndarray) -> np.ndarray:
    """True where the first nonzero coordinate of a row is positive."""
    sign = np.zeros(len(diffs))
    for i in range(diffs.shape[1]):
        col = diffs[:, i]
        sign = np.where(sign == 0, np.sign(col), sign)
    return sign > 0


def autocorrelation_patch(comb: WeightedComb, region: Box) -> WeightedComb:
    """Volume-normalised autocorrelation of a finite patch.

    Returns (1/vol) * sum over atom pairs of w(x) conj(w(y)) at x - y, with
    coinciding differences merged.  Only the lexicographically positive half
    is accumulated and the negative half mirrored, so Hermitian symmetry
    holds exactly.
    """
    if region.volume <= 0:
        raise ValueError("zero-volume region")
    if comb.n_atoms and not region.contains(comb.positions).all():
        raise ValueError("comb atoms must lie inside the region")
    vol = region.volume
    n = comb.n_atoms
    if n == 0:
        return WeightedComb(np.zeros((0, comb.dim)), np.zeros(0, complex), dim=comb.dim)

    ii, jj = np.triu_indices(n, k=1)
    diffs = comb.positions[ii] - comb.positions[jj]
    vals = comb.weights[ii] * np.conj(comb.weights[jj])
    refs = None
    if comb.refs is not None:
        # the side of a difference is decided exactly, from its integer coordinates
        zd = comb.refs[ii] - comb.refs[jj]
        pos_side = _lex_positive(zd)
        refs = np.where(pos_side[:, None], zd, -zd)
    else:
        pos_side = _lex_positive(diffs)
    plus = np.where(pos_side[:, None], diffs, -diffs)
    plus_w = np.where(pos_side, vals, np.conj(vals))

    plus, plus_w, refs = merge_atoms(plus, plus_w, refs)

    zero_pos = np.zeros((1, comb.dim))
    zero_w = np.array([np.sum(np.abs(comb.weights) ** 2)], dtype=complex)
    positions = np.concatenate([zero_pos, plus, -plus])
    weights = np.concatenate([zero_w, plus_w, np.conj(plus_w)]) / vol
    out_refs = None
    if refs is not None:
        out_refs = np.concatenate([np.zeros((1, refs.shape[1]), np.int64), refs, -refs])
    return WeightedComb(positions, weights, refs=out_refs, dim=comb.dim, validate=False)


def meyer_gap(
    positions,
    folds: int = 2,
    budget: int = 2_000_000,
    dedup_tol: float = 1e-12,
) -> float:
    """Minimum positive pairwise gap of the iterated difference set.

    ``folds`` is the number of subtractions: folds=2 builds P - P - P from
    the patch P.  Values closer than ``dedup_tol`` count as the same element,
    which absorbs floating-point duplicates of algebraically equal points.
    """
    if folds < 1 or folds > 3:
        raise ValueError("folds must be between 1 and 3")
    pts = np.asarray(positions, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    if n ** (folds + 1) > budget:
        raise BudgetError(f"difference set too large: {n}^{folds + 1} > {budget}")
    current = pts
    for _ in range(folds):
        current = (current[:, None, :] - pts[None, :, :]).reshape(-1, d)
    if d == 1:
        vals = np.sort(current[:, 0])
        gaps = np.diff(vals)
        gaps = gaps[gaps > dedup_tol]
        return float(gaps.min()) if len(gaps) else np.inf
    dist, _ = cKDTree(current).query(current, k=min(len(current), 16))
    positive = dist[:, 1:][dist[:, 1:] > dedup_tol]
    return float(positive.min()) if positive.size else np.inf


def _write_table(path, header, columns, newline: str = "\n") -> None:
    """Write a CSV table: the header, then row i holds element i of every column.

    Float columns are written ``%.17g``, which round-trips every float64, and
    integer columns in decimal.  ``_TABLE_CHUNK`` rows at a time are formatted by
    one ``%`` over the columns' Python values, so no row is formatted on its own
    and the text held at once stays bounded.
    A ``path`` of None or "" writes to standard output.
    """
    formats = ["%d" if np.issubdtype(col.dtype, np.integer) else "%.17g" for col in columns]
    line = ",".join(formats) + newline
    width, n = len(columns), len(columns[0])
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, n, _TABLE_CHUNK):
            rows = min(_TABLE_CHUNK, n - lo)
            flat = [None] * (rows * width)
            for j, col in enumerate(columns):
                flat[j::width] = col[lo : lo + rows].tolist()
            fh.write((line * rows) % tuple(flat))


def comb_to_csv(comb: WeightedComb, path) -> None:
    """Write atoms as rows x1,...,xd,re,im, each line ended by CRLF."""
    header = [f"x{i + 1}" for i in range(comb.dim)] + ["re", "im"]
    _write_table(path, header, [*comb.positions.T, comb.weights.real, comb.weights.imag],
                 newline="\r\n")


def comb_from_csv(path) -> WeightedComb:
    """Read a comb written by comb_to_csv; duplicate positions are rejected."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 3 or header[-2:] != ["re", "im"]:
            raise ValueError("comb csv must end with re,im columns")
        dim = len(header) - 2
        positions, weights = [], []
        for row in reader:
            if not row:
                continue
            values = [float(v) for v in row]
            positions.append(values[:dim])
            weights.append(complex(values[dim], values[dim + 1]))
    if not positions:
        return WeightedComb(np.zeros((0, dim)), np.zeros(0, complex), dim=dim)
    return WeightedComb(np.array(positions), np.array(weights), dim=dim)
