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
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .cps import CutProjectScheme, Window, _model_set
from .lattice import (BOUNDARY_TOL, DEFAULT_BUDGET, Box, BudgetError, _group_rows, _RowIndex,
                      lattice_points_in_box)

MERGE_TOL = 1e-9  # absolute position tolerance when coinciding atoms are merged
LIFT_TOL = 1e-7  # how far an atom may sit from the lattice point it is lifted to
MIN_DIAMETERS = 10.0  # window spans per axis an almost-period evaluation region needs
GAP_DEDUP_TOL = 1e-12  # difference-set gaps at most this are float duplicates
_TABLE_CHUNK = 2048  # rows per _write_table encoding pass; bounds its memory, ~400 bytes a value
_LOOKUP_CHUNK = 1 << 18  # translated refs rows per ref_index lookup of an almost-period scan
_STRIP_RADIUS = 64.0  # physical half-side of the first strip box of _difference_candidates
_STRIP_PAD = 1e-9  # strip box inflation relative to coordinate size, far above lat.points rounding


@dataclass(frozen=True)
class WeightedComb:
    """Finite weighted Dirac comb: distinct atoms with complex weights.

    ``refs`` optionally carries a parallel array of integer lattice
    coordinates when the comb is supported on a lattice (positions then equal
    the lattice map of the coordinates, or its physical projection).  Atoms
    are distinct when their ``refs`` rows are; a comb without ``refs`` needs
    positions more than ``MERGE_TOL`` apart in the sup norm, so that
    ``merge_atoms`` would merge none of them.
    """

    dim: int
    positions: np.ndarray
    weights: np.ndarray
    refs: np.ndarray | None = None

    def __init__(self, positions, weights, refs=None, validate=True) -> None:
        positions = np.asarray(positions, dtype=float)
        positions = positions.reshape(0, 1) if positions.shape == (0,) else np.atleast_2d(positions)
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
            elif (len(_group_rows((positions + 0.0).view(np.int64))[1]) < len(positions)
                  or len(_near(positions, positions, MERGE_TOL)[0]) > len(positions)):
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

    @cached_property
    def ref_index(self) -> _RowIndex:
        """``refs`` sorted once per comb, for exact lookups of atoms by coordinates."""
        return _RowIndex(self.refs)

    def find(self, positions, refs=None) -> np.ndarray:
        """Index of the atom at each query, ``n_atoms`` for none: exact on ``refs`` when the
        comb carries them too, else the lowest-index atom within ``MERGE_TOL`` (sup norm)."""
        if refs is not None and self.refs is not None:
            return self.ref_index.find(np.atleast_2d(np.asarray(refs, dtype=np.int64)))
        return _first_near(self.positions, np.atleast_2d(np.asarray(positions, dtype=float)),
                           MERGE_TOL)

    @property
    def extent(self) -> Box | None:
        """Bounding box of the atoms, or None for the empty comb."""
        if self.n_atoms == 0:
            return None
        return Box(self.positions.min(axis=0), self.positions.max(axis=0))

    def translated(self, t) -> "WeightedComb":
        # integer coordinates do not survive an arbitrary translation
        return WeightedComb(self.positions + np.asarray(t, dtype=float), self.weights, validate=False)

    def scaled(self, factor: complex) -> "WeightedComb":
        return WeightedComb(self.positions, self.weights * factor, refs=self.refs, validate=False)


def strip_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^(d+m) supported on the lattice points with coordinates ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z), weights, refs=z)


def model_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^d supported on the physical projections of the points ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z)[:, : cps.d], weights, refs=z)


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


def merge_atoms(
    positions: np.ndarray,
    weights: np.ndarray,
    refs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Merge the atoms that sit at the same point.

    With ``refs`` an atom is its integer coordinates: atoms merge exactly when
    their rows are equal, whatever their positions.  Without them, groups are
    the connected components of the within-``MERGE_TOL`` relation (sup-norm) on
    the distinct positions, so exact repeats cost no pairs.  The group
    representative is its lowest-index member, groups are ordered by it, and
    weights are summed in index order, so the result is deterministic.
    """
    if refs is None:
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        exact, distinct = _group_rows((positions + 0.0).view(np.int64))  # -0.0 + 0.0 is 0.0
        unique = positions[distinct]
        i, j = _near(unique, unique, MERGE_TOL)
        graph = coo_array((np.ones(len(i)), (i, j)), shape=(len(unique), len(unique)))
        label, first = _group_rows(connected_components(graph, directed=False)[1][exact][:, None])
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
    budget: int = DEFAULT_BUDGET,
) -> WeightedComb:
    """Lift a comb on R^d to the strip L ∩ (G × window): atom at x becomes atom at (x, xstar).

    Every atom must sit (within ``LIFT_TOL``, sup norm) on the physical part
    of exactly one lattice point whose internal part lies in ``window``.
    Weights and atom count are preserved.  When the input already carries integer
    coordinates they are trusted after validation, which keeps the round trip
    with ``descent`` exact.
    """
    if gamma.dim != cps.d:
        raise ValueError("comb dimension does not match the scheme's physical dimension")
    if window.m != cps.m:
        raise ValueError("window dimension does not match the scheme's internal dimension")
    if gamma.n_atoms == 0:
        return WeightedComb(np.zeros((0, cps.lat.n)), np.zeros(0, complex),
                            refs=np.zeros((0, cps.lat.n), np.int64))

    if gamma.refs is not None:
        full = cps.lat.points(gamma.refs)
        if not window.contains(full[:, cps.d :]).all():
            raise ValueError("atom not on Lambda(window): internal part outside the window")
        if np.max(np.abs(full[:, : cps.d] - gamma.positions)) > LIFT_TOL:
            raise ValueError("atom not on Lambda(window): position does not match its coordinates")
        return WeightedComb(full, gamma.weights, refs=gamma.refs, validate=False)

    z = _model_set(cps, window, gamma.extent.inflate(LIFT_TOL), budget)
    p = cps.lat.points(z)
    atom, matched = _near(p[:, : cps.d], gamma.positions, LIFT_TOL)
    count = np.bincount(atom, minlength=gamma.n_atoms)
    if (count != 1).any():
        i = int(np.argmax(count != 1))
        if count[i] == 0:
            raise ValueError(f"atom not on Lambda(window): no lattice point near atom {i}")
        raise ValueError(f"injectivity violation at atom {i}: two lattice points within tolerance")
    return WeightedComb(p[matched], gamma.weights, refs=z[matched], validate=False)


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
    return WeightedComb(positions, eta.weights, refs=eta.refs, validate=False)


def _translate_range(a_box: Box, dim: int, region_lo, region_hi) -> tuple:
    """[t_lo, t_hi] per axis: the t with t + a_box in the region, for one region or rows of them."""
    if a_box.dim != dim or np.shape(region_lo)[-1] != dim:
        raise ValueError("box dimensions must match the comb dimension")
    if (a_box.sides <= 0).any():
        raise ValueError("window box must have positive side lengths")
    t_lo, t_hi = region_lo - a_box.lo, region_hi - a_box.hi
    if (t_hi < t_lo).any():
        raise ValueError("eval region too small for the window box")
    return t_lo, t_hi


def a_norm(comb: WeightedComb, a_box: Box, eval_region: Box) -> float:
    """sup over translates t with t + a_box inside eval_region of |comb|(t + a_box).

    The supremum of the window mass is attained where some atom touches a
    face of the box, so only finitely many translates per axis need checking,
    and checking exactly those events is exact.  Boxes are closed within
    ``BOUNDARY_TOL``.  For d = 1 ``_sweep``, shared with the scan, counts each
    event's window.  For d >= 2 the masses go into a summed-area table (Crow, SIGGRAPH 1984)
    over the n_i distinct coordinates of each axis, of size prod(n_i + 1);
    each event is a range of those coordinates, only ranges that no other
    range contains are kept, and every window of their grid is read off the
    table as a difference along each axis.  Integer masses with a total below
    2^53 make every table entry exact.  Otherwise every window within a
    rigorous rounding bound of the largest is summed again as
    ``mags[inside].sum()``, and the largest such sum is returned.
    """
    t_lo, t_hi = _translate_range(a_box, comb.dim, eval_region.lo, eval_region.hi)
    if comb.n_atoms == 0:
        return 0.0
    mags = np.abs(comb.weights)
    if comb.dim == 1:
        order = np.argsort(comb.positions[:, 0])
        return _sweep(comb.positions[order, 0], mags[order], a_box, t_lo[0], t_hi[0])
    return _table_norm(comb.positions, mags, a_box, t_lo, t_hi)


def _sweep(pos: np.ndarray, mags: np.ndarray, a_box: Box, t_lo: float, t_hi: float) -> float:
    """d = 1: the largest window mass of atoms at ascending ``pos``, one cumulative sum and
    two searches over the events (a box face on an atom, the range ends) clipped to the range."""
    a_lo, a_hi = a_box.lo[0], a_box.hi[0]
    csum = np.concatenate([[0.0], mags.cumsum()])
    events = np.concatenate([pos - a_hi, pos - a_lo, [t_lo, t_hi]]).clip(t_lo, t_hi)
    lo_idx = pos.searchsorted(events + a_lo - BOUNDARY_TOL, side="left")
    hi_idx = pos.searchsorted(events + a_hi + BOUNDARY_TOL, side="right")
    return float((csum[hi_idx] - csum[lo_idx]).max())


def _table_norm(positions: np.ndarray, mags: np.ndarray, a_box: Box, t_lo, t_hi) -> float:
    """d >= 2: the largest window mass off a_norm's summed-area table, masses in atom order."""
    # atom i sits in cell codes[i] + 1 of the table.  An event's range
    # [lo, hi) of distinct coordinates grows with the event on both ends, so
    # the ranges no other range contains are, among those with the largest hi
    # for their lo, the ones with the smallest lo for their hi
    codes, ranges, shape = np.empty(positions.shape, np.int64), [], []
    for i in range(len(t_lo)):
        coords, codes[:, i] = np.unique(positions[:, i], return_inverse=True)
        ev = np.concatenate([positions[:, i] - a_box.hi[i], positions[:, i] - a_box.lo[i],
                             [t_lo[i], t_hi[i]]])
        ev = np.unique(np.clip(ev, t_lo[i], t_hi[i]))
        lo = np.searchsorted(coords, ev + a_box.lo[i] - BOUNDARY_TOL, side="left")
        hi = np.searchsorted(coords, ev + a_box.hi[i] + BOUNDARY_TOL, side="right")
        last = np.append(lo[1:] != lo[:-1], True)
        lo, hi = lo[last], hi[last]
        first = np.insert(hi[1:] != hi[:-1], 0, True)
        ranges.append((lo[first], hi[first]))
        shape.append(len(coords) + 1)
    cells = np.ravel_multi_index(tuple((codes + 1).T), shape)
    masses = np.bincount(cells, weights=mags, minlength=np.prod(shape)).reshape(shape)
    for axis in range(len(t_lo)):
        np.cumsum(masses, axis=axis, out=masses)
    for axis, (lo, hi) in enumerate(ranges):
        masses = masses.take(hi, axis=axis) - masses.take(lo, axis=axis)
    best, total = float(masses.max()), float(mags.sum())
    if total < 2.0 ** 53 and (mags == np.floor(mags)).all():
        return best
    # a table entry is N + sum(n_i) roundings deep, each difference at most doubles
    # its error and a direct sum is N - 1 deep; twice both errors fit in the slack
    slack = 2.0 ** (len(t_lo) + 2) * (len(mags) + sum(shape)) * np.finfo(float).eps * total
    sums = []
    for cell in np.argwhere(masses >= best - slack):
        lo, hi = (np.array([r[k][j] for r, j in zip(ranges, cell)]) for k in (0, 1))
        sums.append(float(mags[((codes >= lo) & (codes < hi)).all(axis=1)].sum()))
    return max(sums)


@dataclass(frozen=True)
class AlmostPeriodScan:
    """Outcome of an almost-period scan: one row per candidate, in input order.

    ``norms[k]`` is the window norm of candidate ``ts[k]``, NaN where its
    overlap is too small to scan; ``accepted[k]`` is ``norms[k] < eps``.
    """

    ts: np.ndarray
    norms: np.ndarray
    accepted: np.ndarray
    max_gap: float


def _accepted_max_gap(ts: np.ndarray) -> float:
    """Largest consecutive gap for d = 1; largest nearest-neighbour distance for d >= 2."""
    if len(ts) < 2:
        return np.inf
    if ts.shape[1] == 1:
        return float(np.max(np.diff(np.sort(ts[:, 0]))))
    dist, _ = cKDTree(ts).query(ts, k=2)
    return float(np.max(dist[:, 1]))


def _difference_candidates(cps: CutProjectScheme, comb: WeightedComb, max_candidates: int):
    """One candidate per distinct integer translate between the patch's atoms.

    A pair of atoms (a, b) is kept when x_b - x_a has norm above 1e-9 and
    every coordinate within a third of the patch span; its translate is
    dz = z_b - z_a and its candidate t the physical part ``cps.split(dz)[0]``.
    Every such dz lies in the strip L ∩ (G × (S - S)), S the bounding box of
    the atoms' internal parts, so the translates are read off that strip
    rather than off the N^2 pairs.  ``lattice_points_in_box`` lists the strip
    points with physical part in [-r, r]^d.  Only atoms whose first internal
    coordinate leaves room for dz's can realise dz; sorted on that
    coordinate they form one run per dz.  One realising pair keeps dz, so
    the runs are probed rather than scanned whole: in rounds of 1, 2, 4, ...
    rows, refs + dz of the next rows of every run not yet kept or used up is
    looked up through ``ref_index``, in blocks of about ``_LOOKUP_CHUNK``
    rows.  The pair rule is applied to the float differences of the pairs
    found, so the span/3 cap is decided pair by pair; dz is kept at its first
    passing pair and dropped when its run is used up without one, which keeps
    exactly the translates a full scan keeps.  r starts at ``_STRIP_RADIUS`` and
    doubles until more than ``max_candidates`` kept translates have norm at
    most r (exactly as many would not tell whether the cut below happens),
    or until the box covers a third of the span on every axis; the cost
    follows the candidates asked for, not N^2.  Candidates are sorted
    lexicographically in t and, past ``max_candidates``, cut to the shortest
    (a stable sort, so ties keep lexicographic order); t = 0 leads.  Returns
    (t, dz) row by row.
    """
    z, n = comb.refs, comb.n_atoms
    third = comb.extent.sides / 3.0
    # a bound on |lat.points| of every atom and every difference of two, per coordinate
    pad = _STRIP_PAD * (1.0 + 2.0 * (np.abs(cps.lat.basis) @ np.abs(z).max(axis=0)))
    xstar = cps.split(z)[1]
    reach = xstar.max(axis=0) - xstar.min(axis=0) + pad[cps.d :]
    cap = third + pad[: cps.d]
    by_lead = np.argsort(xstar[:, 0], kind="stable")
    key = xstar[by_lead, 0]
    radius = _STRIP_RADIUS
    while True:
        half = np.minimum(radius, cap)
        dz, p = lattice_points_in_box(cps.lat, Box.product(Box(-half, half), Box(-reach, reach)))
        dz_lead, slack = p[:, cps.d], pad[cps.d]
        lo = np.searchsorted(key, key[0] - dz_lead - slack, side="left")
        count = np.maximum(np.searchsorted(key, key[-1] - dz_lead + slack, side="right") - lo, 0)
        kept = np.zeros(len(dz), dtype=bool)
        live, width = np.flatnonzero(count), 1
        while len(live):  # one round: the next `width` rows of every open run
            rows = np.minimum(count[live], width)
            per = max(1, _LOOKUP_CHUNK // int(rows.max()))
            for first in range(0, len(live), per):
                c, ks = rows[first : first + per], live[first : first + per]
                k = np.repeat(ks, c)
                a = by_lead[np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - lo[ks], c)]
                # np.take on axis 0 gathers these narrow rows several times faster than indexing
                b = comb.ref_index.find(np.take(z, a, axis=0) + np.take(dz, k, axis=0))
                hit = b < n
                k = k[hit]
                diffs = (np.take(comb.positions, b[hit], axis=0)
                         - np.take(comb.positions, a[hit], axis=0))
                ok = (np.linalg.norm(diffs, axis=1) > 1e-9) & np.all(np.abs(diffs) <= third, axis=1)
                kept[k[ok]] = True
            lo[live] += rows  # the rest of each run starts after the rows looked up
            count[live] -= rows
            live, width = live[~kept[live] & (count[live] > 0)], 2 * width
        shifts = dz[kept]
        ts = cps.split(shifts)[0]
        if ((half >= cap).all()
                or np.count_nonzero(np.linalg.norm(ts, axis=1) <= radius) > max_candidates):
            break
        radius *= 2.0
    order = np.lexsort(ts.T[::-1])
    if len(order) > max_candidates:
        norms = np.linalg.norm(ts[order], axis=1)
        order = order[np.argsort(norms, kind="stable")[:max_candidates]]
    shifts = np.concatenate([np.zeros((1, z.shape[1]), np.int64), shifts[order]])
    return cps.split(shifts)[0], shifts


def eps_norm_almost_periods(
    comb: WeightedComb,
    a_box: Box,
    eps: float,
    candidates,
    shifts=None,
) -> AlmostPeriodScan:
    """Evaluate || T^t comb - comb ||_A on the overlap interior for each candidate t.

    Candidates whose overlap cannot hold an evaluation region of at least
    ``MIN_DIAMETERS`` window spans per axis are skipped, with norm NaN, rather
    than failing the scan.  Accepted translations are those with norm below
    ``eps``.  ``max_gap`` summarises the accepted set at finite scale.  For
    d = 1 it is the largest gap between consecutive accepted t, a relative-
    denseness bound on the scanned range.  For d >= 2 it is the largest
    distance from an accepted t to its nearest accepted neighbour, which
    bounds no hole: two tight clusters far apart give a small value.

    ``shifts`` optionally gives, parallel to the candidates, the integer
    translate whose image is each t; the comb must then carry ``refs``, and
    one ``ref_index.find`` of refs + shift per block of candidates matches
    each translated atom exactly with the original it lands on; a pair more
    than ``MERGE_TOL`` apart raises ``ValueError``.  Without shifts, one
    ``find`` per block meets each translated atom with the lowest-index
    original within ``MERGE_TOL``.  A block of about ``_LOOKUP_CHUNK`` atom
    rows is one pass over (candidate, atom) arrays for the matches, weights
    and live-and-inside masks.  For d = 1 the atoms are sorted once per scan,
    so for every t the translated copy and the unmatched originals are two
    sorted runs; each candidate merges them and takes one ``_sweep``, the
    sweep of ``a_norm``.  For d >= 2 each candidate sums its table over the
    translated copy in index order, then the unmatched originals in order.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[1] != comb.dim:
        raise ValueError("candidate translations must match the comb dimension")
    if not np.isfinite(cands).all():
        raise ValueError("candidate translations must be finite")
    if comb.n_atoms == 0:
        raise ValueError("cannot scan an empty comb")
    if shifts is not None:
        if comb.refs is None:
            raise ValueError("shifts need a comb that carries integer coordinates")
        shifts = np.atleast_2d(np.asarray(shifts, dtype=np.int64))
        if shifts.shape != (len(cands), comb.refs.shape[1]):
            raise ValueError("shifts must hold one integer row per candidate translation")
    extent, span, n, on_line = comb.extent, a_box.sides, comb.n_atoms, comb.dim == 1

    # every overlap extent ∩ (extent + t) at once, as Box.intersect(Box.shifted) computes it
    lo = np.maximum(extent.lo, extent.lo + cands)
    hi = np.minimum(extent.hi, extent.hi + cands)
    skip = (hi < lo).any(axis=1) | ((hi - lo) - 2 * span < MIN_DIAMETERS * span).any(axis=1)
    scanned = np.flatnonzero(~skip)
    norms = np.full(len(cands), np.nan)
    t_lo, t_hi = np.empty_like(cands), np.empty_like(cands)  # per region Box(lo + span, hi - span)
    t_lo[scanned], t_hi[scanned] = _translate_range(a_box, comb.dim, lo[scanned] + span,
                                                     hi[scanned] - span)
    order = np.argsort(comb.positions[:, 0], kind="stable") if on_line else np.arange(n)
    pos, mags = comb.positions[order], np.abs(comb.weights[order])
    for block, moved, wts, alone in _translate_blocks(comb, order, cands, shifts, scanned):
        # live atoms in the closed overlap within BOUNDARY_TOL, as Box.contains decides it
        lo_k, hi_k = lo[block, None, :] - BOUNDARY_TOL, hi[block, None, :] + BOUNDARY_TOL
        moved_mags = np.abs(wts)
        run_a = (moved_mags != 0) & ((moved >= lo_k) & (moved <= hi_k)).all(axis=2)
        run_b = alone & (mags != 0) & ((pos >= lo_k) & (pos <= hi_k)).all(axis=2)
        xa, xb = (moved[:, :, 0], pos[:, 0]) if on_line else (moved, pos)  # 1-D rows index faster
        for row, k in enumerate(block):
            x = np.concatenate([xa[row, run_a[row]], xb[run_b[row]]])
            m = np.concatenate([moved_mags[row, run_a[row]], mags[run_b[row]]])
            if not len(x):
                norms[k] = 0.0
            elif on_line:  # the two runs merged, translated atoms first on ties
                merged = x.argsort(kind="stable")
                norms[k] = _sweep(x[merged], m[merged], a_box, t_lo[k, 0], t_hi[k, 0])
            else:
                norms[k] = _table_norm(x, m, a_box, t_lo[k], t_hi[k])
    accepted = norms < eps
    return AlmostPeriodScan(cands, norms, accepted, _accepted_max_gap(cands[accepted]))


def _translate_blocks(comb: WeightedComb, order: np.ndarray, cands: np.ndarray, shifts, ks):
    """The merged atoms of T^t comb - comb for each t = cands[k], a block of candidates at a time.

    Yields (block, moved, weights, alone), the atoms taken in ``order``: row r
    is candidate block[r], its translated atoms at moved[r] with weights[r] =
    w_i + (-w_j) when atom i meets original j, and the originals no atom
    meets, where alone[r], with weights -w_j.  Atoms meet by the rules of
    ``eps_norm_almost_periods``; without shifts, an original met twice stays
    with the lower-index atom.
    """
    n = comb.n_atoms
    pos, wts = comb.positions[order], np.append(comb.weights[order], 0)  # slot n: met nothing
    refs = None if shifts is None else comb.refs[order].T.copy()
    slot = np.append(np.argsort(order), n)  # an atom's index in ``order``
    per = max(1, _LOOKUP_CHUNK // n)
    for first in range(0, len(ks), per):
        block = ks[first : first + per]
        if shifts is not None:  # column-major rows, as find reads them
            found = comb.find(None, (shifts[block].T[:, :, None] + refs[:, None, :])
                              .reshape(len(refs), -1).T)
        moved = pos + cands[block][:, None, :]  # after the lookup, the block's largest step
        match = np.take(slot, comb.find(moved.reshape(-1, comb.dim)) if shifts is None else found)
        match, found = match.reshape(len(block), n), None  # found freed: the lookup stays the peak
        if shifts is None:  # an original met twice stays with the lower-index atom
            row, i = np.nonzero(match < n)
            cell = row * n + match[row, i]
            owner = np.full(len(block) * n, n)
            np.minimum.at(owner, cell, order[i])
            lost = owner[cell] != order[i]
            match[row[lost], i[lost]] = n
        else:
            met = (match < n)[:, :, None]
            gap = np.abs(moved - pos[match % n]).max(axis=(1, 2), where=met, initial=0.0)
            if (gap > MERGE_TOL).any():  # the first candidate with a far pair
                k, far = block[np.argmax(gap > MERGE_TOL)], gap[gap > MERGE_TOL][0]
                raise ValueError(f"shift {shifts[k].tolist()} does not translate by t = "
                                 f"{cands[k].tolist()}: merged atoms {far:.3e} apart")
        alone = np.ones((len(block), n + 1), dtype=bool)  # column n: the atoms that met none
        np.put_along_axis(alone, match, False, axis=1)
        weights = np.take(wts, match)
        yield block, moved, np.subtract(wts[:n], weights, out=weights), alone[:, :n]


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
        return WeightedComb(np.zeros((0, comb.dim)), np.zeros(0, complex))

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
        # a coordinate within MERGE_TOL of 0 is 0, or a difference whose exact
        # coordinate is 0 could land on both sides as +-1e-16
        pos_side = _lex_positive(np.where(np.abs(diffs) <= MERGE_TOL, 0.0, diffs))
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
    return WeightedComb(positions, weights, refs=out_refs, validate=False)


def meyer_gap(
    positions,
    folds: int = 2,
    budget: int = 2_000_000,
) -> float:
    """Minimum positive pairwise gap of the iterated difference set.

    ``folds`` is the number of subtractions: folds=2 builds P - P - P from
    the patch P.  Values within ``GAP_DEDUP_TOL`` count as the same element,
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
    if len(current) < 2:
        return np.inf
    if d == 1:
        vals = np.sort(current[:, 0])
        gaps = np.diff(vals)
        gaps = gaps[gaps > GAP_DEDUP_TOL]
        return float(gaps.min()) if len(gaps) else np.inf
    dist, _ = cKDTree(current).query(current, k=min(len(current), 16))
    positive = dist[:, 1:][dist[:, 1:] > GAP_DEDUP_TOL]
    return float(positive.min()) if positive.size else np.inf


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
