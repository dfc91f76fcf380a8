"""Window norms and almost periods of finite combs.

Quantities of sup type (the window norm ``a_norm``, the defects
|| T^t comb - comb ||_A of an almost-period scan) are evaluated on declared
interior regions, so the patch boundary never leaks into a result.  The
scan's candidates are the integer translates between a patch's atoms, and
``meyer_gap`` measures the uniform discreteness of its difference sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cps import CutProjectScheme
from .lattice import BOUNDARY_TOL, MERGE_TOL, Box, BudgetError, _nearest, lattice_points_in_box

if TYPE_CHECKING:  # comb binds this module's functions, so the import runs one way only
    from .comb import WeightedComb

MIN_DIAMETERS = 10.0  # window spans per axis an almost-period evaluation region needs
GAP_DEDUP_TOL = 1e-12  # difference-set gaps at most this are float duplicates
_LOOKUP_CHUNK = 1 << 18  # translated refs rows per ref_index lookup of an almost-period scan
_STRIP_RADIUS = 64.0  # physical half-side of the first strip box of _difference_candidates
_STRIP_PAD = 1e-9  # strip box inflation relative to coordinate size, far above lat.points rounding


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
    dist = _nearest(ts, ts, 2)
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
    dist = _nearest(current, current, min(len(current), 16))
    positive = dist[:, 1:][dist[:, 1:] > GAP_DEDUP_TOL]
    return float(positive.min()) if positive.size else np.inf
