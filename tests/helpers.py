"""Independent brute-force oracles the library-side implementations are checked against."""

import itertools
import sys
from contextlib import nullcontext

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from cutproject import Box, DiffractionSpectrum, Lattice, WeightedComb, a_norm, gram_matrix, posdef
from cutproject._version import __version__
from cutproject.almost import MIN_DIAMETERS, AlmostPeriodScan, _accepted_max_gap
from cutproject.comb import _sum_groups
from cutproject.cps import dual_cps
from cutproject.lattice import (_TINY_TERM, BOUNDARY_TOL, DEFAULT_BUDGET, MERGE_TOL, _group_rows, density,
                                lattice_points_in_box)
from cutproject.spectra import BLOCK_ELEMENTS, PEAK_PHASE_SIGN, _fiber_radii, _gl_grid


def brute_lattice_points(lat: Lattice, box: Box, z_range: int, tol: float = 1e-9):
    """Plain double loop over a generous integer range, filtered against the box."""
    axes = [np.arange(-z_range, z_range + 1)] * lat.n
    grid = np.meshgrid(*axes, indexing="ij")
    z = np.stack([g.reshape(-1) for g in grid], axis=1)
    p = z @ lat.basis.T
    keep = ((p >= box.lo - tol) & (p <= box.hi + tol)).all(axis=1)
    return {tuple(row) for row in z[keep]}


def rowwise_points(basis, z) -> np.ndarray:
    """``basis @ z`` for integer rows ``z``, one Python float at a time: coordinate i is
    0.0 + z_0 basis[i, 0] + z_1 basis[i, 1] + ..., added left to right."""
    out = np.empty(np.shape(z), dtype=float)
    for r, row in enumerate(np.asarray(z).tolist()):
        for i, coefficients in enumerate(np.asarray(basis).tolist()):
            acc = 0.0
            for zj, b in zip(row, coefficients):
                acc = acc + float(zj) * b
            out[r, i] = acc
    return out


def brute_points_around(lat: Lattice, box: Box, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Plain scan of the integer box around the preimage of ``box``, filtered against the box.

    The preimage of a box is the parallelepiped spanned by the preimages of
    its corners, so their coordinate-wise extremes, widened by 2, bound every
    z whose point is in the box, however far the box is from the origin.
    Returns (z, p) in lexicographic order of z, positions from ``lat.points``.
    """
    corners = np.array(list(itertools.product(*zip(box.lo - tol, box.hi + tol))))
    pre = lat.coordinates(corners)
    lo = np.floor(pre.min(axis=0)).astype(np.int64) - 2
    hi = np.ceil(pre.max(axis=0)).astype(np.int64) + 2
    grid = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    z = np.stack([g.reshape(-1) for g in grid], axis=1)
    p = lat.points(z)
    keep = ((p >= box.lo - tol) & (p <= box.hi + tol)).all(axis=1)
    return z[keep], p[keep]


@st.composite
def random_schemes(draw):
    """A random scheme with a window and a patch: (d, m, basis, window, patch).

    d + m <= 4, the real basis has condition number at most 4, the window is a
    list of one or two boxes (lo, hi), some with a 1e-3-thin side, and the
    patch one box (lo, hi) in physical space, sized so that a brute scan
    around the patch times the window stays under about 1e5 rows.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4 - d))
    n = d + m
    basis = np.eye(n) + np.array([[draw(st.floats(-0.5, 0.5)) for _ in range(n)] for _ in range(n)])
    assume(np.linalg.cond(basis) <= 4.0)

    def box(dim, start, sides):
        lo = np.array([draw(st.floats(-start, start)) for _ in range(dim)])
        return lo, lo + np.array([draw(sides) for _ in range(dim)])

    window = [box(m, 1.0, st.floats(0.5, 2.0)) for _ in range(draw(st.integers(1, 2)))]
    for lo, hi in window:
        if draw(st.booleans()):
            i = draw(st.integers(0, m - 1))
            hi[i] = lo[i] + 1e-3
    return d, m, basis, window, box(d, 4.0, st.floats(2.0, 6.0))


def brute_z_range(lat: Lattice, box: Box) -> int:
    """Integer range certainly covering the preimage of the box."""
    corner = float(np.max(np.abs(np.concatenate([box.lo, box.hi]))))
    return int(np.ceil(np.max(np.abs(lat.inv_basis)) * lat.n * (corner + 1.0))) + 2


def fibonacci_strip_points(lat: Lattice, query: Box, window: Box):
    """Model set of the golden scheme (basis columns (1, 1) and (tau, 1 - tau)), row by row.

    A point z = (a, b) sits at x = a + b tau with x* = a + b (1 - tau), and
    x - x* = b sqrt(5).  So b ranges over an interval fixed by the query and
    the window, and for each b the admissible a form the integer interval with
    a + b (1 - tau) in the window.  Positions from ``lat.points`` are then
    filtered against both boxes with the boundary tolerance.
    """
    tau = lat.basis[0, 1]
    root5 = 2.0 * tau - 1.0
    b = np.arange(np.floor((query.lo[0] - window.hi[0]) / root5) - 1,
                  np.ceil((query.hi[0] - window.lo[0]) / root5) + 2).astype(np.int64)
    shift = b * (1.0 - tau)
    a_lo = np.floor(window.lo[0] - shift).astype(np.int64) - 1
    a_hi = np.ceil(window.hi[0] - shift).astype(np.int64) + 1
    counts = a_hi - a_lo + 1
    rows = np.repeat(np.arange(len(b)), counts)
    a = a_lo[rows] + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    z = np.stack([a, b[rows]], axis=1)
    p = lat.points(z)
    keep = query.contains(p[:, :1]) & window.contains(p[:, 1:])
    return {tuple(row) for row in z[keep]}


def fourier_motzkin_axis0(lat: Lattice):
    """``lattice._fourier_motzkin`` with its rows of one support found by ``np.unique(axis=0)``.

    The elimination as it was before its supports were packed into one key
    per row; the library's levels must equal these bit for bit.
    """
    n = lat.n
    w = np.abs(lat.inv_basis).sum(axis=1)
    a0 = np.concatenate([lat.basis, -lat.basis])
    a0_w = np.abs(a0) @ w
    a, lam, dropped = a0, np.eye(2 * n), np.zeros((2 * n, n))
    levels = []
    for k in range(n - 1, -1, -1):
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
        _, first = np.unique(lam > 0, axis=0, return_index=True)
        a, lam, dropped = a[first], lam[first], dropped[first]
    return list(reversed(levels))


def cover_points_box_by_box(lat: Lattice, physical: Box, cover: list, budget: int):
    """``spectra._cover_points`` with one ``lattice_points_in_box`` call per cover box.

    The rows of all boxes are put in lexicographic z order by ``lexsort`` and
    each z is kept once, as the cover was listed before its boxes shared one
    enumeration pass.
    """
    found = [lattice_points_in_box(lat, Box.product(physical, part), budget=budget) for part in cover]
    z, p = np.concatenate([zs for zs, _ in found]), np.concatenate([ps for _, ps in found])
    if len(cover) > 1:
        order = np.lexsort(z.T[::-1])
        z, p = z[order], p[order]
        first = np.ones(len(z), dtype=bool)
        first[1:] = (z[1:] != z[:-1]).any(axis=1)
        z, p = z[first], p[first]
    return z, p


def full_box_diffraction(cps, profile, query: Box, threshold: float, cutoff,
                         budget: int = DEFAULT_BUDGET) -> DiffractionSpectrum:
    """``diffraction`` over the whole outer box ``query x [-r, r]^m`` in one enumeration.

    The radii are ``_fiber_radii`` at a tenth of the threshold, as in the
    library; every point of the box is evaluated, the threshold filters, and
    a stable sort on the physical part of rows in lexicographic z order gives
    the peak order.  The checks on the window, profile and cutoff are left to
    ``diffraction``.
    """
    transform = profile.transform()
    scale = density(cps.lat)
    radii = _fiber_radii(transform, threshold / (10.0 * scale))
    z, p = lattice_points_in_box(dual_cps(cps).lat, Box.product(query, Box(-radii, radii)), budget=budget)
    ks, stars = p[:, : cps.d], p[:, cps.d :]
    amplitudes = scale * transform.value(PEAK_PHASE_SIGN * stars)
    keep = np.abs(amplitudes) >= threshold
    z, ks, stars, amplitudes = z[keep], ks[keep], stars[keep], amplitudes[keep]
    order = np.lexsort(ks.T[::-1])
    metadata = {
        "scale": scale,
        "threshold": threshold,
        "internal_radii": radii.tolist(),
        "peak_phase_sign": PEAK_PHASE_SIGN,
        "cutoff": {key: [float(getattr(ax, key)) for ax in cutoff.axes] for key in ("a", "b", "delta")},
        "version": __version__,
    }
    return DiffractionSpectrum(ks=ks[order], internals=stars[order], refs=z[order],
                               amplitudes=amplitudes[order], metadata=metadata)


def brute_components(positions, tol: float):
    """Connected components of the within-``tol`` sup-norm relation, by an O(n^2) flood fill.

    Returns one list of member indices per component, ordered by lowest member.
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    near = (np.abs(pts[:, None, :] - pts[None, :, :]) <= tol).all(axis=2)
    label = [-1] * len(pts)
    groups = []
    for start in range(len(pts)):
        if label[start] >= 0:
            continue
        label[start] = len(groups)
        members, frontier = [start], [start]
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero(near[i]):
                if label[j] < 0:
                    label[j] = label[start]
                    members.append(int(j))
                    frontier.append(int(j))
        groups.append(sorted(members))
    return groups


def grid_a_norm(comb: WeightedComb, a_box: Box, region: Box, pitch: float = 1e-3,
                tol: float = 1e-9) -> float:
    """Window-norm oracle: exhaustive scan over a regular grid of translates."""
    t_lo = region.lo - a_box.lo
    t_hi = region.hi - a_box.hi
    if (t_hi < t_lo).any():
        raise ValueError("region too small")
    mags = np.abs(comb.weights)
    if comb.dim == 1:
        ts = np.arange(t_lo[0], t_hi[0] + pitch / 2, pitch)
        pos = np.sort(comb.positions[:, 0])
        order = np.argsort(comb.positions[:, 0])
        csum = np.concatenate([[0.0], np.cumsum(mags[order])])
        lo_idx = np.searchsorted(pos, ts + a_box.lo[0] - tol, side="left")
        hi_idx = np.searchsorted(pos, ts + a_box.hi[0] + tol, side="right")
        return float(np.max(csum[hi_idx] - csum[lo_idx]))
    if comb.dim == 2:
        t1 = np.arange(t_lo[0], t_hi[0] + pitch / 2, pitch)
        t2 = np.arange(t_lo[1], t_hi[1] + pitch / 2, pitch)
        acc = np.zeros((len(t1), len(t2)))
        for (x, y), w in zip(comb.positions, mags):
            i0 = np.searchsorted(t1, x - a_box.hi[0] - tol, side="left")
            i1 = np.searchsorted(t1, x - a_box.lo[0] + tol, side="right")
            j0 = np.searchsorted(t2, y - a_box.hi[1] - tol, side="left")
            j1 = np.searchsorted(t2, y - a_box.lo[1] + tol, side="right")
            acc[i0:i1, j0:j1] += w
        return float(acc.max())
    raise NotImplementedError


def dense_a_norm(comb: WeightedComb, a_box: Box, region: Box) -> float:
    """Window-norm oracle for d >= 2: one boolean mask per face event and axis.

    The windows over the event grid of the first d - 1 axes are boolean rows
    over the atoms, and one matrix product with the last axis's rows gives
    every window's mass; memory is (2N + 2)^(d - 1) * N booleans for N atoms.
    """
    t_lo = region.lo - a_box.lo
    t_hi = region.hi - a_box.hi
    if (t_hi < t_lo).any():
        raise ValueError("region too small")
    mags = np.abs(comb.weights)
    masks = []
    for i in range(comb.dim):
        ev = np.concatenate(
            [comb.positions[:, i] - a_box.hi[i], comb.positions[:, i] - a_box.lo[i],
             [t_lo[i], t_hi[i]]]
        )
        ev = np.unique(np.clip(ev, t_lo[i], t_hi[i]))
        masks.append((comb.positions[None, :, i] >= ev[:, None] + a_box.lo[i] - BOUNDARY_TOL)
                     & (comb.positions[None, :, i] <= ev[:, None] + a_box.hi[i] + BOUNDARY_TOL))
    inside = masks[0]
    for mask in masks[1:-1]:
        inside = (inside[:, None, :] & mask[None, :, :]).reshape(-1, comb.n_atoms)
    acc = (inside * mags[None, :]) @ masks[-1].T.astype(float)
    return float(np.max(acc))


def anchor_a_norm(comb: WeightedComb, a_box: Box, region: Box, tol: float = 1e-9) -> float:
    """Window-norm oracle in any dimension: every combination of per-axis anchors.

    On each axis the box's lower face is anchored at an atom coordinate or the
    translate sits at an end of its range, clipped into the range.  Sliding a
    box up until its lower face meets its lowest atom, or the range ends, never
    loses mass, so the supremum is attained at one of these combinations.
    """
    t_lo = region.lo - a_box.lo
    t_hi = region.hi - a_box.hi
    axes = [np.unique(np.clip(np.append(comb.positions[:, i] - a_box.lo[i], [t_lo[i], t_hi[i]]),
                              t_lo[i], t_hi[i]))
            for i in range(comb.dim)]
    mags = np.abs(comb.weights)
    best = 0.0
    for t in itertools.product(*axes):
        lo = np.array(t) + a_box.lo - tol
        hi = np.array(t) + a_box.hi + tol
        inside = ((comb.positions >= lo) & (comb.positions <= hi)).all(axis=1)
        best = max(best, float(mags[inside].sum()))
    return best


def lifted_autocorrelation_counts(cps, window: Box, patch: Box) -> dict:
    """vol * gamma of the unit-weight patch P = model set of ``window`` over ``patch``, exactly.

    With B = Q x W, the points y and y - x both lie in P exactly when the lift
    (y, y*) lies in B and in B + (x, x*).  So vol * gamma(x) is the number of
    lattice points in B cap (B + (x, x*)): one count per lattice point (x, x*),
    and no list of pairs.  Every (x, x*) with a positive count lies in B - B;
    the result maps the integer coordinates of each of those to its count.
    Boxes are closed within ``BOUNDARY_TOL``, as in ``model_set``, so B - B
    and each intersection are enumerated with room to spare, and a lattice
    point z counts when ``lat.points(z)`` and ``lat.points(z - dz)`` both pass
    ``B.contains``, the test ``model_set`` decides membership by.  Shifting
    the box faces by (x, x*) instead rounds them, and a face 5e-10 from a
    point then lands on the other side of it.
    """
    box = Box.product(patch, window)
    counts = {}
    spread = Box(box.lo - box.hi, box.hi - box.lo).inflate(2 * BOUNDARY_TOL)
    for dz, shift in zip(*lattice_points_in_box(cps.lat, spread)):
        lo = np.maximum(box.lo, box.lo + shift) - BOUNDARY_TOL
        hi = np.minimum(box.hi, box.hi + shift) + BOUNDARY_TOL
        z, p = lattice_points_in_box(cps.lat, Box(lo, hi))
        counts[tuple(dz.tolist())] = int((box.contains(p) & box.contains(cps.lat.points(z - dz))).sum())
    return counts


def integer_difference_candidates(cps, positions, refs, max_candidates: int):
    """Almost-period candidates, one per distinct integer translate, as (t, dz).

    Every pair whose difference x_i - x_j has norm above 1e-9 and each
    coordinate within a third of the patch span gives dz = z_i - z_j; the dz
    are deduplicated by ``np.unique``, t = ``cps.split(dz)[0]`` is sorted
    lexicographically, cut to the ``max_candidates`` shortest with a stable
    sort, and t = 0 is prepended.
    """
    xs = np.atleast_2d(np.asarray(positions, dtype=float))
    z = np.asarray(refs, dtype=np.int64)
    span = xs.max(axis=0) - xs.min(axis=0)
    diffs = (xs[:, None, :] - xs[None, :, :]).reshape(-1, xs.shape[1])
    dz = (z[:, None, :] - z[None, :, :]).reshape(-1, z.shape[1])
    keep = (np.linalg.norm(diffs, axis=1) > 1e-9) & np.all(np.abs(diffs) <= span / 3.0, axis=1)
    shifts = np.unique(dz[keep], axis=0)
    shifts = shifts[np.lexsort(cps.split(shifts)[0].T[::-1])]
    if len(shifts) > max_candidates:
        norms = np.linalg.norm(cps.split(shifts)[0], axis=1)
        shifts = shifts[np.argsort(norms, kind="stable")[:max_candidates]]
    shifts = np.concatenate([np.zeros((1, z.shape[1]), np.int64), shifts])
    return cps.split(shifts)[0], shifts


def grouped_almost_period_scan(comb: WeightedComb, a_box: Box, eps: float, cands, shifts):
    """``eps_norm_almost_periods`` with shifts, merging each translate by grouping rows.

    For every scanned candidate the 2N rows (refs + shift, refs) are grouped
    exactly with ``_group_rows`` (a sort per candidate) and the weights summed
    per group with ``_sum_groups`` (a second sort), translated copy first.
    """
    cands = np.atleast_2d(np.asarray(cands, dtype=float))
    shifts = np.atleast_2d(np.asarray(shifts, dtype=np.int64))
    extent, span = comb.extent, a_box.sides
    norms = np.full(len(cands), np.nan)
    for k, (t, shift) in enumerate(zip(cands, shifts)):
        overlap = extent.intersect(extent.shifted(t))
        if overlap.is_empty or (overlap.sides - 2 * span < MIN_DIAMETERS * span).any():
            continue
        pos = np.concatenate([comb.positions + t, comb.positions])
        wts = np.concatenate([comb.weights, -comb.weights])
        label, first = _group_rows(np.concatenate([comb.refs + shift, comb.refs]))
        gap = float(np.max(np.abs(pos - pos[first[label]])))
        if gap > MERGE_TOL:
            raise ValueError(f"shift {shift.tolist()} does not translate by t = {t.tolist()}")
        pos, wts = pos[first], _sum_groups(wts, label, first)
        live = wts != 0
        pos, wts = pos[live], wts[live]
        inside = overlap.contains(pos) if len(pos) else np.zeros(0, bool)
        diff = WeightedComb(pos[inside], wts[inside], validate=False)
        region = Box(overlap.lo + span, overlap.hi - span)
        norms[k] = a_norm(diff, a_box, region) if diff.n_atoms else 0.0
    accepted = norms < eps
    return AlmostPeriodScan(cands, norms, accepted, _accepted_max_gap(cands[accepted]))


def assert_same_scan(got, want):
    """Two almost-period scans agree bit for bit, row by row."""
    assert got.ts.tobytes() == want.ts.tobytes()
    assert got.norms.tobytes() == want.norms.tobytes()
    assert got.accepted.tobytes() == want.accepted.tobytes()
    assert got.max_gap == want.max_gap


def per_shift_axis_pair(f_axis, g_axis, shifts, radius: float, panel: float, order: int):
    """Dual-route grid sum of f(y) w(y) g(y - s), with g evaluated afresh at every y - s."""
    y, w = _gl_grid(radius, panel, order)
    fa = f_axis.values(y) * w
    return np.array([g_axis.values(y - s) @ fa for s in np.asarray(shifts, dtype=float)])


def panel_compact_axis_pair(a_axis, b_axis, shifts: np.ndarray, order: int = 16) -> np.ndarray:
    """Compact-route pairing by composite Gauss-Legendre quadrature, the oracle
    of ``spectra._compact_axis_pair``.

    integral a(y) b(y - s) dy = integral F[a](t) beta_b(t) exp(2 pi i s t) dt
    with both factors compactly supported and piecewise polynomial.  The
    panels are split at the kink points, and their number grows with the
    largest shift, so that each panel holds a bounded part of an oscillation.
    F[a](t) is the function under a at a.phase * t and beta_b(t) the one
    under b at -b.phase * t, so a sign of -1 reflects support and kinks.
    """
    shifts = np.asarray(shifts, dtype=float)
    lo, hi, kinks = -np.inf, np.inf, []
    for axis, sign in ((a_axis, a_axis.phase), (b_axis, -b_axis.phase)):
        axis_lo, axis_hi = np.sort(sign * np.array(axis.support()))
        lo, hi = max(lo, axis_lo), min(hi, axis_hi)
        kinks.append(sign * axis.breakpoints())
    if hi <= lo:
        return np.zeros(len(shifts), dtype=complex)
    cuts = np.unique(np.concatenate([[lo, hi], *kinks]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    smax = float(np.max(np.abs(shifts))) if len(shifts) else 0.0
    nodes, wts = np.polynomial.legendre.leggauss(order)
    t_all, w_all = [], []
    for piece_lo, piece_hi in zip(cuts[:-1], cuts[1:]):
        length = piece_hi - piece_lo
        if length <= 0:
            continue
        n_panels = max(2, int(np.ceil(length * (1.0 + smax / 2.5))))
        edges = np.linspace(piece_lo, piece_hi, n_panels + 1)
        half = (edges[1] - edges[0]) / 2.0
        centers = edges[:-1] + half
        t_all.append((centers[:, None] + half * nodes[None, :]).reshape(-1))
        w_all.append(np.tile(half * wts, n_panels))
    t = np.concatenate(t_all)
    w = np.concatenate(w_all)
    base = a_axis.spatial(a_axis.phase * t) * b_axis.spatial(-b_axis.phase * t) * w
    out = np.empty(len(shifts), dtype=complex)
    block = max(1, BLOCK_ELEMENTS // max(len(t), 1))
    for start in range(0, len(shifts), block):
        s = shifts[start : start + block]
        out[start : start + block] = np.exp(2j * np.pi * s[:, None] * t[None, :]) @ base
    return out


def mp_compact_axis_pair(a_axis, b_axis, shift: float, dps: int = 40) -> complex:
    """The compact-route integral at one shift, by ``mpmath.quad`` at ``dps`` digits.

    F[a](t) beta_b(t) exp(2 pi i s t) is integrated over the overlap of the
    two supports, split at every kink and then into pieces of about one
    period, each by Gauss-Legendre to full precision.  The trapezoids are
    evaluated in mpmath from the axes' float parameters; a ramp-free axis is
    the plain indicator, since both routes integrate over the supports only,
    where the boundary tolerance never enters.
    """
    import mpmath as mp

    with mp.workdps(dps):
        axes = [(sign, [mp.mpf(v) for v in (axis.a, axis.b, axis.delta)])
                for axis, sign in ((a_axis, a_axis.phase), (b_axis, -b_axis.phase))]

        def trapezoid(t, sign, a, b, delta):
            q = sign * t
            if not delta:
                return mp.mpf(a <= q <= b)
            return max(mp.mpf(0), min(mp.mpf(1), (q - (a - delta)) / delta, ((b + delta) - q) / delta))

        kinks = sorted(sign * k for sign, (a, b, delta) in axes for k in (a - delta, a, b, b + delta))
        lo = max(min(sign * (a - delta), sign * (b + delta)) for sign, (a, b, delta) in axes)
        hi = min(max(sign * (a - delta), sign * (b + delta)) for sign, (a, b, delta) in axes)
        if hi <= lo:
            return 0j
        cuts = [lo] + [k for k in kinks if lo < k < hi] + [hi]
        s = mp.mpf(shift)
        points = []
        for left, right in zip(cuts[:-1], cuts[1:]):
            n = int(mp.ceil(abs(s) * (right - left))) + 1
            points += [left + (right - left) * j / n for j in range(n)]
        points.append(hi)

        def integrand(t):
            value = mp.mpf(1)
            for sign, abd in axes:
                value *= trapezoid(t, sign, *abd)
            return value * mp.expj(2 * mp.pi * s * t)

        return complex(mp.quad(integrand, points, method="gauss-legendre"))


def grouped_lookup(keys, queries):
    """Index of each query row among the int64 key rows (lowest on repeats), len(keys) if absent.

    Groups keys and queries together, which sorts the keys again with every call.
    """
    keys = np.asarray(keys, dtype=np.int64)
    label, first = _group_rows(np.concatenate([keys, np.asarray(queries, dtype=np.int64)]))
    return np.minimum(first[label[len(keys):]], len(keys))


def crosscheck_trial_by_trial(cps, gamma: WeightedComb, window, trials: int, seed: int):
    """``lift_pd_crosscheck`` one trial at a time, with eta's matrix read off eta itself.

    Each trial draws its sample atoms by its own ``rng.choice`` call, in trial
    order.  Gamma's matrix is that of ``gram_matrix``, on gamma's refs or, when it
    has none, on eta's, and its verdict is ``posdef._min_eig`` of it alone.  Eta's entry (k, l), k <= l, is the weight of its
    lowest-index atom within ``LIFT_TOL`` (sup norm) of y_k - y_l in G x H, 0 if
    there is none, and the entries below the diagonal are their conjugates.  The
    matrices are compared by value, entry by entry.  The lift is
    ``posdef.lift`` at call time, so a patched lift reaches both sides.
    """
    eta = posdef.lift(cps, gamma, window)
    if gamma.refs is None:
        gamma = WeightedComb(gamma.positions, gamma.weights, refs=eta.refs, validate=False)
    size = min(posdef.CONFIG_SIZE, gamma.n_atoms)
    ii, jj = np.triu_indices(size)
    rng = np.random.default_rng(seed)
    downs, ups, down_ok, up_ok, equal = [], [], True, True, True
    for _ in range(trials if gamma.n_atoms else 0):
        idx = rng.choice(gamma.n_atoms, size=size, replace=False)
        down = gram_matrix(gamma, gamma.positions[idx], gamma.refs[idx])
        (min_down,), (ok_down,), _ = posdef._min_eig(down[None])
        y = eta.positions[idx]
        upper = np.zeros((size, size), dtype=complex)
        for k in range(size):
            gaps = np.abs(eta.positions[None, :, :] - (y[k] - y[k:])[:, None, :]).max(axis=2)
            near = gaps <= posdef.LIFT_TOL
            upper[k, k:] = np.where(near.any(axis=1), eta.weights[near.argmax(axis=1)], 0)
        up = np.conj(upper.T)
        up[ii, jj] = upper[ii, jj]
        min_up = np.linalg.eigvalsh(up)[0]
        downs.append(min_down)
        ups.append(min_up)
        down_ok &= bool(ok_down)
        up_ok &= bool(min_up >= -posdef.PSD_TOL * max(1.0, np.abs(up).max()))
        equal &= bool((down[ii, jj] == upper[ii, jj]).all())
    return posdef.CrosscheckReport(down_ok, up_ok, equal, np.array(downs, dtype=float),
                                   np.array(ups, dtype=float), seed)


# ---------------------------------------------------------------------------
# the reference table writer: one Python ``%`` per chunk of rows

PERCENT_CHUNK = 65536  # rows formatted by one ``%``


def reference_write_table(path, header, columns) -> None:
    """``tables._write_table`` by Python's ``%``: floats ``%.17g``, integers ``%d``.

    Each chunk of rows is one ``%`` over the interleaved ``.tolist()`` values.
    A ``path`` of None or "" writes to standard output.
    """
    formats = ["%d" if np.issubdtype(col.dtype, np.integer) else "%.17g" for col in columns]
    line = ",".join(formats) + "\n"
    width, n = len(columns), len(columns[0])
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, PERCENT_CHUNK):
            rows = min(PERCENT_CHUNK, n - lo)
            flat = [None] * (rows * width)
            for j, col in enumerate(columns):
                flat[j::width] = col[lo : lo + rows].tolist()
            fh.write((line * rows) % tuple(flat))


# ---------------------------------------------------------------------------
# row-by-row table formatters: every CSV the package writes, one row at a time


def _join(lines) -> str:
    return "\n".join(lines) + "\n"


def _g(value) -> str:
    return f"{value:.17g}"


def rowwise_modelset_csv(x, xstar, z) -> str:
    d, m = x.shape[1], xstar.shape[1]
    header = ([f"x{i + 1}" for i in range(d)] + [f"xstar{i + 1}" for i in range(m)]
              + [f"z{i + 1}" for i in range(d + m)])
    lines = [",".join(header)]
    for xi, si, zi in zip(x, xstar, z):
        lines.append(",".join([_g(v) for v in xi] + [_g(v) for v in si]
                              + [str(int(v)) for v in zi]))
    return _join(lines)


def rowwise_spectrum_csv(d: int, ks, amplitudes) -> str:
    """Rows k1..kd,re,im,intensity, the intensity as Python's abs(amp) ** 2."""
    lines = [",".join([f"k{i + 1}" for i in range(d)] + ["re", "im", "intensity"])]
    for k, amp in zip(ks, amplitudes):
        lines.append(",".join([_g(v) for v in k]
                              + [_g(amp.real), _g(amp.imag), _g(abs(amp) ** 2)]))
    return _join(lines)


def rowwise_oracle_csv(d: int, ks, closed, oracle, ref: float) -> str:
    header = [f"k{i + 1}" for i in range(d)] + [
        "re_closed", "im_closed", "re_oracle", "im_oracle", "agreement",
    ]
    lines = [",".join(header)]
    for k, c, o in zip(ks, closed, oracle):
        agreement = abs(c - o) / ref
        lines.append(",".join([_g(v) for v in k]
                              + [_g(c.real), _g(c.imag), _g(o.real), _g(o.imag), _g(agreement)]))
    return _join(lines)


def rowwise_almostperiods_csv(d: int, ts, norms, accepted) -> str:
    """Accepted then rejected (t, norm) rows, stably sorted by the tuple t; NaN norms are skipped."""
    lines = [",".join([f"t{i + 1}" for i in range(d)] + ["norm", "accepted"])]
    scanned = [(t, float(v), int(a)) for t, v, a in zip(ts, norms, accepted) if not np.isnan(v)]
    rows = [r for r in scanned if r[2]] + [r for r in scanned if not r[2]]
    rows.sort(key=lambda r: tuple(r[0]))
    for t, v, acc in rows:
        lines.append(",".join([_g(x) for x in t] + [_g(v), str(acc)]))
    return _join(lines)

