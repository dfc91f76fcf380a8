"""Independent brute-force oracles the library-side implementations are checked against."""

import csv
import io

import numpy as np

from cutproject import Box, Lattice, WeightedComb


def brute_lattice_points(lat: Lattice, box: Box, z_range: int, tol: float = 1e-9):
    """Plain double loop over a generous integer range, filtered against the box."""
    axes = [np.arange(-z_range, z_range + 1)] * lat.n
    grid = np.meshgrid(*axes, indexing="ij")
    z = np.stack([g.reshape(-1) for g in grid], axis=1)
    p = z @ lat.basis.T
    keep = ((p >= box.lo - tol) & (p <= box.hi + tol)).all(axis=1)
    return {tuple(row) for row in z[keep]}


def brute_z_range(lat: Lattice, box: Box) -> int:
    """Integer range certainly covering the preimage of the box."""
    corner = float(np.max(np.abs(np.concatenate([box.lo, box.hi]))))
    return int(np.ceil(np.max(np.abs(lat.inv_basis)) * lat.n * (corner + 1.0))) + 2


def fibonacci_strip_points(lat: Lattice, query: Box, window: Box, tol: float = 1e-9):
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
    keep = query.contains(p[:, :1], tol=tol) & window.contains(p[:, 1:], tol=tol)
    return {tuple(row) for row in z[keep]}


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


def float_difference_candidates(positions, max_candidates: int):
    """Almost-period candidates from all float differences, deduplicated as rounded floats.

    Every pair difference with norm above 1e-9 and each coordinate within a
    third of the patch span, rounded to 12 decimals and deduplicated by
    ``np.unique`` over all of them; then cut to the ``max_candidates``
    shortest, t = 0 prepended, and -0 written as 0.
    """
    xs = np.atleast_2d(np.asarray(positions, dtype=float))
    span = xs.max(axis=0) - xs.min(axis=0)
    diffs = (xs[:, None, :] - xs[None, :, :]).reshape(-1, xs.shape[1])
    keep = (np.linalg.norm(diffs, axis=1) > 1e-9) & np.all(np.abs(diffs) <= span / 3.0, axis=1)
    cands = np.unique(np.round(diffs[keep], 12), axis=0)
    if len(cands) > max_candidates:
        cands = cands[np.argsort(np.linalg.norm(cands, axis=1))[:max_candidates]]
    return np.concatenate([np.zeros((1, xs.shape[1])), cands]) + 0.0


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


def rowwise_almostperiods_csv(d: int, accepted, rejected) -> str:
    """Accepted then rejected (t, norm) rows, stably sorted by the tuple t."""
    lines = [",".join([f"t{i + 1}" for i in range(d)] + ["norm", "accepted"])]
    rows = [(t, v, 1) for t, v in accepted] + [(t, v, 0) for t, v in rejected]
    rows.sort(key=lambda r: tuple(r[0]))
    for t, v, acc in rows:
        lines.append(",".join([_g(x) for x in t] + [_g(v), str(acc)]))
    return _join(lines)


def rowwise_comb_csv(comb: WeightedComb) -> str:
    """Rows x1..xd,re,im through the csv module, whose lines end in CRLF."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"x{i + 1}" for i in range(comb.dim)] + ["re", "im"])
    for pos, w in zip(comb.positions, comb.weights):
        writer.writerow([_g(v) for v in pos] + [_g(w.real), _g(w.imag)])
    return buf.getvalue()
