"""Cut-and-project schemes over R^d x R^m.

A scheme is a full-rank lattice in R^n together with the declared split
into a physical part (first d coordinates) and an internal part (last m = n - d).
The star map sends the integer coordinates of a lattice point to its internal
part; a window in internal space selects the model set, which is returned
as the integer coordinates of its points: each point is the projection of
exactly one lattice point, so those coordinates identify it.  Injectivity
of the physical projection and density of the internal one are asymptotic
properties, so the checks below only produce finite certificates over a
declared search radius, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import DEFAULT_BUDGET, Box, Lattice, _nearest, dual, lattice_points_in_box


@dataclass(frozen=True)
class Window:
    """Compact subset of internal space: a finite union of closed boxes.

    Degenerate boxes (zero side lengths) are allowed; they select weak model
    sets.
    """

    m: int
    parts: tuple[Box, ...]

    def __init__(self, parts) -> None:
        if isinstance(parts, Box):
            parts = (parts,)
        parts = tuple(parts)
        if not parts:
            raise ValueError("window needs at least one box")
        m = parts[0].dim
        for part in parts:
            if part.dim != m:
                raise ValueError("window parts must share a dimension")
            if part.is_empty:
                raise ValueError("window parts must be nonempty boxes")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "parts", parts)

    def contains(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        ok = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            ok |= part.contains(pts)
        return bool(ok[0]) if single else ok

    def bounding_box(self) -> Box:
        lo = np.min([p.lo for p in self.parts], axis=0)
        hi = np.max([p.hi for p in self.parts], axis=0)
        return Box(lo, hi)


@dataclass(frozen=True)
class CutProjectScheme:
    """Lattice in R^n with physical dimension d; the internal dimension is m = n - d."""

    lat: Lattice
    d: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError("both d and m must be at least 1")

    @property
    def m(self) -> int:
        return self.lat.n - self.d

    @cached_property
    def dual(self) -> CutProjectScheme:
        """``dual_cps`` of the scheme, built once, so its lattice's elimination is built once."""
        return CutProjectScheme(lat=dual(self.lat), d=self.d)

    def split(self, z) -> tuple[np.ndarray, np.ndarray]:
        p = self.lat.points(z)
        return p[..., : self.d], p[..., self.d :]


def _model_set(cps: CutProjectScheme, window: Window, query: Box, budget: int):
    """Body of ``model_set``.

    The patch oracle in ``spectra`` sums over the same rows in the same order
    and calls this directly, so its enumeration stays an oracle stage rather
    than a model-set request.
    """
    if window.m != cps.m:
        raise ValueError("window dimension does not match the scheme's internal dimension")
    if query.dim != cps.d:
        raise ValueError("query dimension does not match the scheme's physical dimension")
    full = Box.product(query, window.bounding_box())
    z, p = lattice_points_in_box(cps.lat, full, budget=budget)
    keep = window.contains(p[:, cps.d :])
    z, x = z[keep], p[keep, : cps.d]
    # lexicographic in x; the rows arrive in lexicographic z order and lexsort is
    # stable, so equal x stay ordered by z
    return z[np.lexsort(x.T[::-1])]


def model_set(
    cps: CutProjectScheme, window: Window, query: Box, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Integer coordinates Z of the lattice points over ``query`` x ``window``.

    One int64 row per point whose physical part lies in ``query`` and whose
    internal part lies in ``window``, sorted lexicographically in the
    physical part, then in ``z``.  ``cps.split(Z)`` gives the
    positions, bit for bit those the enumeration filtered.
    """
    return _model_set(cps, window, query, budget)


@dataclass(frozen=True)
class InjectivityReport:
    ok: bool
    search_radius: float
    tol: float
    witness: np.ndarray | None
    min_physical_norm: float


def verify_injectivity(
    cps: CutProjectScheme,
    search_radius: float,
    tol: float = 1e-6,
    budget: int = DEFAULT_BUDGET,
) -> InjectivityReport:
    """Finite injectivity certificate for the physical projection.

    Scans all nonzero lattice points with sup-norm at most ``search_radius``
    and reports a witness if any has physical part shorter than ``tol``.
    """
    if search_radius <= 0:
        raise ValueError("search radius must be positive")
    n = cps.lat.n
    box = Box(-search_radius * np.ones(n), search_radius * np.ones(n))
    z, p = lattice_points_in_box(cps.lat, box, budget=budget)
    nonzero = ~(z == 0).all(axis=1)
    z, p = z[nonzero], p[nonzero]
    if len(z) == 0:
        return InjectivityReport(True, search_radius, tol, None, np.inf)
    norms = np.linalg.norm(p[:, : cps.d], axis=1)
    worst = int(np.argmin(norms))
    if norms[worst] < tol:
        return InjectivityReport(False, search_radius, tol, z[worst], float(norms[worst]))
    return InjectivityReport(True, search_radius, tol, None, float(norms[worst]))


@dataclass(frozen=True)
class DensityReport:
    ok: bool
    eps: float
    max_gap: float
    n_points: int


def internal_density_check(
    cps: CutProjectScheme,
    reference_box: Box,
    eps: float,
    search_radius: float,
    budget: int = DEFAULT_BUDGET,
) -> DensityReport:
    """Finite density certificate for the internal projection.

    Collects internal parts of lattice points whose physical part has
    sup-norm at most ``search_radius`` and checks that a grid of pitch eps/2
    inside ``reference_box`` is everywhere within ``eps`` of a collected
    point.  Internal parts further than eps from the reference box cannot
    matter, so enumeration is limited to the inflated box.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if reference_box.dim != cps.m:
        raise ValueError("reference box must live in internal space")
    phys = Box(-search_radius * np.ones(cps.d), search_radius * np.ones(cps.d))
    box = Box.product(phys, reference_box.inflate(eps))
    _, p = lattice_points_in_box(cps.lat, box, budget=budget)
    stars = p[:, cps.d :]
    axes = [
        np.arange(reference_box.lo[i], reference_box.hi[i] + eps / 4, eps / 2)
        for i in range(cps.m)
    ]
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if len(stars) == 0:
        return DensityReport(False, eps, np.inf, 0)
    gaps = _nearest(stars, grid, 1)
    max_gap = float(np.max(gaps))
    return DensityReport(max_gap <= eps, eps, max_gap, len(stars))


def dual_cps(cps: CutProjectScheme) -> CutProjectScheme:
    """Scheme on the dual lattice with the same (d, m) split.

    Its points (k, kstar) pair integrally with every (x, xstar) of the
    original lattice: k.x + kstar.xstar is an integer.
    """
    return cps.dual
