"""The Fourier side: profile transforms, dual-periodic measures, diffraction.

Transform convention, fixed library-wide: the forward transform is
F[g](xi) = integral of g(y) exp(-2*pi*i xi.y) dy, with no 2*pi in the
measure.  Profile objects expose their forward transform in closed form;
cutoff functions are paired through their inverse transform, whose modulus
agrees with the forward one and whose phase is the conjugate.

The central objects:

* ``lattice_comb_transform`` represents the Fourier transform of a
  profile-weighted lattice comb as a measure periodic under the dual
  lattice: a point mass in the physical-dual variable carrying a
  closed-form density fiber in the internal-dual one.
* ``diffraction`` evaluates the resulting pure-point spectrum in closed
  form, amplitude A(k) = dens(L) * hhat(sigma * kstar), with the sign
  ``PEAK_PHASE_SIGN`` pinned once against ``oracle_amplitude`` (see
  tests/test_spectra.py::test_peak_phase_sign_pinning) and frozen.
* ``pair_fibered`` and ``project`` evaluate the same pairings by direct
  quadrature on the dual side, with certified truncation tails, so the
  closed form is cross-checked by an independent route.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from ._version import __version__
from .comb import WeightedComb, a_norm, merge_atoms
from .cps import CutProjectScheme, Window, _model_set, dual_cps
from .lattice import (
    BOUNDARY_TOL,
    DEFAULT_BUDGET,
    Box,
    Lattice,
    density,
    dual,
    lattice_points_in_box,
)

# Sign sigma in A(k) = dens(L) * hhat(sigma * kstar).  Pinned by comparing the
# closed form against the direct-sum oracle at non-symmetric Bragg peaks with a
# non-even profile; the pinning data lives in the test suite and the value is
# frozen here.
PEAK_PHASE_SIGN = -1


class TruncationError(RuntimeError):
    """A certified truncation tail exceeded its tolerance; increase the radius."""


# ---------------------------------------------------------------------------
# decay envelopes


@dataclass(frozen=True)
class AxisEnvelope:
    """Majorant min(c0, c1/|x|, c2/x^2) for the modulus of an axis transform."""

    c0: float
    c1: float
    c2: float

    def at(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        out = np.full(r.shape, self.c0)
        with np.errstate(divide="ignore"):
            if np.isfinite(self.c1):
                out = np.minimum(out, np.where(r > 0, self.c1 / np.maximum(r, 1e-300), np.inf))
            if np.isfinite(self.c2):
                out = np.minimum(out, np.where(r > 0, self.c2 / np.maximum(r, 1e-300) ** 2, np.inf))
        return out if out.ndim else float(out)

    def _pieces(self) -> list[tuple[float, float, int]]:
        """(start, end, order) pieces of the active majorant on [0, inf)."""
        c0, c1, c2 = self.c0, self.c1, self.c2
        if c0 == 0.0:
            return [(0.0, np.inf, -1)]  # identically zero
        if np.isfinite(c1) and np.isfinite(c2):
            r1, r2 = c1 / c0, c2 / c1
            if r1 <= r2:
                return [(0.0, r1, 0), (r1, r2, 1), (r2, np.inf, 2)]
            rc = np.sqrt(c2 / c0)
            return [(0.0, rc, 0), (rc, np.inf, 2)]
        if np.isfinite(c2):
            rc = np.sqrt(c2 / c0)
            return [(0.0, rc, 0), (rc, np.inf, 2)]
        if np.isfinite(c1):
            return [(0.0, c1 / c0, 0), (c1 / c0, np.inf, 1)]
        return [(0.0, np.inf, 0)]

    def integral_0_to(self, r: float) -> float:
        """Integral of the majorant over [0, r]."""
        total = 0.0
        for start, end, order in self._pieces():
            hi = min(end, r)
            if hi <= start:
                continue
            if order == -1:
                continue
            if order == 0:
                total += self.c0 * (hi - start)
            elif order == 1:
                total += self.c1 * np.log(hi / start)
            else:
                total += self.c2 * (1.0 / start - 1.0 / hi)
        return total

    def l1(self) -> float:
        """Integral of the majorant over the whole line (may be inf)."""
        pieces = self._pieces()
        start, end, order = pieces[-1]
        if order == -1:
            return 0.0
        if order != 2:
            return np.inf
        return 2.0 * (self.integral_0_to(start) + self.c2 / start)

    def tail_l1(self, r: float) -> float:
        total = self.l1()
        if not np.isfinite(total):
            return np.inf
        return max(total - 2.0 * self.integral_0_to(r), 0.0)

    def window_l1(self, width: float) -> float:
        """Largest integral of the majorant over any window of the given width."""
        return 2.0 * self.integral_0_to(width / 2.0)

    def admissibility_sup(self) -> float:
        """sup over xi of (1 + xi^2) * majorant(xi); finite only with quadratic decay."""
        if self.c0 == 0.0:
            return 0.0
        if not np.isfinite(self.c2):
            return np.inf
        candidates = [self.c0, self.c2]
        probe = [1.0, np.sqrt(self.c2 / self.c0)]
        if np.isfinite(self.c1):
            probe += [self.c1 / self.c0, self.c2 / self.c1]
        for x in probe:
            if np.isfinite(x) and x > 0:
                candidates.append((1.0 + x * x) * float(self.at(x)))
        return float(max(candidates))


def _unit_cell_window_sum(env: AxisEnvelope, terms: int = 64) -> float:
    """Upper bound for the sum over integer shifts n of the largest mass the
    majorant can put in any unit window at distance about n."""
    j = env.window_l1(1.0)
    if not np.isfinite(env.c2):
        return np.inf
    ks = np.arange(1, terms + 1, dtype=float)
    series = float(np.sum(env.at(ks))) + env.c2 / terms
    return 3.0 * j + 4.0 * series


# ---------------------------------------------------------------------------
# closed-form transform axes


def _trapezoid_value(q, a: float, b: float, delta: float):
    q = np.asarray(q, dtype=float)
    with np.errstate(invalid="ignore"):
        ramp = np.minimum((q - (a - delta)) / delta, ((b + delta) - q) / delta)
    return np.clip(np.minimum(ramp, 1.0), 0.0, 1.0)


@dataclass(frozen=True)
class IntervalTransformAxis:
    """Transform of an interval indicator along one axis.

    phase -1 is the forward transform, +1 the inverse; they share modulus
    (hi - lo) * |sinc((hi - lo) xi)|.
    """

    lo: float
    hi: float
    phase: int = -1

    def values(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        length = self.hi - self.lo
        mid = self.lo + self.hi
        return length * np.sinc(length * xi) * np.exp(1j * self.phase * np.pi * mid * xi)

    def envelope(self) -> AxisEnvelope:
        length = self.hi - self.lo
        if length == 0.0:
            return AxisEnvelope(0.0, 0.0, 0.0)
        return AxisEnvelope(length, 1.0 / np.pi, np.inf)

    def _spatial_value(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return ((q >= self.lo - BOUNDARY_TOL) & (q <= self.hi + BOUNDARY_TOL)).astype(float)

    def spatial_support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def fourier_at(self, p) -> np.ndarray:
        """Forward transform of this axis function, evaluated at p: the
        underlying indicator (reflected for the forward-phase case)."""
        return self._spatial_value(np.asarray(p, dtype=float) * self.phase)

    def underlying_value(self, t) -> np.ndarray:
        """Function beta with values(u) = integral beta(t) exp(-2 pi i u t) dt."""
        return self._spatial_value(-self.phase * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class TrapezoidTransformAxis:
    """Transform of a trapezoid with plateau [a, b] and ramp width delta."""

    a: float
    b: float
    delta: float
    phase: int = -1

    def values(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        length = self.b - self.a + self.delta
        return (
            length
            * np.sinc(length * xi)
            * np.sinc(self.delta * xi)
            * np.exp(1j * self.phase * np.pi * (self.a + self.b) * xi)
        )

    def envelope(self) -> AxisEnvelope:
        length = self.b - self.a + self.delta
        return AxisEnvelope(length, 1.0 / np.pi, 1.0 / (np.pi ** 2 * self.delta))

    def spatial_support(self) -> tuple[float, float]:
        return self.a - self.delta, self.b + self.delta

    def fourier_at(self, p) -> np.ndarray:
        q = np.asarray(p, dtype=float) * self.phase
        return _trapezoid_value(q, self.a, self.b, self.delta)

    def underlying_value(self, t) -> np.ndarray:
        q = -self.phase * np.asarray(t, dtype=float)
        return _trapezoid_value(q, self.a, self.b, self.delta)


@dataclass(frozen=True)
class SeparableTransform:
    """Tensor product of axis transforms; the admissible-function type.

    The per-axis quadratic-decay certificate, when every axis has one, gives
    the finite admissibility bound sup over xi of the product of
    (1 + xi_i^2) |f_i(xi_i)|.
    """

    axes: tuple

    @property
    def m(self) -> int:
        return len(self.axes)

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.ones(len(pts), dtype=complex)
        for i, axis in enumerate(self.axes):
            out = out * axis.values(pts[:, i])
        return out[0] if single else out

    def envelope(self, i: int) -> AxisEnvelope:
        return self.axes[i].envelope()

    def sup_bound(self) -> float:
        return float(np.prod([ax.envelope().c0 for ax in self.axes]))

    def admissibility_bound(self) -> float:
        return float(np.prod([ax.envelope().admissibility_sup() for ax in self.axes]))


@dataclass(frozen=True)
class AtomicTransform:
    """Transform of a finite atomic profile: a trigonometric sum, no decay."""

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=complex).reshape(-1)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.exp(-2j * np.pi * pts @ self.points.T) @ self.weights
        return out[0] if single else out


# ---------------------------------------------------------------------------
# profiles and cutoffs


@dataclass(frozen=True)
class InternalProfile:
    """Compactly supported weight profile with a closed-form transform.

    Kinds: ``box`` (indicator of a box), ``trapezoid`` (tensor product of
    per-axis trapezoids), ``atoms`` (finite point weights, matched within a
    tolerance when evaluated).
    """

    m: int
    kind: str
    box: Box | None = None
    trap: tuple | None = None
    atoms: tuple | None = None

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.kind == "box":
            out = self.box.contains(pts).astype(complex)
        elif self.kind == "trapezoid":
            a, b, delta = self.trap
            out = np.ones(len(pts), dtype=complex)
            for i in range(self.m):
                out = out * _trapezoid_value(pts[:, i], a[i], b[i], delta[i])
        else:
            positions, weights = self.atoms
            out = np.zeros(len(pts), dtype=complex)
            if len(positions):
                dist, idx = cKDTree(positions).query(pts, k=1)
                hit = dist <= BOUNDARY_TOL
                out[hit] = weights[idx[hit]]
        return out[0] if single else out

    def transform(self):
        """Forward transform F[h], exact in closed form."""
        if self.kind == "box":
            return SeparableTransform(
                tuple(IntervalTransformAxis(self.box.lo[i], self.box.hi[i], -1) for i in range(self.m))
            )
        if self.kind == "trapezoid":
            a, b, delta = self.trap
            return SeparableTransform(
                tuple(TrapezoidTransformAxis(a[i], b[i], delta[i], -1) for i in range(self.m))
            )
        positions, weights = self.atoms
        return AtomicTransform(positions, weights)

    def support_box(self) -> Box:
        if self.kind == "box":
            return self.box
        if self.kind == "trapezoid":
            a, b, delta = self.trap
            return Box(a - delta, b + delta)
        positions, _ = self.atoms
        return Box(positions.min(axis=0), positions.max(axis=0))

    def total(self) -> complex:
        """Total integral (or total weight); equals the transform at 0."""
        if self.kind == "box":
            return complex(self.box.volume)
        if self.kind == "trapezoid":
            a, b, delta = self.trap
            return complex(np.prod(b - a + delta))
        _, weights = self.atoms
        return complex(np.sum(weights))

    def abs_integral(self) -> float:
        """Integral of |h| (total absolute weight for the atomic kind)."""
        if self.kind == "atoms":
            _, weights = self.atoms
            return float(np.sum(np.abs(weights)))
        return float(abs(self.total()))


def box_profile(box: Box | tuple) -> InternalProfile:
    if not isinstance(box, Box):
        box = Box(*box)
    if box.is_empty:
        raise ValueError("profile box must be nonempty")
    return InternalProfile(m=box.dim, kind="box", box=box)


def trapezoid_profile(a, b, delta) -> InternalProfile:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    delta = np.broadcast_to(np.asarray(delta, dtype=float), a.shape).copy()
    if (delta <= 0).any():
        raise ValueError("trapezoid ramp widths must be positive")
    if (b < a).any():
        raise ValueError("trapezoid plateau must be a nonempty box")
    return InternalProfile(m=len(a), kind="trapezoid", trap=(a, b, delta))


def atomic_profile(points, weights) -> InternalProfile:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=complex).reshape(-1)
    if len(points) != len(weights) or len(points) == 0:
        raise ValueError("atomic profile needs matching nonempty points and weights")
    return InternalProfile(m=points.shape[1], kind="atoms", atoms=(points, weights))


@dataclass(frozen=True)
class Cutoff:
    """Tensor-product trapezoid cutoff: identically 1 on its plateau box.

    Each axis is the convolution of two interval indicators, so the closed
    form of the transform is a product of two sinc factors; the quadratic
    per-axis decay is what certifies admissibility.
    """

    a: np.ndarray
    b: np.ndarray
    delta: np.ndarray

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def plateau(self) -> Box:
        return Box(self.a, self.b)

    @property
    def sup_norm(self) -> float:
        return 1.0

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.ones(len(pts))
        for i in range(self.m):
            out = out * _trapezoid_value(pts[:, i], self.a[i], self.b[i], self.delta[i])
        return out[0] if single else out

    def dual_transform(self) -> SeparableTransform:
        """Inverse transform of the cutoff, the function paired against fibers."""
        return SeparableTransform(
            tuple(TrapezoidTransformAxis(self.a[i], self.b[i], self.delta[i], +1) for i in range(self.m))
        )

    def covers(self, window: Window, tol: float = BOUNDARY_TOL) -> bool:
        return all(self.plateau.contains_box(part, tol=tol) for part in window.parts)


def make_cutoff(plateau: Box | tuple, margin) -> Cutoff:
    if not isinstance(plateau, Box):
        plateau = Box(*plateau)
    if plateau.is_empty:
        raise ValueError("cutoff plateau must be nonempty")
    margin = np.broadcast_to(np.asarray(margin, dtype=float), plateau.lo.shape).copy()
    if (margin <= 0).any():
        raise ValueError("cutoff margins must be positive")
    return Cutoff(a=plateau.lo.copy(), b=plateau.hi.copy(), delta=margin)


# ---------------------------------------------------------------------------
# quadrature with certified tails


DEFAULT_INTERNAL_SLICE = 60.0


@dataclass(frozen=True)
class TruncationSpec:
    """Declared truncation for dual-side quadrature.

    ``radius`` bounds the integration box per axis, ``tail_tol`` the total
    certified quadrature tail allowed, and ``internal_radius`` (when set)
    caps the internal-dual enumeration instead of deriving it from decay
    envelopes.  The fibered pairing always works on a declared internal
    slice (``internal_radius`` or the default); translates beyond it are
    outside the declared computation.
    """

    radius: float = 200.0
    panel: float = 0.5
    order: int = 16
    rel_tol: float = 1e-9
    tail_tol: float = 1e-8
    internal_radius: float | None = None
    match_tol: float = 1e-7
    max_refine: int = 2


def _gl_grid(radius: float, panel: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, wts = np.polynomial.legendre.leggauss(order)
    n_panels = int(np.ceil(2.0 * radius / panel))
    edges = -radius + panel * np.arange(n_panels + 1)
    centers = edges[:-1] + 0.5 * panel
    y = (centers[:, None] + 0.5 * panel * nodes[None, :]).reshape(-1)
    w = np.tile(0.5 * panel * wts, n_panels)
    return y, w


def _axis_pair_once(f_axis, g_axis, shifts: np.ndarray, radius: float, panel: float, order: int) -> np.ndarray:
    y, w = _gl_grid(radius, panel, order)
    fa = f_axis.values(y) * w
    out = np.empty(len(shifts), dtype=complex)
    block = max(1, 4_000_000 // max(len(y), 1))
    for start in range(0, len(shifts), block):
        s = shifts[start : start + block]
        out[start : start + block] = g_axis.values(y[None, :] - s[:, None]) @ fa
    return out


def _axis_pair_tail(env_f: AxisEnvelope, env_g: AxisEnvelope, radius: float, shifts: np.ndarray) -> np.ndarray:
    """Upper bound for the pairing mass outside [-radius, radius], per shift."""
    s = np.abs(np.asarray(shifts, dtype=float))
    best = np.full(s.shape, np.inf)
    for pf, cf in ((2, env_f.c2), (1, env_f.c1), (0, env_f.c0)):
        if not np.isfinite(cf):
            continue
        for pg, cg in ((2, env_g.c2), (1, env_g.c1), (0, env_g.c0)):
            if not np.isfinite(cg):
                continue
            p = pf + pg
            if p < 2:
                continue
            margin = np.maximum(1.0 - s / radius, 1e-12) ** pg
            bound = 2.0 * cf * cg / margin * radius ** (1 - p) / (p - 1)
            best = np.minimum(best, bound)
    return best


def _axis_pair(f_axis, g_axis, shifts: np.ndarray, trunc: TruncationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive composite Gauss-Legendre pairing along one axis, with tails."""
    shifts = np.asarray(shifts, dtype=float)
    scale_hint = f_axis.envelope().c0 * g_axis.envelope().c0 + 1e-300
    panel = trunc.panel
    prev = _axis_pair_once(f_axis, g_axis, shifts, trunc.radius, panel, trunc.order)
    for _ in range(trunc.max_refine + 1):
        panel *= 0.5
        cur = _axis_pair_once(f_axis, g_axis, shifts, trunc.radius, panel, trunc.order)
        err = np.abs(cur - prev)
        if np.all(err <= trunc.rel_tol * np.maximum(np.abs(cur), 1e-3 * scale_hint)):
            tails = _axis_pair_tail(f_axis.envelope(), g_axis.envelope(), trunc.radius, shifts)
            return cur, tails
        prev = cur
    raise TruncationError("quadrature did not converge to the requested tolerance")


def _spatial_pieces(axis, reflect: bool) -> tuple[float, float, np.ndarray]:
    lo, hi = axis.spatial_support()
    if isinstance(axis, TrapezoidTransformAxis):
        breaks = np.array([axis.a - axis.delta, axis.a, axis.b, axis.b + axis.delta])
    else:
        breaks = np.array([lo, hi])
    if reflect:
        lo, hi = -hi, -lo
        breaks = -breaks
    return lo, hi, np.sort(breaks)


def _compact_axis_pair(a_axis, b_axis, shifts: np.ndarray, order: int = 16) -> np.ndarray:
    """Pairing along one axis, rewritten over the compact spatial side.

    integral a(y) b(y - s) dy = integral F[a](t) beta_b(t) exp(2 pi i s t) dt
    with both factors compactly supported and piecewise polynomial, so
    Gauss-Legendre panels split at the kink points are exact to rounding.
    """
    shifts = np.asarray(shifts, dtype=float)
    a_lo, a_hi, a_breaks = _spatial_pieces(a_axis, reflect=(a_axis.phase == -1))
    b_lo, b_hi, b_breaks = _spatial_pieces(b_axis, reflect=(b_axis.phase == +1))
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    if hi <= lo:
        return np.zeros(len(shifts), dtype=complex)
    cuts = np.unique(np.concatenate([[lo, hi], a_breaks, b_breaks]))
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
    base = a_axis.fourier_at(t) * b_axis.underlying_value(t) * w
    out = np.empty(len(shifts), dtype=complex)
    block = max(1, 4_000_000 // max(len(t), 1))
    for start in range(0, len(shifts), block):
        s = shifts[start : start + block]
        out[start : start + block] = np.exp(2j * np.pi * s[:, None] * t[None, :]) @ base
    return out


def pairing_values(
    f: SeparableTransform,
    fiber,
    shifts,
    trunc: TruncationSpec,
    method: str = "dual",
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(y) * fiber(y - shift) dy over R^m, one per shift row.

    Returns (values, certified tail bounds).  ``method="dual"`` pairs
    separable fibers by per-axis quadrature over [-radius, radius] with
    envelope tail bounds; ``method="compact"`` rewrites the pairing over the
    compact spatial supports, which has no truncation tail at all.  Atomic
    fibers always reduce to exact closed form (tail zero).
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    n = len(shifts)
    if isinstance(fiber, AtomicTransform):
        values = np.zeros(n, dtype=complex)
        for p, w in zip(fiber.points, fiber.weights):
            factor = complex(w)
            for i, axis in enumerate(f.axes):
                factor *= complex(np.asarray(axis.fourier_at(p[i]), dtype=complex))
            values += factor * np.exp(2j * np.pi * shifts @ p)
        return values, np.zeros(n)
    if method == "compact":
        values = np.ones(n, dtype=complex)
        for i in range(f.m):
            values = values * _compact_axis_pair(f.axes[i], fiber.axes[i], shifts[:, i],
                                                 order=trunc.order)
        return values, np.zeros(n)
    values = np.ones(n, dtype=complex)
    per_axis_vals = []
    per_axis_tails = []
    for i in range(f.m):
        v, t = _axis_pair(f.axes[i], fiber.axes[i], shifts[:, i], trunc)
        per_axis_vals.append(v)
        per_axis_tails.append(t)
        values = values * v
    tails = np.zeros(n)
    for i in range(f.m):
        other = np.ones(n)
        for j in range(f.m):
            if j != i:
                other = other * (np.abs(per_axis_vals[j]) + per_axis_tails[j])
        tails += per_axis_tails[i] * other
    return values, tails


def _axis_pairing_bound(env_f: AxisEnvelope, env_g: AxisEnvelope, s: float) -> float:
    """Upper bound for |integral f(y) g(y - s) dy| from the envelopes alone."""
    half = abs(s) / 2.0
    l1f, l1g = env_f.l1(), env_g.l1()
    candidates = []
    if np.isfinite(l1f) and np.isfinite(l1g):
        candidates.append(float(env_g.at(half)) * l1f + float(env_f.at(half)) * l1g)
    if np.isfinite(l1f):
        candidates.append(float(env_g.at(half)) * l1f + env_g.c0 * env_f.tail_l1(half))
    if np.isfinite(l1g):
        candidates.append(float(env_f.at(half)) * l1g + env_f.c0 * env_g.tail_l1(half))
    return min(candidates) if candidates else np.inf


def _solve_radius(bound, target: float, start: float = 1.0) -> float:
    r = start
    for _ in range(80):
        if bound(r) <= target:
            return r
        r *= 2.0
    raise TruncationError("cannot bound the internal enumeration; give an explicit internal_radius")


# ---------------------------------------------------------------------------
# periodic measures on the dual side


@dataclass(frozen=True)
class MotifAtom:
    """Point mass at (phys, internal) within one period cell."""

    phys: np.ndarray
    internal: np.ndarray
    weight: complex


@dataclass(frozen=True)
class MotifAtomFiber:
    """Point mass in the physical variable carrying an internal density fiber."""

    phys: np.ndarray
    internal: np.ndarray
    weight: complex
    fiber: object


@dataclass(frozen=True)
class MotifDensityFiber:
    """Separable absolutely continuous component: physical density times fiber."""

    density: InternalProfile
    fiber: object


@dataclass(frozen=True)
class PeriodicMeasure:
    """Measure on R^d x R^m invariant under the period lattice, given by a motif.

    The represented measure is scale times the sum of the motif translated by
    every period-lattice vector; invariance holds by construction.
    """

    period: Lattice
    d: int
    m: int
    scale: float
    motif: tuple

    def pp_motif(self) -> tuple:
        return tuple(c for c in self.motif if isinstance(c, (MotifAtom, MotifAtomFiber)))

    def ac_motif(self) -> tuple:
        return tuple(c for c in self.motif if isinstance(c, MotifDensityFiber))


def spectral_projector(rho: PeriodicMeasure, component: str) -> PeriodicMeasure:
    """Select the motif components whose projections are pure point (pp),
    absolutely continuous (ac), or singular continuous (sc).

    The representable class carries no singular continuous part, so the sc
    projector returns the zero measure; it exists so the three projectors
    partition every representable measure.
    """
    if component == "pp":
        motif = rho.pp_motif()
    elif component == "ac":
        motif = rho.ac_motif()
    elif component == "sc":
        motif = ()
    else:
        raise ValueError(f"unknown spectral component {component!r}")
    return replace(rho, motif=motif)


def lattice_comb_transform(cps: CutProjectScheme, profile: InternalProfile) -> PeriodicMeasure:
    """Fourier transform of the profile-weighted lattice comb.

    The comb sum of h(xstar) at every lattice point (x, xstar) transforms, by
    Poisson summation, into dens(L) times the dual-lattice-periodic measure
    whose motif is a physical point mass at the origin carrying the fiber
    F[h] as an internal density.
    """
    if profile.m != cps.m:
        raise ValueError("profile dimension must match the internal dimension")
    motif = (
        MotifAtomFiber(
            phys=np.zeros(cps.d),
            internal=np.zeros(cps.m),
            weight=1.0 + 0j,
            fiber=profile.transform(),
        ),
    )
    return PeriodicMeasure(period=dual(cps.lat), d=cps.d, m=cps.m, scale=density(cps.lat), motif=motif)


# ---------------------------------------------------------------------------
# diffraction: closed form and oracle


@dataclass(frozen=True)
class DiffractionSpectrum:
    """Pure-point spectrum on a query box: peak positions with amplitudes."""

    d: int
    ks: np.ndarray
    internals: np.ndarray
    refs: np.ndarray
    amplitudes: np.ndarray
    threshold: float
    metadata: dict

    @property
    def intensities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def n_peaks(self) -> int:
        return len(self.ks)


def _fiber_radii(transform: SeparableTransform, target: float) -> np.ndarray:
    """Per-axis internal radii outside which the transform modulus is below target."""
    c0s = np.array([ax.envelope().c0 for ax in transform.axes])
    radii = np.empty(len(c0s))
    for i, axis in enumerate(transform.axes):
        others = float(np.prod(np.delete(c0s, i))) if len(c0s) > 1 else 1.0
        t = target / max(others, 1e-300)
        env = axis.envelope()
        options = []
        if np.isfinite(env.c1):
            options.append(env.c1 / t)
        if np.isfinite(env.c2):
            options.append(np.sqrt(env.c2 / t))
        if not options:
            raise ValueError("profile transform has no decay certificate; cannot bound the enumeration")
        radii[i] = max(min(options), 1.0)
    return radii


def _chunked_amplitudes(transform, shifts: np.ndarray, scale: float, threads: int) -> np.ndarray:
    if threads <= 1 or len(shifts) < 256:
        return scale * transform.value(shifts)
    out = np.empty(len(shifts), dtype=complex)
    chunks = np.array_split(np.arange(len(shifts)), threads * 4)

    def work(idx):
        out[idx] = scale * transform.value(shifts[idx])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, [c for c in chunks if len(c)]))
    return out


def diffraction(
    cps: CutProjectScheme,
    window: Window,
    profile: InternalProfile,
    query: Box,
    threshold: float,
    cutoff: Cutoff,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> DiffractionSpectrum:
    """Closed-form diffraction spectrum of the profile-weighted model-set comb.

    Enumerates dual-lattice points with physical part in the query box and an
    internal range wide enough that every peak above the threshold is
    captured, then evaluates A(k) = dens(L) * F[h](sigma * kstar).  The
    cutoff takes no part in the amplitude because it is identically 1 on the
    window; it is validated here so the spectrum is exactly the one the
    fibered pairing route computes.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not cutoff.covers(window):
        raise ValueError("cutoff plateau must contain the window")
    support = profile.support_box()
    if not any(part.contains_box(support) for part in window.parts):
        raise ValueError("profile support must lie inside the window")
    transform = profile.transform()
    if isinstance(transform, AtomicTransform):
        raise ValueError("atomic profiles have no transform decay; the enumeration cannot be bounded")
    scale = density(cps.lat)
    dcps = dual_cps(cps)
    radii = _fiber_radii(transform, threshold / (10.0 * scale))
    box = Box.product(query, Box(-radii, radii))
    z, p = lattice_points_in_box(dcps.lat, box, budget=budget)
    ks, stars = p[:, : cps.d], p[:, cps.d :]
    amplitudes = _chunked_amplitudes(transform, PEAK_PHASE_SIGN * stars, scale, threads)
    keep = np.abs(amplitudes) >= threshold
    z, ks, stars, amplitudes = z[keep], ks[keep], stars[keep], amplitudes[keep]
    keys = tuple(z[:, i] for i in reversed(range(z.shape[1]))) + tuple(
        ks[:, i] for i in reversed(range(ks.shape[1]))
    )
    order = np.lexsort(keys)
    metadata = {
        "scale": scale,
        "threshold": threshold,
        "internal_radii": radii.tolist(),
        "peak_phase_sign": PEAK_PHASE_SIGN,
        "cutoff": {"a": cutoff.a.tolist(), "b": cutoff.b.tolist(), "delta": cutoff.delta.tolist()},
        "version": __version__,
    }
    return DiffractionSpectrum(
        d=cps.d,
        ks=ks[order],
        internals=stars[order],
        refs=z[order],
        amplitudes=amplitudes[order],
        threshold=threshold,
        metadata=metadata,
    )


def oracle_amplitudes(
    cps: CutProjectScheme,
    window: Window,
    profile: InternalProfile,
    ks,
    patch_radius: float,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Direct-sum amplitudes over a finite patch, one per requested k.

    Averages h(xstar) exp(-2 pi i k.x) over the model set inside the box of
    the given radius.  This never touches dual-side code, so it serves as the
    independent ground truth for the closed-form route.
    """
    if patch_radius <= 0:
        raise ValueError("patch radius must be positive")
    ks = np.atleast_2d(np.asarray(ks, dtype=float))
    query = Box(-patch_radius * np.ones(cps.d), patch_radius * np.ones(cps.d))
    x, xstar = cps.split(_model_set(cps, window, query, budget, BOUNDARY_TOL))
    volume = (2.0 * patch_radius) ** cps.d
    if len(x) == 0:
        return np.zeros(len(ks), dtype=complex)
    hvals = profile.value(xstar)
    phases = np.exp(-2j * np.pi * ks @ x.T)
    return (phases @ hvals) / volume


def oracle_amplitude(cps, window, profile, k, patch_radius, budget: int = DEFAULT_BUDGET) -> complex:
    return complex(oracle_amplitudes(cps, window, profile, [np.atleast_1d(k)], patch_radius, budget)[0])


# ---------------------------------------------------------------------------
# projection of periodic measures


@dataclass(frozen=True)
class ProjectedDensity:
    """Absolutely continuous part of a projection: sum of translated profiles."""

    profile: InternalProfile
    translates: np.ndarray
    coefficients: np.ndarray

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts), dtype=complex)
        for t, c in zip(self.translates, self.coefficients):
            out += c * self.profile.value(pts - t)
        return out[0] if single else out


@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a periodic measure: atomic part plus tagged densities."""

    atoms: WeightedComb
    densities: tuple


def _internal_box(internal_offset: np.ndarray, radii: np.ndarray) -> Box:
    return Box(-radii - internal_offset, radii - internal_offset)


def _pair_radii(f: SeparableTransform, fiber, target: float, trunc: TruncationSpec) -> np.ndarray:
    """Per-axis internal radii beyond which the pairing bound is below target."""
    if trunc.internal_radius is not None:
        return np.full(f.m, float(trunc.internal_radius))
    if isinstance(fiber, AtomicTransform):
        raise ValueError("atomic fibers give no pairing decay; set an explicit internal_radius")
    zeros = [
        _axis_pairing_bound(f.envelope(i), fiber.envelope(i), 0.0) for i in range(f.m)
    ]
    radii = np.empty(f.m)
    for i in range(f.m):
        others = float(np.prod([zeros[j] for j in range(f.m) if j != i])) if f.m > 1 else 1.0
        t = target / max(others, 1e-300)
        env_f, env_g = f.envelope(i), fiber.envelope(i)
        radii[i] = _solve_radius(lambda r: _axis_pairing_bound(env_f, env_g, r), t)
    return radii


def _value_radii(f: SeparableTransform, target: float, trunc: TruncationSpec) -> np.ndarray:
    if trunc.internal_radius is not None:
        return np.full(f.m, float(trunc.internal_radius))
    return _fiber_radii(f, target)


def project(
    rho: PeriodicMeasure,
    f: SeparableTransform,
    query: Box,
    threshold: float,
    trunc: TruncationSpec | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ProjectionResult:
    """Pair the internal variable of a periodic measure with an admissible f.

    Point-in-physical motif components project to atoms on the physical
    parts of the period lattice; density components project to closed-form
    densities.  Peaks and coefficients below ``threshold`` in modulus are
    dropped; the internal enumeration radius is derived from the decay
    envelopes so that nothing above the threshold is missed (or taken from
    ``trunc.internal_radius`` when set).
    """
    if f.m != rho.m:
        raise ValueError("admissible function dimension must match the internal dimension")
    if query.dim != rho.d:
        raise ValueError("query box must live in physical-dual space")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    trunc = trunc or TruncationSpec()
    floor = max(threshold, 1e-12) / 10.0

    atom_positions: list[np.ndarray] = []
    atom_weights: list[np.ndarray] = []
    densities: list[ProjectedDensity] = []
    worst_tail = 0.0

    for comp in rho.motif:
        if isinstance(comp, MotifAtom):
            radii = _value_radii(f, floor / max(abs(comp.weight), 1e-300), trunc)
            box = Box.product(
                Box(query.lo - comp.phys, query.hi - comp.phys),
                _internal_box(comp.internal, radii),
            )
            _, p = lattice_points_in_box(rho.period, box, budget=budget)
            if not len(p):
                continue
            shifts = comp.internal + p[:, rho.d :]
            vals = rho.scale * comp.weight * f.value(shifts)
            atom_positions.append(comp.phys + p[:, : rho.d])
            atom_weights.append(vals)
        elif isinstance(comp, MotifAtomFiber):
            radii = _pair_radii(f, comp.fiber, floor / max(abs(comp.weight) * rho.scale, 1e-300), trunc)
            box = Box.product(
                Box(query.lo - comp.phys, query.hi - comp.phys),
                _internal_box(comp.internal, radii),
            )
            _, p = lattice_points_in_box(rho.period, box, budget=budget)
            if not len(p):
                continue
            shifts = comp.internal + p[:, rho.d :]
            vals, tails = pairing_values(f, comp.fiber, shifts, trunc, method="compact")
            worst_tail = max(worst_tail, float(np.max(tails)) * abs(comp.weight) * rho.scale)
            atom_positions.append(comp.phys + p[:, : rho.d])
            atom_weights.append(rho.scale * comp.weight * vals)
        else:
            g_support = comp.density.support_box()
            radii = _pair_radii(f, comp.fiber, floor / max(rho.scale, 1e-300), trunc)
            box = Box.product(
                Box(query.lo - g_support.hi, query.hi - g_support.lo),
                _internal_box(np.zeros(rho.m), radii),
            )
            _, p = lattice_points_in_box(rho.period, box, budget=budget)
            if not len(p):
                continue
            vals, tails = pairing_values(f, comp.fiber, p[:, rho.d :], trunc, method="compact")
            worst_tail = max(worst_tail, float(np.max(tails)) * rho.scale if len(tails) else 0.0)
            coeffs = rho.scale * vals
            keep = np.abs(coeffs) >= threshold
            densities.append(
                ProjectedDensity(comp.density, p[:, : rho.d][keep], coeffs[keep])
            )

    if worst_tail > trunc.tail_tol:
        raise TruncationError(f"increase truncation radius: tail bound {worst_tail:.3e}")

    if atom_positions:
        pos = np.concatenate(atom_positions)
        wts = np.concatenate(atom_weights)
        pos, wts, _ = merge_atoms(pos, wts)
        keep = np.abs(wts) >= threshold
        pos, wts = pos[keep], wts[keep]
        order = np.lexsort(tuple(pos[:, i] for i in reversed(range(pos.shape[1]))))
        atoms = WeightedComb(pos[order], wts[order], dim=rho.d, validate=False)
    else:
        atoms = WeightedComb(np.zeros((0, rho.d)), np.zeros(0, complex), dim=rho.d)
    return ProjectionResult(atoms=atoms, densities=tuple(densities))


def pair_fibered(rho: PeriodicMeasure, psi, cutoff: Cutoff, trunc: TruncationSpec | None = None,
                 budget: int = DEFAULT_BUDGET, strict: bool = True) -> complex:
    """Pair the periodic measure against psi tensor the cutoff's inverse transform.

    ``psi`` is a finite atomic test functional: pairs (position, value) with
    positions on physical parts of period-lattice points (within the match
    tolerance).  Density motif components carry no mass on the measure-zero
    physical fibers an atomic functional sees, so only point components
    contribute.  In strict mode an atom matching no enumerated lattice point
    raises; with strict=False such atoms simply contribute zero, which is the
    value of the pairing away from the measure's support.  Raises when the
    certified tail exceeds its tolerance.
    """
    trunc = trunc or TruncationSpec()
    positions, values = _normalize_psi(psi, rho.d)
    if len(positions) == 0:
        return 0.0 + 0.0j
    f = cutoff.dual_transform()
    matched = np.zeros(len(positions), dtype=bool)
    total = 0.0 + 0.0j
    total_tail = 0.0

    slice_radius = trunc.internal_radius if trunc.internal_radius is not None else DEFAULT_INTERNAL_SLICE
    for comp in rho.motif:
        if isinstance(comp, MotifDensityFiber):
            continue
        fiber = comp.fiber if isinstance(comp, MotifAtomFiber) else None
        radii = np.full(rho.m, float(slice_radius))
        lo = positions.min(axis=0) - comp.phys - trunc.match_tol
        hi = positions.max(axis=0) - comp.phys + trunc.match_tol
        box = Box.product(Box(lo, hi), _internal_box(comp.internal, radii))
        _, p = lattice_points_in_box(rho.period, box, budget=budget)
        if not len(p):
            continue
        phys = comp.phys + p[:, : rho.d]
        dist, idx = cKDTree(positions).query(phys, k=1)
        hit = dist <= trunc.match_tol
        if not hit.any():
            continue
        matched[idx[hit]] = True
        shifts = comp.internal + p[hit, rho.d :]
        if fiber is None:
            vals = comp.weight * f.value(shifts)
            tails = np.zeros(len(shifts))
        else:
            vals, tails = pairing_values(f, fiber, shifts, trunc)
            vals = comp.weight * vals
        psi_vals = values[idx[hit]]
        total += rho.scale * np.sum(psi_vals * vals)
        total_tail += rho.scale * float(np.sum(np.abs(psi_vals)) * np.max(tails, initial=0.0))

    if strict and not matched.all():
        missing = int(np.argmin(matched))
        raise ValueError(f"psi atom off-lattice: atom {missing} matches no period-lattice point")
    if total_tail > trunc.tail_tol:
        raise TruncationError(f"increase truncation radius: tail bound {total_tail:.3e}")
    return complex(total)


def _normalize_psi(psi, d: int) -> tuple[np.ndarray, np.ndarray]:
    positions, values = [], []
    for pos, val in psi:
        positions.append(np.atleast_1d(np.asarray(pos, dtype=float)))
        values.append(complex(val))
    if not positions:
        return np.zeros((0, d)), np.zeros(0, complex)
    pos = np.stack(positions)
    if pos.shape[1] != d:
        raise ValueError("psi atom dimension does not match the physical-dual dimension")
    return pos, np.array(values, dtype=complex)


# ---------------------------------------------------------------------------
# the norm bound for projections of periodic measures


def unit_cell_decay_constant(tail_tol: float = 1e-6) -> tuple[float, float]:
    """Per-axis constant: sum over integer cells of the peak of 1/(1+z^2).

    Evaluated by truncated summation with an arctangent integral bound on the
    remainder; the bound is added, so the returned value is an upper estimate
    with certified tail below ``tail_tol``.
    """
    n_terms = int(np.ceil(2.0 / tail_tol)) + 2
    ns = np.arange(1, n_terms + 1, dtype=float)
    partial = 1.0 + 2.0 * float(np.sum(1.0 / (1.0 + (ns - 0.5) ** 2)))
    tail = 2.0 * (np.pi / 2.0 - np.arctan(n_terms - 0.5))
    return partial + tail, tail


@dataclass(frozen=True)
class NormBoundReport:
    ok: bool
    left: float
    right: float
    constant_per_axis: float
    constant: float
    admissibility: float
    phi_sup: float
    rho_norm_upper: float
    left_atoms: float
    left_density: float


def _fiber_window_sum(fiber, m: int) -> float:
    """Per-axis product bound for the summed unit-window masses of a fiber."""
    if isinstance(fiber, AtomicTransform):
        return np.inf
    return float(np.prod([_unit_cell_window_sum(fiber.envelope(i)) for i in range(m)]))


def _max_window_count(points: np.ndarray, box: Box, sweep: Box) -> float:
    """Largest number of points a translate of ``box`` inside ``sweep`` captures."""
    if len(points) == 0:
        return 0.0
    comb = WeightedComb(points, np.ones(len(points)), dim=points.shape[1], validate=False)
    try:
        return a_norm(comb, box, sweep)
    except ValueError:
        return float(len(points))


def norm_bound_check(
    dims: tuple[int, int],
    rho: PeriodicMeasure,
    f: SeparableTransform,
    k_box: Box,
    k1_box: Box,
    sweep_halfwidth: float = 25.0,
    internal_sweep: float = 8.0,
    threshold_rel: float = 1e-3,
    trunc: TruncationSpec | None = None,
    budget: int = DEFAULT_BUDGET,
) -> NormBoundReport:
    """Check the admissible-projection norm bound on one configuration.

    Left side: the window norm of the projection over an interior sweep
    region (an upper estimate, atoms plus density mass).  Right side: the
    unit-cell decay constant, the cutoff sup norm, the admissibility bound of
    f, and an upper estimate of the measure's norm over the product box
    k1_box x unit internal cube.  Both sides are computed; ok means
    left <= right.
    """
    d, m = dims
    if d != rho.d or m != rho.m:
        raise ValueError("dims must match the measure")
    if not ((k_box.lo > k1_box.lo) & (k_box.hi < k1_box.hi)).all():
        raise ValueError("k_box must lie strictly inside k1_box")
    admissibility = f.admissibility_bound()
    if not np.isfinite(admissibility):
        raise ValueError("f lacks a quadratic decay certificate")
    trunc = trunc or TruncationSpec(internal_radius=50.0)
    c1, _ = unit_cell_decay_constant()
    constant = c1 ** m

    hint = max(
        [rho.scale * abs(getattr(c, "weight", 1.0)) for c in rho.motif] + [1e-6]
    )
    sweep = Box(-sweep_halfwidth * np.ones(d), sweep_halfwidth * np.ones(d))
    proj = project(rho, f, sweep, threshold_rel * hint, trunc, budget=budget)
    span = k_box.sides
    eval_region = Box(sweep.lo + span, sweep.hi - span)
    left_atoms = a_norm(proj.atoms, k_box, eval_region) if proj.atoms.n_atoms else 0.0
    left_density = 0.0
    for dens in proj.densities:
        if len(dens.translates) == 0:
            continue
        g_box = dens.profile.support_box()
        mass = dens.profile.abs_integral()
        pseudo = WeightedComb(dens.translates, np.abs(dens.coefficients) * mass,
                              dim=d, validate=False)
        capture = Box(k_box.lo - g_box.hi, k_box.hi - g_box.lo)
        left_density += a_norm(pseudo, capture, eval_region.inflate(np.max(g_box.sides)))
    left = left_atoms + left_density

    # norm of rho over k1_box x unit cube: count captured period points per
    # component, times the per-point internal window mass bound
    unit = Box(-0.5 * np.ones(m), 0.5 * np.ones(m))
    sweep_full = Box.product(sweep, Box(-internal_sweep * np.ones(m), internal_sweep * np.ones(m)))
    _, p_all = lattice_points_in_box(rho.period, sweep_full, budget=budget)
    rho_norm = 0.0
    for comp in rho.motif:
        if isinstance(comp, MotifAtom):
            count_box = Box.product(k1_box, unit.inflate(1e-6))
            eval_full = Box(sweep_full.lo + count_box.sides, sweep_full.hi - count_box.sides)
            rho_norm += abs(comp.weight) * _max_window_count(p_all, count_box, eval_full)
        elif isinstance(comp, MotifAtomFiber):
            window_sum = _fiber_window_sum(comp.fiber, m)
            count_box = Box.product(k1_box, unit.inflate(1e-6))
            eval_full = Box(sweep_full.lo + count_box.sides, sweep_full.hi - count_box.sides)
            rho_norm += abs(comp.weight) * window_sum * _max_window_count(p_all, count_box, eval_full)
        else:
            g_box = comp.density.support_box()
            window_sum = _fiber_window_sum(comp.fiber, m)
            grown = Box(k1_box.lo - g_box.hi, k1_box.hi - g_box.lo)
            count_box = Box.product(grown, unit.inflate(1e-6))
            eval_full = Box(sweep_full.lo + count_box.sides, sweep_full.hi - count_box.sides)
            rho_norm += comp.density.abs_integral() * window_sum * _max_window_count(
                p_all, count_box, eval_full
            )
    rho_norm *= rho.scale

    phi_sup = 1.0
    right = constant * phi_sup * admissibility * rho_norm
    return NormBoundReport(
        ok=bool(left <= right),
        left=float(left),
        right=float(right),
        constant_per_axis=float(c1),
        constant=float(constant),
        admissibility=float(admissibility),
        phi_sup=phi_sup,
        rho_norm_upper=float(rho_norm),
        left_atoms=float(left_atoms),
        left_density=float(left_density),
    )


# ---------------------------------------------------------------------------
# spectrum output


def spectrum_to_csv(spectrum: DiffractionSpectrum, path) -> None:
    """Rows k1..kd,re,im,intensity in lexicographic peak order."""
    header = [f"k{i + 1}" for i in range(spectrum.d)] + ["re", "im", "intensity"]
    lines = [",".join(header)]
    for k, amp in zip(spectrum.ks, spectrum.amplitudes):
        intensity = abs(amp) ** 2
        lines.append(
            ",".join(
                [f"{v:.17g}" for v in k]
                + [f"{amp.real:.17g}", f"{amp.imag:.17g}", f"{intensity:.17g}"]
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def spectrum_metadata_json(spectrum: DiffractionSpectrum, extra: dict | None = None) -> str:
    payload = dict(spectrum.metadata)
    payload["n_peaks"] = spectrum.n_peaks
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2)
