"""The Fourier side: profile transforms, dual-periodic measures, diffraction.

Transform convention, fixed library-wide: the forward transform is
F[g](xi) = integral of g(y) exp(-2*pi*i xi.y) dy, with no 2*pi in the
measure.  Box and trapezoid profiles and cutoffs are one type,
``Separable``, a product of ``Axis`` trapezoids (an interval is an axis
without a ramp); ``transform()`` and ``dual_transform()`` are the same
product evaluated in closed form at phase -1 and +1.  ``Atomic`` is the
finite-sum profile and its transform.  Cutoffs are paired through their
inverse transform, whose modulus agrees with the forward one.

The central objects:

* ``lattice_comb_transform`` represents the Fourier transform of a
  profile-weighted lattice comb as a measure periodic under the dual
  lattice: a point mass in the physical-dual variable carrying a
  closed-form density fiber in the internal-dual one.
* ``diffraction`` evaluates the resulting pure-point spectrum in closed
  form, amplitude A(k) = dens(L) * hhat(sigma * kstar), with the sign
  ``PEAK_PHASE_SIGN`` pinned once against ``oracle_amplitudes`` (see
  tests/test_spectra.py::test_peak_phase_sign_pinning) and frozen.
* ``pair_fibered`` evaluates the same pairings by direct quadrature on the
  dual side, with certified truncation tails, so the closed form is
  cross-checked by an independent route.  ``project`` pairs each fiber over
  the compact spatial supports instead, in closed form per piece, with no
  truncation tail.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .almost import a_norm
from .comb import LIFT_TOL, WeightedComb, merge_atoms
from .cps import CutProjectScheme, Window, _model_set, dual_cps
from .lattice import (
    BOUNDARY_TOL,
    DEFAULT_BUDGET,
    Box,
    Lattice,
    _first_near,
    _near,
    density,
    lattice_points_in_box,
)

# Sign sigma in A(k) = dens(L) * hhat(sigma * kstar).  Pinned by comparing the
# closed form against the direct-sum oracle at non-symmetric Bragg peaks with a
# non-even profile; the pinning data lives in the test suite and the value is
# frozen here.
PEAK_PHASE_SIGN = -1


class TruncationError(RuntimeError):
    """A certified truncation tail exceeded its tolerance (increase the radius),
    or the dual-side quadrature did not converge (refine its panels)."""


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
        for c, power in ((self.c1, 1), (self.c2, 2)):
            if np.isfinite(c):  # a floor on r^power, not on r, so a zero c gives 0, never 0 / 0
                out = np.minimum(out, np.where(r > 0, c / np.maximum(r ** power, 1e-300), np.inf))
        return out if out.ndim else float(out)

    def radius(self, t: float) -> float:
        """min(c1 / t, sqrt(c2 / t)): beyond it the majorant is below t."""
        options = []
        if np.isfinite(self.c1):
            options.append(self.c1 / t)
        if np.isfinite(self.c2):
            options.append(np.sqrt(self.c2 / t))
        if not options:
            raise ValueError("profile transform has no decay certificate; cannot bound the enumeration")
        return min(options)

    def _pieces(self) -> list[tuple[float, float, int]]:
        """(start, end, order) pieces of the active majorant on [0, inf)."""
        c0, c1, c2 = self.c0, self.c1, self.c2
        if 0.0 in (c0, c1, c2):
            return [(0.0, np.inf, -1)]  # zero for every x > 0
        if np.isfinite(c1) and np.isfinite(c2) and c1 / c0 <= c2 / c1:
            r1, r2 = c1 / c0, c2 / c1
            return [(0.0, r1, 0), (r1, r2, 1), (r2, np.inf, 2)]
        if np.isfinite(c2):  # c1 / x is nowhere the least of the three
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
            if hi <= start or order == -1:
                continue
            if order == 0:
                total += self.c0 * (hi - start)
            elif order == 1:
                total += self.c1 * np.log(hi / start)
            else:
                total += self.c2 * (1.0 / start - 1.0 / hi)
        return total

    def admissibility_sup(self) -> float:
        """sup over xi of (1 + xi^2) * majorant(xi); finite only with quadratic decay."""
        if 0.0 in (self.c0, self.c1, self.c2):
            return float(self.c0)  # zero for every xi > 0: the sup is the value at 0
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


WINDOW_SUM_TERMS = 64  # shifts summed term by term before the c2 / n^2 tail bound


def _unit_cell_window_sum(env: AxisEnvelope) -> float:
    """Upper bound for the sum over integer shifts n of the largest mass the
    majorant can put in any unit window at distance about n."""
    j = 2.0 * env.integral_0_to(0.5)  # the most mass any unit window holds
    if not np.isfinite(env.c2):
        return np.inf
    ks = np.arange(1, WINDOW_SUM_TERMS + 1, dtype=float)
    series = float(np.sum(env.at(ks))) + env.c2 / WINDOW_SUM_TERMS
    return 3.0 * j + 4.0 * series


# ---------------------------------------------------------------------------
# separable functions, atomic sums, and their closed-form transforms


@dataclass(frozen=True)
class Axis:
    """Trapezoid on one axis: 1 on the plateau [a, b], linear ramps of width
    ``delta``; with ``delta == 0`` the indicator of [a, b] (boundary tolerance).

    It is the convolution of two interval indicators over delta, so its
    transform is length * sinc(length xi) * sinc(delta xi) times a phase; the
    interval has the first sinc only.  ``values`` evaluates the function at
    ``phase`` 0, its forward transform at -1 and its inverse at +1.
    """

    a: float
    b: float
    delta: float = 0.0
    phase: int = 0

    def spatial(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if not self.delta:
            return ((q >= self.a - BOUNDARY_TOL) & (q <= self.b + BOUNDARY_TOL)).astype(float)
        with np.errstate(invalid="ignore"):
            ramp = np.minimum((q - (self.a - self.delta)) / self.delta,
                              ((self.b + self.delta) - q) / self.delta)
        return np.clip(np.minimum(ramp, 1.0), 0.0, 1.0)

    def amplitude(self, xi) -> np.ndarray:
        """The transform without its phase: length sinc(length xi) sinc(delta xi)."""
        xi = np.asarray(xi, dtype=float)
        length = self.b - self.a + self.delta
        out = length * np.sinc(length * xi)
        if self.delta:
            out = out * np.sinc(self.delta * xi)
        return out

    def transform(self, xi, phase: int) -> np.ndarray:
        """Closed-form transform at phase -1 (forward) or +1 (inverse)."""
        xi = np.asarray(xi, dtype=float)
        return self.amplitude(xi) * np.exp(1j * phase * np.pi * (self.a + self.b) * xi)

    def values(self, x) -> np.ndarray:
        return self.transform(x, self.phase) if self.phase else self.spatial(x)

    def envelope(self) -> AxisEnvelope:
        """Majorant of the transform modulus; quadratic decay needs a ramp."""
        length = self.b - self.a + self.delta
        if length == 0.0:
            return AxisEnvelope(0.0, 0.0, 0.0)
        c2 = 1.0 / (np.pi ** 2 * self.delta) if self.delta else np.inf
        return AxisEnvelope(length, 1.0 / np.pi, c2)

    def support(self) -> tuple[float, float]:
        return self.a - self.delta, self.b + self.delta

    def breakpoints(self) -> np.ndarray:
        """Kinks of the spatial function; repeated when there is no ramp."""
        return np.array([self.a - self.delta, self.a, self.b, self.b + self.delta])


@dataclass(frozen=True)
class Separable:
    """Product of axes: box and trapezoid profiles, cutoffs, and their transforms.

    A cutoff is identically 1 on its ``plateau``; the quadratic per-axis decay
    of its transform gives the admissibility bound, sup over xi of the product
    of (1 + xi_i^2) |f_i(xi_i)|.
    """

    axes: tuple[Axis, ...]

    @property
    def m(self) -> int:
        return len(self.axes)

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.ones(len(pts), dtype=complex)
        for i, axis in enumerate(self.axes):
            # in place, so the operands never swap: numpy's complex product
            # (with FMA) rounds differently when they do, and ``out * tmp``
            # swaps them on arrays of 256 KiB or more (temporary elision)
            np.multiply(out, axis.values(pts[:, i]), out=out)
        return out[0] if single else out

    def transform(self) -> Separable:
        """Forward transform F[h], exact in closed form."""
        return Separable(tuple(replace(axis, phase=-1) for axis in self.axes))

    def dual_transform(self) -> Separable:
        """Inverse transform, the function a cutoff is paired through."""
        return Separable(tuple(replace(axis, phase=+1) for axis in self.axes))

    def envelope(self, i: int) -> AxisEnvelope:
        return self.axes[i].envelope()

    def admissibility_bound(self) -> float:
        return float(np.prod([ax.envelope().admissibility_sup() for ax in self.axes]))

    @property
    def plateau(self) -> Box:
        return Box([ax.a for ax in self.axes], [ax.b for ax in self.axes])

    def covers(self, window: Window) -> bool:
        return all(self.plateau.contains_box(part) for part in window.parts)

    def support_box(self) -> Box:
        lo, hi = zip(*(ax.support() for ax in self.axes))
        return Box(lo, hi)

    def total(self) -> complex:
        """Total integral; equals the transform at 0."""
        return complex(np.prod([ax.b - ax.a + ax.delta for ax in self.axes]))

    def abs_integral(self) -> float:
        return float(abs(self.total()))


@dataclass(frozen=True)
class Atomic:
    """Finite sum of weighted point masses, or (phase -1) its transform.

    At phase 0 ``value`` returns the weight of the lowest-index atom within
    ``BOUNDARY_TOL`` (sup norm) of each point, 0 elsewhere.  At phase -1 it
    is the trigonometric sum, bounded by the total absolute weight and
    without decay.  The sum runs over blocks of atoms, at most
    ``BLOCK_ELEMENTS`` point-by-atom phases each, as the weights' real and
    imaginary parts times cos and sin of the real phases.
    """

    points: np.ndarray
    weights: np.ndarray
    phase: int = 0

    def __init__(self, points, weights, phase: int = 0) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=complex).reshape(-1)
        if len(points) != len(weights):  # [] for points is one point of dimension 0, so it fails too
            raise ValueError("atomic points and weights must have equal length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "phase", phase)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.phase:
            h = np.stack([self.weights.real, self.weights.imag], axis=1)  # real products, no complex block
            out = np.zeros(len(pts), dtype=complex)
            scaled = self.phase * 2.0 * np.pi * pts
            step = max(1, BLOCK_ELEMENTS // max(len(pts), 1))
            for start in range(0, len(self.points), step):
                turn = scaled @ self.points[start : start + step].T
                cos = np.cos(turn) @ h[start : start + step]
                sin = np.sin(turn, out=turn) @ h[start : start + step]
                out += cos[:, 0] - sin[:, 1] + 1j * (cos[:, 1] + sin[:, 0])
        else:
            out = np.append(self.weights, 0)[_first_near(self.points, pts, BOUNDARY_TOL)]
        return out[0] if single else out

    def transform(self) -> Atomic:
        return replace(self, phase=-1)

    def envelope(self, i: int) -> AxisEnvelope:
        """Per-axis majorant of the transform: the total weight, no decay."""
        return AxisEnvelope(self.abs_integral() if i == 0 else 1.0, np.inf, np.inf)

    def support_box(self) -> Box:
        return Box(self.points.min(axis=0), self.points.max(axis=0))

    def total(self) -> complex:
        return complex(np.sum(self.weights))

    def abs_integral(self) -> float:
        return float(np.sum(np.abs(self.weights)))


def box_profile(box: Box | tuple) -> Separable:
    if not isinstance(box, Box):
        box = Box(*box)
    if box.is_empty:
        raise ValueError("profile box must be nonempty")
    return Separable(tuple(Axis(lo, hi) for lo, hi in zip(box.lo, box.hi)))


def trapezoid_profile(a, b, delta) -> Separable:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    delta = np.broadcast_to(np.asarray(delta, dtype=float), a.shape).copy()
    if (delta <= 0).any():
        raise ValueError("trapezoid ramp widths must be positive")
    if (b < a).any():
        raise ValueError("trapezoid plateau must be a nonempty box")
    return Separable(tuple(Axis(*abd) for abd in zip(a, b, delta)))


def make_cutoff(plateau: Box | tuple, margin) -> Separable:
    """Trapezoid cutoff, identically 1 on ``plateau``, with ramp widths ``margin``."""
    if not isinstance(plateau, Box):
        plateau = Box(*plateau)
    if plateau.is_empty:
        raise ValueError("cutoff plateau must be nonempty")
    margin = np.broadcast_to(np.asarray(margin, dtype=float), plateau.lo.shape).copy()
    if (margin <= 0).any():
        raise ValueError("cutoff margins must be positive")
    return Separable(tuple(Axis(*abd) for abd in zip(plateau.lo, plateau.hi, margin)))


# ---------------------------------------------------------------------------
# quadrature with certified tails


DEFAULT_INTERNAL_SLICE = 60.0
QUADRATURE_REL_TOL = 1e-9  # relative change between panel halvings that ends refinement
MAX_REFINE = 2  # panel halvings allowed beyond the first comparison
EXACT_SINC_RADIUS = 1.0  # dual-route nodes this close to a shift (f-side: to 0) take np.sinc, not angle addition
BLOCK_ELEMENTS = 1 << 19  # elements per block of blocked temporaries: node by shift, point by atom


@dataclass(frozen=True)
class TruncationSpec:
    """Declared truncation for dual-side quadrature.

    ``radius`` bounds the integration box per axis and ``tail_tol`` the total
    certified quadrature tail allowed.
    """

    radius: float = 200.0
    panel: float = 0.5
    order: int = 16
    tail_tol: float = 1e-8


_leggauss = functools.lru_cache(np.polynomial.legendre.leggauss)  # 0.3 ms a call at order 24


def _gl_panels(radius: float, panel: float, order: int, panels: slice = slice(None)) -> tuple[np.ndarray, ...]:
    """Centres of the panels ``panels`` selects, out of the composite
    Gauss-Legendre grid on [-radius, radius], and one panel's node offsets
    and weights; a panel does not depend on the selection."""
    nodes, wts = _leggauss(order)
    chosen = range(int(np.ceil(2.0 * radius / panel)))[panels]  # a block costs its own panels only
    index = np.arange(chosen.start, chosen.stop, chosen.step)
    return -radius + panel * index + 0.5 * panel, 0.5 * panel * nodes, 0.5 * panel * wts


def _gl_grid(radius: float, panel: float, order: int, panels: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-radius, radius], over the
    panels ``panels`` selects, panel by panel."""
    centers, offsets, wts = _gl_panels(radius, panel, order, panels)
    return (centers[:, None] + offsets).reshape(-1), np.tile(wts, len(centers))


def _sinc_widths(axis) -> tuple[list, float]:
    """Widths l and norm with axis.amplitude(x) = product of sin(pi l x) / (norm x**len(l))."""
    length = axis.b - axis.a + axis.delta
    widths = [length, axis.delta] if axis.delta else [length]
    return widths, np.pi ** len(widths) * (axis.delta if axis.delta else 1.0)


def _dual_blocks(f_axis, g_axis, radius: float, panel: float, order: int):
    """The dual route's grid in blocks of whole panels, about
    ``BLOCK_ELEMENTS // 32`` nodes each, with its node factors.

    Yields y, the f-side weights f_axis.amplitude(y) w(y) times cos and sin
    of the turn phase (f's phase and the y factor of g's), and per g width
    l the pair (sin pi l y, cos pi l y).  Every node is y = c + u, c its
    panel's centre and u its offset, so each sin and cos of omega y comes by
    angle addition from those of omega c, once per panel, and of omega u,
    once per call.  That gives sin omega y to a few ulps of 1, not of itself,
    so nodes within ``EXACT_SINC_RADIUS`` of y = 0, where f's sincs are
    largest and their sines smallest, y = 0 among them, take
    ``f_axis.amplitude`` directly.
    """
    f_widths, f_norm = _sinc_widths(f_axis)
    g_widths, _ = _sinc_widths(g_axis)
    turn = np.pi * f_axis.phase * (f_axis.a + f_axis.b) + np.pi * g_axis.phase * (g_axis.a + g_axis.b)
    omegas = np.array([np.pi * l for l in f_widths] + [turn] + [np.pi * l for l in g_widths])
    k = len(f_widths)
    # [sin omega c, cos omega c] @ rot[:, 0] is sin omega y over the nodes y = c + u
    # of the panel centred on c, and @ rot[:, 1] is cos omega y
    _, offsets, _ = _gl_panels(radius, panel, order, slice(0))  # the same u in every panel
    phase = omegas[:, None] * offsets
    sin_u, cos_u = np.sin(phase), np.cos(phase)
    rot = np.stack([np.stack([cos_u, sin_u], axis=1), np.stack([-sin_u, cos_u], axis=1)], axis=1)
    step = max(1, BLOCK_ELEMENTS // 32 // order)
    for first in itertools.count(0, step):
        centers, offsets, wts = _gl_panels(radius, panel, order, slice(first, first + step))
        if not len(centers):
            return
        y = (centers[:, None] + offsets).reshape(-1)
        angles = np.multiply.outer(omegas, centers)
        # (omega, sin | cos, panel, node)
        trig = np.stack([np.sin(angles), np.cos(angles)], axis=-1)[:, None] @ rot
        sin, cos = trig[:, 0], trig[:, 1]
        lo = np.searchsorted(y, -EXACT_SINC_RADIUS, side="left")
        hi = np.searchsorted(y, EXACT_SINC_RADIUS, side="right")
        den = f_norm * y.reshape(sin.shape[1:]) ** k
        den.reshape(-1)[lo:hi] = 1.0  # these nodes take the amplitude directly
        fw = functools.reduce(np.multiply, sin[:k]) / den
        fw.reshape(-1)[lo:hi] = f_axis.amplitude(y[lo:hi])
        fw *= wts
        yield (y, (fw * cos[k]).reshape(-1), (fw * sin[k]).reshape(-1),
               [(sin[i].reshape(-1), cos[i].reshape(-1)) for i in range(k + 1, len(omegas))])


def _axis_pair_once(f_axis, g_axis, shifts: np.ndarray, radius: float, panel: float, order: int) -> np.ndarray:
    """Grid sum of f(y) w(y) g(y - s) per shift s, both axes transforms.

    g(x) is ``g_axis.amplitude(x)`` times exp(i pi phase (a + b) x).  That
    phase splits into a factor of y, folded into the f-side weights, and one
    of s.  Each sinc factor sin(pi l (y - s)) / (pi l (y - s)) of the
    amplitude comes from sin and cos of pi l y (``_dual_blocks``) and of
    pi l s by angle addition, so each shift costs one Cauchy sum over the
    nodes.  Nodes within ``EXACT_SINC_RADIUS`` of a shift, where that
    cancels, take ``amplitude`` directly; the grid is sorted, so they are
    one slice per shift and block.  A block meets the shifts in chunks of at
    most ``BLOCK_ELEMENTS`` node-by-shift elements (32 shifts for a full
    block), so memory does not grow with the grid.
    """
    centre = np.pi * g_axis.phase * (g_axis.a + g_axis.b)
    widths, norm = _sinc_widths(g_axis)
    # sin(pi l (y - s)) = sin(pi l y) cos(pi l s) + cos(pi l y) (-sin(pi l s)): a pick
    # takes the first or second term for each width, and its node and shift
    # factors are the products of the picked members of each pair
    picks = list(itertools.product((0, 1), repeat=len(widths)))

    def products(pairs):
        return [functools.reduce(np.multiply, [pair[p] for pair, p in zip(pairs, pick)])
                for pick in picks]

    acc = np.zeros((len(shifts), 2 * len(picks)))  # per pick, the Cauchy sums of fw_re and fw_im
    exact = np.zeros(len(shifts), dtype=complex)  # the near nodes' sums
    for y, fw_re, fw_im, pairs in _dual_blocks(f_axis, g_axis, radius, panel, order):
        sums = np.empty((2 * len(picks), len(y)))  # per pick, fw_re and fw_im times its node factor
        for col, re, im in zip(products(pairs), sums[0::2], sums[1::2]):
            np.multiply(fw_re, col, out=re)
            np.multiply(fw_im, col, out=im)
        lo = np.searchsorted(y, shifts - EXACT_SINC_RADIUS, side="left")
        hi = np.searchsorted(y, shifts + EXACT_SINC_RADIUS, side="right")
        near = np.flatnonzero(hi > lo)
        rows = max(1, BLOCK_ELEMENTS // len(y))
        for start in range(0, len(shifts), rows):
            cauchy = y[None, :] - shifts[start : start + rows, None]
            for i in near[(near >= start) & (near < start + rows)]:
                cauchy[i - start, lo[i] : hi[i]] = np.inf  # their reciprocal is 0
            np.reciprocal(cauchy, out=cauchy)
            if len(widths) == 2:
                np.square(cauchy, out=cauchy)
            acc[start : start + rows] += cauchy @ sums.T
        for i in near:
            amp = g_axis.amplitude(y[lo[i] : hi[i]] - shifts[i])
            exact[i] += amp @ fw_re[lo[i] : hi[i]] + 1j * (amp @ fw_im[lo[i] : hi[i]])
    coef = np.stack(products([(np.cos(np.pi * l * shifts), -np.sin(np.pi * l * shifts))
                              for l in widths]), axis=1) / norm
    out = np.sum(coef * (acc[:, 0::2] + 1j * acc[:, 1::2]), axis=1) + exact
    return out * np.exp(-1j * centre * shifts)


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
    """Adaptive composite Gauss-Legendre pairing along one axis, with tails.

    The tails bound each axis by its transform envelope, so both axes are
    transforms (phase -1 or +1), as ``pairing_values`` checks.
    """
    shifts = np.asarray(shifts, dtype=float)
    scale_hint = f_axis.envelope().c0 * g_axis.envelope().c0 + 1e-300
    panel = trunc.panel
    prev = _axis_pair_once(f_axis, g_axis, shifts, trunc.radius, panel, trunc.order)
    for _ in range(MAX_REFINE + 1):
        panel *= 0.5
        cur = _axis_pair_once(f_axis, g_axis, shifts, trunc.radius, panel, trunc.order)
        err = np.abs(cur - prev)
        if np.all(err <= QUADRATURE_REL_TOL * np.maximum(np.abs(cur), 1e-3 * scale_hint)):
            tails = _axis_pair_tail(f_axis.envelope(), g_axis.envelope(), trunc.radius, shifts)
            return cur, tails
        prev = cur
    change = float(np.max(err / np.maximum(np.abs(cur), 1e-3 * scale_hint)))
    raise TruncationError(f"quadrature did not converge: relative change {change:.3e} between the last two "
                          f"panel halvings, above QUADRATURE_REL_TOL = {QUADRATURE_REL_TOL:g}; lower "
                          f"TruncationSpec.panel (now {trunc.panel:g}) or raise TruncationSpec.order "
                          f"(now {trunc.order})")


def _compact_axis_pair(a_axis, b_axis, shifts: np.ndarray) -> np.ndarray:
    """Pairing along one axis, rewritten over the compact spatial side, in closed form.

    integral a(y) b(y - s) dy = integral F[a](t) beta_b(t) exp(2 pi i s t) dt,
    where F[a](t) is the function under a at a.phase * t and beta_b(t) the
    one under b at -b.phase * t, so a sign of -1 reflects support and kinks.
    Between kinks the product is a quadratic r0 + r1 x + r2 x^2 in
    x = (t - centre) / half, read off at x = -1/2, 0 and 1/2, so each piece
    gives exp(2 pi i s centre) half sum_k r_k M_k(2 pi s half), with M_k(theta)
    the integral over [-1, 1] of x^k exp(i theta x) dx.  Above |theta| = 1 the
    closed forms of M_k cancel by a few bits at most; at or below it one
    16-node Gauss-Legendre rule is exact for degree 31, and the Taylor
    remainder of exp(i theta x) past degree 29 is below 1/30! relative.  The
    cost is a few terms per piece and shift, whatever the shift.
    """
    shifts = np.asarray(shifts, dtype=float)
    lo, hi, kinks = -np.inf, np.inf, []
    for axis, sign in ((a_axis, a_axis.phase), (b_axis, -b_axis.phase)):
        axis_lo, axis_hi = np.sort(sign * np.array(axis.support()))
        lo, hi = max(lo, axis_lo), min(hi, axis_hi)
        kinks.append(sign * axis.breakpoints())
    cuts = np.unique(np.concatenate([[lo, hi], *kinks]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]  # disjoint supports leave no piece
    centre, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
    qm, q0, qp = (a_axis.spatial(a_axis.phase * t) * b_axis.spatial(-b_axis.phase * t)
                  for t in (centre - half / 2.0, centre, centre + half / 2.0))
    r = np.stack([q0, qp - qm, 2.0 * (qp + qm - 2.0 * q0)], axis=-1)
    theta = 2.0 * np.pi * shifts[:, None] * half
    small = np.abs(theta) <= 1.0
    th = np.where(small, 1.0, theta)
    sin, cos = np.sin(th), np.cos(th)
    moments = np.stack([2.0 * sin / th, 2j * (sin - th * cos) / th ** 2,
                        2.0 * ((th * th - 2.0) * sin + 2.0 * th * cos) / th ** 3], axis=-1)
    nodes, weights = _leggauss(16)
    powers = weights[:, None] * nodes[:, None] ** np.arange(3)  # (node, k): w x^k
    moments[small] = np.exp(1j * theta[small][:, None] * nodes) @ powers
    return np.sum(np.exp(2j * np.pi * shifts[:, None] * centre) * half * np.sum(r * moments, axis=-1), axis=1)


def _transform_shifts(f: Separable, fiber: Separable | Atomic, shifts) -> np.ndarray:
    """``shifts`` as rows, once ``f`` and the fiber are checked to be transforms."""
    phases = [axis.phase for axis in f.axes]
    phases += [fiber.phase] if isinstance(fiber, Atomic) else [axis.phase for axis in fiber.axes]
    if not all(phases):
        raise ValueError("pairing_values pairs transforms, and f or the fiber is phase-0 "
                         "(spatial); pass its transform() or dual_transform()")
    return np.atleast_2d(np.asarray(shifts, dtype=float))


def pairing_values(
    f: Separable,
    fiber: Separable | Atomic,
    shifts,
    trunc: TruncationSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(y) * fiber(y - shift) dy over R^m, one per shift row.

    Returns (values, certified tail bounds).  Separable fibers pair by
    per-axis quadrature over [-radius, radius] with envelope tail bounds;
    ``_CompactPairing`` is the route without truncation, and atomic fibers
    take its exact closed form (tail zero).  Both routes pair
    transforms: ``f``, a separable fiber's axes and an atomic fiber must all
    have phase -1 or +1, and a phase-0 (spatial) one raises ``ValueError``.
    """
    shifts = _transform_shifts(f, fiber, shifts)
    n = len(shifts)
    if isinstance(fiber, Atomic):
        return _CompactPairing(f, fiber).value(shifts), np.zeros(n)
    per_axis = [_axis_pair(f.axes[i], fiber.axes[i], shifts[:, i], trunc) for i in range(f.m)]
    values = np.ones(n, dtype=complex)
    for v, _ in per_axis:
        values = values * v
    tails = np.zeros(n)
    for i, (_, tail) in enumerate(per_axis):
        other = np.ones(n)
        for j, (v, t) in enumerate(per_axis):
            if j != i:
                other = other * (np.abs(v) + t)
        tails += tail * other
    return values, tails


# ---------------------------------------------------------------------------
# periodic measures on the dual side


# Every motif component gives ``pure_point``, ``weight``, ``internal``, the
# physical box of period vectors whose translate meets a query
# (``offset``), its pairing against f as a function of the internal shift,
# with per-axis envelopes (``paired``), unweighted (values, tails) of the
# dual-side quadrature (``pairing``), and a per-point unit-window mass bound
# (``cell_mass``); the loops below never ask for a component's type.


@dataclass(frozen=True)
class _CompactPairing:
    """s -> integral f(y) fiber(y - s) dy over the compact spatial supports, in closed form
    per piece and with no truncation tail, with a majorant of its modulus per axis."""

    f: Separable
    fiber: Separable | Atomic

    @property
    def m(self) -> int:
        return self.f.m

    def value(self, shifts) -> np.ndarray:
        f, fiber, shifts = self.f, self.fiber, _transform_shifts(self.f, self.fiber, shifts)
        if isinstance(fiber, Atomic):  # F[f](p) is the function under f at f.phase * p, axis by axis
            under = np.prod([axis.spatial(axis.phase * fiber.points[:, i]) for i, axis in enumerate(f.axes)],
                            axis=0)
            return Atomic(fiber.points, fiber.weights * under, phase=+1).value(shifts)
        values = np.ones(len(shifts), dtype=complex)
        for i in range(self.m):  # in place, so the operands never swap (see ``Separable.value``)
            np.multiply(values, _compact_axis_pair(f.axes[i], fiber.axes[i], shifts[:, i]), out=values)
        return values

    def envelope(self, i: int) -> AxisEnvelope:
        """Majorant of |P(s)|, P the pairing of axis i of f and of the fiber.

        P(s) is the integral of u(t) exp(2 pi i s t) dt, u the product of the
        unit-height trapezoids or intervals under the two transforms (see
        ``_compact_axis_pair``).  So |P(s)| <= integral of u <= min(c0_f,
        c0_g), the two lengths.  Both factors are log-concave, so u is
        unimodal with height at most 1 and TV(u) <= 2; one integration by
        parts gives |P(s)| <= TV(u) / (2 pi |s|) <= 1 / (pi |s|).  When both
        axes have ramps, u is Lipschitz with u' = u_f' u_g + u_f u_g'.  As
        TV(u_f') = 4 / delta_f, sup |u_f'| = 1 / delta_f and TV(u_g) <= 2,
        TV(u_f' u_g) <= 6 / delta_f, and likewise for the other term, so a
        second integration by parts gives |P(s)| <= (6 / delta_f + 6 / delta_g)
        / (2 pi s)^2 = 1.5 (c2_f + c2_g) / s^2, with c2 = 1 / (pi^2 delta),
        and inf for an axis without a ramp.  A zero-length axis pairs to 0.
        Near s = 0 the closed form of ``_compact_axis_pair`` meets min(c0_f,
        c0_g) and rounds above it by a few ulps (at most 3 over 20,000 random
        pairs of axes), so c0 carries 64 ulps of the closed form's rounding.
        """
        if isinstance(self.fiber, Atomic):
            raise ValueError("the fiber gives no pairing decay; set an explicit internal_radius")
        env_f, env_g = self.f.envelope(i), self.fiber.envelope(i)
        c0 = min(env_f.c0, env_g.c0) * (1.0 + 64 * np.finfo(float).eps)
        if c0 == 0.0:
            return AxisEnvelope(0.0, 0.0, 0.0)
        return AxisEnvelope(c0, 1.0 / np.pi, 1.5 * (env_f.c2 + env_g.c2))


class _PhysicalPoint:
    """Component concentrated at the physical point ``phys``."""

    pure_point = True

    def offset(self, query: Box) -> Box:
        return Box(query.lo - self.phys, query.hi - self.phys)


class _Fibered:
    """Component carrying an internal density ``fiber``."""

    def paired(self, f: Separable) -> _CompactPairing:
        return _CompactPairing(f, self.fiber)

    def pairing(self, f: Separable, shifts, trunc: TruncationSpec):
        return pairing_values(f, self.fiber, shifts, trunc)


@dataclass(frozen=True)
class MotifAtom(_PhysicalPoint):
    """Point mass at (phys, internal) within one period cell."""

    phys: np.ndarray
    internal: np.ndarray
    weight: complex

    def paired(self, f: Separable) -> Separable:
        return f

    def pairing(self, f: Separable, shifts, trunc: TruncationSpec):
        return f.value(shifts), np.zeros(len(shifts))

    def cell_mass(self) -> float:
        return abs(self.weight)


@dataclass(frozen=True)
class MotifAtomFiber(_PhysicalPoint, _Fibered):
    """Point mass in the physical variable carrying an internal density fiber."""

    phys: np.ndarray
    internal: np.ndarray
    weight: complex
    fiber: Separable | Atomic

    def cell_mass(self) -> float:
        return abs(self.weight) * _fiber_window_sum(self.fiber)


@dataclass(frozen=True)
class MotifDensityFiber(_Fibered):
    """Separable absolutely continuous component: physical density times fiber."""

    density: Separable | Atomic
    fiber: Separable | Atomic
    pure_point = False
    weight = 1.0

    @property
    def internal(self) -> np.ndarray:
        return np.zeros(self.fiber.m)

    def offset(self, query: Box) -> Box:
        support = self.density.support_box()
        return Box(query.lo - support.hi, query.hi - support.lo)

    def cell_mass(self) -> float:
        return self.density.abs_integral() * _fiber_window_sum(self.fiber)


@dataclass(frozen=True)
class PeriodicMeasure:
    """Measure on R^d x R^m invariant under the period lattice, given by a motif.

    The represented measure is scale times the sum of the motif translated by
    every vector of the period lattice (in R^n, so m = n - d); invariance holds by construction.
    """

    period: Lattice
    d: int
    scale: float
    motif: tuple[MotifAtom | MotifAtomFiber | MotifDensityFiber, ...]

    @property
    def m(self) -> int:
        return self.period.n - self.d

    def pp_motif(self) -> tuple:
        return tuple(c for c in self.motif if c.pure_point)

    def ac_motif(self) -> tuple:
        return tuple(c for c in self.motif if not c.pure_point)


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


def lattice_comb_transform(cps: CutProjectScheme, profile: Separable | Atomic) -> PeriodicMeasure:
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
    return PeriodicMeasure(period=cps.dual.lat, d=cps.d, scale=density(cps.lat), motif=motif)


# ---------------------------------------------------------------------------
# diffraction: closed form and oracle


@dataclass(frozen=True)
class DiffractionSpectrum:
    """Pure-point spectrum on a query box: peak positions with amplitudes, threshold in ``metadata``."""

    ks: np.ndarray
    internals: np.ndarray
    refs: np.ndarray
    amplitudes: np.ndarray
    metadata: dict

    @property
    def d(self) -> int:
        return self.ks.shape[1]

    @property
    def intensities(self) -> np.ndarray:
        # hypot and C pow give Python's abs(a) ** 2 bit for bit; np.abs and
        # squaring by multiplication differ from it in the last bit
        amps = self.amplitudes
        return np.float_power(np.hypot(amps.real, amps.imag), 2)

    @property
    def n_peaks(self) -> int:
        return len(self.ks)


def _fiber_radii(transform: Separable | Atomic | _CompactPairing, target: float) -> np.ndarray:
    """Per-axis internal radii outside which the transform (or pairing) modulus is below target."""
    envs = [transform.envelope(i) for i in range(transform.m)]
    c0s = np.array([env.c0 for env in envs])
    return np.array([max(env.radius(target / max(float(np.prod(np.delete(c0s, i))), 1e-300)), 1.0)
                     for i, env in enumerate(envs)])


def _fiber_cover(transform: Separable | _CompactPairing, target: float, radii: np.ndarray) -> list[Box]:
    """Internal boxes inside ``Box(-radii, radii)`` holding every s with
    prod_i env_i(s_i) >= target, the only places where the modulus of the
    transform (or pairing) at s can reach it.

    For m = 1 that is one interval.  For m >= 2 the boxes are doubling shells
    inner <= |s_0| <= outer along axis 0, the first from 0 to the end of
    env_0's plateau.  On a shell env_0(s_0) <= env_0(inner), so every other
    axis i needs env_i(s_i) >= target / (env_0(inner) * prod of the c0 of the
    axes other than 0 and i), which bounds |s_i|.  The shells stop where
    env_0(inner) times the other axes' c0 falls below target, so there are
    O(log radii[0]) boxes.
    """
    envs = [transform.envelope(i) for i in range(transform.m)]
    if len(envs) == 1:
        r = min(envs[0].radius(target), radii[0])
        return [Box([-r], [r])]
    c0s = np.array([env.c0 for env in envs[1:]])
    boxes, inner = [], 0.0
    outer = min(envs[0]._pieces()[0][1], radii[0])
    while True:
        e0 = envs[0].at(inner)
        half = np.array([
            min(env.radius(target / max(e0 * float(np.prod(np.delete(c0s, i))), 1e-300)), radii[i + 1])
            for i, env in enumerate(envs[1:])
        ])
        for lo, hi in ([(-outer, outer)] if inner == 0.0 else [(-outer, -inner), (inner, outer)]):
            boxes.append(Box(np.concatenate([[lo], -half]), np.concatenate([[hi], half])))
        if outer >= radii[0] or envs[0].at(outer) * float(np.prod(c0s)) < target:
            return boxes
        inner, outer = outer, min(2.0 * outer, radii[0])


def _cover_points(lat: Lattice, physical: Box, cover: list[Box], budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points of ``physical`` times the union of the ``cover`` boxes, each once and
    in lexicographic z order, as one enumeration of a box holding the union lists them."""
    found = [lattice_points_in_box(lat, Box.product(physical, part), budget=budget) for part in cover]
    z, p = np.concatenate([zs for zs, _ in found]), np.concatenate([ps for _, ps in found])
    if len(cover) > 1:  # the boxes share closed faces
        order = np.lexsort(z.T[::-1])
        z, p = z[order], p[order]
        first = np.ones(len(z), dtype=bool)
        first[1:] = (z[1:] != z[:-1]).any(axis=1)
        z, p = z[first], p[first]
    return z, p


def diffraction(
    cps: CutProjectScheme,
    window: Window,
    profile: Separable | Atomic,
    query: Box,
    threshold: float,
    cutoff: Separable,
    budget: int = DEFAULT_BUDGET,
) -> DiffractionSpectrum:
    """Closed-form diffraction spectrum of the profile-weighted model-set comb.

    A peak sits at a dual-lattice point k with physical part in the query box
    and has amplitude A(k) = dens(L) * F[h](sigma * kstar).  The outer box
    ``query x [-r, r]^m`` takes r from the envelopes at a tenth of the
    threshold (the ``internal_radii`` of the metadata).  Inside it only the
    boxes of ``_fiber_cover`` are enumerated: they hold every kstar at which
    the product of the per-axis envelopes, a bound on |F[h]|, reaches
    threshold / dens(L).  ``_cover_points`` lists their rows as the outer box
    would, so the threshold filter and the stable sort on k give the peaks of
    the whole outer box in the same order.  The cutoff takes no
    part in the amplitude because it is identically 1 on the window; it is
    validated here so the spectrum is exactly the one the fibered pairing
    route computes.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not cutoff.covers(window):
        raise ValueError("cutoff plateau must contain the window")
    support = profile.support_box()
    if not any(part.contains_box(support) for part in window.parts):
        raise ValueError("profile support must lie inside the window")
    transform = profile.transform()
    scale = density(cps.lat)
    dcps = dual_cps(cps)
    radii = _fiber_radii(transform, threshold / (10.0 * scale))
    cover = _fiber_cover(transform, threshold / scale * (1.0 - 1e-9), radii)
    z, p = _cover_points(dcps.lat, query, cover, budget)
    ks, stars = p[:, : cps.d], p[:, cps.d :]
    amplitudes = scale * transform.value(PEAK_PHASE_SIGN * stars)
    keep = np.abs(amplitudes) >= threshold
    z, ks, stars, amplitudes = z[keep], ks[keep], stars[keep], amplitudes[keep]
    order = np.lexsort(ks.T[::-1])  # stable on rows in lexicographic z order, so ties go by z
    metadata = {
        "scale": scale,
        "threshold": threshold,
        "internal_radii": radii.tolist(),
        "peak_phase_sign": PEAK_PHASE_SIGN,
        "cutoff": {key: [float(getattr(ax, key)) for ax in cutoff.axes] for key in ("a", "b", "delta")},
        "version": __version__,
    }
    return DiffractionSpectrum(
        ks=ks[order],
        internals=stars[order],
        refs=z[order],
        amplitudes=amplitudes[order],
        metadata=metadata,
    )


def oracle_amplitudes(
    cps: CutProjectScheme,
    window: Window,
    profile: Separable | Atomic,
    ks,
    patch_radius: float,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Direct-sum amplitudes over a finite patch, one per requested k.

    Averages h(xstar) exp(-2 pi i k.x) over the model set inside the box of
    the given radius.  This never touches dual-side code, so it serves as the
    independent ground truth for the closed-form route.  The sum is the
    transform of the patch's atoms weighted by h(xstar), ``Atomic`` at phase -1.
    """
    if patch_radius <= 0:
        raise ValueError("patch radius must be positive")
    ks = np.atleast_2d(np.asarray(ks, dtype=float))
    query = Box(-patch_radius * np.ones(cps.d), patch_radius * np.ones(cps.d))
    x, xstar = cps.split(_model_set(cps, window, query, budget))
    return Atomic(x, profile.value(xstar), phase=-1).value(ks) / (2.0 * patch_radius) ** cps.d


# ---------------------------------------------------------------------------
# projection of periodic measures


@dataclass(frozen=True)
class ProjectedDensity:
    """Absolutely continuous part of a projection: sum of translated profiles."""

    profile: Separable | Atomic
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
    densities: tuple[ProjectedDensity, ...]


def project(
    rho: PeriodicMeasure,
    f: Separable,
    query: Box,
    threshold: float,
    internal_radius: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ProjectionResult:
    """Pair the internal variable of a periodic measure with an admissible f.

    Point-in-physical motif components project to atoms on the physical
    parts of the period lattice; density components project to closed-form
    densities.  Peaks and coefficients below ``threshold`` in modulus are
    dropped.  Each component enumerates, as ``diffraction`` does, the
    ``_fiber_cover`` of its pairing's envelopes at a tenth of the threshold,
    shifted by its internal offset, or the cube of half-side ``internal_radius``
    when set.  Where atoms of two components meet, each has dropped its own
    contributions below that level, and so has their merged weight.
    """
    if f.m != rho.m:
        raise ValueError("admissible function dimension must match the internal dimension")
    if query.dim != rho.d:
        raise ValueError("query box must live in physical-dual space")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    floor = max(threshold, 1e-12) / 10.0

    atom_positions: list[np.ndarray] = []
    atom_weights: list[np.ndarray] = []
    densities: list[ProjectedDensity] = []

    for comp in rho.motif:
        target = floor / max(abs(comp.weight) * rho.scale, 1e-300)
        pairing = comp.paired(f)
        if internal_radius is None:
            cover = _fiber_cover(pairing, target, _fiber_radii(pairing, target))
        else:
            cover = [Box(np.full(f.m, -float(internal_radius)), np.full(f.m, float(internal_radius)))]
        _, p = _cover_points(rho.period, comp.offset(query), [part.shifted(-comp.internal) for part in cover],
                             budget)
        if not len(p):
            continue
        # named: numpy computes ``x * tmp`` as ``tmp * x`` on temporaries of 256 KiB or
        # more, and the swapped complex product rounds differently (see ``Separable.value``)
        vals = pairing.value(comp.internal + p[:, rho.d :])
        weights = rho.scale * comp.weight * vals
        if comp.pure_point:
            atom_positions.append(comp.phys + p[:, : rho.d])
            atom_weights.append(weights)
        else:
            keep = np.abs(weights) >= threshold
            densities.append(ProjectedDensity(comp.density, p[:, : rho.d][keep], weights[keep]))

    if atom_positions:
        pos = np.concatenate(atom_positions)
        wts = np.concatenate(atom_weights)
        pos, wts, _ = merge_atoms(pos, wts)
        keep = np.abs(wts) >= threshold
        pos, wts = pos[keep], wts[keep]
        order = np.lexsort(tuple(pos[:, i] for i in reversed(range(pos.shape[1]))))
        atoms = WeightedComb(pos[order], wts[order], validate=False)
    else:
        atoms = WeightedComb(np.zeros((0, rho.d)), np.zeros(0, complex))
    return ProjectionResult(atoms=atoms, densities=tuple(densities))


def pair_fibered(rho: PeriodicMeasure, psi, cutoff: Separable, trunc: TruncationSpec | None = None,
                 budget: int = DEFAULT_BUDGET, strict: bool = True) -> complex:
    """Pair the periodic measure against psi tensor the cutoff's inverse transform.

    ``psi`` is a finite atomic test functional: pairs (position, value) with
    positions on physical parts of period-lattice points (within
    ``LIFT_TOL``, sup norm); every (lattice point, psi atom) pair that close
    contributes, so the pairing is linear in psi.  Density motif components
    carry no mass on the measure-zero physical fibers an atomic functional
    sees, so only point components contribute.  In strict mode an atom matching no enumerated lattice point
    raises; with strict=False such atoms simply contribute zero, which is the
    value of the pairing away from the measure's support.  Translates outside the internal
    cube of half-side ``DEFAULT_INTERNAL_SLICE`` are outside the declared computation.
    Raises when the certified tail exceeds its tolerance.
    """
    trunc = trunc or TruncationSpec()
    positions, values = _normalize_psi(psi, rho.d)
    if len(positions) == 0:
        return 0.0 + 0.0j
    f = cutoff.dual_transform()
    matched = np.zeros(len(positions), dtype=bool)
    total = 0.0 + 0.0j
    total_tail = 0.0

    reach = Box(positions.min(axis=0), positions.max(axis=0))
    radii = np.full(rho.m, DEFAULT_INTERNAL_SLICE)
    for comp in rho.pp_motif():
        box = Box.product(comp.offset(reach).inflate(LIFT_TOL), Box(-radii, radii).shifted(-comp.internal))
        _, p = lattice_points_in_box(rho.period, box, budget=budget)
        point, atom = _near(positions, comp.phys + p[:, : rho.d], LIFT_TOL)
        if not len(point):
            continue
        matched[atom] = True
        vals, tails = comp.pairing(f, comp.internal + p[point, rho.d :], trunc)
        vals = comp.weight * vals
        psi_vals = values[atom]
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


def _unit_cell_decay_constant() -> tuple[float, float]:
    """Per-axis constant: sum over integer cells of the peak of 1/(1+z^2).

    The sum is 1 + 2 sum_{n>=1} 1/(1 + (n - 1/2)^2) = 1 + pi tanh(pi), in
    closed form by the partial-fraction expansion of tanh,
    sum_{n in Z} 1/(1 + (n + 1/2)^2) = pi tanh(pi).  Returned with the
    remainder of its evaluation, which is 0.
    """
    return 1.0 + np.pi * np.tanh(np.pi), 0.0


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


def _fiber_window_sum(fiber: Separable | Atomic) -> float:
    """Per-axis product bound for the summed unit-window masses of a fiber."""
    return float(np.prod([_unit_cell_window_sum(fiber.envelope(i)) for i in range(fiber.m)]))


def _max_window_count(points: np.ndarray, box: Box, sweep: Box) -> float:
    """Largest number of points a translate of ``box`` inside ``sweep`` captures."""
    if len(points) == 0:
        return 0.0
    comb = WeightedComb(points, np.ones(len(points)), validate=False)
    try:
        return a_norm(comb, box, sweep)
    except ValueError:
        return float(len(points))


def norm_bound_check(
    rho: PeriodicMeasure,
    f: Separable,
    k_box: Box,
    k1_box: Box,
    sweep_halfwidth: float = 25.0,
    internal_sweep: float = 8.0,
    internal_radius: float = 50.0,
    budget: int = DEFAULT_BUDGET,
) -> NormBoundReport:
    """Check the admissible-projection norm bound on one configuration.

    Left side: the window norm of the projection over an interior sweep
    region (an upper estimate, atoms plus density mass).  Right side: the
    unit-cell decay constant, the cutoff sup norm, the admissibility bound of
    f, and an upper estimate of the measure's norm over the product box
    k1_box x unit internal cube, closed as ``a_norm`` closes boxes.  Both
    sides are computed; ok means left <= right.  The projection enumerates
    the internal cube of half-side ``internal_radius`` and keeps all of it.
    """
    d, m = rho.d, rho.m
    if not ((k_box.lo > k1_box.lo) & (k_box.hi < k1_box.hi)).all():
        raise ValueError("k_box must lie strictly inside k1_box")
    admissibility = f.admissibility_bound()
    if not np.isfinite(admissibility):
        raise ValueError("f lacks a quadratic decay certificate")
    c1, _ = _unit_cell_decay_constant()
    constant = c1 ** m

    sweep = Box(-sweep_halfwidth * np.ones(d), sweep_halfwidth * np.ones(d))
    proj = project(rho, f, sweep, 0.0, internal_radius, budget=budget)
    span = k_box.sides
    eval_region = Box(sweep.lo + span, sweep.hi - span)
    left_atoms = a_norm(proj.atoms, k_box, eval_region) if proj.atoms.n_atoms else 0.0
    left_density = 0.0
    for dens in proj.densities:
        if len(dens.translates) == 0:
            continue
        g_box = dens.profile.support_box()
        mass = dens.profile.abs_integral()
        pseudo = WeightedComb(dens.translates, np.abs(dens.coefficients) * mass, validate=False)
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
        count_box = Box.product(comp.offset(k1_box), unit)
        eval_full = Box(sweep_full.lo + count_box.sides, sweep_full.hi - count_box.sides)
        rho_norm += comp.cell_mass() * _max_window_count(p_all, count_box, eval_full)
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


def spectrum_metadata_json(spectrum: DiffractionSpectrum, extra: dict | None = None) -> str:
    payload = dict(spectrum.metadata)
    payload["n_peaks"] = spectrum.n_peaks
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2)
