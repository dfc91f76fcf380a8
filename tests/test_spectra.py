import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import sici

from cutproject import (
    Box,
    CutProjectScheme,
    DiffractionSpectrum,
    Lattice,
    MotifAtom,
    MotifAtomFiber,
    MotifDensityFiber,
    PeriodicMeasure,
    TruncationError,
    TruncationSpec,
    Window,
    box_profile,
    density,
    diffraction,
    dual,
    lattice_comb_transform,
    make_cutoff,
    model_set,
    norm_bound_check,
    oracle_amplitudes,
    pair_fibered,
    pairing_values,
    project,
    spectral_projector,
    spectrum_metadata_json,
    spectrum_to_csv,
    trapezoid_profile,
)
from cutproject.cli import parse_config_text, resolve_config
from cutproject.lattice import _points_in_boxes, lattice_points_in_box
from cutproject import spectra
from cutproject.spectra import (PEAK_PHASE_SIGN, QUADRATURE_REL_TOL, Atomic, Axis, AxisEnvelope,
                                ProjectedDensity, Separable, _axis_pair_once,
                                _compact_axis_pair, _CompactPairing, _dual_blocks, _gl_grid)

from .conftest import TAU
from .helpers import (cover_points_box_by_box, full_box_diffraction, mp_compact_axis_pair,
                      panel_compact_axis_pair, per_shift_axis_pair, random_schemes)

DENS = 1.0 / np.sqrt(5.0)


def fib_spectrum(fib, threshold=0.01, margin=0.1, lim=5.0):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    cutoff = make_cutoff(Box([0.0], [1.0]), margin)
    return diffraction(fib, window, profile, Box([-lim], [lim]), threshold, cutoff)


# ---------------------------------------------------------------------------
# profiles, transforms, cutoffs


def test_transform_at_zero_equals_total():
    profiles = [
        box_profile(Box([0.0, -1.0], [1.5, 2.0])),
        trapezoid_profile([0.0, 0.5], [1.0, 0.75], [0.25, 0.5]),
        Atomic([[0.2], [0.9]], [1.0 + 2.0j, -0.5]),
    ]
    for profile in profiles:
        tf = profile.transform()
        at_zero = tf.value(np.zeros((1, profile.m)))[0]
        assert at_zero == pytest.approx(profile.total(), abs=1e-12)


def test_box_transform_sinc_value():
    tf = box_profile(Box([0.0], [1.0])).transform()
    assert abs(tf.value(np.array([[0.5]]))[0]) == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_transform_matches_direct_quadrature():
    # oracle: direct numerical Fourier integral of the profile over its support
    profile = trapezoid_profile([0.2], [0.9], [0.3])
    tf = profile.transform()
    y, w = _gl_grid(1.3, 0.01, 12)
    hv = profile.value(y[:, None])
    for xi in (0.0, 0.37, -1.4, 2.25):
        direct = np.sum(hv * np.exp(-2j * np.pi * xi * y) * w)
        assert tf.value(np.array([[xi]]))[0] == pytest.approx(direct, abs=1e-10)


def test_cutoff_plateau_identity():
    cut = make_cutoff(Box([-0.5, 0.0], [1.0, 2.0]), [0.1, 0.3])
    rng = np.random.default_rng(2)
    inside = rng.uniform([-0.5, 0.0], [1.0, 2.0], size=(64, 2))
    assert np.all(cut.value(inside) == 1.0)
    outside = np.array([[-0.7, 0.5], [1.2, 0.5], [0.0, 2.4]])
    assert np.all(cut.value(outside) == 0.0)


def test_cutoff_dual_transform_conjugate_of_forward():
    # the inverse transform of a real function is the conjugate of the forward one
    cut = make_cutoff(Box([0.1], [0.9]), 0.2)
    fwd = trapezoid_profile([0.1], [0.9], 0.2).transform()
    xi = np.linspace(-3.0, 3.0, 101)[:, None]
    assert np.max(np.abs(cut.dual_transform().value(xi) - np.conj(fwd.value(xi)))) < 1e-14


def test_admissibility_certificate_is_upper_bound():
    cut = make_cutoff(Box([0.0], [1.0]), 0.1)
    f = cut.dual_transform()
    bound = f.admissibility_bound()
    assert np.isfinite(bound)
    xi = np.linspace(-200.0, 200.0, 40_001)[:, None]
    observed = np.max((1.0 + xi[:, 0] ** 2) * np.abs(f.value(xi)))
    assert observed <= bound + 1e-12


def test_box_transform_not_admissible():
    f = box_profile(Box([0.0], [1.0])).transform()
    assert not np.isfinite(f.admissibility_bound())


@pytest.mark.parametrize("env", [
    AxisEnvelope(1.0, 1.0 / np.pi, 2.0),  # c1 / c0 <= c2 / c1: c0, then c1 / r, then c2 / r^2
    AxisEnvelope(2.0, 1.0 / np.pi, 0.01),  # c1 / c0 > c2 / c1: c1 / r is nowhere the least
    AxisEnvelope(2.0, 1.0 / np.pi, np.inf),
    AxisEnvelope(3.0, np.inf, 0.5),
    AxisEnvelope(3.0, np.inf, np.inf),  # an atomic fiber's: no decay
])
def test_envelope_pieces_and_integral_follow_the_majorant(env):
    # oracles: min(c0, c1 / r, c2 / r^2) written out, and quad of ``at``
    from scipy.integrate import quad

    pieces = env._pieces()
    assert pieces[0][0] == 0.0 and pieces[-1][1] == np.inf
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    for start, end, order in pieces:
        r = np.linspace(start, min(end, start + 20.0), 41)[1:-1]
        majorant = np.minimum(env.c0, np.minimum(env.c1 / r, env.c2 / r ** 2))
        assert np.allclose((env.c0, env.c1, env.c2)[order] / r ** order, majorant, rtol=1e-14, atol=0)
        assert np.allclose(env.at(r), majorant, rtol=1e-14, atol=0)
    kinks = [end for _, end, _ in pieces[:-1]]
    for r in (0.02, 0.5, 3.0, 40.0):
        want = quad(env.at, 0.0, r, points=[k for k in kinks if k < r] or None, limit=200)[0]
        assert env.integral_0_to(r) == pytest.approx(want, rel=1e-10)


def test_zero_envelope_integrates_and_weighs_to_zero():
    env = AxisEnvelope(0.0, 0.0, 0.0)  # the envelope of a zero-length axis
    xi = np.linspace(-50.0, 50.0, 1001)
    assert np.max((1.0 + xi ** 2) * env.at(xi)) == 0.0
    assert env.admissibility_sup() == 0.0
    assert env.integral_0_to(10.0) == 0.0


@pytest.mark.parametrize("env", [
    AxisEnvelope(1.0, 1.0 / np.pi, 0.0),
    AxisEnvelope(1.0, 0.0, np.inf),
    AxisEnvelope(1.0, 0.0, 0.5),
])
def test_envelope_with_a_zero_decay_constant_is_zero_beyond_0(env):
    # min(c0, 0 / r, ...) is 0 for every r > 0 and c0 at r = 0; the RuntimeWarning
    # filter of the suite turns any 0 / 0 or 1 / 0 on the way into a failure
    from scipy.integrate import quad

    assert env._pieces() == [(0.0, np.inf, -1)]
    r = np.array([0.0, 1e-200, 1e-3, 1.0, 1e3])
    assert env.at(r).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    for hi in (0.5, 2.0, 40.0):
        assert env.integral_0_to(hi) == quad(env.at, 0.0, hi)[0] == 0.0
    assert env.admissibility_sup() == 1.0


def test_dual_integral_equals_cutoff_at_zero():
    # quadrature over [-T, T] plus the analytic sine-integral remainder of the
    # four-exponential expansion recovers the value of the cutoff at 0
    for a, b, d, expected in ((-0.3, 1.0, 0.1, 1.0), (0.05, 1.0, 0.1, 0.5), (0.4, 1.0, 0.2, 0.0)):
        cut = make_cutoff(Box([a], [b]), d)
        axis = cut.dual_transform().axes[0]
        T = 400.0
        y, w = _gl_grid(T, 0.25, 16)
        quad = np.sum(axis.values(y) * w)
        m_sum, length = a + b, b - a + d
        omegas = np.pi * np.array([m_sum + length - d, m_sum - length + d,
                                   m_sum + length + d, m_sum - length - d])
        coeffs = np.array([1.0, 1.0, -1.0, -1.0]) / (4.0 * np.pi ** 2 * d)
        remainder = 0.0
        for c, om in zip(coeffs, omegas):
            if om == 0.0:
                continue
            x = abs(om) * T
            si, _ = sici(x)
            remainder += c * 2.0 * abs(om) * (si - np.pi / 2.0 - (1.0 - np.cos(x)) / x)
        total = quad + remainder
        assert total == pytest.approx(expected, abs=1e-10)
        assert cut.value(np.zeros((1, 1)))[0] == expected


# The closed forms written out, in the order of evaluation the library uses,
# so that every diffraction amplitude stays bit for bit what it was.


def interval_transform(lo, hi, phase, x):
    length = hi - lo
    return length * np.sinc(length * x) * np.exp(1j * phase * np.pi * (lo + hi) * x)


def trapezoid_transform(a, b, delta, phase, x):
    length = b - a + delta
    return (length * np.sinc(length * x) * np.sinc(delta * x)
            * np.exp(1j * phase * np.pi * (a + b) * x))


def trapezoid_ramp(a, b, delta, q):
    ramp = np.minimum((q - (a - delta)) / delta, ((b + delta) - q) / delta)
    return np.clip(np.minimum(ramp, 1.0), 0.0, 1.0)


def product_over_axes(factors):
    out = np.ones(len(factors[0]), dtype=complex)
    for factor in factors:
        out = out * factor
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_closed_forms_bit_for_bit(m):
    rng = np.random.default_rng(40 + m)
    xi = np.concatenate([rng.uniform(-30.0, 30.0, size=(500, m)), np.zeros((1, m))])
    q = rng.uniform(-1.5, 2.5, size=(500, m))
    lo, hi = np.array([0.0, -1.0])[:m], np.array([1.0, 2.5])[:m]
    a, b, delta = np.array([0.1, 0.5])[:m], np.array([0.9, 0.75])[:m], np.array([0.25, 0.5])[:m]

    box = Box(lo, hi)
    profile = box_profile(box)
    expected = product_over_axes([interval_transform(lo[i], hi[i], -1, xi[:, i]) for i in range(m)])
    assert np.array_equal(profile.transform().value(xi), expected)
    assert np.array_equal(profile.value(q), box.contains(q))

    trap = trapezoid_profile(a, b, delta)
    expected = product_over_axes([trapezoid_transform(a[i], b[i], delta[i], -1, xi[:, i])
                                  for i in range(m)])
    assert np.array_equal(trap.transform().value(xi), expected)
    ramps = product_over_axes([trapezoid_ramp(a[i], b[i], delta[i], q[:, i]) for i in range(m)])
    assert np.array_equal(trap.value(q), ramps)

    cutoff = make_cutoff(Box(a, b), delta)
    expected = product_over_axes([trapezoid_transform(a[i], b[i], delta[i], +1, xi[:, i])
                                  for i in range(m)])
    assert np.array_equal(cutoff.dual_transform().value(xi), expected)
    assert np.array_equal(cutoff.value(q), ramps)


PUBLIC_NAMES = [
    "AlmostPeriodScan", "Atomic", "Axis", "Box", "BudgetError", "CrosscheckReport",
    "CutProjectScheme", "DensityReport", "DiffractionSpectrum", "InjectivityReport", "Lattice",
    "MotifAtom", "MotifAtomFiber", "MotifDensityFiber", "PeriodicMeasure", "ProjectedDensity",
    "ProjectionResult", "Separable", "TruncationError", "TruncationSpec", "WeightedComb",
    "Window", "a_norm", "autocorrelation_patch", "box_profile", "comb", "cps", "density",
    "descent", "diffraction", "dual", "dual_cps", "eps_norm_almost_periods", "gram_matrix",
    "internal_density_check", "lattice", "lattice_comb_transform", "lattice_points_in_box",
    "lift", "lift_pd_crosscheck", "make_cutoff", "model_comb", "model_set", "norm_bound_check",
    "oracle_amplitudes", "pair_fibered", "pairing_values", "posdef", "project", "spectra",
    "spectral_projector", "spectrum_metadata_json", "spectrum_to_csv", "strip_comb",
    "trapezoid_profile", "verify_injectivity",
]


def test_public_names_still_resolve():
    import cutproject

    missing = [name for name in PUBLIC_NAMES if not hasattr(cutproject, name)]
    assert missing == []
    assert set(PUBLIC_NAMES) <= set(cutproject.__all__)


def test_atomic_transform_is_the_trigonometric_sum():
    points, weights = [[0.25], [0.75]], [1.0, -0.5j]
    xi = np.linspace(-3.0, 3.0, 13)[:, None]
    expected = np.array(
        [sum(w * np.exp(-2j * np.pi * x[0] * p[0]) for p, w in zip(points, weights)) for x in xi]
    )
    got = Atomic(points, weights, phase=-1).value(xi)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.array_equal(got, Atomic(points, weights).transform().value(xi))


@pytest.mark.parametrize("phase", [-1, 1])
def test_atomic_transform_blocks_match_the_dense_sum(monkeypatch, phase):
    # blocks of 7 atoms, the last one short, against one (points x atoms) exponential
    rng = np.random.default_rng(43)
    points = rng.uniform(-3.0, 3.0, size=(52, 2))
    weights = rng.normal(size=52) + 1j * rng.normal(size=52)
    xi = rng.uniform(-2.0, 2.0, size=(9, 2))
    monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", 7 * len(xi))
    got = Atomic(points, weights, phase=phase).value(xi)
    want = np.exp(phase * 2j * np.pi * xi @ points.T) @ weights
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert Atomic(points, weights, phase=phase).value(xi[3]) == pytest.approx(got[3], rel=1e-13)


def test_atomic_transform_memory_does_not_grow_with_the_atoms():
    # 200 points by 20,000 atoms: the complex exponential of the whole phase
    # matrix took 64 MB
    rng = np.random.default_rng(47)
    fiber = Atomic(rng.uniform(0.0, 1.0, size=(20000, 1)), rng.normal(size=20000), phase=-1)
    xi = np.linspace(-3.0, 3.0, 200)[:, None]
    tracemalloc.start()
    try:
        fiber.value(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * spectra.BLOCK_ELEMENTS  # the phases, their cosines, and slack


@pytest.mark.parametrize("points, weights", [([], []), ([[0.5]], []), ([[0.5], [0.7]], [1.0])],
                         ids=["empty", "one_point_no_weight", "two_points_one_weight"])
def test_atomic_rejects_unequal_points_and_weights(points, weights):
    # [] for points reads as one point of dimension 0
    with pytest.raises(ValueError, match="equal length"):
        Atomic(points, weights)


def test_atomic_value_matches_in_sup_norm():
    profile = Atomic([[0.25, 0.5], [0.75, 0.5]], [1.0, -2.0j])
    # sup distance 0.9e-9 (Euclidean 1.27e-9) is within BOUNDARY_TOL; 1.1e-9 is not
    assert profile.value([0.25 + 0.9e-9, 0.5 - 0.9e-9]) == 1.0
    assert profile.value([0.75 + 1.1e-9, 0.5]) == 0.0
    # two atoms within tolerance of one point: the lowest index wins, not the nearest
    close = Atomic([[0.0], [1.5e-9]], [1.0, 2.0])
    assert close.value([1e-9]) == 1.0


# ---------------------------------------------------------------------------
# the transform of the weighted lattice comb


def test_lattice_comb_transform_structure(fib):
    h = box_profile(Box([0.0], [1.0]))
    rho = lattice_comb_transform(fib, h)
    assert rho.scale == pytest.approx(DENS, abs=1e-14)
    assert len(rho.motif) == 1
    comp = rho.motif[0]
    assert isinstance(comp, MotifAtomFiber)
    change = dual(fib.lat).inv_basis @ rho.period.basis
    assert np.max(np.abs(change - np.round(change))) < 1e-9
    # fiber evaluated at 0.5: |sinc(1/2)| = 2/pi
    assert abs(comp.fiber.value(np.array([[0.5]]))[0]) == pytest.approx(2.0 / np.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# sign pinning and the oracle


def test_peak_phase_sign_pinning(fib):
    """Pinning protocol: non-even profile, three non-symmetric Bragg peaks,
    oracle at radius 800 selects the frozen sign.

    Recorded pinning data (radius 800, profile trapezoid [0.12, 0.55] ramp
    0.17): peaks k = 3.06525, 1.89443, 1.17082 with internal parts 0.06525,
    0.10557, -0.17082; the opposite sign misses the oracle phase by two
    orders of magnitude more than the frozen one.
    """
    assert PEAK_PHASE_SIGN == -1
    profile = trapezoid_profile([0.12], [0.55], [0.17])
    window = Window(Box([-0.1], [0.8]))
    tf = profile.transform()
    peaks = [np.array([3.0652475842498528]), np.array([1.8944271909999157]),
             np.array([1.1708203932499369])]
    for k in peaks:
        kstar = np.array([k[0] - np.round(k[0] * TAU - k[0]) ])  # placeholder, recomputed below
    dual_pts = {
        3.0652475842498528: -0.065247584249861,
        1.8944271909999157: 0.105572809000084,
        1.1708203932499369: -0.170820393249937,
    }
    for k, kstar in dual_pts.items():
        orc = oracle_amplitudes(fib, window, profile, [[k]], 800.0)[0]
        frozen = DENS * tf.value(np.array([[PEAK_PHASE_SIGN * kstar]]))[0]
        flipped = DENS * tf.value(np.array([[-PEAK_PHASE_SIGN * kstar]]))[0]
        assert abs(orc - frozen) < 1e-3
        assert abs(orc - flipped) > 10 * abs(orc - frozen)


def test_oracle_two_radius_convergence(fib):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    spec = fib_spectrum(fib)
    strongest = spec.ks[np.argsort(-np.abs(spec.amplitudes))[1]]  # skip k = 0
    closed = spec.amplitudes[np.argsort(-np.abs(spec.amplitudes))[1]]
    errs = [abs(oracle_amplitudes(fib, window, profile, [strongest], radius)[0] - closed)
            for radius in (500.0, 2000.0)]
    assert errs[1] < errs[0]


def test_oracle_far_from_bragg_is_small(fib):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    spec = fib_spectrum(fib, threshold=0.05)
    for k_far in (0.7341, 2.191817):
        assert np.min(np.abs(spec.ks[:, 0] - k_far)) > 1e-3
        value = oracle_amplitudes(fib, window, profile, [[k_far]], 2000.0)[0]
        assert abs(value) < 0.05 * np.max(np.abs(spec.amplitudes))


def test_oracle_at_zero_is_point_density(fib):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    value = oracle_amplitudes(fib, window, profile, [[0.0]], 2000.0)[0]
    assert value.imag == 0.0
    assert value.real == pytest.approx(DENS, rel=0.01)


def test_oracle_blocks_match_the_dense_sum(fib, fib_window, monkeypatch):
    # blocks of 37 points, the last one short, against one (peaks x points) phase matrix
    profile = trapezoid_profile([0.12], [0.55], [0.17])
    ks = np.array([[0.0], [1.1708203932499369], [-3.0652475842498528], [0.7341], [12.5]])
    monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", 37 * len(ks))
    got = oracle_amplitudes(fib, fib_window, profile, ks, 300.0)
    x, xstar = fib.split(model_set(fib, fib_window, Box([-300.0], [300.0])))
    assert len(x) % 37
    want = np.exp(-2j * np.pi * ks @ x.T) @ profile.value(xstar) / 600.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_oracle_memory_does_not_grow_with_the_patch(fib, fib_window):
    # 200 peaks by 17,890 points is about 7 blocks of phases; the whole phase
    # matrix and its exponential took 110 MiB
    ks = np.linspace(-3.0, 3.0, 200)[:, None]
    tracemalloc.start()
    try:
        oracle_amplitudes(fib, fib_window, box_profile(Box([0.0], [1.0])), ks, 20000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * spectra.BLOCK_ELEMENTS  # the phases, their cosines, and slack


# ---------------------------------------------------------------------------
# diffraction


def test_diffraction_amplitude_at_zero(fib):
    spec = fib_spectrum(fib)
    idx = int(np.argmin(np.abs(spec.ks[:, 0])))
    assert spec.ks[idx, 0] == 0.0
    assert spec.amplitudes[idx] == pytest.approx(DENS, abs=1e-12)


def test_diffraction_peaks_on_dual_points(fib):
    spec = fib_spectrum(fib)
    dual_lat = dual(fib.lat)
    recon = dual_lat.points(spec.refs)
    assert np.max(np.abs(recon[:, 0] - spec.ks[:, 0])) < 1e-9
    assert np.all(np.abs(spec.amplitudes) >= spec.metadata["threshold"])
    # arbitrary non-lattice k never appears
    assert not np.any(np.abs(spec.ks[:, 0] - 0.1234567) < 1e-9)


def test_diffraction_sorted_lexicographically(fib):
    spec = fib_spectrum(fib)
    assert np.all(np.diff(spec.ks[:, 0]) > 0)


def _tied_schemes(seed=1, per_split=3):
    """Random small integer bases of determinant 1 or 2 in n = 2 to 4, every split d + m.

    Many lattice points share a physical part, on the scheme and on its dual.
    """
    rng = np.random.default_rng(seed)
    schemes = []
    for n in (2, 3, 4):
        for d in range(1, n):
            found = 0
            while found < per_split:
                basis = rng.integers(-2, 3, size=(n, n)).astype(float)
                if round(abs(np.linalg.det(basis))) in (1, 2):
                    schemes.append(CutProjectScheme(lat=Lattice(basis), d=d))
                    found += 1
    return schemes


def _sorted_on_physical_then_z(z, x):
    """The rows (z, x), shuffled, then sorted by Python on the tuple (x, z)."""
    rows = [(tuple(xi), tuple(zi)) for xi, zi in zip(x.tolist(), z.tolist())]
    np.random.default_rng(0).shuffle(rows)
    rows.sort()
    return (np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, z.shape[1]),
            np.array([r[0] for r in rows]).reshape(-1, x.shape[1]))


def test_model_set_and_spectrum_ties_go_by_z():
    ties = {"model_set": 0, "diffraction": 0}
    for cps in _tied_schemes():
        d, m = cps.d, cps.m
        window = Window(Box(np.full(m, -1.0), np.full(m, 1.0)))
        query = Box(np.full(d, -3.0), np.full(d, 3.0))
        z, p = lattice_points_in_box(cps.lat, Box.product(query, window.bounding_box()))
        keep = window.contains(p[:, d:])
        want_z, want_x = _sorted_on_physical_then_z(z[keep], p[keep, :d])
        got = model_set(cps, window, query)
        assert np.array_equal(got, want_z)
        assert cps.split(got)[0].tobytes() == want_x.tobytes()
        ties["model_set"] += int(np.sum((want_x[1:] == want_x[:-1]).all(axis=1)))

        profile = trapezoid_profile(np.full(m, -0.8), np.full(m, 0.8), 0.2)
        cutoff = make_cutoff(window.bounding_box(), 0.1)
        kbox = Box(np.full(d, -1.0), np.full(d, 1.0))
        spec = diffraction(cps, window, profile, kbox, 0.05, cutoff)
        radii = np.array(spec.metadata["internal_radii"])
        z, p = lattice_points_in_box(dual(cps.lat), Box.product(kbox, Box(-radii, radii)))
        amps = spec.metadata["scale"] * profile.transform().value(PEAK_PHASE_SIGN * p[:, d:])
        keep = np.abs(amps) >= 0.05
        want_z, want_k = _sorted_on_physical_then_z(z[keep], p[keep, :d])
        assert np.array_equal(spec.refs, want_z)
        assert spec.ks.tobytes() == want_k.tobytes()
        ties["diffraction"] += int(np.sum((want_k[1:] == want_k[:-1]).all(axis=1)))
    # the schemes do tie, so the order among equal physical parts is tested
    assert min(ties.values()) > 100


def _assert_same_spectrum(got, want):
    assert got.refs.dtype == want.refs.dtype and np.array_equal(got.refs, want.refs)
    for name in ("ks", "internals", "amplitudes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert json.dumps(got.metadata) == json.dumps(want.metadata)


@st.composite
def diffraction_cases(draw):
    """A random d + m <= 4 scheme with a box or trapezoid profile inside its window,
    a query box and a threshold in [1e-3, 0.2], small enough for the full-box oracle."""
    d, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 1)]))
    n = d + m
    basis = np.array([[draw(st.floats(-1.5, 1.5)) for _ in range(n)] for _ in range(n)])
    assume(0.3 <= abs(np.linalg.det(basis)) <= 4.0)
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    half = np.array([draw(st.floats(0.3, 1.5)) for _ in range(m)])
    window = Window(Box(-half, half))
    lo = np.array([draw(st.floats(-1.0, 0.9)) for _ in range(m)]) * half
    hi = lo + np.array([draw(st.floats(0.05, 1.0)) for _ in range(m)]) * (half - lo)
    if draw(st.sampled_from(["box", "trapezoid"])) == "box":
        profile = box_profile(Box(lo, hi))
    else:
        margin = draw(st.floats(0.05, 0.45)) * (hi - lo)
        profile = trapezoid_profile(lo + margin, hi - margin, margin)
    query = Box(-np.array([draw(st.floats(0.2, 2.0)) for _ in range(d)]),
                np.array([draw(st.floats(0.2, 2.0)) for _ in range(d)]))
    threshold = float(np.exp(draw(st.floats(np.log(1e-3), np.log(0.2)))))
    radii = spectra._fiber_radii(profile.transform(), threshold / (10.0 * density(cps.lat)))
    # points of the outer box: dual density |det B| times its volume
    assume(abs(np.linalg.det(basis)) * np.prod(query.hi - query.lo) * np.prod(2.0 * radii + 1.0) <= 2e5)
    return cps, window, profile, query, threshold


@settings(max_examples=150)
@given(diffraction_cases())
def test_diffraction_matches_full_box(case):
    cps, window, profile, query, threshold = case
    cutoff = make_cutoff(window.bounding_box(), 0.1)
    got = diffraction(cps, window, profile, query, threshold, cutoff)
    _assert_same_spectrum(got, full_box_diffraction(cps, profile, query, threshold, cutoff))


def _counting_enumeration(monkeypatch):
    """Patch ``spectra._points_in_boxes`` to record each box it is given and the rows it lists."""
    boxes, rows = [], []

    def counting(lat, box_list, budget):
        z, p = _points_in_boxes(lat, box_list, budget)
        boxes.extend(box_list)
        rows.append(z)
        return z, p

    monkeypatch.setattr(spectra, "_points_in_boxes", counting)
    return boxes, rows


def test_diffraction_cover_drops_shared_face_points(monkeypatch):
    # an integer 2+2 basis puts internal parts on integers, and a box profile of
    # side 1/pi puts the end of the first axis's plateau, and so every shell edge,
    # at a power of two: points lie on faces that two boxes of the cover share
    cps = CutProjectScheme(lat=Lattice([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]]), d=2)
    window = Window(Box([-1.0, -1.0], [1.0, 1.0]))
    half = 0.5 / np.pi
    profile = box_profile(Box([-half, -half], [half, half]))
    cutoff = make_cutoff(window.bounding_box(), 0.1)
    query = Box([-2.0, -2.0], [2.0, 2.0])
    boxes, calls = _counting_enumeration(monkeypatch)
    got = diffraction(cps, window, profile, query, 0.002, cutoff)
    rows = np.concatenate(calls)
    assert len(boxes) > 1 and len(np.unique(rows, axis=0)) < len(rows)
    _assert_same_spectrum(got, full_box_diffraction(cps, profile, query, 0.002, cutoff))


def test_cover_points_match_one_enumeration_per_box(monkeypatch):
    # the 2+2 config's 11 cover boxes in one pass give the spectrum of one call per box
    cfg = resolve_config(parse_config_text((Path(__file__).resolve().parents[1] / "configs" /
                                            "ammann_beenker.toml").read_text()))
    args = (cfg.scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(), cfg.budget)
    got = diffraction(*args)
    monkeypatch.setattr(spectra, "_cover_points", cover_points_box_by_box)
    _assert_same_spectrum(got, diffraction(*args))
    # rows 3e6 apart on three axes span more than an int64 radix key holds: lexsort orders
    # them; the first two boxes share the face z1 = 1
    lat = Lattice(np.eye(4))
    cover = [Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), Box([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]),
             Box([3e6, 3e6, 3e6], [3e6 + 1, 3e6, 3e6])]
    z, p = spectra._cover_points(lat, Box([0.0], [1.0]), cover, 1000)
    want_z, want_p = cover_points_box_by_box(lat, Box([0.0], [1.0]), cover, 1000)
    assert spectra._row_key(z) is None and len(z) == 2 * 12 + 4
    assert np.array_equal(z, want_z) and np.array_equal(p.view(np.int64), want_p.view(np.int64))


@pytest.mark.parametrize("config, threshold, box_profile_line, factor", [
    ("fibonacci.toml", 1e-4, None, 2),
    ("ammann_beenker.toml", 0.01, "profile_box = [-1, 1, -1, 1]", 4),
])
def test_diffraction_enumerates_about_its_peaks(monkeypatch, config, threshold, box_profile_line, factor):
    text = (Path(__file__).resolve().parents[1] / "configs" / config).read_text()
    if box_profile_line:  # the box profile's transform decays like 1/|k| only
        text = "\n".join(line for line in text.splitlines() if not line.startswith("profile"))
        text += f'\nprofile = "box"\n{box_profile_line}\n'
    cfg = resolve_config(parse_config_text(text))
    _, calls = _counting_enumeration(monkeypatch)
    spec = diffraction(cfg.scheme, cfg.window, cfg.profile, cfg.query, threshold, cfg.cutoff(), cfg.budget)
    assert spec.n_peaks > 0
    assert sum(len(z) for z in calls) < factor * spec.n_peaks


def test_diffraction_threshold_filters(fib):
    lo = fib_spectrum(fib, threshold=0.005)
    hi = fib_spectrum(fib, threshold=0.2)
    assert lo.n_peaks > hi.n_peaks
    assert np.all(np.abs(hi.amplitudes) >= 0.2)


def test_diffraction_keeps_a_peak_on_its_cover_edge():
    # dual points sit at (z0 - 1e-9 z1, z1), and a box profile of length 0.5 / k* puts the
    # amplitude of the peak at z = (0, k*) on its envelope 1 / (pi k*); at that threshold
    # k* = 20000003 is the cover radius itself, which rounds to 20000002.999999996, and the
    # peak lies more than BOUNDARY_TOL outside that unless the cover's level has its slack
    cps = CutProjectScheme(lat=Lattice([[1.0, 0.0], [1e-9, 1.0]]), d=1)
    star = 20000003.0
    profile = box_profile(Box([-0.25 / star], [0.25 / star]))
    threshold = float(abs(profile.transform().value(np.array([PEAK_PHASE_SIGN * star]))))
    window = Window(Box([-0.5], [0.5]))
    k = -1e-9 * star
    spec = diffraction(cps, window, profile, Box([k], [k]), threshold, make_cutoff(window.bounding_box(), 0.1))
    assert [0, 20000003] in spec.refs.tolist()


def test_diffraction_requires_covering_cutoff(fib):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    small = make_cutoff(Box([0.2], [0.8]), 0.1)
    with pytest.raises(ValueError, match="plateau"):
        diffraction(fib, window, profile, Box([-1.0], [1.0]), 0.01, small)


def test_diffraction_rejects_atomic_profile(fib):
    window = Window(Box([0.0], [1.0]))
    profile = Atomic([[0.5]], [1.0])
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    with pytest.raises(ValueError, match="decay"):
        diffraction(fib, window, profile, Box([-1.0], [1.0]), 0.01, cutoff)


# ---------------------------------------------------------------------------
# fibered pairing (the quadrature route)


def test_pair_fibered_matches_diffraction_amplitude(fib):
    spec = fib_spectrum(fib)
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    trunc = TruncationSpec(radius=4000.0, tail_tol=1e-6)
    for rank in (1, 3):
        idx = np.argsort(-np.abs(spec.amplitudes))[rank]
        value = pair_fibered(rho, [(spec.ks[idx], 1.0)], cutoff, trunc)
        assert abs(value - spec.amplitudes[idx]) < 1e-9


def test_pair_fibered_margin_independent(fib):
    spec = fib_spectrum(fib)
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    idx = np.argsort(-np.abs(spec.amplitudes))[2]
    trunc = TruncationSpec(radius=6000.0, tail_tol=1e-6)
    v1 = pair_fibered(rho, [(spec.ks[idx], 1.0)], make_cutoff(Box([0.0], [1.0]), 0.1), trunc)
    v2 = pair_fibered(rho, [(spec.ks[idx], 1.0)], make_cutoff(Box([0.0], [1.0]), 0.2), trunc)
    assert abs(v1 - v2) < 1e-9


def test_pair_fibered_away_from_support_zero(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    value = pair_fibered(rho, [([0.1234], 1.0)], cutoff, TruncationSpec(radius=50.0, tail_tol=1.0),
                         strict=False)
    assert value == 0.0
    with pytest.raises(ValueError, match="off-lattice"):
        pair_fibered(rho, [([0.1234], 1.0)], cutoff, TruncationSpec(radius=50.0, tail_tol=1.0))


def test_pair_fibered_sums_psi_atoms_on_one_lattice_point(fib):
    spec = fib_spectrum(fib)
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    trunc = TruncationSpec(radius=4000.0, tail_tol=1e-6)
    k = spec.ks[np.argsort(-np.abs(spec.amplitudes))[1]]
    two = pair_fibered(rho, [(k, 1.0), (k + 0.5e-7, 2.0j)], cutoff, trunc)
    assert two == pytest.approx(pair_fibered(rho, [(k, 1.0 + 2.0j)], cutoff, trunc), abs=1e-12)


def test_pair_fibered_tail_gate(fib):
    spec = fib_spectrum(fib)
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    idx = np.argsort(-np.abs(spec.amplitudes))[1]
    with pytest.raises(TruncationError, match="truncation radius"):
        pair_fibered(rho, [(spec.ks[idx], 1.0)], cutoff, TruncationSpec(radius=40.0, tail_tol=1e-9))


def test_pairing_values_quadrature_vs_closed_form(fib):
    spec = fib_spectrum(fib)
    profile = box_profile(Box([0.0], [1.0]))
    tf = profile.transform()
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    shifts = spec.internals[np.argsort(-np.abs(spec.amplitudes))[:10]]
    closed = tf.value(-shifts)
    vals, tails = pairing_values(f, tf, shifts, TruncationSpec(radius=2000.0))
    assert np.max(np.abs(vals - closed) / np.abs(closed)) < 1e-8
    assert np.all(tails < 1e-6)
    compact = _CompactPairing(f, tf).value(shifts)
    assert np.max(np.abs(compact - closed)) < 1e-13


@st.composite
def transform_axis(draw):
    a = draw(st.floats(-2.0, 1.0))
    length = draw(st.floats(0.1, 3.0))
    delta = draw(st.sampled_from([0.0, draw(st.floats(0.02, 1.0))]))
    axis = Axis(a, a + length, delta, draw(st.sampled_from([-1, 1])))
    assume(abs(axis.a + axis.b) > 1e-3)
    return axis


def paired_plateau_overlap(f_axis, g_axis) -> float:
    """Overlap of the plateaus the pairing meets, at f.phase * t and -g.phase * t.

    Plateaus that miss each other give a pairing of ramps or nothing, so small
    that both routes return mostly their rounding noise.
    """
    ends = [np.sort(sign * np.array([axis.a, axis.b]))
            for axis, sign in ((f_axis, f_axis.phase), (g_axis, -g_axis.phase))]
    return min(e[1] for e in ends) - max(e[0] for e in ends)


@settings(max_examples=100)
@given(transform_axis(), transform_axis(), st.floats(10.0, 60.0), st.sampled_from([0.25, 0.5, 1.0]),
       st.sampled_from([6, 8, 16]), st.integers(0, 10**6), st.floats(-50.0, 50.0))
def test_axis_pair_kernel_matches_per_shift_oracle(f_axis, g_axis, radius, panel, order, node, free):
    assume(paired_plateau_overlap(f_axis, g_axis) >= 0.05)
    # shifts at 0, on a grid node, beside it, near both ends of the grid and one free value
    y, _ = _gl_grid(radius, panel, order)
    on_node = y[node % len(y)]
    shifts = np.array([0.0, on_node, on_node + 1e-9, np.nextafter(on_node, np.inf), 0.999, -1.0,
                       radius, -radius, radius - 0.3, 1.0 - radius, free])
    got = _axis_pair_once(f_axis, g_axis, shifts, radius, panel, order)
    want = per_shift_axis_pair(f_axis, g_axis, shifts, radius, panel, order)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def piece_switch_shifts(a_axis, b_axis, limit: float) -> np.ndarray:
    """Shifts at which |theta| = 1 on a piece of the compact route, with their neighbours one ulp
    away: a piece lies between kinks, so its length is a difference of neighbouring kinks."""
    kinks = np.unique(np.concatenate([a_axis.phase * a_axis.breakpoints(),
                                      -b_axis.phase * b_axis.breakpoints()]))
    switch = 1.0 / (np.pi * np.diff(kinks))  # theta = 2 pi s half = pi s length
    switch = switch[switch <= limit]
    return np.concatenate([switch, np.nextafter(switch, np.inf), np.nextafter(switch, 0.0), -switch])


@settings(max_examples=60)
@given(transform_axis(), transform_axis(), st.lists(st.floats(-1e4, 1e4), max_size=2))
def test_compact_axis_pair_matches_panel_oracle(a_axis, b_axis, free):
    # shifts at 0, a tiny one, each piece's switch between the moment rules, and far ones
    shifts = np.concatenate([[0.0, 1e-6, -1e-6, 1e4], piece_switch_shifts(a_axis, b_axis, 1e4), free])
    got = _compact_axis_pair(a_axis, b_axis, shifts)
    want = np.concatenate([panel_compact_axis_pair(a_axis, b_axis, [s]) for s in shifts])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=100)
@given(transform_axis(), transform_axis(), st.lists(st.floats(-1e4, 1e4), max_size=4))
# one plateau holds the other's support, so near s = 0 the closed form meets the
# integral of the product, 0.55, and rounds to 0.5500000000000002
@example(Axis(0.0, 2.0, 0.0, 1), Axis(1.0, 1.5, 0.05, -1), [1e-12, 1e-300])
def test_compact_pairing_within_its_envelope(f_axis, g_axis, free):
    # the envelope project's cover is built from, at every shift and at s = 0
    env = _CompactPairing(Separable((f_axis,)), Separable((g_axis,))).envelope(0)
    grid = np.logspace(-6.0, 4.0, 41)
    shifts = np.concatenate([[0.0], grid, -grid, piece_switch_shifts(f_axis, g_axis, 1e4), free])
    assert np.all(np.abs(_compact_axis_pair(f_axis, g_axis, shifts)) <= env.at(shifts))


def test_compact_axis_pair_nearer_the_exact_integral():
    # where the closed form and the panel oracle differ most, a 40-digit
    # integral of the same trapezoids sides with the closed form
    cases = [(Axis(0.0, 1.0, 0.1, 1), Axis(0.0, 1.0, 0.0, -1)),
             (Axis(-1.0, 1.0, 0.1, 1), Axis(-0.8, 0.8, 0.2, -1)),
             (Axis(-0.3, 1.2, 0.25, -1), Axis(0.1, 0.6, 0.4, 1))]
    for a_axis, b_axis in cases:
        shifts = np.concatenate([[0.0, 1e-6], piece_switch_shifts(a_axis, b_axis, 12.0),
                                 np.linspace(-12.0, 12.0, 25) + 0.0137])
        got = _compact_axis_pair(a_axis, b_axis, shifts)
        want = panel_compact_axis_pair(a_axis, b_axis, shifts)
        # relative to the largest value: near a zero of the pairing both routes
        # are at their rounding, and either may be nearer
        for i in np.argsort(-np.abs(got - want))[:3]:
            exact = mp_compact_axis_pair(a_axis, b_axis, shifts[i])
            assert abs(exact - got[i]) < abs(exact - want[i]), shifts[i]


def test_axis_pair_kernel_blocks_join(monkeypatch):
    f_axis, g_axis = Axis(-1.0, 1.3, 0.1, 1), Axis(0.2, 0.9, 0.3, -1)
    shifts = np.linspace(-7.0, 9.0, 23)
    whole = _axis_pair_once(f_axis, g_axis, shifts, 40.0, 0.5, 8)
    # below 32 x order elements a node block is one panel of 8 nodes, so 8 and
    # 40 elements give chunks of one shift row and of 5 rows, 23 = 4 x 5 + 3
    for elements in (8, 40):
        monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", elements)
        blocked = _axis_pair_once(f_axis, g_axis, shifts, 40.0, 0.5, 8)
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_axis_pair_kernel_node_blocks_meet_at_panel_edges(monkeypatch, delta):
    # blocks of 3 panels (24 nodes) over 80 panels, so the last block holds 2; 32
    # shift rows per product, so the 159 shifts below also leave a short chunk
    f_axis, g_axis = Axis(-1.0, 1.3, 0.1, 1), Axis(0.2, 0.9, delta, -1)
    radius, panel, order = 20.0, 0.5, 8
    monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", 32 * 3 * order)
    y, _ = _gl_grid(radius, panel, order)
    first = y[24::24]  # the first node of every block but the first
    last = y[23:-1:24]  # the last node of the block before
    r = spectra.EXACT_SINC_RADIUS
    # shifts on both edge nodes, between them and half a near radius before an
    # edge (near windows that straddle it), and a near radius past the last node
    # of a block or before the first (a near window that begins or ends on it)
    shifts = np.concatenate([first, last, (first + last) / 2.0, first - 0.5 * r, last + r, first - r,
                             [y[-1], y[-1] - 0.5 * r, y[0]]])
    assert len(shifts) % 32
    got = _axis_pair_once(f_axis, g_axis, shifts, radius, panel, order)
    want = per_shift_axis_pair(f_axis, g_axis, shifts, radius, panel, order)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_dual_blocks_node_factors_match_direct_trig(monkeypatch, delta):
    # odd order on panels centred on 0 puts a node at y = 0 exactly, where the
    # f-side amplitude is np.sinc's limit; blocks of 3 panels, the last of 2
    f_axis, g_axis = Axis(-1.0, 1.3, delta, 1), Axis(0.2, 0.9, delta, -1)
    radius, panel, order = 10.25, 0.5, 7
    monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", 32 * 3 * order)
    blocks = [[y, fw_re, fw_im] + [np.stack(pair) for pair in pairs]
              for y, fw_re, fw_im, pairs in _dual_blocks(f_axis, g_axis, radius, panel, order)]
    assert len(blocks) == 14 and len(blocks[-1][0]) == 2 * order
    y, fw_re, fw_im, *pairs = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    grid, w = _gl_grid(radius, panel, order)
    assert y.tobytes() == grid.tobytes()
    turn = np.pi * f_axis.phase * (f_axis.a + f_axis.b) + np.pi * g_axis.phase * (g_axis.a + g_axis.b)
    fw = f_axis.amplitude(y) * w
    eps = np.finfo(float).eps
    # angle addition and the direct call round omega y differently: a few ulps of it
    bound = 8 * eps * (1.0 + np.abs(turn * y)) * np.abs(fw).max()
    assert np.all(np.abs(fw_re - fw * np.cos(turn * y)) <= bound)
    assert np.all(np.abs(fw_im - fw * np.sin(turn * y)) <= bound)
    widths = [g_axis.b - g_axis.a + g_axis.delta] + ([g_axis.delta] if delta else [])
    assert len(pairs) == len(widths)
    for (sin, cos), l in zip(pairs, widths):
        for got, want in ((sin, np.sin(np.pi * l * y)), (cos, np.cos(np.pi * l * y))):
            assert np.all(np.abs(got - want) <= 8 * eps * (1.0 + np.abs(np.pi * l * y)))
    zero = y == 0.0
    assert zero.sum() == 1
    assert fw_re[zero] == f_axis.amplitude(0.0) * w[zero] and fw_im[zero] == 0.0


def test_pairing_routes_are_pinned_bit_for_bit():
    # three constants only choose between two formulas for one value, so they move only its
    # last bits: the dual route's near window EXACT_SINC_RADIUS, and the compact route's switch
    # |theta| <= 1 and the 16 nodes of its Gauss-Legendre rule.  Against the per-shift and
    # 40-digit oracles, near radii from 0.25 to 2, a switch at 0.5 and 8 nodes measured as
    # accurate, so these bits pin them; a rewrite of either route that moves a value shows here
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    g = box_profile(Box([0.0], [1.0])).transform()
    dual, _ = pairing_values(f, g, [[0.0], [0.382], [2.7]], TruncationSpec(radius=20.0))
    compact = _CompactPairing(f, g).value([[0.0], [0.19], [0.3]])
    assert [v.hex() for v in dual.view(float)] == [
        "0x1.fffc07b74e945p-1", "0x0.0p+0", "0x1.201e16a53204fp-2", "0x1.72a3537fa0a79p-1",
        "-0x1.cb6858b414002p-5", "0x1.3c29003b82188p-4"]
    assert [v.hex() for v in compact.view(float)] == [
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.8ec35fbde6e89p-1", "0x1.0effca113369cp-1",
        "0x1.02548755aac3fp-1", "0x1.638f9de5f6013p-1"]


def test_dual_route_names_its_knobs_when_it_does_not_converge():
    # panels of 8, 4, 2 and 1 with 2 nodes each cannot resolve sincs of period 1
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    g = box_profile(Box([0.0], [1.0])).transform()
    with pytest.raises(TruncationError, match=r"TruncationSpec\.panel \(now 8\) or raise "
                                              r"TruncationSpec\.order \(now 2\)") as info:
        pairing_values(f, g, np.array([[0.0], [0.382]]), TruncationSpec(radius=50.0, panel=8.0, order=2))
    change = float(str(info.value).split("relative change ")[1].split()[0])
    assert change > QUADRATURE_REL_TOL


def test_dual_route_converges_at_its_last_halving():
    # panels of 2.6, 1.3, 0.65 and 0.325 with 3 nodes each change the values by 0.31,
    # 0.013 and 7.7e-10 relative: only the last of the MAX_REFINE + 1 halvings ends the
    # refinement, with a change between half of QUADRATURE_REL_TOL and all of it
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    g = box_profile(Box([0.0], [1.0])).transform()
    shifts = np.array([[0.0], [0.382]])
    values, tails = pairing_values(f, g, shifts, TruncationSpec(radius=50.0, panel=2.6, order=3))
    assert np.all(np.abs(values - _CompactPairing(f, g).value(shifts)) <= tails)


def test_dual_route_memory_does_not_grow_with_the_grid():
    # the benchmark's quadrature: 192,000 nodes at the first panel level, twice
    # as many at each halving; the whole-grid kernel's traced peak was 32 MiB
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    g = box_profile(Box([0.0], [1.0])).transform()
    shifts = np.array([[0.0], [0.382], [-1.236], [2.618], [-0.5], [1.0]])
    tracemalloc.start()
    try:
        _, tails = pairing_values(f, g, shifts, TruncationSpec(radius=4000.0, panel=1.0, order=24, tail_tol=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(tails < 1e-6)
    assert peak < 8 * 2**20


def test_dual_route_rejects_spatial_axes():
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    fiber = box_profile(Box([0.0], [1.0]))
    shifts = np.array([[0.0], [0.4]])
    for f, g in ((cutoff, fiber.transform()), (cutoff.dual_transform(), fiber)):
        with pytest.raises(ValueError, match="phase-0"):
            pairing_values(f, g, shifts, TruncationSpec(radius=20.0))
        # the compact route rewrites the pairing over the transforms too
        with pytest.raises(ValueError, match="phase-0"):
            _CompactPairing(f, g).value(shifts)


@pytest.mark.parametrize("pair", [lambda f, g, s: pairing_values(f, g, s, TruncationSpec()),
                                  lambda f, g, s: _CompactPairing(f, g).value(s)], ids=["dual", "compact"])
def test_pairing_rejects_spatial_atomic_fiber(pair):
    # a point mass at 0.25 paired at shift 0 would be f(0.25), not the cutoff's value 1 there
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    with pytest.raises(ValueError, match=r"phase-0.*transform\(\) or dual_transform\(\)"):
        pair(f, Atomic([[0.25]], [1.0]), [[0.0]])
    with pytest.raises(ValueError, match="phase-0"):
        pair(make_cutoff(Box([0.0], [1.0]), 0.1), Atomic([[0.25]], [1.0]).transform(), [[0.0]])


def test_project_rejects_spatial_f(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    with pytest.raises(ValueError, match="phase-0"):
        project(rho, cutoff, Box([-3.0], [3.0]), 0.02)
    assert project(rho, cutoff.dual_transform(), Box([-3.0], [3.0]), 0.02).atoms.n_atoms == 121


def test_pairing_trapezoid_fiber_in_two_dimensions():
    # the ab-2x2 profile and cutoff: a ramp on the fiber side, paired in m = 2
    f = make_cutoff(Box([-1.0, -1.0], [1.0, 1.0]), 0.1).dual_transform()
    fiber = trapezoid_profile([-0.8, -0.8], [0.8, 0.8], 0.2).transform()
    c = 0.06066017178006
    shifts = np.array([[0.0, 0.0], [c, c], [-c, c], [0.0, -0.0857864376], [0.37, -1.2], [2.5, 0.9]])
    dual, tails = pairing_values(f, fiber, shifts, TruncationSpec())
    compact = _CompactPairing(f, fiber).value(shifts)
    assert np.all(tails < 1e-6)
    assert np.all(np.abs(dual - compact) <= tails + 1e-12)


def test_pairing_atomic_fiber_closed_form():
    # weak-model-set branch: atomic internal profile pairs in closed form;
    # each case is (atoms, weights, cutoff value at each atom, shifts)
    cases = [
        # m = 1: the plateau holds both atoms, so the pairing is the plain character sum
        ([[0.25], [0.75]], [1.0, -0.5j], [1.0, 1.0], [[0.0], [0.3], [-1.2]]),
        # m = 2: one atom on the plateau, one halfway down a ramp, one outside the support
        ([[0.25, 0.5], [1.05, 0.5], [0.5, -0.3]], [1.0, 2.0 - 1.0j, 3.0], [1.0, 0.5, 0.0],
         [[0.0, 0.0], [0.3, -0.7], [-1.2, 2.5]]),
    ]
    for points, weights, under, shifts in cases:
        fiber = Atomic(points, weights).transform()
        m = len(points[0])
        f = make_cutoff(Box([0.0] * m, [1.0] * m), 0.1).dual_transform()
        vals, tails = pairing_values(f, fiber, shifts, TruncationSpec())
        assert np.all(tails == 0.0)
        expected = np.array(
            [sum(u * w * np.exp(2j * np.pi * np.dot(s, p)) for p, w, u in zip(points, weights, under))
             for s in shifts]
        )
        assert np.max(np.abs(vals - expected)) < 1e-12


# ---------------------------------------------------------------------------
# projection and the spectral projectors


def mixed_measure(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    density_part = MotifDensityFiber(
        density=trapezoid_profile([-0.25], [0.25], 0.25),
        fiber=trapezoid_profile([-0.4], [0.4], 0.2).transform(),
    )
    atom_part = MotifAtom(phys=np.zeros(1), internal=np.array([0.3]), weight=0.5 + 0.25j)
    return PeriodicMeasure(
        period=rho.period, d=1, scale=rho.scale,
        motif=rho.motif + (density_part, atom_part),
    )


def test_project_pure_point_comb(fib):
    # atom-x-atom motif at the origin with weight 1/scale projects to f(kstar) delta_k
    dcps_lat = dual(fib.lat)
    rho = PeriodicMeasure(
        period=dcps_lat, d=1, scale=1.0,
        motif=(MotifAtom(phys=np.zeros(1), internal=np.zeros(1), weight=1.0),),
    )
    f = make_cutoff(Box([-0.5], [0.5]), 0.25).dual_transform()
    proj = project(rho, f, Box([-3.0], [3.0]), threshold=0.02)
    _, pts = lattice_points_in_box(dcps_lat, Box([-3.0, -30.0], [3.0, 30.0]))
    expected = {}
    for k, ks in pts:
        val = f.value(np.array([[ks]]))[0]
        if abs(val) >= 0.02:
            expected[round(float(k), 9)] = val
    got = {round(float(k), 9): w for k, w in zip(proj.atoms.positions[:, 0], proj.atoms.weights)}
    assert set(got) == set(expected)
    for k in got:
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


def test_projected_density_is_the_sum_of_translated_profiles():
    # oracle: the box profile on [0, 1] x [0, 2] is 1 exactly where x - t lies in it
    rng = np.random.default_rng(53)
    translates = rng.uniform(-2.0, 2.0, size=(30, 2))
    coefficients = rng.normal(size=30) + 1j * rng.normal(size=30)
    dens = ProjectedDensity(box_profile(Box([0.0, 0.0], [1.0, 2.0])), translates, coefficients)
    points = rng.uniform(-3.0, 4.0, size=(200, 2))
    inside = ((points[:, None, :] >= translates) & (points[:, None, :] <= translates + [1.0, 2.0])).all(axis=2)
    want = inside.astype(float) @ coefficients
    got = dens.value(points)
    assert np.max(np.abs(got - want)) < 1e-12 and inside.any(axis=1).mean() > 0.3
    assert dens.value(points[7]) == pytest.approx(want[7], abs=1e-12)


def test_pair_fibered_motif_atom_is_scale_weight_f_at_kstar(fib):
    # an atom-x-atom motif pairs to scale * weight * f(internal + k*) at each
    # matched dual-lattice point (x, k*), with no tail; z = (42, -30) lies at
    # k* = 42.02, inside the internal cube of half-side DEFAULT_INTERNAL_SLICE = 60
    # and outside one of half that
    dual_lat = dual(fib.lat)
    rho = PeriodicMeasure(
        period=dual_lat, d=1, scale=0.7,
        motif=(MotifAtom(phys=np.zeros(1), internal=np.array([0.3]), weight=0.5 - 0.25j),),
    )
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    f = cutoff.dual_transform()
    k = dual_lat.points(np.array([[1, 0], [0, 1], [-2, 1], [42, -30]]))
    psi = [(k[0, :1], 1.0), (k[1, :1], 2.0j), (k[2, :1], -0.5), (k[3, :1], 300.0)]
    want = sum(val * 0.7 * (0.5 - 0.25j) * f.value(0.3 + pt[None, 1:])[0] for pt, (_, val) in zip(k, psi))
    got = pair_fibered(rho, psi, cutoff, TruncationSpec(tail_tol=0.0))
    assert abs(want) > 0.1
    assert got == pytest.approx(want, abs=1e-14)


def test_project_radii_follow_the_measure_scale(fib):
    # at scale 50 the derived internal radius must still reach every atom of
    # modulus above the threshold, as a fixed radius far beyond it does
    rho = PeriodicMeasure(
        period=dual(fib.lat), d=1, scale=50.0,
        motif=(MotifAtom(phys=np.zeros(1), internal=np.array([0.3]), weight=1.0),),
    )
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    query = Box([-20.0], [20.0])
    derived = project(rho, f, query, 0.01).atoms
    fixed = project(rho, f, query, 0.01, 1000.0).atoms
    assert derived.n_atoms == fixed.n_atoms > 0
    assert np.array_equal(derived.positions, fixed.positions)
    assert np.array_equal(derived.weights, fixed.weights)


@st.composite
def projection_cases(draw):
    """The transform of a profile comb on a generic d + m <= 4 scheme, with a
    physical point and, on request, a fibered atom and a density added, each
    at its own internal offset; a cutoff's inverse transform as f, a query
    and a threshold in [1e-4, 0.1].

    The point sits at a physical offset near 1/2, so its atoms land on no
    other component's.  The fibered atom sits at the comb's offset 0, so each
    of its atoms lands on one of the comb's and the two weights merge.
    """
    d, m = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    basis = rng.uniform(-2.0, 2.0, size=(d + m, d + m))
    assume(abs(np.linalg.det(basis)) >= 0.3)
    cps = CutProjectScheme(lat=Lattice(basis), d=d)

    def offset(k, reach):
        return np.array([draw(st.floats(-reach, reach)) for _ in range(k)])

    def profile(k):
        lo = offset(k, 1.0)
        hi = lo + np.array([draw(st.floats(0.1, 1.5)) for _ in range(k)])
        if draw(st.sampled_from(["box", "trapezoid"])) == "box":
            return box_profile(Box(lo, hi))
        margin = draw(st.floats(0.05, 0.45)) * (hi - lo)
        return trapezoid_profile(lo + margin, hi - margin, margin)

    def weight():
        return complex(draw(st.floats(0.2, 2.0)), draw(st.floats(-1.0, 1.0)))

    comb = lattice_comb_transform(cps, profile(m))
    motif = comb.motif + (MotifAtom(0.5 + offset(d, 0.2), offset(m, 25.0), weight()),)
    if draw(st.booleans()):
        motif += (MotifAtomFiber(np.zeros(d), offset(m, 25.0), weight(), profile(m).transform()),)
    if draw(st.booleans()):
        motif += (MotifDensityFiber(profile(d), profile(m).transform()),)
    plateau = offset(m, 0.5)
    f = make_cutoff(Box(plateau - 0.5, plateau + 0.5), draw(st.floats(0.05, 0.5))).dual_transform()
    query = Box(-np.array([draw(st.floats(0.2, 1.5)) for _ in range(d)]),
                np.array([draw(st.floats(0.2, 1.5)) for _ in range(d)]))
    threshold = float(np.exp(draw(st.floats(np.log(1e-4), np.log(0.1)))))
    return replace(comb, motif=motif), f, query, threshold


@settings(max_examples=60)
@given(projection_cases())
def test_project_cover_matches_a_wide_radius(case):
    rho, f, query, threshold = case
    floor = threshold / 10.0
    radius = 1.0 + 1.25 * max(
        float(np.max(spectra._fiber_radii(comp.paired(f), floor / (abs(comp.weight) * rho.scale))))
        for comp in rho.motif)
    # points of the widest fixed box: the period lattice's point density times its volume
    reach = max(float(np.prod(comp.offset(query).sides)) for comp in rho.motif)
    assume(density(rho.period) * reach * (2.0 * radius) ** rho.m <= 1e5)
    derived = project(rho, f, query, threshold)
    wide = project(rho, f, query, threshold, radius)
    assert np.array_equal(derived.atoms.positions, wide.atoms.positions)
    assert derived.atoms.weights.tobytes() == wide.atoms.weights.tobytes()
    assert len(derived.densities) == len(wide.densities)
    for got, want in zip(derived.densities, wide.densities):
        assert np.array_equal(got.translates, want.translates)
        assert got.coefficients.tobytes() == want.coefficients.tobytes()


def test_project_merges_the_fiber_of_a_position():
    # the period lattice [[0, 1], [1, 0]] sends z = (a, b) to the position b: each of the 3
    # positions in [-1, 1] carries the 4,001 points of its fiber, so atoms are merged on
    # positions, and each weight is the sum of f over the internal parts a in [-2000, 2000]
    rho = PeriodicMeasure(period=Lattice([[0.0, 1.0], [1.0, 0.0]]), d=1, scale=1.0,
                          motif=(MotifAtom(phys=np.zeros(1), internal=np.zeros(1), weight=1.0),))
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    atoms = project(rho, f, Box([-1.0], [1.0]), 1e-3, internal_radius=2000.0).atoms
    assert atoms.positions[:, 0].tolist() == [-1.0, 0.0, 1.0]
    fiber = f.value(np.arange(-2000.0, 2001.0)[:, None]).sum()
    assert np.abs(atoms.weights - fiber).max() <= 1e-12 * abs(fiber)


def test_project_atomic_fiber_needs_an_internal_radius(fib):
    # a trigonometric-sum fiber does not decay, so no cover bounds its pairing
    rho = lattice_comb_transform(fib, Atomic([[0.25], [0.6]], [1.0, 0.5]))
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    with pytest.raises(ValueError, match="no pairing decay; set an explicit internal_radius"):
        project(rho, f, Box([-3.0], [3.0]), 1e-3)
    assert project(rho, f, Box([-3.0], [3.0]), 1e-3, 20.0).atoms.n_atoms > 0


def test_project_zero_length_axis_in_two_dimensions(cps2d):
    # f's first axis has length 0, so every pairing is 0; the m = 2 cover reads the
    # zero envelope at 0, where c2 / r^2 would be 0 / 0
    comb = lattice_comb_transform(cps2d, trapezoid_profile([-0.5, -0.5], [0.5, 0.5], 0.2))
    rho = replace(comb, motif=comb.motif + (MotifAtom(np.zeros(2), np.array([0.3, -0.2]), 1.0),))
    zero_f = Separable((Axis(0.0, 0.0, phase=+1), Axis(-1.0, 1.0, 0.1, phase=+1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        proj = project(rho, zero_f, Box([-2.0, -2.0], [2.0, 2.0]), threshold=1e-3)
    assert proj.atoms.n_atoms == 0


def test_project_zero_function_empty(fib):
    from cutproject.spectra import Axis, Separable

    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    zero_f = Separable((Axis(0.0, 0.0, phase=+1),))
    proj = project(rho, zero_f, Box([-3.0], [3.0]), threshold=1e-9)
    assert proj.atoms.n_atoms == 0


def test_project_density_fiber_with_d_unequal_m():
    # d = 2, m = 1: the internal offset has m entries and the second
    # physical axis is a spectator, so its n2 = 0 slice is the d = 1 result
    fiber = trapezoid_profile([-0.4], [0.4], 0.2).transform()
    f = make_cutoff(Box([-0.5], [0.5]), 0.25).dual_transform()
    flat = MotifDensityFiber(density=trapezoid_profile([-0.25], [0.25], 0.25), fiber=fiber)
    wide = MotifDensityFiber(density=trapezoid_profile([-0.25] * 2, [0.25] * 2, 0.25), fiber=fiber)
    assert wide.internal.shape == (1,)
    rho1 = PeriodicMeasure(period=Lattice(np.eye(2)), d=1, scale=1.0, motif=(flat,))
    rho2 = PeriodicMeasure(period=Lattice(np.eye(3)), d=2, scale=1.0, motif=(wide,))
    (dens1,) = project(rho1, f, Box([-2.0], [2.0]), threshold=1e-3).densities
    (dens2,) = project(rho2, f, Box([-2.0, -2.0], [2.0, 2.0]), threshold=1e-3).densities
    assert len(dens1.translates) > 0
    assert set(dens2.translates[:, 1]) == {-2.0, -1.0, 0.0, 1.0, 2.0}
    spectator = dens2.translates[:, 1] == 0.0
    assert np.array_equal(dens2.translates[spectator, 0], dens1.translates[:, 0])
    assert np.array_equal(dens2.coefficients[spectator], dens1.coefficients)


def test_dimensions_are_read_off_lattices_arrays_and_metadata(fib):
    # no constructor takes a value its lattice, arrays or metadata already hold
    rho = PeriodicMeasure(period=Lattice(np.eye(3)), d=2, scale=1.0, motif=())
    assert (rho.d, rho.m) == (2, 1)
    spec = fib_spectrum(fib, threshold=0.02)
    assert (spec.d, spec.metadata["threshold"]) == (1, 0.02)
    builds = [
        lambda: PeriodicMeasure(period=Lattice(np.eye(3)), d=2, m=1, scale=1.0, motif=()),
        lambda: CutProjectScheme(lat=fib.lat, d=1, m=1),
        lambda: DiffractionSpectrum(d=1, ks=spec.ks, internals=spec.internals, refs=spec.refs,
                                    amplitudes=spec.amplitudes, metadata=spec.metadata),
        lambda: DiffractionSpectrum(ks=spec.ks, internals=spec.internals, refs=spec.refs,
                                    amplitudes=spec.amplitudes, threshold=0.02, metadata=spec.metadata),
        lambda: TruncationSpec(internal_radius=60.0),
    ]
    for build in builds:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()


def test_project_matches_diffraction(fib):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    spec = diffraction(fib, window, profile, Box([-3.0], [3.0]), 0.02, cutoff)
    rho = lattice_comb_transform(fib, profile)
    # internal slice wide enough to cover every above-threshold peak
    assert np.max(np.abs(spec.internals)) < 80.0
    proj = project(rho, cutoff.dual_transform(), Box([-3.0], [3.0]), threshold=0.02,
                   internal_radius=80.0)
    assert proj.atoms.n_atoms == spec.n_peaks
    assert np.max(np.abs(proj.atoms.positions[:, 0] - spec.ks[:, 0])) < 1e-12
    assert np.max(np.abs(proj.atoms.weights - spec.amplitudes)) < 1e-10


def test_spectral_projectors_partition(fib):
    rho = mixed_measure(fib)
    pp = spectral_projector(rho, "pp")
    ac = spectral_projector(rho, "ac")
    sc = spectral_projector(rho, "sc")
    assert len(sc.motif) == 0
    combined = pp.motif + ac.motif + sc.motif
    assert sorted(map(id, combined)) == sorted(map(id, rho.motif))
    single = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    assert spectral_projector(single, "pp").motif == single.motif
    assert spectral_projector(single, "ac").motif == ()


def test_projector_commutes_with_projection(fib):
    rho = mixed_measure(fib)
    f = make_cutoff(Box([-0.5], [1.0]), 0.25).dual_transform()
    query = Box([-4.0], [4.0])
    thr = 1e-4
    internal_radius = 40.0
    whole = project(rho, f, query, thr, internal_radius)
    pp_first = project(spectral_projector(rho, "pp"), f, query, thr, internal_radius)
    ac_first = project(spectral_projector(rho, "ac"), f, query, thr, internal_radius)
    assert np.array_equal(pp_first.atoms.positions, whole.atoms.positions)
    assert np.max(np.abs(pp_first.atoms.weights - whole.atoms.weights)) < 1e-10
    assert len(ac_first.densities) == len(whole.densities) == 1
    assert np.array_equal(ac_first.densities[0].translates, whole.densities[0].translates)
    assert np.max(np.abs(ac_first.densities[0].coefficients - whole.densities[0].coefficients)) < 1e-10
    assert pp_first.densities == ()
    assert ac_first.atoms.n_atoms == 0


# ---------------------------------------------------------------------------
# the norm bound


def test_unit_window_sum_bound_is_tight_for_the_config_cutoff():
    # the bound sums the envelope over the first WINDOW_SUM_TERMS shifts and bounds the rest
    # by c2 / WINDOW_SUM_TERMS, about c2 / (2 WINDOW_SUM_TERMS^2) above the rest itself: for
    # the configs' cutoff ramp 0.1 that is 7.6e-5 of the total at 64 terms and 3.0e-4 at 32
    env = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform().envelope(0)
    unit_window = 2.0 * env.integral_0_to(0.5)
    series = 3.0 * unit_window + 4.0 * float(np.sum(env.at(np.arange(1.0, 1e6 + 1.0))))
    assert series <= spectra._unit_cell_window_sum(env) <= series * (1.0 + 1.5e-4)


def test_unit_cell_decay_constant_value():
    c1, tail = spectra._unit_cell_decay_constant()
    assert tail < 1e-6
    # analytic value of the cell-sup sum: 1 + pi * tanh(pi)
    assert c1 == pytest.approx(1.0 + np.pi * np.tanh(np.pi), abs=2e-6)
    assert c1 >= 1.0 + np.pi * np.tanh(np.pi)  # upper estimate


def test_norm_bound_zero_measure(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    empty = PeriodicMeasure(period=rho.period, d=1, scale=rho.scale, motif=())
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    report = norm_bound_check(empty, f, Box([-0.5], [0.5]), Box([-1.0], [1.0]),
                              sweep_halfwidth=10.0)
    assert report.ok
    assert report.left == 0.0


def test_norm_bound_fibonacci(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    f = make_cutoff(Box([0.0], [1.0]), 0.15).dual_transform()
    report = norm_bound_check(rho, f, Box([0.0], [1.0]), Box([-0.25], [1.25]),
                              sweep_halfwidth=15.0, internal_sweep=6.0)
    assert report.ok
    assert report.left > 0.0
    assert report.constant_per_axis == pytest.approx(4.12988, abs=1e-4)


def test_max_window_count_edges_and_sweep():
    from cutproject.spectra import _max_window_count

    assert _max_window_count(np.zeros((0, 2)), Box([0.0, 0.0], [1.0, 1.0]), Box([-5.0, -5.0], [5.0, 5.0])) == 0.0
    rng = np.random.default_rng(59)
    pts = np.sort(rng.uniform(-3.0, 3.0, size=(40, 1)), axis=0)
    # a sweep narrower than the box leaves no translate: every point is the bound
    assert _max_window_count(pts, Box([0.0], [2.0]), Box([0.0], [1.0])) == 40.0
    # oracle: a best closed window of length 1 starts at a point
    want = max(int(np.sum((pts[:, 0] >= x) & (pts[:, 0] <= x + 1.0))) for x in pts[:, 0])
    assert _max_window_count(pts, Box([0.0], [1.0]), Box([-4.0], [5.0])) == want < 40


def test_norm_bound_requires_admissible_f(fib):
    rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
    f = box_profile(Box([0.0], [1.0])).transform()  # only first-order decay
    with pytest.raises(ValueError, match="decay certificate"):
        norm_bound_check(rho, f, Box([0.0], [1.0]), Box([-0.25], [1.25]))


# ---------------------------------------------------------------------------
# output formats


def test_spectrum_csv_and_json(tmp_path, fib):
    spec = fib_spectrum(fib, threshold=0.05)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(spec, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k1,re,im,intensity"
    assert len(lines) == spec.n_peaks + 1
    spectrum_to_csv(spec, tmp_path / "spec2.csv")
    assert (tmp_path / "spec2.csv").read_text() == text

    meta = json.loads(spectrum_metadata_json(spec, extra={"config": {"d": 1}}))
    assert meta["n_peaks"] == spec.n_peaks
    assert meta["peak_phase_sign"] == -1
    assert "version" in meta


def test_project_linear_in_measure_and_function(fib):
    profile = box_profile(Box([0.0], [1.0]))
    rho = lattice_comb_transform(fib, profile)
    comp = rho.motif[0]
    scaled = PeriodicMeasure(
        period=rho.period, d=1, scale=rho.scale,
        motif=(MotifAtomFiber(comp.phys, comp.internal, (2.0 - 0.5j) * comp.weight, comp.fiber),),
    )
    f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
    internal_radius = 30.0
    base = project(rho, f, Box([-3.0], [3.0]), 1e-3, internal_radius)
    stretched = project(scaled, f, Box([-3.0], [3.0]), abs(2.0 - 0.5j) * 1e-3, internal_radius)
    assert np.array_equal(base.atoms.positions, stretched.atoms.positions)
    assert np.max(np.abs(stretched.atoms.weights - (2.0 - 0.5j) * base.atoms.weights)) < 1e-12

    # two-component measure projects to the merged sum of the single projections
    double = PeriodicMeasure(
        period=rho.period, d=1, scale=rho.scale, motif=rho.motif + scaled.motif,
    )
    together = project(double, f, Box([-3.0], [3.0]), abs(3.0 - 0.5j) * 1e-3, internal_radius)
    expected = (1.0 + (2.0 - 0.5j)) * base.atoms.weights
    assert np.array_equal(together.atoms.positions, base.atoms.positions)
    assert np.max(np.abs(together.atoms.weights - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_schemes(), st.floats(0.1, 0.5))
def test_wiener_diagram_on_random_schemes(scheme, level):
    # the covariogram vol(W n (W + y)) of a box window W with sides L is vol(W) times the profile
    # prod_i Axis(0, 0, L_i) on W - W, whose transform is |F[1_W]|^2 / vol(W): so its diffraction
    # times dens(L) vol(W) is the intensity of the box profile on W, peak by peak, in n = 2..4; the
    # lifted spectrum takes a wider query, so that no enumeration run ends at the same face in both
    d, m, basis, window, (lo, _) = scheme
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    w = Box(*window[0])
    scale = density(cps.lat) * w.volume  # the largest amplitude of the box profile
    query, threshold = Box(lo, lo + 1.0), level * scale
    spec = diffraction(cps, Window(w), box_profile(w), query, threshold, make_cutoff(w, 0.1))
    dw = Box(-w.sides, w.sides)
    covariogram = Separable(tuple(Axis(0.0, 0.0, side) for side in w.sides))
    lifted = diffraction(cps, Window(dw), covariogram, Box(lo - 0.1, lo + 1.1), threshold ** 2 / scale / 2,
                         make_cutoff(dw, 0.1))
    index = {ref: i for i, ref in enumerate(map(tuple, lifted.refs.tolist()))}
    values = lifted.amplitudes[[index[ref] for ref in map(tuple, spec.refs.tolist())]] * scale
    assert (values.imag == 0).all()
    intensities = spec.intensities
    error = np.abs(values.real - intensities).max(initial=0.0)
    assert error <= 16 * np.finfo(float).eps * intensities.max(initial=0.0)
    # and every lifted peak well above the squared threshold is a peak of the box profile
    strong = {ref for ref, a, inside in zip(map(tuple, lifted.refs.tolist()), lifted.amplitudes.real * scale,
                                            query.contains(lifted.ks)) if inside and a >= 2 * threshold ** 2}
    assert strong <= set(map(tuple, spec.refs.tolist()))
