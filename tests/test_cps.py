import numpy as np
import pytest

from cutproject import (
    Box,
    CutProjectScheme,
    Lattice,
    Window,
    dual_cps,
    internal_density_check,
    model_set,
    verify_injectivity,
)

from .conftest import TAU
from .helpers import brute_lattice_points, fibonacci_strip_points


def zsplit_scheme() -> CutProjectScheme:
    return CutProjectScheme(lat=Lattice(np.eye(2)), d=1)


def test_dimension_validation():
    assert CutProjectScheme(lat=Lattice(np.eye(3)), d=1).m == 2
    with pytest.raises(ValueError, match="at least 1"):
        CutProjectScheme(lat=Lattice(np.eye(2)), d=2)


def test_star_at_origin(fib):
    assert np.array_equal(fib.split([0, 0])[1], [0.0])


def test_star_fibonacci_values(fib):
    # basis columns (1,1) and (tau, 1-tau): z=(1,1) maps to (1+tau, 2-tau)
    assert fib.split([1, 1])[1][0] == pytest.approx(2.0 - TAU, abs=1e-12)
    full = fib.lat.points(np.array([1, 1]))
    assert full[0] == pytest.approx(1.0 + TAU, abs=1e-12)
    assert fib.split([1, 1])[1][0] == pytest.approx(0.3819660112501051, abs=1e-10)


def test_star_additive(fib):
    rng = np.random.default_rng(11)
    z1 = rng.integers(-50, 50, size=(200, 2))
    z2 = rng.integers(-50, 50, size=(200, 2))
    lhs = fib.split(z1 + z2)[1]
    rhs = fib.split(z1)[1] + fib.split(z2)[1]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_star_wrong_length(fib):
    with pytest.raises(ValueError, match="length"):
        fib.split([1, 2, 3])


def test_model_set_matches_brute_scan(fib, fib_window):
    z = model_set(fib, fib_window, Box([0.0], [20.0]))
    assert z.dtype == np.int64
    got = {tuple(row) for row in z}
    box = Box([0.0, 0.0], [20.0, 1.0])
    assert got == brute_lattice_points(fib.lat, box, 30)


@pytest.mark.parametrize("radius", [50.0, 1e5])
def test_model_set_matches_fibonacci_oracle(fib, fib_window, radius):
    # at radius 1e5 the strip's integer bounding box holds about 4.9e9
    # candidates, far beyond the default budget of a full scan
    query = Box([-radius], [radius])
    z = model_set(fib, fib_window, query)
    assert len(z) == len({tuple(row) for row in z})
    assert {tuple(row) for row in z} == fibonacci_strip_points(fib.lat, query, fib_window.parts[0])


def test_model_set_sorted_and_spacings(fib, fib_window):
    xs = fib.split(model_set(fib, fib_window, Box([0.0], [40.0])))[0][:, 0]
    assert np.all(np.diff(xs) > 0)
    spacings = np.diff(xs)
    # unit-volume window: gaps take the values 1 (window boundary pair),
    # tau, and tau^2; verified against the brute-force point list
    expected = np.array([1.0, TAU, TAU ** 2])
    dist = np.min(np.abs(spacings[:, None] - expected[None, :]), axis=1)
    assert np.max(dist) < 1e-9
    assert {int(np.argmin(np.abs(expected - s))) for s in spacings} == {0, 1, 2}


def test_weak_window_single_point(fib):
    # a + b(1-tau) = 0 forces a = b = 0 by irrationality
    z = model_set(fib, Window(Box([0.0], [0.0])), Box([-5.0], [5.0]))
    assert np.array_equal(z, [[0, 0]])


def test_disjoint_query_empty(fib, fib_window):
    # (0.25, 0.45) falls strictly between consecutive projections
    z = model_set(fib, fib_window, Box([0.25], [0.45]))
    assert z.shape == (0, 2) and z.dtype == np.int64


def test_window_union_is_union_of_model_sets(fib):
    w1 = Window(Box([0.0], [0.4]))
    w2 = Window(Box([0.3], [1.0]))
    union = Window([Box([0.0], [0.4]), Box([0.3], [1.0])])
    query = Box([0.0], [30.0])
    s1 = {tuple(row) for row in model_set(fib, w1, query)}
    s2 = {tuple(row) for row in model_set(fib, w2, query)}
    su = {tuple(row) for row in model_set(fib, union, query)}
    assert su == s1 | s2


def test_window_monotonicity(fib):
    query = Box([-20.0], [20.0])
    inner = {tuple(row) for row in model_set(fib, Window(Box([0.1], [0.6])), query)}
    outer = {tuple(row) for row in model_set(fib, Window(Box([0.0], [1.0])), query)}
    assert inner <= outer


def test_model_set_uniformly_discrete(fib, fib_window):
    xs = np.sort(fib.split(model_set(fib, fib_window, Box([0.0], [100.0])))[0][:, 0])
    min_gap = float(np.min(np.diff(xs)))
    assert min_gap > 0.9  # recorded: smallest gap is 1 at this window


def test_point_refs_consistent(fib, fib_window):
    query = Box([0.0], [10.0])
    z = model_set(fib, fib_window, query)
    assert len(z) > 0
    x, xstar = fib.split(z)
    assert query.contains(x).all()
    assert fib_window.contains(xstar).all()
    full = fib.lat.points(z)
    assert np.array_equal(x, full[:, :1]) and np.array_equal(xstar, full[:, 1:])
    # positions do not depend on the batch a row is mapped in
    for row, xi, si in zip(z, x, xstar):
        assert np.array_equal(np.concatenate([xi, si]), fib.lat.points(row))


def test_injectivity_fibonacci_ok(fib):
    report = verify_injectivity(fib, search_radius=50.0, tol=1e-6)
    assert report.ok
    assert report.witness is None


def test_injectivity_square_lattice_fails():
    report = verify_injectivity(zsplit_scheme(), search_radius=3.0, tol=1e-6)
    assert not report.ok
    assert report.witness is not None
    assert report.witness[0] == 0 and report.witness[1] != 0


def test_injectivity_vacuous_small_radius(fib):
    report = verify_injectivity(fib, search_radius=0.5, tol=1e-6)
    assert report.ok


def test_internal_density_fibonacci(fib):
    report = internal_density_check(fib, Box([0.0], [1.0]), eps=0.05, search_radius=200.0)
    assert report.ok
    assert report.max_gap <= 0.05
    assert report.n_points > 100


def test_internal_density_square_lattice_fails():
    report = internal_density_check(zsplit_scheme(), Box([0.0], [1.0]), eps=0.1, search_radius=50.0)
    assert not report.ok
    assert report.max_gap >= 0.4


def test_internal_density_large_eps_ok():
    report = internal_density_check(zsplit_scheme(), Box([0.0], [1.0]), eps=2.0, search_radius=5.0)
    assert report.ok


def test_dual_cps_pairing(fib):
    dfib = dual_cps(fib)
    rng = np.random.default_rng(5)
    z = rng.integers(-20, 21, size=(100, 2))
    w = rng.integers(-20, 21, size=(100, 2))
    pair = np.sum(fib.lat.points(z) * dfib.lat.points(w), axis=1)
    assert np.max(np.abs(np.exp(2j * np.pi * pair) - 1.0)) < 1e-10


def test_dual_cps_identity_basis():
    cps = zsplit_scheme()
    assert np.allclose(dual_cps(cps).lat.basis, np.eye(2))


def test_dual_cps_biduality(fib):
    dd = dual_cps(dual_cps(fib))
    change = fib.lat.inv_basis @ dd.lat.basis
    assert np.max(np.abs(change - np.round(change))) < 1e-9
