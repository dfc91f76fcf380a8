import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutproject import (
    Box,
    CutProjectScheme,
    Lattice,
    WeightedComb,
    Window,
    a_norm,
    autocorrelation_patch,
    descent,
    eps_norm_almost_periods,
    lift,
    model_comb,
    model_set,
    strip_comb,
)
from cutproject import almost
from cutproject import comb as comb_module
from cutproject.almost import _difference_candidates
from cutproject.comb import merge_atoms
from cutproject.lattice import MERGE_TOL, _near, lattice_points_in_box
from cutproject.posdef import _check_hermitian, _min_eig, gram_matrix

from . import helpers
from .conftest import TAU
from .helpers import (anchor_a_norm, assert_same_scan, brute_components, dense_a_norm,
                      grid_a_norm, grouped_almost_period_scan, integer_difference_candidates,
                      lifted_autocorrelation_counts, random_schemes)


def fib_patch(fib, fib_window, hi=30.0, weights=None, rng=None):
    z = model_set(fib, fib_window, Box([0.0], [hi]))
    if weights is None:
        weights = np.ones(len(z)) if rng is None else rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    return model_comb(fib, z, weights)


# ---------------------------------------------------------------------------
# construction


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError, match="duplicate positions"):
        WeightedComb([[0.0], [1e-10]], [1.0, 1.0])


def test_exact_repeats_rejected_before_the_pair_search(monkeypatch):
    # 0.0 and -0.0 are one position; no pair search is needed to see it
    monkeypatch.setattr(comb_module, "_near", None)
    for pos in ([[1.5], [0.0], [1.5]], [[0.0, 2.0], [-0.0, 2.0]]):
        with pytest.raises(ValueError, match="duplicate positions"):
            WeightedComb(pos, np.ones(len(pos)))


def test_duplicate_positions_rejected_in_sup_norm():
    # Euclidean distance 1.27e-9, sup distance 0.9e-9: merge_atoms merges the
    # pair, so a comb without integer coordinates cannot hold it
    pos = np.array([[0.0, 0.0], [0.9e-9, 0.9e-9]])
    assert len(merge_atoms(pos, np.ones(2, complex))[0]) == 1
    with pytest.raises(ValueError, match="duplicate positions"):
        WeightedComb(pos, [1.0, 1.0])
    assert WeightedComb([[0.0, 0.0], [1.1e-9, 0.0]], [1.0, 1.0]).n_atoms == 2


def test_duplicate_refs_rejected():
    # with integer coordinates a duplicate is a repeated row, however far apart the positions
    with pytest.raises(ValueError, match="duplicate positions"):
        WeightedComb([[0.0], [5.0], [9.0]], [1.0, 1.0, 1.0], refs=[[1, 2], [0, 1], [1, 2]])


def test_distinct_refs_accepted_at_equal_positions():
    comb = WeightedComb([[0.0], [1e-12]], [1.0, 1.0], refs=[[1, 0], [0, 1]])
    assert comb.n_atoms == 2


def test_empty_comb_allowed():
    comb = WeightedComb(np.zeros((0, 2)), np.zeros(0))
    assert comb.n_atoms == 0 and comb.extent is None


def test_dimension_is_the_shape_of_the_positions():
    assert WeightedComb(np.zeros((0, 3)), []).dim == 3
    assert WeightedComb([], []).dim == 1  # a shapeless empty list is one-dimensional
    assert WeightedComb([[0.0, 1.0]], [1.0]).dim == 2


def test_extent():
    comb = WeightedComb([[0.0, 1.0], [2.0, -1.0]], [1.0, 1.0])
    assert np.array_equal(comb.extent.lo, [0.0, -1.0])
    assert np.array_equal(comb.extent.hi, [2.0, 1.0])


@settings(max_examples=80)
@given(st.data())
def test_near_matches_brute_sup_distances(data):
    # dyadic coordinates and radius: every difference is exact, so pairs at
    # distance 0 and exactly r apart occur and the closed ball must keep them
    d = data.draw(st.integers(1, 3))
    rows = st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), max_size=10)
    points = np.array(data.draw(rows), dtype=float).reshape(-1, d) / 8.0
    queries = np.array(data.draw(rows), dtype=float).reshape(-1, d) / 8.0
    joined = data.draw(st.sampled_from(["apart", "appended", "self"]))
    if joined == "appended":
        queries = np.concatenate([queries, points])
    elif joined == "self":
        queries = points  # the same object: a self-join, as merge_atoms asks
    r = data.draw(st.integers(0, 3)) / 8.0
    i, j = _near(points, queries, r)
    want_i, want_j = np.nonzero(np.abs(queries[:, None] - points[None, :]).max(axis=2) <= r)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


# ---------------------------------------------------------------------------
# merging


def test_merge_keeps_distinct_refs_apart():
    pos, w, refs = merge_atoms(np.array([[0.0], [1e-12]]), np.array([1.0, 2.0], complex),
                               np.array([[1, 0], [0, 1]]))
    assert np.array_equal(pos, [[0.0], [1e-12]])
    assert np.array_equal(w, [1.0, 2.0])
    assert np.array_equal(refs, [[1, 0], [0, 1]])


def test_merge_equal_refs_summed_in_index_order():
    positions = np.array([[0.0], [7.0], [3e-9], [-3e-9], [7.0]])
    weights = np.array([1e16, 5.0, 1.0, -1e16, 2.0], dtype=complex)
    refs = np.array([[2, -1], [0, 3], [2, -1], [2, -1], [0, 3]])
    pos, w, out_refs = merge_atoms(positions, weights, refs)
    assert np.array_equal(pos, [[0.0], [7.0]])
    assert np.array_equal(out_refs, [[2, -1], [0, 3]])
    # (1e16 + 1) - 1e16 is 0 in doubles; any other order gives 1
    assert w[0] == (weights[0] + weights[2]) + weights[3] == 0.0
    assert w[1] == 7.0


def test_merge_float_chain_is_transitive():
    pos, w, refs = merge_atoms(np.array([[0.0], [0.8e-9], [1.6e-9]]), np.array([1.0, 2.0, 3.0], complex))
    assert np.array_equal(pos, [[0.0]])
    assert np.array_equal(w, [6.0])
    assert refs is None


@pytest.mark.parametrize("dim", [1, 2])
def test_merge_float_matches_brute_components(dim):
    # zero jitter leaves exact repeats, among them 0.0 and -0.0
    rng = np.random.default_rng(40 + dim)
    for jitter in [6e-10] * 20 + [0.0] * 10:
        centres = rng.integers(0, 6, size=(rng.integers(1, 8), dim)) * 1e-8
        positions = centres[rng.integers(0, len(centres), size=40)]
        positions = positions + rng.uniform(-jitter, jitter, size=positions.shape)
        if not jitter:
            positions[(positions == 0.0) & (rng.random(positions.shape) < 0.5)] = -0.0
        weights = rng.integers(-5, 6, size=40) + 1j * rng.integers(-5, 6, size=40)
        pos, w, _ = merge_atoms(positions, weights)
        groups = brute_components(positions, MERGE_TOL)
        assert np.array_equal(pos, positions[[g[0] for g in groups]])
        assert np.array_equal(w, [weights[g].sum() for g in groups])


# ---------------------------------------------------------------------------
# lift / descent


def test_lift_single_origin_atom(fib, fib_window):
    gamma = WeightedComb([[0.0]], [1.0])
    eta = lift(fib, gamma, fib_window)
    assert eta.n_atoms == 1
    assert np.array_equal(eta.positions, [[0.0, 0.0]])
    assert np.array_equal(eta.refs, [[0, 0]])
    assert eta.weights[0] == 1.0


def test_lift_indicator_comb_preserves_atoms(fib, fib_window):
    x, _ = fib.split(model_set(fib, fib_window, Box([0.0], [20.0])))
    gamma = WeightedComb(x, np.ones(len(x)))
    eta = lift(fib, gamma, fib_window)
    assert eta.n_atoms == gamma.n_atoms
    assert np.all(eta.positions[:, 1] >= -1e-9) and np.all(eta.positions[:, 1] <= 1 + 1e-9)
    assert np.array_equal(np.sort(eta.weights), np.sort(gamma.weights))


def test_lift_empty(fib, fib_window):
    gamma = WeightedComb(np.zeros((0, 1)), np.zeros(0))
    eta = lift(fib, gamma, fib_window)
    assert eta.n_atoms == 0 and eta.dim == 2


def test_lift_rejects_off_lattice_atom(fib, fib_window):
    gamma = WeightedComb([[0.43]], [1.0])
    with pytest.raises(ValueError, match="not on Lambda"):
        lift(fib, gamma, fib_window)


def test_lift_refs_route_rejects_an_internal_part_outside_the_window(fib, fib_window):
    gamma = fib_patch(fib, fib_window)
    with pytest.raises(ValueError, match="internal part outside the window"):
        lift(fib, gamma, Window(Box([0.0], [0.5])))


def test_lift_refs_route_rejects_swapped_refs(fib, fib_window):
    # the refs of two atoms swapped still lie in the window, but not under their positions
    gamma = fib_patch(fib, fib_window)
    refs = gamma.refs.copy()
    refs[[3, 7]] = refs[[7, 3]]
    swapped = WeightedComb(gamma.positions, gamma.weights, refs=refs)
    with pytest.raises(ValueError, match="position does not match its coordinates"):
        lift(fib, swapped, fib_window)


def test_lift_reports_ambiguity():
    # squashed lattice: two points with physical parts 2e-8 apart
    from cutproject import CutProjectScheme, Lattice

    cps = CutProjectScheme(lat=Lattice([[1.0, 2e-8], [0.0, 1.0]]), d=1)
    search = Window(Box([-2.0], [2.0]))
    gamma = WeightedComb([[0.0]], [1.0])
    with pytest.raises(ValueError, match="injectivity violation"):
        lift(cps, gamma, search)


def test_lift_rejects_two_atoms_on_one_lattice_point(fib):
    # 0 and 5e-8 are more than MERGE_TOL apart, so the comb is valid, but both sit
    # within LIFT_TOL of the one lattice point (0, 0)
    gamma = WeightedComb([[0.0], [5e-8]], [1, 2])
    with pytest.raises(ValueError, match="atoms 0 and 1 sit on one lattice point"):
        lift(fib, gamma, Window(Box([-1.0], [1.0])))


def test_lift_matches_in_sup_norm(cps2d):
    # each atom moved by (0.9e-7, 0.9e-7): sup distance 0.9e-7 is within
    # LIFT_TOL, as for merges, though the Euclidean distance 1.27e-7 is not
    window = Window(Box([-1.0, -1.0], [1.0, 1.0]))
    z = model_set(cps2d, window, Box([-3.0, -3.0], [3.0, 3.0]))
    assert len(z) > 1
    moved = WeightedComb(cps2d.split(z)[0] + 0.9e-7, np.ones(len(z)))
    assert np.array_equal(lift(cps2d, moved, window).refs, z)


def test_descent_requires_refs(fib):
    eta = WeightedComb([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="integer lattice coordinates"):
        descent(fib, eta)


def test_round_trip_exact(fib, fib_window):
    rng = np.random.default_rng(2)
    z = model_set(fib, fib_window, Box([0.0], [50.0]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))

    gamma = model_comb(fib, z, w)
    eta = lift(fib, gamma, fib_window)
    back = descent(fib, eta)
    assert np.array_equal(back.positions, gamma.positions)
    assert np.array_equal(back.weights, gamma.weights)
    assert np.array_equal(back.refs, gamma.refs)

    eta0 = strip_comb(fib, z, w)
    gamma0 = descent(fib, eta0)
    up = lift(fib, gamma0, fib_window)
    assert np.array_equal(up.positions, eta0.positions)
    assert np.array_equal(up.weights, eta0.weights)


def test_lift_descent_linear(fib, fib_window):
    z = model_set(fib, fib_window, Box([0.0], [20.0]))
    w1 = np.linspace(1, 2, len(z))
    w2 = np.exp(1j * np.linspace(0, 3, len(z)))
    a, b = 2.0 - 1j, 0.5 + 0.25j
    lhs = lift(fib, model_comb(fib, z, a * w1 + b * w2), fib_window)
    rhs_w = a * lift(fib, model_comb(fib, z, w1), fib_window).weights + b * lift(
        fib, model_comb(fib, z, w2), fib_window
    ).weights
    assert np.max(np.abs(lhs.weights - rhs_w)) < 1e-12


@st.composite
def lift_cases(draw):
    """A random d + m <= 4 scheme whose basis has condition number at most 50, a box
    window, and the model comb of a patch of at most 300 points with complex weights."""
    d, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]))
    n = d + m
    basis = 2.0 * np.eye(n) + np.array([[draw(st.floats(-1.5, 1.5)) for _ in range(n)] for _ in range(n)])
    assume(np.linalg.cond(basis) <= 50.0)
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    lo = np.array([draw(st.floats(-1.0, 0.5)) for _ in range(m)])
    window = Window(Box(lo, lo + np.array([draw(st.floats(0.05, 1.5)) for _ in range(m)])))
    # a patch of about `size` points: its volume times the window's over the covolume
    half = np.array([draw(st.floats(0.5, 2.0)) for _ in range(d)])
    expected = np.prod(2.0 * half) * window.parts[0].volume / abs(np.linalg.det(basis))
    half *= (draw(st.integers(1, 250)) / expected) ** (1.0 / d)
    z = model_set(cps, window, Box(-half, half))
    assume(0 < len(z) <= 300)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma = model_comb(cps, z, rng.normal(size=len(z)) + 1j * rng.normal(size=len(z)))
    return cps, window, gamma


@settings(max_examples=100, deadline=None)
@given(lift_cases())
def test_lift_routes_agree_on_random_schemes(case):
    # the refs route trusts gamma's integer coordinates; the float route finds them again
    # by enumerating the strip over gamma's extent and matching positions within LIFT_TOL
    cps, window, gamma = case
    by_refs = lift(cps, gamma, window)
    # a comb without refs is only as distinct as its positions, so validation is left
    # to the float route, which rejects two lattice points within LIFT_TOL of one atom
    positions_only = WeightedComb(gamma.positions, gamma.weights, validate=False)
    try:
        by_position = lift(cps, positions_only, window)
    except ValueError as exc:
        # a near-coincidence in G of two strip points: the float route cannot decide it,
        # so such draws are skipped
        assume("injectivity violation" not in str(exc))
        raise
    assert np.array_equal(by_refs.refs, gamma.refs)
    assert np.array_equal(by_position.refs, gamma.refs)
    assert by_position.positions.tobytes() == by_refs.positions.tobytes()
    assert by_position.weights.tobytes() == by_refs.weights.tobytes() == gamma.weights.tobytes()
    for eta in (by_refs, by_position):
        back = descent(cps, eta)
        assert back.positions.tobytes() == gamma.positions.tobytes()
        assert back.weights.tobytes() == gamma.weights.tobytes()
        assert np.array_equal(back.refs, gamma.refs)


def test_descent_scales_weights(fib, fib_window):
    z = model_set(fib, fib_window, Box([0.0], [10.0]))
    eta = strip_comb(fib, z, np.ones(len(z)))
    down = descent(fib, eta.scaled(1j))
    assert np.array_equal(down.weights, 1j * np.ones(len(z)))


# ---------------------------------------------------------------------------
# a_norm


def test_a_norm_single_atom():
    comb = WeightedComb([[0.5]], [-2.0 + 1.0j])
    value = a_norm(comb, Box([0.0], [1.0]), Box([-1.0], [2.0]))
    assert value == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_a_norm_fibonacci_tau_window(fib):
    # window of volume tau: gaps {1, tau}, a closed unit box captures 2 atoms
    x, _ = fib.split(model_set(fib, Window(Box([0.0], [TAU])), Box([0.0], [100.0])))
    comb = WeightedComb(x, np.ones(len(x)))
    assert a_norm(comb, Box([0.0], [1.0]), Box([5.0], [95.0])) == 2.0


def test_a_norm_fibonacci_unit_window(fib, fib_window):
    # unit-volume window: interior gaps are tau and tau^2, both above 1
    comb = fib_patch(fib, fib_window, hi=100.0)
    assert a_norm(comb, Box([0.0], [1.0]), Box([5.0], [95.0])) == 1.0


def test_a_norm_translation_invariant():
    rng = np.random.default_rng(4)
    pos = np.sort(rng.choice(np.arange(0, 640), size=25, replace=False)) / 64.0
    comb = WeightedComb(pos[:, None], rng.normal(size=25))
    box, region = Box([0.0], [0.937]), Box([1.0], [9.0])
    base = a_norm(comb, box, region)
    shifted = a_norm(WeightedComb(comb.positions + 5.25, comb.weights), box, region.shifted([5.25]))
    assert shifted == pytest.approx(base, abs=1e-12)


def test_a_norm_region_too_small():
    comb = WeightedComb([[0.0]], [1.0])
    with pytest.raises(ValueError, match="too small"):
        a_norm(comb, Box([0.0], [2.0]), Box([0.0], [1.0]))


def test_a_norm_input_checks():
    comb = WeightedComb([[0.0]], [1.0])
    with pytest.raises(ValueError, match="box dimensions must match the comb dimension"):
        a_norm(comb, Box([0.0, 0.0], [1.0, 1.0]), Box([-5.0], [5.0]))
    with pytest.raises(ValueError, match="window box must have positive side lengths"):
        a_norm(comb, Box([0.0], [0.0]), Box([-5.0], [5.0]))
    empty = WeightedComb(np.zeros((0, 2)), np.zeros(0))
    assert a_norm(empty, Box([0.0, 0.0], [1.0, 1.0]), Box([-5.0, -5.0], [5.0, 5.0])) == 0.0


def random_dyadic_comb(rng, dim, n, span=10.0):
    grid = int(span * 64)
    while True:
        idx = rng.choice(grid, size=(n, dim), replace=False if dim == 1 else True)
        pos = idx / 64.0
        if dim > 1:
            pos = np.unique(pos, axis=0)
            if len(pos) < n // 2:
                continue
        w = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
        return WeightedComb(pos, w)


def test_a_norm_matches_grid_oracle_1d():
    rng = np.random.default_rng(11)
    for _ in range(10):
        comb = random_dyadic_comb(rng, 1, 40)
        box = Box([0.0], [0.937])
        region = Box([0.5], [9.5])
        assert a_norm(comb, box, region) == pytest.approx(
            grid_a_norm(comb, box, region), abs=1e-6
        )


def test_a_norm_matches_grid_oracle_2d():
    rng = np.random.default_rng(12)
    for _ in range(5):
        comb = random_dyadic_comb(rng, 2, 45, span=4.0)
        box = Box([0.0, 0.0], [0.937, 0.65])
        region = Box([0.3, 0.3], [3.7, 3.7])
        assert a_norm(comb, box, region) == pytest.approx(
            grid_a_norm(comb, box, region), abs=1e-6
        )


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_a_norm_is_a_norm(seed):
    rng = np.random.default_rng(seed)
    idx = rng.choice(320, size=20, replace=False)
    pos = (idx / 64.0)[:, None]
    w1 = rng.normal(size=20) + 1j * rng.normal(size=20)
    w2 = rng.normal(size=20) + 1j * rng.normal(size=20)
    box, region = Box([0.0], [0.937]), Box([0.5], [4.5])
    n1 = a_norm(WeightedComb(pos, w1), box, region)
    n2 = a_norm(WeightedComb(pos, w2), box, region)
    n12 = a_norm(WeightedComb(pos, w1 + w2), box, region)
    nscaled = a_norm(WeightedComb(pos, (3.0 - 4.0j) * w1), box, region)
    assert n12 <= n1 + n2 + 1e-10
    assert nscaled == pytest.approx(5.0 * n1, rel=1e-10)


# ---------------------------------------------------------------------------
# almost periods


def atom_candidates(comb, lo, hi):
    """The distinct atom positions x in (lo, hi] of a d = 1 model comb as candidates t,
    each with the refs of its first atom as its shift."""
    xs = comb.positions[:, 0]
    inside = np.flatnonzero((xs > lo) & (xs <= hi))
    ts, first = np.unique(xs[inside], return_index=True)
    return ts[:, None], comb.refs[inside[first]]


def test_periodic_comb_exact_period():
    # a comb on the grid hZ carries refs = positions / h, and a candidate t the shift t / h
    z = np.arange(201)[:, None]
    comb = WeightedComb(z, np.ones(len(z)), refs=z)
    scan = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=1e-6, candidates=[[1.0]], shifts=[[1]])
    assert scan.accepted.tolist() == [True]
    assert scan.norms.tolist() == [0.0]


def test_zero_translation_always_accepted(fib, fib_window):
    comb = fib_patch(fib, fib_window, hi=60.0)
    scan = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=1e-9, candidates=[[0.0]],
                                   shifts=[[0, 0]])
    assert scan.accepted.tolist() == [True]
    assert scan.norms.tolist() == [0.0]


def test_fibonacci_difference_candidates(fib, fib_window):
    # candidates are point differences; translations with a small internal
    # part are the ones with sparse defect sets, so they alone clear the bar
    comb = fib_patch(fib, fib_window, hi=2000.0)
    cands, shifts = atom_candidates(comb, 0.0, 100.0)
    a_box = Box([0.0], [10.0])
    peak = a_norm(comb, a_box, Box([20.0], [1980.0]))
    assert peak == 5.0
    scan = eps_norm_almost_periods(comb, a_box, eps=0.75 * peak, candidates=cands, shifts=shifts)
    assert np.count_nonzero(scan.accepted) == 7
    assert scan.ts.tobytes() == cands.tobytes()
    accepted_ts = np.sort(scan.ts[scan.accepted, 0])
    assert accepted_ts[0] == pytest.approx(TAU ** 4, abs=1e-9)
    assert np.isfinite(scan.max_gap)
    assert scan.max_gap == pytest.approx(17.944271909999158, abs=1e-6)


def test_overlap_too_small_skipped(fib, fib_window):
    comb = fib_patch(fib, fib_window, hi=30.0)
    scan = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=1.0, candidates=[[29.0]],
                                   shifts=[[29, 0]])
    assert scan.ts.tolist() == [[29.0]]
    assert np.isnan(scan.norms).tolist() == [True]
    assert scan.accepted.tolist() == [False]


def test_scan_skips_overlaps_under_min_diameters():
    # unit masses on 0..30 and a unit window: t = 18 leaves an evaluation region of
    # 30 - 18 - 2 = 10 window spans, MIN_DIAMETERS, and t = 20 leaves 8
    z = np.arange(31)[:, None]
    comb = WeightedComb(z, np.ones(31), refs=z)
    scan = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=0.5, candidates=[[18.0], [20.0]],
                                   shifts=[[18], [20]])
    assert scan.norms[0] == 0.0 and np.isnan(scan.norms[1])


def test_aperiodic_patch_tiny_eps_only_zero(fib, fib_window):
    comb = fib_patch(fib, fib_window, hi=200.0)
    cands, shifts = atom_candidates(comb, 0.0, 40.0)
    cands, shifts = np.concatenate([[[0.0]], cands]), np.concatenate([[[0, 0]], shifts])
    scan = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=1e-9, candidates=cands, shifts=shifts)
    assert set(scan.ts[scan.accepted, 0].tolist()) == {0.0}


def test_norm_for_two_window_choices_recorded(fib, fib_window):
    # norm almost periodicity should not depend on the window choice; at
    # finite scale only record both values, no set equality is asserted
    comb = fib_patch(fib, fib_window, hi=500.0)
    cands, shifts = atom_candidates(comb, 0.0, 30.0)
    scan_a = eps_norm_almost_periods(comb, Box([0.0], [1.0]), eps=0.4, candidates=cands, shifts=shifts)
    scan_b = eps_norm_almost_periods(comb, Box([0.0], [2.5]), eps=0.4, candidates=cands, shifts=shifts)
    for scan in (scan_a, scan_b):  # every candidate scanned, none skipped
        assert len(scan.norms) == len(cands)
        assert not np.isnan(scan.norms).any()


def _schemes():
    """Fibonacci, Ammann-Beenker 2+2, and the d = 1, m = 2 tribonacci scheme."""
    fib = CutProjectScheme(lat=Lattice([[1.0, TAU], [1.0, 1.0 - TAU]]), d=1)
    c = np.sqrt(0.5)
    ab = CutProjectScheme(lat=Lattice([[1, c, 0, -c], [0, c, 1, c], [1, -c, 0, c], [0, c, -1, c]]),
                          d=2)
    # Minkowski embedding of Z[beta], beta the real root of x^3 = x^2 + x + 1:
    # the physical coordinate is the real embedding, the internal plane the complex one
    roots = np.roots([1.0, -1.0, -1.0, -1.0])
    beta = roots[np.argmin(np.abs(roots.imag))].real
    alpha = roots[np.argmax(roots.imag)]
    trib = CutProjectScheme(lat=Lattice([[1.0, beta, beta**2], [1.0, alpha.real, (alpha**2).real],
                                         [0.0, alpha.imag, (alpha**2).imag]]), d=1)
    return {
        "fib": (fib, Window(Box([0.0], [1.0])), 60.0),
        "ab": (ab, Window(Box([-1.0, -1.0], [1.0, 1.0])), 14.0),
        "trib": (trib, Window(Box([-0.8, -0.8], [0.8, 0.8])), 60.0),
    }


SCHEMES = _schemes()


@settings(max_examples=40)
@given(st.sampled_from(sorted(SCHEMES)), st.floats(-3000.0, 3000.0), st.floats(0.6, 1.0),
       st.booleans(), st.integers(0, 60), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_exact_shift_merge_matches_grouped_merge(name, offset, scale, unit, max_cands, eps, seed):
    cps, window, side = SCHEMES[name]
    lo = np.full(cps.d, offset)
    z = model_set(cps, window, Box(lo, lo + scale * side))
    rng = np.random.default_rng(seed)
    weights = np.ones(len(z)) if unit else rng.integers(-2, 3, size=len(z)) + 1j * rng.normal(size=len(z))
    comb = model_comb(cps, z, weights)
    cands, shifts = _difference_candidates(cps, comb, max_cands)
    want_cands, want_shifts = integer_difference_candidates(cps, comb.positions, comb.refs,
                                                            max_cands)
    assert np.array_equal(shifts, want_shifts)
    assert cands.tobytes() == want_cands.tobytes() == cps.split(shifts)[0].tobytes()
    assert len(np.unique(shifts, axis=0)) == len(shifts)
    a_box = Box(np.zeros(cps.d), np.full(cps.d, 0.5 if name == "ab" else 1.0))
    exact = eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts)
    assert_same_scan(exact, grouped_almost_period_scan(comb, a_box, eps, cands, shifts))


def _scheme_patch(name, offset, scale, weights_seed=None):
    cps, window, side = SCHEMES[name]
    lo = np.full(cps.d, offset)
    z = model_set(cps, window, Box(lo, lo + scale * side))
    if weights_seed is None:
        return cps, z, np.ones(len(z))
    rng = np.random.default_rng(weights_seed)
    return cps, z, rng.integers(-2, 3, size=len(z)) + 1j * rng.normal(size=len(z))


def _assert_same_candidates(cps, comb, max_cands):
    cands, shifts = _difference_candidates(cps, comb, max_cands)
    want_cands, want_shifts = integer_difference_candidates(cps, comb.positions, comb.refs,
                                                            max_cands)
    assert shifts.tobytes() == want_shifts.tobytes() and shifts.shape == want_shifts.shape
    assert cands.tobytes() == want_cands.tobytes()
    return shifts


@settings(max_examples=30)
@given(st.sampled_from(sorted(SCHEMES)), st.floats(-3000.0, 3000.0), st.floats(0.3, 1.0),
       st.sampled_from([0.25, 2.0, 8.0, 64.0]), st.floats(0.0, 1.0),
       st.sampled_from([None, 1, 100]))
def test_strip_candidates_match_pair_oracle(name, offset, scale, radius, frac, block_rows):
    # small first radii double several times before they stop or reach the span/3 cap;
    # small lookup blocks split the strip points over many lookups
    cps, z, weights = _scheme_patch(name, offset, scale)
    assume(len(z) > 0)
    comb = model_comb(cps, z, weights)
    ts = integer_difference_candidates(cps, comb.positions, comb.refs, len(z) ** 2)[0][1:]
    total = len(ts)
    # exactly as many translates as a doubled box holds must not stop the doubling:
    # with more beyond it, the cut orders by length, not lexicographically
    within = [int(np.sum(np.linalg.norm(ts, axis=1) <= radius * 2**k)) for k in range(8)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(almost, "_STRIP_RADIUS", radius)
        if block_rows is not None:
            mp.setattr(almost, "_LOOKUP_CHUNK", block_rows)
        for max_cands in sorted({0, 1, 2, int(frac * total), total - 1, total, total + 1,
                                 2 * total, *within}):
            if max_cands >= 0:
                _assert_same_candidates(cps, comb, max_cands)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_strip_candidates_with_a_translate_at_the_cap(name):
    # atoms at a, a + dz, a + 3 dz: the patch spans 3 t(dz), so dz sits at span/3,
    # where the float pair differences decide
    cps = SCHEMES[name][0]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(12):
        a = rng.integers(-60, 61, size=cps.lat.n)
        dz = rng.integers(-3, 4, size=cps.lat.n)
        if not dz.any():
            continue
        comb = model_comb(cps, np.stack([a, a + dz, a + 3 * dz]), np.ones(3))
        for radius in (0.5, 64.0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(almost, "_STRIP_RADIUS", radius)
                for max_cands in range(4):  # at most +-dz are kept
                    _assert_same_candidates(cps, comb, max_cands)


def test_strip_candidates_keep_the_exact_cap(fib):
    # x = 7, 8, 10: span/3 is exactly 1, so +-(1, 0) is kept and +-(2, 0) is not
    comb = model_comb(fib, [[7, 0], [8, 0], [10, 0]], np.ones(3))
    shifts = _assert_same_candidates(fib, comb, 10)
    assert shifts.tolist() == [[0, 0], [-1, 0], [1, 0]]


def test_strip_candidates_probe_past_the_first_row_of_a_run():
    # a strip point's run holds the atoms a, in order of their first internal coordinate,
    # that leave room for z_a + dz inside the patch's internal span; on this patch the
    # first row of some kept strip points' runs finds no atom, and some find their first
    # passing pair only in the third round of the probe or later
    cps, z, weights = _scheme_patch("ab", 0.0, 1.0)  # the patch [0, 14]^2
    comb = model_comb(cps, z, weights)
    shifts = _assert_same_candidates(cps, comb, 50)[1:]
    third = comb.extent.sides / 3.0
    lead = cps.split(z)[1][:, 0]
    by_lead = np.argsort(lead, kind="stable")
    atom = {tuple(row): i for i, row in enumerate(z.tolist())}

    def passes(a, b):
        diff = comb.positions[b] - comb.positions[a]
        return np.linalg.norm(diff) > 1e-9 and (np.abs(diff) <= third).all()

    first_pair, first_row_empty = [], 0
    for dz in shifts:
        run = by_lead[lead[by_lead] + cps.split(dz)[1][0] >= lead.min() - 1e-9]
        found = [atom.get(tuple((z[a] + dz).tolist())) for a in run]
        first_row_empty += found[0] is None
        first_pair.append(next(at for at, (a, b) in enumerate(zip(run, found))
                               if b is not None and passes(a, b)))
    assert first_row_empty > 0
    assert max(first_pair) >= 3  # rounds of 1, 2, 4 rows: row 3 opens the third


def test_strip_candidates_look_up_few_rows(monkeypatch):
    # a full scan of every run looks up sum(count) rows; the probe stops each run at its
    # first realising pair
    cps, z, weights = _scheme_patch("ab", 0.0, 2.0)  # the patch [0, 28]^2
    comb = model_comb(cps, z, weights)
    lead = np.sort(cps.split(z)[1][:, 0])
    full, probed = [], []

    def strip(lat, box):
        dz, p = lattice_points_in_box(lat, box)
        dz_lead = p[:, cps.d]
        full.append(np.sum(np.searchsorted(lead, lead[-1] - dz_lead, side="right")
                           - np.searchsorted(lead, lead[0] - dz_lead, side="left")))
        return dz, p

    find = comb.ref_index.find
    monkeypatch.setattr(almost, "lattice_points_in_box", strip)
    monkeypatch.setattr(comb.ref_index, "find", lambda rows: probed.append(len(rows)) or find(rows))
    _difference_candidates(cps, comb, 50)
    assert comb.n_atoms == 800
    assert sum(probed) < 0.05 * sum(full)


def _unmatched_shifts(cps):
    """Lattice points near t = 0 whose internal part is far outside W - W: they map no atom."""
    box = Box.product(Box(np.full(cps.d, -4.0), np.full(cps.d, 4.0)),
                      Box(np.full(cps.m, 5.0), np.full(cps.m, 9.0)))
    return lattice_points_in_box(cps.lat, box)[0][:4]


@settings(max_examples=30)
@given(st.sampled_from(sorted(SCHEMES)), st.floats(-3000.0, 3000.0), st.floats(0.6, 1.0),
       st.integers(0, 60), st.integers(0, 4), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_translate_scan_matches_grouped_merge(name, offset, scale, max_cands, block, eps, seed):
    cps, z, weights = _scheme_patch(name, offset, scale, weights_seed=seed)
    comb = model_comb(cps, z, weights)
    far = _unmatched_shifts(cps)
    assert len(far)
    # t = 0 maps every atom, the far shifts map none
    shifts = np.concatenate([_difference_candidates(cps, comb, max_cands)[1], far,
                             np.zeros((1, cps.lat.n), np.int64)])
    cands = cps.split(shifts)[0]
    a_box = Box(np.zeros(cps.d), np.full(cps.d, 0.5 if name == "ab" else 1.0))
    want = grouped_almost_period_scan(comb, a_box, eps, cands, shifts)
    # the default single block; one shift per block (a chunk below N rows); 2, 3 and 7 per block
    rows = [None, 1, 2 * len(z), 3 * len(z) + 1, 7 * len(z)][block]
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(almost, "_LOOKUP_CHUNK", rows)
        got = eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts)
    assert_same_scan(got, want)
    assert len(got.norms) == len(got.accepted) == len(cands)


@settings(max_examples=40, deadline=None)
@given(random_schemes().filter(lambda scheme: scheme[0] == 2), st.floats(1.0, 2.5),
       st.integers(0, 30), st.floats(0.5, 6.0))
def test_d2_scan_matches_grouped_merge_with_dense_norms(scheme, grow, max_cands, eps):
    # the oracle merges each translate by grouping rows and counts every window with one
    # boolean mask per face event, so it shares neither the merged codes nor the table; the
    # patch grows so that windows of a twentieth of its span hold a few atoms
    d, m, basis, window, (lo, hi) = scheme
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    window = Window([Box(w_lo, w_hi) for w_lo, w_hi in window])
    z = model_set(cps, window, Box(lo, lo + grow * (hi - lo)))
    assume(len(z) > 1)
    comb = model_comb(cps, z, np.ones(len(z)))
    assume((comb.extent.sides > 0).all())
    cands, shifts = integer_difference_candidates(cps, comb.positions, comb.refs, max_cands)
    a_box = Box(np.zeros(d), comb.extent.sides / 20.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "a_norm", dense_a_norm)
        want = grouped_almost_period_scan(comb, a_box, eps, cands, shifts)
    assert not np.isnan(want.norms).all()
    assert_same_scan(eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts), want)


@settings(max_examples=30)
@given(st.sampled_from(sorted(SCHEMES)), st.floats(-3000.0, 3000.0), st.floats(0.6, 1.0),
       st.integers(0, 60), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_scan_does_not_depend_on_atom_order(name, offset, scale, max_cands, eps, seed):
    # d = 1 sums each window in position order, so any masses keep their bits; d >= 2 sums
    # its table in index order, which integer masses make exact
    cps, z, weights = _scheme_patch(name, offset, scale, weights_seed=seed)
    if name == "ab":
        weights = weights.real
    comb = model_comb(cps, z, weights)
    perm = np.random.default_rng(seed).permutation(len(z))
    shuffled = model_comb(cps, z[perm], weights[perm])
    cands, shifts = _difference_candidates(cps, comb, max_cands)
    a_box = Box(np.zeros(cps.d), np.full(cps.d, 0.5 if name == "ab" else 1.0))
    assert_same_scan(eps_norm_almost_periods(shuffled, a_box, eps, cands, shifts=shifts),
                     eps_norm_almost_periods(comb, a_box, eps, cands, shifts=shifts))


@pytest.mark.parametrize("rows", [None, 1, 2 * 201 + 1])
def test_scan_blocks_with_cancelling_unmatched_and_outside_candidates(fib, rows):
    # a periodic comb on 0, 1, ..., 200: t = 0 cancels every atom, the far shifts meet
    # none, and t = 1, 2 leave live atoms only outside the overlap, so their norm is 0.0;
    # blocks of all candidates, of one (a chunk below N rows) and of two
    z = np.column_stack([np.arange(201), np.zeros(201, np.int64)])
    comb = model_comb(fib, z, np.full(201, 0.3 - 1.7j))
    shifts = np.concatenate([np.zeros((1, 2), np.int64), _unmatched_shifts(fib), [[1, 0], [2, 0]]])
    cands = fib.split(shifts)[0]
    a_box = Box([0.0], [1.0])
    want = grouped_almost_period_scan(comb, a_box, 0.5, cands, shifts)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(almost, "_LOOKUP_CHUNK", rows)
        exact = eps_norm_almost_periods(comb, a_box, 0.5, cands, shifts=shifts)
    assert_same_scan(exact, want)
    assert exact.norms[[0, -2, -1]].tolist() == [0.0, 0.0, 0.0]
    assert (exact.norms[1:-2] > 0).all()


def test_shift_that_does_not_match_its_translation_raises(fib, fib_window):
    comb = fib_patch(fib, fib_window, hi=200.0)
    cands, shifts = _difference_candidates(fib, comb, 5)
    assert np.array_equal(cands[1:2], fib.split(shifts[1:2])[0])
    with pytest.raises(ValueError, match="does not translate"):
        eps_norm_almost_periods(comb, Box([0.0], [1.0]), 1.0, cands[1:2], shifts=shifts[2:3])
    # d = 2: the translate misses by more than MERGE_TOL on the second axis only
    z = np.stack(np.meshgrid(np.arange(20), np.arange(20), indexing="ij"), axis=-1).reshape(-1, 2)
    grid = WeightedComb(z.astype(float), np.ones(len(z)), refs=z)
    with pytest.raises(ValueError, match="does not translate"):
        eps_norm_almost_periods(grid, Box([0.0, 0.0], [1.0, 1.0]), 1.0, [[1.0, 1.0 + 2 * MERGE_TOL]],
                                shifts=[[1, 1]])


def test_shifts_need_refs_and_one_row_per_candidate(fib, fib_window):
    comb = fib_patch(fib, fib_window, hi=200.0)
    cands, shifts = _difference_candidates(fib, comb, 5)
    bare = WeightedComb(comb.positions, comb.weights)
    with pytest.raises(ValueError, match="integer coordinates"):
        eps_norm_almost_periods(bare, Box([0.0], [1.0]), 1.0, cands, shifts=shifts)
    with pytest.raises(ValueError, match="one integer row per candidate"):
        eps_norm_almost_periods(comb, Box([0.0], [1.0]), 1.0, cands, shifts=shifts[1:])


def test_scan_input_checks(fib, fib_window):
    comb, box = fib_patch(fib, fib_window, hi=200.0), Box([0.0], [1.0])
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps must be positive"):
            eps_norm_almost_periods(comb, box, eps, [[0.0]], [[0, 0]])
    with pytest.raises(ValueError, match="candidate translations must match the comb dimension"):
        eps_norm_almost_periods(comb, box, 1.0, [[0.0, 1.0]], [[0, 0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="candidate translations must be finite"):
            eps_norm_almost_periods(comb, box, 1.0, [[0.0], [bad]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="cannot scan an empty comb"):
        eps_norm_almost_periods(WeightedComb(np.zeros((0, 1)), np.zeros(0)), box, 1.0, [[0.0]],
                                [[0, 0]])


# ---------------------------------------------------------------------------
# autocorrelation


def test_autocorrelation_needs_refs():
    with pytest.raises(ValueError, match="model_comb, strip_comb or lift"):
        autocorrelation_patch(WeightedComb([[0.0], [1.0]], [1.0, 1.0]), Box([0.0], [2.0]))


def test_autocorrelation_single_atom():
    comb = WeightedComb([[1.0]], [1.0], refs=[[1]])
    ac = autocorrelation_patch(comb, Box([0.0], [4.0]))
    assert ac.n_atoms == 1
    assert ac.weights[0] == pytest.approx(0.25)


def test_autocorrelation_integer_patch_weights():
    n = 20
    z = np.arange(n + 1)[:, None]
    comb = WeightedComb(z, np.ones(n + 1), refs=z)
    ac = autocorrelation_patch(comb, Box([0.0], [float(n)]))
    for k in range(n + 1):
        idx = int(np.argmin(np.abs(ac.positions[:, 0] - k)))
        assert ac.weights[idx].real == pytest.approx((n + 1 - k) / n, abs=1e-12)


def test_autocorrelation_hermitian_exact():
    rng = np.random.default_rng(9)
    z = np.sort(rng.choice(200, size=30, replace=False))[:, None]
    w = rng.normal(size=30) + 1j * rng.normal(size=30)
    ac = autocorrelation_patch(WeightedComb(z / 8.0, w, refs=z), Box([0.0], [25.0]))
    lookup = {tuple(p): v for p, v in zip(ac.positions, ac.weights)}
    for p, v in lookup.items():
        assert lookup[tuple(-np.asarray(p))] == np.conj(v)


def test_autocorrelation_2x2_refs_unique_and_hermitian():
    # Ammann-Beenker 2+2 scheme: many differences have physical first
    # coordinate exactly 0, which floats render as +-1e-16; the side of each
    # difference must come from its integer coordinates
    c = np.sqrt(0.5)
    cps = CutProjectScheme(lat=Lattice([[1, c, 0, -c], [0, c, 1, c], [1, -c, 0, c], [0, c, -1, c]]),
                           d=2)
    window = Window(Box([-1.0, -1.0], [1.0, 1.0]))
    z = model_set(cps, window, Box([0.0, 0.0], [6.0, 6.0]))
    rng = np.random.default_rng(0)
    comb = model_comb(cps, z, rng.normal(size=len(z)) + 1j * rng.normal(size=len(z)))
    ac = autocorrelation_patch(comb, Box(comb.extent.lo - 1.0, comb.extent.hi + 1.0))
    assert len(np.unique(ac.refs, axis=0)) == ac.n_atoms
    _check_hermitian(ac)
    diff_window = Window(Box([-2.0, -2.0], [2.0, 2.0]))
    _check_hermitian(lift(cps, ac, diff_window))


def _one_box_scheme(basis, w_lo, w_hi, patch_hi):
    """A d = m = 1 draw of ``random_schemes``: window [w_lo, w_hi], patch [0, patch_hi]."""
    return (1, 1, np.array(basis), [(np.array([w_lo]), np.array([w_hi]))],
            (np.array([0.0]), np.array([patch_hi])))


@settings(max_examples=60, deadline=None)
@given(random_schemes(), st.integers(1, 30))
# x* = 5e-10 sits inside the window's low face 1e-9 by BOUNDARY_TOL: a count that shifts
# the faces by (x, x*) rounds 1e-9 + 5e-10 - BOUNDARY_TOL above 5e-10 and misses it
@example(_one_box_scheme([[1.5, 0.0], [5e-10, 1.0]], 1e-9, 0.5, 2.0), 1)
@example(_one_box_scheme([[1.0, 0.0], [5e-10, 1.0]], 1e-9, 1.0, 2.0), 1)
def test_autocorrelation_counts_match_the_lift(scheme, size):
    # vol * gamma(x) of a unit-weight patch counts the pairs (y, y - x) in it, which the
    # lift turns into one count of lattice points per (x, x*); the first window box is the
    # window, and the patch shrinks to about `size` points
    d, m, basis, window, (lo, hi) = scheme
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    w = Box(*window[0])
    expected = np.prod(hi - lo) * w.volume / abs(np.linalg.det(basis))
    patch = Box(lo, lo + (hi - lo) * min(1.0, size / expected) ** (1.0 / d))
    z = model_set(cps, Window(w), patch)
    assume(len(z))
    gamma = autocorrelation_patch(model_comb(cps, z, np.ones(len(z))), patch)
    counts = lifted_autocorrelation_counts(cps, w, patch)
    assert set(map(tuple, gamma.refs.tolist())) == {dz for dz, count in counts.items() if count}
    scaled = patch.volume * gamma.weights
    assert np.abs(scaled.imag).max() == 0.0
    assert np.round(scaled.real).tolist() == [counts[dz] for dz in map(tuple, gamma.refs.tolist())]


def test_autocorrelation_zero_volume_region():
    with pytest.raises(ValueError, match="zero-volume"):
        autocorrelation_patch(WeightedComb([[0.0]], [1.0], refs=[[0]]), Box([0.0], [0.0]))


def test_autocorrelation_rejects_a_region_of_another_dimension():
    # a 1-D comb must not be divided by the volume of a 2-D region
    comb = WeightedComb([[0.0], [1.0]], [1.0, 1.0], refs=[[0], [1]])
    with pytest.raises(ValueError, match="width"):
        autocorrelation_patch(comb, Box([0.0, 0.0], [2.0, 5.0]))


def test_autocorrelation_rejects_atoms_outside_the_region():
    comb = WeightedComb([[0.0], [3.0]], [1.0, 1.0], refs=[[0], [3]])
    with pytest.raises(ValueError, match="comb atoms must lie inside the region"):
        autocorrelation_patch(comb, Box([0.0], [2.0]))


@pytest.mark.parametrize("dim", [1, 3])
def test_autocorrelation_of_an_empty_comb_is_empty(dim):
    ac = autocorrelation_patch(WeightedComb(np.zeros((0, dim)), np.zeros(0), refs=np.zeros((0, dim))),
                               Box(np.zeros(dim), np.ones(dim)))
    assert ac.n_atoms == 0 and ac.dim == dim


def test_autocorrelation_of_an_empty_comb_keeps_its_coordinates(fib):
    # every other branch returns refs when the comb has them, and so does the empty one
    ac = autocorrelation_patch(model_comb(fib, np.zeros((0, 2), np.int64), []), Box([0.0], [10.0]))
    assert ac.n_atoms == 0 and ac.refs is not None
    assert ac.refs.shape == (0, 2) and ac.refs.dtype == np.int64


def test_model_comb_rejects_refs_of_another_width(fib):
    # refs of the wrong width would disagree with the positions computed from them
    with pytest.raises(ValueError, match="length 2"):
        model_comb(fib, [[1, 2, 3]], [1.0])


def test_autocorrelation_is_positive_definite(fib, fib_window):
    rng = np.random.default_rng(21)
    comb = fib_patch(fib, fib_window, hi=40.0, rng=rng)
    ac = autocorrelation_patch(comb, Box([-1.0], [41.0]))
    idx = rng.choice(comb.n_atoms, size=min(30, comb.n_atoms), replace=False)
    (min_eig,), (ok,), _ = _min_eig(gram_matrix(ac, comb.positions[idx], comb.refs[idx])[None])
    assert ok
    assert min_eig >= -1e-8


def test_a_norm_3d_small():
    rng = np.random.default_rng(17)
    pos = np.unique(rng.choice(40, size=(12, 3), replace=True) / 8.0, axis=0)
    # the heavy corners of a unit cube fit a unit box only with every face
    # closed; light atoms sit on a quarter grid, some on the region's faces
    corners = 2.0 + np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    light = np.concatenate([rng.choice(21, size=(14, 3), replace=True) / 4.0,
                            [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [4.0, 0.0, 5.0]]])
    light = light[~(light[:, None, :] == corners[None, :, :]).all(axis=2).any(axis=1)]
    faces = np.concatenate([corners, np.unique(light, axis=0)])
    face_weights = np.concatenate([np.ones(8), rng.uniform(0.05, 0.2, len(faces) - 8)])
    region = Box([0.0, 0.0, 0.0], [5.0, 5.0, 5.0])
    cases = ((pos, rng.uniform(0.5, 2.0, len(pos)), 1.3), (faces, face_weights, 1.0))
    for points, weights, side in cases:
        comb = WeightedComb(points, weights)
        box = Box([0.0, 0.0, 0.0], [side, side, side])
        assert a_norm(comb, box, region) == anchor_a_norm(comb, box, region)


@st.composite
def dyadic_a_norm_cases(draw):
    """A d = 2 or 3 comb on a quarter grid, a window box and a region, as lists."""
    d = draw(st.integers(2, 3))
    cell = st.lists(st.integers(0, 12 if d == 2 else 6), min_size=d, max_size=d)
    pos = np.unique(np.array(draw(st.lists(cell, min_size=1, max_size=40)), float), axis=0) / 4.0
    if draw(st.booleans()):
        mass = st.integers(-3, 3).filter(bool).map(float)
    else:
        mass = st.sampled_from([0.1, 0.2, 0.3, -0.7]) | st.floats(0.05, 4.0)
    weights = draw(st.lists(mass, min_size=len(pos), max_size=len(pos)))
    side, lo, extra = (np.array(draw(st.lists(st.integers(a, b), min_size=d, max_size=d))) / 4.0
                       for a, b in ((1, 8), (-2, 4), (0, 8)))
    return pos.tolist(), weights, side.tolist(), lo.tolist(), (lo + side + extra).tolist()


@settings(max_examples=150, deadline=None)
@given(dyadic_a_norm_cases())
# windows {0.4, 0.2} and {0.6} both hold 0.6 and sum to 0.6 + 1 ulp and 0.6,
# but the table reads them as 1.0 - 0.4 = 0.6 and 1.6 - 1.0 = 0.6 + 1 ulp
@example(([[0, 0], [3, 0], [4, 0], [7, 1]], [0.4, 0.4, 0.2, 0.6], [2, 1], [0, 0], [8, 1]))
# the largest table entry is a window that sums to 0.7999999999999999, and the window that
# sums to 0.8 reads below it: only the re-sum slack sums both again
@example(([[0.0, 2.0], [0.75, 0.5], [0.75, 0.75], [0.75, 1.0], [1.5, 0.0], [1.5, 1.25], [1.5, 1.75],
           [1.75, 0.75]], [0.3, 0.2, 0.6, 0.2, 0.2, 0.1, 0.05, 0.7], [0.5, 0.5], [0.25, 0.75], [2.25, 2.0]))
def test_a_norm_summed_area_table_matches_oracles(case):
    # coordinates repeat on every axis and atoms sit exactly on box and region
    # faces; float masses that tie in exact arithmetic need the re-summed windows
    pos, weights, side, lo, hi = case
    comb, box, region = WeightedComb(pos, weights), Box(np.zeros(len(side)), side), Box(lo, hi)
    value = a_norm(comb, box, region)
    assert value == anchor_a_norm(comb, box, region)
    if all(float(w).is_integer() for w in weights):
        assert value == dense_a_norm(comb, box, region)
