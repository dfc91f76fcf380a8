import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutproject import (
    Box,
    WeightedComb,
    Window,
    autocorrelation_patch,
    gram_matrix,
    gram_min_eigenvalue,
    lift_pd_crosscheck,
    model_comb,
    model_set,
    restriction_check,
)
from cutproject.lattice import _RowIndex
from cutproject.posdef import _check_hermitian

from .helpers import grouped_lookup


def random_autocorrelation(fib, fib_window, rng, hi=40.0):
    z = model_set(fib, fib_window, Box([0.0], [hi]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    comb = model_comb(fib, z, w)
    return comb, autocorrelation_patch(comb, Box([-1.0], [hi + 1.0]))


def flip_zero_weight(comb: WeightedComb) -> WeightedComb:
    """Negate the central weight; the trace argument then forces a negative
    eigenvalue on every nonempty configuration."""
    idx = int(np.argmin(np.linalg.norm(comb.positions, axis=1)))
    w = comb.weights.copy()
    w[idx] = -w[idx]
    return WeightedComb(comb.positions, w, refs=comb.refs, validate=False)


def test_delta_at_origin_gives_identity():
    f = WeightedComb([[0.0]], [1.0])
    points = np.array([[0.0], [1.3], [2.9], [4.1]])
    m = gram_matrix(f, points)
    assert np.array_equal(m, np.eye(4))
    report = gram_min_eigenvalue(f, points)
    assert report.min_eig == pytest.approx(1.0)
    assert report.ok


def test_gram_lookup_matches_in_sup_norm():
    # x0 - x1 = (-1 - 0.9e-9, -0.9e-9): sup distance 0.9e-9 from the atom at
    # (-1, 0) is within MERGE_TOL, though the Euclidean distance 1.27e-9 is not
    f = WeightedComb([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], [2.0, 0.5, 0.5])
    m = gram_matrix(f, [[0.0, 0.0], [1.0 + 0.9e-9, 0.9e-9]])
    assert np.array_equal(m, [[2.0, 0.5], [0.5, 2.0]])


def test_known_indefinite_two_point_matrix():
    # f(0) = 0, f(+-x0) = 1: matrix [[0, 1], [1, 0]] has eigenvalues -1, 1
    f = WeightedComb([[1.0], [-1.0], [0.0]], [1.0, 1.0, 0.0])
    report = gram_min_eigenvalue(f, [[0.0], [1.0]])
    assert report.min_eig == pytest.approx(-1.0)
    assert not report.ok


def test_autocorrelation_is_psd(fib, fib_window):
    rng = np.random.default_rng(101)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    idx = rng.choice(comb.n_atoms, size=min(50, comb.n_atoms), replace=False)
    report = gram_min_eigenvalue(ac, comb.positions[idx])
    assert report.ok
    assert report.min_eig >= -1e-8


def test_non_hermitian_rejected():
    f = WeightedComb([[1.0], [-1.0]], [1.0, 0.5])
    with pytest.raises(ValueError, match="not Hermitian"):
        gram_min_eigenvalue(f, [[0.0], [1.0]])


def test_hermitian_check_warns_within_its_tolerance():
    # a mirror weight off by more than 1e-9 but at most HERMITIAN_TOL warns; beyond it, raises
    near = WeightedComb([[-1.0], [0.0], [1.0]], [1.0 + 1e-8, 2.0, 1.0])
    with pytest.warns(UserWarning, match="approximately Hermitian"):
        _check_hermitian(near)
    far = WeightedComb([[-1.0], [0.0], [1.0]], [1.0 + 1e-5, 2.0, 1.0])
    with pytest.raises(ValueError, match="not Hermitian"):
        _check_hermitian(far)


def test_hermitian_check_needs_every_mirror_ref(fib, fib_window):
    rng = np.random.default_rng(23)
    _, ac = random_autocorrelation(fib, fib_window, rng, hi=20.0)
    _check_hermitian(ac)
    drop = int(np.argmax(np.where(ac.refs.any(axis=1), np.abs(ac.weights), 0.0)))
    keep = np.arange(ac.n_atoms) != drop
    broken = WeightedComb(ac.positions[keep], ac.weights[keep], refs=ac.refs[keep])
    with pytest.raises(ValueError, match="not Hermitian"):
        _check_hermitian(broken)


def test_lookup_with_refs_ignores_positions(fib, fib_window):
    # atoms are matched on integer coordinates, so positions moved far beyond
    # the lookup tolerance change neither the check nor the matrix
    rng = np.random.default_rng(29)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    moved = WeightedComb(ac.positions + 1e-6, ac.weights, refs=ac.refs)
    idx = rng.choice(comb.n_atoms, size=12, replace=False)
    expected = gram_matrix(ac, comb.positions[idx], refs=comb.refs[idx])
    assert np.array_equal(gram_matrix(moved, comb.positions[idx], refs=comb.refs[idx]), expected)
    assert not np.array_equal(gram_matrix(moved, comb.positions[idx]), expected)


def test_eigen_budget():
    f = WeightedComb([[0.0]], [1.0])
    with pytest.raises(ValueError, match="budget"):
        gram_min_eigenvalue(f, np.linspace(0, 1, 501)[:, None])


def test_gram_matrix_hermitian_and_residual(fib, fib_window):
    rng = np.random.default_rng(7)
    comb, ac = random_autocorrelation(fib, fib_window, rng, hi=80.0)
    idx = rng.choice(comb.n_atoms, size=30, replace=False)
    m = gram_matrix(ac, comb.positions[idx])
    assert np.array_equal(m, np.conj(m.T))
    vals, vecs = np.linalg.eigh(m)
    for j in (0, len(vals) - 1):
        residual = np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
        assert residual <= 1e-8 * np.linalg.norm(m, 2)


def test_refs_lookup_matches_position_lookup(fib, fib_window):
    rng = np.random.default_rng(15)
    comb, ac = random_autocorrelation(fib, fib_window, rng, hi=50.0)
    idx = rng.choice(comb.n_atoms, size=20, replace=False)
    m_pos = gram_matrix(ac, comb.positions[idx])
    m_ref = gram_matrix(ac, comb.positions[idx], refs=comb.refs[idx])
    assert np.max(np.abs(m_pos - m_ref)) < 1e-12


def test_extension_by_zero_block_structure():
    # configuration mixing lattice points and far off-lattice points: the
    # cross entries vanish, so the matrix splits into blocks
    f = WeightedComb([[0.0], [1.0], [-1.0]], [2.0, 1.0, 1.0])
    pts = np.array([[0.0], [1.0], [0.31], [1.31]])
    m = gram_matrix(f, pts)
    assert m[0, 2] == 0 and m[0, 3] == 0 and m[1, 2] == 0 and m[1, 3] == 0
    assert m[2, 3] != 0 or m[2, 2] != 0


def test_restriction_check_pd_function(fib, fib_window):
    rng = np.random.default_rng(23)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    report = restriction_check(ac, comb.positions, trials=20, seed=5, config_size=25)
    assert report.ok
    assert np.all(report.min_eigs >= -1e-6)


def test_restriction_check_flags_non_pd(fib, fib_window):
    rng = np.random.default_rng(29)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    bad = flip_zero_weight(ac)
    report = restriction_check(bad, comb.positions, trials=5, seed=5, config_size=25)
    assert not report.ok


def test_restriction_check_checks_hermitian_once_per_comb(fib, fib_window, monkeypatch):
    from cutproject import posdef

    rng = np.random.default_rng(23)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    checked = []
    check = posdef._check_hermitian
    monkeypatch.setattr(posdef, "_check_hermitian", lambda f: (checked.append(f.dim), check(f)))
    report = restriction_check(ac, comb.positions, trials=20, seed=5, config_size=25)
    assert report.ok and checked == [1]
    w = ac.weights.copy()
    w[int(np.argmax(np.linalg.norm(ac.positions, axis=1)))] += 1.0
    bad = WeightedComb(ac.positions, w, refs=ac.refs, validate=False)
    with pytest.raises(ValueError, match="not Hermitian"):
        restriction_check(bad, comb.positions, trials=20, seed=5, config_size=25)


def test_crosscheck_pd_both_sides(fib):
    rng = np.random.default_rng(31)
    window = Window(Box([-1.0], [1.0]))  # differences live in W - W
    base = Window(Box([0.0], [1.0]))
    z = model_set(fib, base, Box([0.0], [30.0]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    gamma = autocorrelation_patch(model_comb(fib, z, w), Box([-1.0], [31.0]))
    report = lift_pd_crosscheck(fib, gamma, window, trials=10, seed=3)
    assert report.entrywise_equal
    assert report.down_ok and report.up_ok
    assert np.array_equal(report.min_eigs_down, report.min_eigs_up)


def test_crosscheck_corrupted_fails_on_both_sides(fib):
    rng = np.random.default_rng(37)
    window = Window(Box([-1.0], [1.0]))
    base = Window(Box([0.0], [1.0]))
    z = model_set(fib, base, Box([0.0], [30.0]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    gamma = flip_zero_weight(autocorrelation_patch(model_comb(fib, z, w), Box([-1.0], [31.0])))
    report = lift_pd_crosscheck(fib, gamma, window, trials=10, seed=3)
    assert report.entrywise_equal
    assert not report.down_ok and not report.up_ok


def test_crosscheck_sign_flip_pair_detected(fib):
    # flip one +-t weight pair and probe it with a chain configuration
    base = Window(Box([0.0], [1.0]))
    z = model_set(fib, base, Box([0.0], [60.0]))
    gamma = autocorrelation_patch(model_comb(fib, z, np.ones(len(z))), Box([-1.0], [61.0]))
    mags = np.abs(gamma.weights)
    away = np.linalg.norm(gamma.positions, axis=1) > 1e-9
    target = int(np.arange(gamma.n_atoms)[away][np.argmax(mags[away])])
    w = gamma.weights.copy()
    pos_t = gamma.positions[target]
    mirror = int(np.argmin(np.linalg.norm(gamma.positions + pos_t, axis=1)))
    w[target] = -w[target]
    w[mirror] = -w[mirror]
    bad = WeightedComb(gamma.positions, w, refs=gamma.refs, validate=False)
    report = gram_min_eigenvalue(bad, gamma.positions[np.abs(gamma.weights) > 0.2 * mags.max()][:40])
    assert not report.ok


def test_crosscheck_checks_hermitian_once_per_comb(fib, monkeypatch):
    from cutproject import posdef

    base = Window(Box([0.0], [1.0]))
    window = Window(Box([-1.0], [1.0]))
    z = model_set(fib, base, Box([0.0], [30.0]))
    gamma = autocorrelation_patch(model_comb(fib, z, np.ones(len(z))), Box([-1.0], [31.0]))
    checked = []
    check = posdef._check_hermitian
    monkeypatch.setattr(posdef, "_check_hermitian", lambda f: (checked.append(f.dim), check(f)))
    lift_pd_crosscheck(fib, gamma, window, trials=10, seed=3)
    assert checked == [1]  # the comb only: the lifted matrix is read off the comb's lookup
    w = gamma.weights.copy()
    w[int(np.argmax(np.linalg.norm(gamma.positions, axis=1)))] += 1.0
    bad = WeightedComb(gamma.positions, w, refs=gamma.refs, validate=False)
    with pytest.raises(ValueError, match="not Hermitian"):
        lift_pd_crosscheck(fib, bad, window, trials=10, seed=3)


def _crosscheck_gamma(fib):
    rng = np.random.default_rng(31)
    z = model_set(fib, Window(Box([0.0], [1.0])), Box([0.0], [30.0]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    return autocorrelation_patch(model_comb(fib, z, w), Box([-1.0], [31.0]))


def test_crosscheck_reuses_the_eigensolve_of_equal_matrices(fib, monkeypatch):
    from cutproject import posdef

    solved = []
    min_eig = posdef._min_eig
    monkeypatch.setattr(posdef, "_min_eig", lambda m: (solved.append(len(m)), min_eig(m))[1])
    report = lift_pd_crosscheck(fib, _crosscheck_gamma(fib), Window(Box([-1.0], [1.0])),
                                trials=10, seed=3)
    assert report.entrywise_equal and sum(solved) == 10  # matrices solved, over all stacks
    assert report.min_eigs_up.tobytes() == report.min_eigs_down.tobytes()


def test_crosscheck_solves_a_differing_lifted_matrix(fib, monkeypatch):
    from cutproject import posdef

    lift, min_eig = posdef.lift, posdef._min_eig
    solved = []

    def heavier_origin(cps, gamma, window):
        # 2 more weight on eta's origin atom: every lifted matrix is m_down + 2I
        eta = lift(cps, gamma, window)
        w = eta.weights + 2.0 * ~eta.refs.any(axis=1)
        return WeightedComb(eta.positions, w, refs=eta.refs, validate=False)

    monkeypatch.setattr(posdef, "lift", heavier_origin)
    monkeypatch.setattr(posdef, "_min_eig", lambda m: (solved.append(m), min_eig(m))[1])
    report = lift_pd_crosscheck(fib, _crosscheck_gamma(fib), Window(Box([-1.0], [1.0])),
                                trials=10, seed=3)
    downs, ups = solved[0::2], solved[1::2]  # one block: its downstairs stack, then the lifted one
    assert not report.entrywise_equal and sum(map(len, solved)) == 20  # matrices solved
    assert all(np.array_equal(up, down + 2.0 * np.eye(down.shape[-1])) for down, up in zip(downs, ups))
    assert report.min_eigs_up.tolist() == np.concatenate([min_eig(m)[0] for m in ups]).tolist()
    assert report.min_eigs_up == pytest.approx(report.min_eigs_down + 2.0, abs=1e-9)
    assert report.down_ok and report.up_ok


def test_crosscheck_looks_gamma_up_once_per_block(fib, monkeypatch):
    # 30 trials of 40 points run as blocks of 12, 12 and 6: one lookup each, plus the
    # Hermitian check's, all on gamma; eta is never looked up
    gamma, found = _crosscheck_gamma(fib), []
    find = WeightedComb.find
    monkeypatch.setattr(WeightedComb, "find", lambda f, *a: (found.append(f), find(f, *a))[1])
    report = lift_pd_crosscheck(fib, gamma, Window(Box([-1.0], [1.0])), trials=30, seed=3)
    assert report.entrywise_equal and len(found) == 1 + 3
    assert all(f is gamma for f in found)


def test_crosscheck_empty_comb(fib):
    window = Window(Box([-1.0], [1.0]))
    gamma = WeightedComb(np.zeros((0, 1)), np.zeros(0))
    report = lift_pd_crosscheck(fib, gamma, window, trials=3, seed=1)
    assert report.down_ok and report.up_ok


def test_trial_blocks_match_one_trial_at_a_time(fib, fib_window):
    # 30 trials of 25 points run as blocks of 20 and 10; each trial still gets
    # the index set of the same rng.choice call and the same eigenvalue
    rng = np.random.default_rng(23)
    comb, ac = random_autocorrelation(fib, fib_window, rng, hi=80.0)
    assert comb.n_atoms > 25
    report = restriction_check(ac, comb.positions, trials=30, seed=5, config_size=25, refs=comb.refs)
    draws = np.random.default_rng(5)
    want = []
    for _ in range(30):
        idx = draws.choice(comb.n_atoms, size=25, replace=False)
        want.append(gram_min_eigenvalue(ac, comb.positions[idx], refs=comb.refs[idx]).min_eig)
    assert report.min_eigs.tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError, match="budget"):
        restriction_check(ac, np.linspace(0, 1, 501)[:, None], trials=2, seed=5, config_size=501)


def test_crosscheck_memory_does_not_grow_with_trials(fib):
    # blocks of MAX_GRAM_POINTS // 40 trials: beyond the two eigenvalue
    # arrays (16 bytes a trial), 2,000 trials peak where 24 do
    gamma, window = _crosscheck_gamma(fib), Window(Box([-1.0], [1.0]))
    peaks = []
    for trials in (24, 2000):
        tracemalloc.start()
        try:
            lift_pd_crosscheck(fib, gamma, window, trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2000 * 16 + 64 * 1024


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 60), st.sampled_from([3, 40, 2**40]))
def test_sorted_ref_lookup_matches_grouped_lookup(seed, cols, n_keys, reach):
    # small reaches repeat keys (the lowest index wins); 2**40 in two or more
    # columns overflows the radix key and takes the grouped fallback
    rng = np.random.default_rng(seed)
    keys = rng.integers(-reach, reach + 1, size=(n_keys, cols))
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    edge = np.where(rng.random(size=(n_keys, cols)) < 0.5, lo - 1, hi + 1)  # just outside the span
    inside_one = np.where(rng.random(size=(n_keys, cols)) < 0.3, edge, keys)
    queries = np.concatenate([keys, -keys, edge, inside_one,
                              rng.integers(-2 * reach, 2 * reach + 1, size=(30, cols)), keys[:0]])
    assert np.array_equal(_RowIndex(keys).find(queries), grouped_lookup(keys, queries))
    assert np.array_equal(_RowIndex(keys).find(keys[:0]), np.zeros(0, dtype=np.int64))


def test_gram_lookup_matches_grouped_lookup(fib, fib_window):
    # sample points reach past the patch, so some differences miss every atom
    rng = np.random.default_rng(41)
    _, ac = random_autocorrelation(fib, fib_window, rng)
    z = model_set(fib, fib_window, Box([-30.0], [90.0]))
    refs = z[rng.choice(len(z), size=30, replace=False)]
    ii, jj = np.triu_indices(len(refs))
    found = grouped_lookup(ac.refs, refs[ii] - refs[jj])
    want = np.zeros((len(refs), len(refs)), dtype=complex)
    want[ii, jj] = np.append(ac.weights, 0)[found]
    want[jj, ii] = np.conj(want.T)[jj, ii]
    assert (found == ac.n_atoms).any() and (found < ac.n_atoms).any()
    points = fib.lat.points(refs)[:, :1]
    assert np.array_equal(gram_matrix(ac, points, refs=refs), want)
