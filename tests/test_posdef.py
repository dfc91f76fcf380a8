import tracemalloc
import warnings

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
    lift_pd_crosscheck,
    model_comb,
    model_set,
)
from cutproject.lattice import _RowIndex
from cutproject.posdef import _check_hermitian, _gram, _lower, _min_eig, _trial_blocks

from .helpers import crosscheck_trial_by_trial, grouped_lookup


def random_autocorrelation(fib, fib_window, rng, hi=40.0):
    z = model_set(fib, fib_window, Box([0.0], [hi]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    comb = model_comb(fib, z, w)
    return comb, autocorrelation_patch(comb, Box([-1.0], [hi + 1.0]))


def min_eigenvalue(f, points, refs):
    """(minimum eigenvalue, PSD verdict) of f's Gram matrix over the sample points."""
    (min_eig,), (ok,), _ = _min_eig(gram_matrix(f, points, refs)[None])
    return min_eig, ok


def flip_zero_weight(comb: WeightedComb) -> WeightedComb:
    """Negate the central weight; the trace argument then forces a negative
    eigenvalue on every nonempty configuration."""
    idx = int(np.argmin(np.linalg.norm(comb.positions, axis=1)))
    w = comb.weights.copy()
    w[idx] = -w[idx]
    return WeightedComb(comb.positions, w, refs=comb.refs, validate=False)


def test_delta_at_origin_gives_identity():
    # combs and points on the grid hZ carry refs = positions / h, here h = 0.1
    f = WeightedComb([[0.0]], [1.0], refs=[[0]])
    points, refs = np.array([[0.0], [1.3], [2.9], [4.1]]), [[0], [13], [29], [41]]
    m = gram_matrix(f, points, refs)
    assert np.array_equal(m, np.eye(4))
    min_eig, ok = min_eigenvalue(f, points, refs)
    assert min_eig == pytest.approx(1.0)
    assert ok


def test_gram_lookups_need_refs_on_the_comb():
    f = WeightedComb([[0.0], [1.0], [-1.0]], [2.0, 0.5, 0.5])
    with pytest.raises(ValueError, match="model_comb, strip_comb or lift"):
        gram_matrix(f, [[0.0], [1.0]], [[0], [1]])
    with_refs = WeightedComb(f.positions, f.weights, refs=[[0], [1], [-1]])
    with pytest.raises(ValueError, match="parallel the sample points"):
        gram_matrix(with_refs, [[0.0], [1.0]], [[0]])


def test_known_indefinite_two_point_matrix():
    # f(0) = 0, f(+-x0) = 1: matrix [[0, 1], [1, 0]] has eigenvalues -1, 1
    f = WeightedComb([[1.0], [-1.0], [0.0]], [1.0, 1.0, 0.0], refs=[[1], [-1], [0]])
    min_eig, ok = min_eigenvalue(f, [[0.0], [1.0]], [[0], [1]])
    assert min_eig == pytest.approx(-1.0)
    assert not ok


def test_autocorrelation_is_psd(fib, fib_window):
    rng = np.random.default_rng(101)
    comb, ac = random_autocorrelation(fib, fib_window, rng)
    idx = rng.choice(comb.n_atoms, size=min(50, comb.n_atoms), replace=False)
    min_eig, ok = min_eigenvalue(ac, comb.positions[idx], comb.refs[idx])
    assert ok
    assert min_eig >= -1e-8


def test_non_hermitian_rejected():
    f = WeightedComb([[1.0], [-1.0]], [1.0, 0.5], refs=[[1], [-1]])
    with pytest.raises(ValueError, match="not Hermitian"):
        gram_matrix(f, [[0.0], [1.0]], [[0], [1]])


def test_hermitian_check_warns_within_its_tolerance():
    # a mirror weight off by rounding passes silently; off by more than 1e-9 but at most
    # HERMITIAN_TOL (8e-7 among them) it warns; beyond it, raises
    def mirrored(off):
        return WeightedComb([[-1.0], [0.0], [1.0]], [1.0 + off, 2.0, 1.0], refs=[[-1], [0], [1]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_hermitian(mirrored(1e-12))
    for off in (1e-8, 8e-7):
        with pytest.warns(UserWarning, match="approximately Hermitian"):
            _check_hermitian(mirrored(off))
    with pytest.raises(ValueError, match="not Hermitian"):
        _check_hermitian(mirrored(1e-5))


@pytest.mark.parametrize("freq", [0.0, 0.3])
def test_rank_one_gram_matrices_pass_within_psd_tol(freq):
    # the character x -> exp(2 pi i freq x) on Z is positive definite, and its Gram matrix
    # on 40 integers has rank one: the solver puts its zero eigenvalues at about -3e-14
    # (both frequencies, numpy 2.4), which PSD_TOL absorbs
    ints = np.arange(-40, 41)[:, None]
    f = WeightedComb(ints, np.exp(2j * np.pi * freq * ints[:, 0]), refs=ints)
    min_eig, ok = min_eigenvalue(f, ints[40:80], ints[40:80])
    assert ok
    assert abs(min_eig) < 1e-12


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


def test_eigen_budget():
    f = WeightedComb([[0.0]], [1.0], refs=[[0]])
    with pytest.raises(ValueError, match="budget"):
        gram_matrix(f, np.linspace(0, 1, 501)[:, None], np.arange(501)[:, None])


def test_gram_matrix_hermitian_and_residual(fib, fib_window):
    rng = np.random.default_rng(7)
    comb, ac = random_autocorrelation(fib, fib_window, rng, hi=80.0)
    idx = rng.choice(comb.n_atoms, size=30, replace=False)
    m = gram_matrix(ac, comb.positions[idx], comb.refs[idx])
    assert np.array_equal(m, np.conj(m.T))
    vals, vecs = np.linalg.eigh(m)
    for j in (0, len(vals) - 1):
        residual = np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
        assert residual <= 1e-8 * np.linalg.norm(m, 2)


def test_extension_by_zero_block_structure():
    # configuration mixing lattice points and far off-lattice points: the
    # cross entries vanish, so the matrix splits into blocks
    f = WeightedComb([[0.0], [1.0], [-1.0]], [2.0, 1.0, 1.0], refs=[[0], [100], [-100]])
    pts = np.array([[0.0], [1.0], [0.31], [1.31]])
    m = gram_matrix(f, pts, [[0], [100], [31], [131]])
    assert m[0, 2] == 0 and m[0, 3] == 0 and m[1, 2] == 0 and m[1, 3] == 0
    assert m[2, 3] != 0 or m[2, 2] != 0


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
    heavy = np.abs(gamma.weights) > 0.2 * mags.max()
    _, ok = min_eigenvalue(bad, gamma.positions[heavy][:40], gamma.refs[heavy][:40])
    assert not ok


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


def _crosscheck_gamma(fib, hi=30.0):
    rng = np.random.default_rng(31)
    z = model_set(fib, Window(Box([0.0], [1.0])), Box([0.0], [hi]))
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    return autocorrelation_patch(model_comb(fib, z, w), Box([-1.0], [hi + 1.0]))


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
    find = _RowIndex.find
    monkeypatch.setattr(_RowIndex, "find", lambda index, rows: (found.append(index), find(index, rows))[1])
    report = lift_pd_crosscheck(fib, gamma, Window(Box([-1.0], [1.0])), trials=30, seed=3)
    assert report.entrywise_equal and len(found) == 1 + 3
    assert all(index is gamma.ref_index for index in found)


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
    blocks = list(_trial_blocks(5, comb.n_atoms, 25, 30))
    assert [(b.start, b.stop) for b, _ in blocks] == [(0, 20), (20, 30)]
    draws = np.random.default_rng(5)
    got, want = [], []
    for _, idx in blocks:
        got.extend(_min_eig(_lower(np.append(ac.weights, 0)[_gram(ac, comb.refs, idx)], 25))[0])
        for i in idx:
            assert np.array_equal(i, draws.choice(comb.n_atoms, size=25, replace=False))
            want.append(min_eigenvalue(ac, comb.positions[i], comb.refs[i])[0])
    assert np.array(got).tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError, match="budget"):
        gram_matrix(ac, np.linspace(0, 1, 501)[:, None], np.zeros((501, 2), np.int64))


def _moved_off_strip(lift, rows):
    """``lift`` with eta's atoms ``rows`` moved by +7 in every internal coordinate."""
    def moved(cps, gamma, window):
        eta = lift(cps, gamma, window)
        positions = eta.positions.copy()
        positions[rows, cps.d:] += 7.0
        return WeightedComb(positions, eta.weights, refs=eta.refs, validate=False)
    return moved


@pytest.mark.parametrize("case", ["refs", "floats", "off_strip", "zero_off_strip"])
def test_crosscheck_blocks_match_one_trial_at_a_time(fib, monkeypatch, case):
    # 30 trials of 40 points run as blocks of 12, 12 and 6; each trial's eigenvalues
    # have the bytes of one trial at a time, eta's read where eta sits in G x H
    from cutproject import posdef

    gamma, window = _crosscheck_gamma(fib), Window(Box([-1.0], [1.0]))
    if case == "floats":  # no refs: eta is lifted by the float route, and gamma looked up on its refs
        gamma = WeightedComb(gamma.positions, gamma.weights)
    elif case == "off_strip":  # the lift of test_pdcheck_fails_a_lift_off_the_strip
        monkeypatch.setattr(posdef, "lift", _moved_off_strip(posdef.lift, slice(None)))
    elif case == "zero_off_strip":
        # eta's atom at t, which no trial draws as a sample point, is off the strip: the
        # lifted entries at t fail the lift check, and gamma, 0 at +-t, equals them by value
        gamma = _crosscheck_gamma(fib, hi=200.0)
        draws = np.random.default_rng(3)
        drawn = np.concatenate([draws.choice(gamma.n_atoms, size=40, replace=False) for _ in range(30)])
        away = np.where(np.isin(np.arange(gamma.n_atoms), drawn), np.inf, np.abs(gamma.positions[:, 0]))
        t = int(np.argmin(away))
        monkeypatch.setattr(posdef, "lift", _moved_off_strip(posdef.lift, [t]))
        assert not lift_pd_crosscheck(fib, gamma, window, trials=30, seed=3).entrywise_equal
        mirror = (gamma.refs == gamma.refs[t]).all(axis=1) | (gamma.refs == -gamma.refs[t]).all(axis=1)
        gamma = WeightedComb(gamma.positions, np.where(mirror, 0, gamma.weights), refs=gamma.refs,
                             validate=False)
    report = lift_pd_crosscheck(fib, gamma, window, trials=30, seed=3)
    want = crosscheck_trial_by_trial(fib, gamma, window, trials=30, seed=3)
    assert report.min_eigs_down.tobytes() == want.min_eigs_down.tobytes()
    assert report.min_eigs_up.tobytes() == want.min_eigs_up.tobytes()
    verdicts = (report.down_ok, report.up_ok, report.entrywise_equal)
    assert verdicts == (want.down_ok, want.up_ok, want.entrywise_equal)
    assert verdicts == (True, True, case != "off_strip")


def test_eigvalsh_reads_only_the_lower_triangle():
    # the Gram stacks reach np.linalg.eigvalsh as lower triangles, zeros above the
    # diagonal: with its default UPLO='L' their eigenvalues are the full matrices' bytes
    rng = np.random.default_rng(43)
    a = rng.normal(size=(12, 40, 40)) + 1j * rng.normal(size=(12, 40, 40))
    full = a + np.conj(np.swapaxes(a, 1, 2))
    assert np.linalg.eigvalsh(np.tril(full)).tobytes() == np.linalg.eigvalsh(full).tobytes()


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
