"""Gram-matrix positive semidefiniteness checks for weight functions on point sets.

A finite comb is read as a function: the weight at an atom position, zero
elsewhere (extension by zero).  For sample points x_1..x_n the matrix
M[k][l] = f(x_k - x_l) is Hermitian whenever f is, and positive
semidefiniteness of every such matrix is what positive definiteness of f
means.  Restriction to a subgroup, extension by zero, and the lift to the
lattice strip all preserve these matrices entry by entry, which the
cross-check below turns into a finite-scale test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .comb import WeightedComb, lift
from .cps import CutProjectScheme, Window

PSD_TOL = 1e-8
HERMITIAN_TOL = 1e-6
MAX_GRAM_POINTS = 500  # sample points per eigensolve, and summed over a block of trials
CONFIG_SIZE = 40  # sample points per trial configuration


def _check_hermitian(f: WeightedComb) -> None:
    """Verify f(-t) = conj(f(t)) across the comb's atoms."""
    mirror = np.append(f.weights, 0)[f.find(-f.positions, -f.refs if f.refs is not None else None)]
    worst = float(np.max(np.abs(mirror - np.conj(f.weights)), initial=0.0))
    if worst > HERMITIAN_TOL:
        raise ValueError(f"not Hermitian: discrepancy {worst:.3e}")
    if worst > 1e-9:
        warnings.warn(f"weight function only approximately Hermitian ({worst:.3e})", stacklevel=3)


def gram_matrix(
    f: WeightedComb,
    points,
    refs=None,
) -> np.ndarray:
    """Hermitian matrix f(x_k - x_l) over the sample points.

    Only the upper triangle is looked up; the lower triangle is its conjugate
    mirror, so the matrix is Hermitian by construction.  With integer
    coordinates for both the comb and the points the lookup is exact;
    otherwise it matches positions within ``MERGE_TOL``.
    """
    _check_hermitian(f)
    refs = None if refs is None else np.atleast_2d(np.asarray(refs, dtype=np.int64))[None]
    return _gram(f, np.atleast_2d(np.asarray(points, dtype=float))[None], refs)[0]


def _gram(f: WeightedComb, points: np.ndarray, refs: np.ndarray | None) -> np.ndarray:
    """``gram_matrix`` of each sample set of a (trials, n, d) stack, f's symmetry already checked.

    All upper-triangle differences of the stack go to one lookup.
    """
    trials, n = points.shape[:2]
    if n > MAX_GRAM_POINTS:
        raise ValueError(f"too many sample points for the eigen budget ({n} > {MAX_GRAM_POINTS})")
    ii, jj = np.triu_indices(n)
    diffs = (points[:, ii] - points[:, jj]).reshape(-1, points.shape[2])
    ref_diffs = None if refs is None else (refs[:, ii] - refs[:, jj]).reshape(-1, refs.shape[2])
    vals = np.append(f.weights, 0)[f.find(diffs, ref_diffs)].reshape(trials, len(ii))
    m = np.zeros((trials, n, n), dtype=complex)
    m[:, ii, jj] = vals
    m[:, jj, ii] = np.conj(vals)
    return m


def _min_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(minimum eigenvalues, PSD verdicts, tolerances) of a (trials, n, n) stack of Gram matrices.

    A verdict is that the minimum eigenvalue clears -PSD_TOL scaled by the
    matrix max-norm, the tolerance double-precision eigensolves warrant at
    this size.  Empty matrices pass with the unscaled tolerance.
    """
    tol = PSD_TOL * np.maximum(1.0, np.abs(m).max(axis=(1, 2), initial=0.0))
    min_eig = np.linalg.eigvalsh(m)[:, 0] if m.shape[-1] else np.zeros(len(m))
    return min_eig, min_eig >= -tol, tol


@dataclass(frozen=True)
class GramReport:
    size: int
    min_eig: float
    ok: bool
    tol: float
    points: np.ndarray


def gram_min_eigenvalue(f: WeightedComb, points, refs=None) -> GramReport:
    """Minimum eigenvalue of the Gram matrix over the sample points, with its PSD verdict."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = gram_matrix(f, pts, refs=refs)
    (min_eig,), (ok,), (tol,) = _min_eig(m[None])
    return GramReport(len(m), float(min_eig), bool(ok), float(tol), pts)


def _trial_blocks(seed: int, population: int, size: int, trials: int):
    """(slice of trials, index sets) per block of ``MAX_GRAM_POINTS // size`` trials, drawn when
    the block starts by one ``rng.choice`` per trial in trial order, whatever the block length."""
    rng = np.random.default_rng(seed)
    per_block = max(1, MAX_GRAM_POINTS // max(size, 1))
    for start in range(0, trials, per_block):
        block = slice(start, min(start + per_block, trials))
        yield block, np.stack([rng.choice(population, size=size, replace=False)
                               for _ in range(block.stop - start)])


@dataclass(frozen=True)
class RestrictionReport:
    ok: bool
    trials: int
    min_eigs: np.ndarray
    seed: int


def restriction_check(
    f: WeightedComb,
    subgroup_points,
    trials: int,
    seed: int,
    config_size: int = CONFIG_SIZE,
    refs=None,
) -> RestrictionReport:
    """Gram tests on random configurations drawn only from the given point set.

    Positive definiteness restricts to any subset closed under differences,
    so every trial of a genuinely positive definite f must pass.  Hermitian
    symmetry of f is checked once, before the first trial.
    """
    pts = np.atleast_2d(np.asarray(subgroup_points, dtype=float))
    if refs is not None:
        refs = np.atleast_2d(np.asarray(refs, dtype=np.int64))
    _check_hermitian(f)
    eigs = np.empty(trials)
    ok = True
    size = min(config_size, len(pts))
    for block, idx in _trial_blocks(seed, len(pts), size, trials):
        eigs[block], passed, _ = _min_eig(_gram(f, pts[idx], refs[idx] if refs is not None else None))
        ok &= bool(passed.all())
    return RestrictionReport(ok, trials, eigs, seed)


@dataclass(frozen=True)
class CrosscheckReport:
    down_ok: bool
    up_ok: bool
    entrywise_equal: bool
    min_eigs_down: np.ndarray
    min_eigs_up: np.ndarray
    seed: int


def lift_pd_crosscheck(
    cps: CutProjectScheme,
    gamma: WeightedComb,
    window: Window,
    trials: int,
    seed: int,
) -> CrosscheckReport:
    """Test positive definiteness downstairs and on the lifted comb together.

    The same index sets are used on both sides, so the two Gram matrices are
    equal entry by entry through the lift bijection and the two verdicts must
    agree; the report records both so that agreement is observed, not assumed.
    Equality is still compared in every trial.  Where the two matrices are
    equal the lifted one reuses the downstairs eigensolve, the same LAPACK
    call on the same input; only the lifted matrices that differ are solved
    again.
    """
    eta = lift(cps, gamma, window)
    if gamma.n_atoms == 0:
        empty = np.zeros(0)
        return CrosscheckReport(True, True, True, empty, empty, seed)
    _check_hermitian(gamma)
    _check_hermitian(eta)
    down_eigs = np.empty(trials)
    up_eigs = np.empty(trials)
    down_ok = up_ok = equal = True
    size = min(CONFIG_SIZE, gamma.n_atoms)
    for block, idx in _trial_blocks(seed, gamma.n_atoms, size, trials):
        refs = eta.refs[idx]  # lift keeps gamma's refs; a gamma without refs ignores them
        m_down = _gram(gamma, gamma.positions[idx], refs)
        m_up = _gram(eta, eta.positions[idx], refs)
        down_eigs[block], passed_down, _ = _min_eig(m_down)
        up_eigs[block], passed_up = down_eigs[block], passed_down.copy()
        differ = ~(m_down == m_up).all(axis=(1, 2))
        if differ.any():
            equal = False
            up_eigs[block][differ], passed_up[differ], _ = _min_eig(m_up[differ])
        down_ok &= bool(passed_down.all())
        up_ok &= bool(passed_up.all())
    return CrosscheckReport(down_ok, up_ok, equal, down_eigs, up_eigs, seed)
