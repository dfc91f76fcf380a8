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
from functools import lru_cache

import numpy as np

from .comb import WeightedComb, lift
from .cps import CutProjectScheme, Window

PSD_TOL = 1e-8
HERMITIAN_TOL = 1e-6
MAX_GRAM_POINTS = 500
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
    return _gram(f, points, refs)


@lru_cache(maxsize=8)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, built once per size: every trial of a run has the same size."""
    ii, jj = np.triu_indices(n)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


def _gram(f: WeightedComb, points, refs) -> np.ndarray:
    """``gram_matrix`` for a comb whose Hermitian symmetry is already checked."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    if n > MAX_GRAM_POINTS:
        raise ValueError(f"too many sample points for the eigen budget ({n} > {MAX_GRAM_POINTS})")
    ii, jj = _triu(n)
    diffs = pts[ii] - pts[jj]
    ref_diffs = None
    if refs is not None and f.refs is not None:
        refs = np.atleast_2d(np.asarray(refs, dtype=np.int64))
        ref_diffs = refs[ii] - refs[jj]
    vals = np.append(f.weights, 0)[f.find(diffs, ref_diffs)]
    m = np.zeros((n, n), dtype=complex)
    m[ii, jj] = vals
    lower = np.conj(m.T)
    m[jj, ii] = lower[jj, ii]
    return m


def _min_eig(m: np.ndarray) -> tuple[float, bool, float]:
    """(minimum eigenvalue, PSD verdict, tolerance) of a Gram matrix.

    The verdict is that the minimum eigenvalue clears -PSD_TOL scaled by the
    matrix max-norm, the tolerance double-precision eigensolves warrant at
    this size.  An empty matrix passes with the unscaled tolerance.
    """
    if len(m) == 0:
        return 0.0, True, PSD_TOL
    min_eig = float(np.linalg.eigvalsh(m)[0])
    tol = PSD_TOL * max(1.0, float(np.max(np.abs(m))))
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
    return GramReport(len(m), *_min_eig(m), pts)


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
    rng = np.random.default_rng(seed)
    eigs = np.empty(trials)
    ok = True
    for t in range(trials):
        size = min(config_size, len(pts))
        idx = rng.choice(len(pts), size=size, replace=False)
        eigs[t], passed, _ = _min_eig(_gram(f, pts[idx], refs[idx] if refs is not None else None))
        ok &= passed
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
    Equality is still compared in every trial.  When the two matrices are
    equal the lifted one reuses the downstairs eigensolve, the same LAPACK
    call on the same input; when they differ, each is solved on its own.
    """
    eta = lift(cps, gamma, window, window)
    if gamma.n_atoms == 0:
        empty = np.zeros(0)
        return CrosscheckReport(True, True, True, empty, empty, seed)
    _check_hermitian(gamma)
    _check_hermitian(eta)
    rng = np.random.default_rng(seed)
    down_eigs = np.empty(trials)
    up_eigs = np.empty(trials)
    down_ok = up_ok = True
    equal = True
    for t in range(trials):
        size = min(CONFIG_SIZE, gamma.n_atoms)
        idx = rng.choice(gamma.n_atoms, size=size, replace=False)
        refs = gamma.refs[idx] if gamma.refs is not None else None
        m_down = _gram(gamma, gamma.positions[idx], refs)
        m_up = _gram(eta, eta.positions[idx], eta.refs[idx])
        down_eigs[t], passed_down, _ = _min_eig(m_down)
        if np.array_equal(m_down, m_up):
            up_eigs[t], passed_up = down_eigs[t], passed_down
        else:
            equal = False
            up_eigs[t], passed_up, _ = _min_eig(m_up)
        down_ok &= passed_down
        up_ok &= passed_up
    return CrosscheckReport(down_ok, up_ok, equal, down_eigs, up_eigs, seed)
