"""Gram-matrix positive semidefiniteness checks for weight functions on point sets.

A finite comb is read as a function: the weight at an atom position, zero
elsewhere (extension by zero).  For sample points x_1..x_n the matrix
M[k][l] = f(x_k - x_l) is Hermitian whenever f is, and positive
semidefiniteness of every such matrix is what positive definiteness of f
means.  Extension by zero and the lift to the lattice strip preserve these
matrices entry by entry, which the cross-check below turns into a
finite-scale test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .comb import LIFT_TOL, WeightedComb, lift
from .cps import CutProjectScheme, Window
from .lattice import _row_key

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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    refs = None if refs is None else np.atleast_2d(np.asarray(refs, dtype=np.int64))
    m = _lower(np.append(f.weights, 0)[_gram(f, pts, refs, np.arange(len(pts))[None])], len(pts))[0]
    return np.where(np.tri(len(m), dtype=bool), m, np.conj(m.T))


def _gram(f: WeightedComb, points: np.ndarray, refs: np.ndarray | None, idx: np.ndarray) -> np.ndarray:
    """Index of f's atom (``n_atoms`` if none) at x_k - x_l, k <= l, of each set ``points[idx[t]]``, in
    one lookup; differences a column at a time, positions only where the lookup reads them."""
    n = idx.shape[1]
    if n > MAX_GRAM_POINTS:
        raise ValueError(f"too many sample points for the eigen budget ({n} > {MAX_GRAM_POINTS})")
    ii, jj = np.triu_indices(n)
    exact = refs is not None and f.refs is not None
    diffs = np.stack([(c[idx][:, ii] - c[idx][:, jj]).ravel() for c in (refs if exact else points).T])
    key = _row_key(diffs.T) if exact else None  # random queries search the keys faster in key order
    order = np.arange(diffs.shape[1]) if key is None else np.argsort(key)
    rows = np.take(diffs, order, axis=1).T  # column-major, as the lookup reads its columns
    found = np.empty(len(order), dtype=np.int64)
    found[order] = f.find(None, rows) if exact else f.find(rows)
    return found.reshape(len(idx), len(ii))


def _lower(vals: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrices with upper triangles ``vals`` as ``np.linalg.eigvalsh`` reads them (UPLO
    'L'): conjugates on and below the diagonal, zeros above, so the max-norm is the matrix's."""
    ii, jj = np.triu_indices(n)
    m = np.zeros((len(vals), n, n), dtype=complex)
    m[:, jj, ii] = np.conj(vals)
    return m


def _min_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(minimum eigenvalues, PSD verdicts, tolerances) of a stack of Gram matrices, full or ``_lower``.

    A verdict is that the minimum eigenvalue clears -PSD_TOL scaled by the
    matrix max-norm, the tolerance double-precision eigensolves warrant at
    this size.  Empty matrices pass with the unscaled tolerance.
    """
    tol = PSD_TOL * np.maximum(1.0, np.abs(m).max(axis=(1, 2), initial=0.0))
    min_eig = np.linalg.eigvalsh(m)[:, 0] if m.shape[-1] else np.zeros(len(m))
    return min_eig, min_eig >= -tol, tol


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

    Gamma is looked up once per block of trials, on its own refs if it has them.
    The lifted entry for sample points y_k, y_l of eta is eta's weight at the atom
    found for x_k - x_l if that atom lies within ``LIFT_TOL`` (sup norm) of
    y_k - y_l in G x H, else 0, so a lift that moves or reorders atoms fails
    "entrywise equal".  Both verdicts are reported, so their agreement is observed,
    not assumed.  Lifted entries are compared with gamma's by value; only trials
    where they differ build and solve a lifted matrix.
    """
    eta = lift(cps, gamma, window)
    if gamma.n_atoms == 0:
        return CrosscheckReport(True, True, True, np.zeros(0), np.zeros(0), seed)
    _check_hermitian(gamma)
    wg, we = np.append(gamma.weights, 0), np.append(eta.weights, 0)  # index n_atoms: no atom
    at = np.append(eta.positions, np.full((1, eta.dim), np.inf), axis=0).T  # columns, atom n_atoms at inf
    down_eigs, up_eigs = np.empty(trials), np.empty(trials)
    down_ok = up_ok = equal = True
    size = min(CONFIG_SIZE, gamma.n_atoms)
    ii, jj = np.triu_indices(size)
    for block, idx in _trial_blocks(seed, gamma.n_atoms, size, trials):
        found = _gram(gamma, gamma.positions, gamma.refs, idx)
        gap = np.maximum.reduce([np.abs(a[found] - (a[idx][:, ii] - a[idx][:, jj])) for a in at])
        down, up = wg[found], we[np.where(gap <= LIFT_TOL, found, eta.n_atoms)]
        down_eigs[block], passed_down, _ = _min_eig(_lower(down, size))
        up_eigs[block], passed_up = down_eigs[block], passed_down.copy()
        differ = (down != up).any(axis=1)  # by value, entry by entry
        if differ.any():
            equal = False
            up_eigs[block][differ], passed_up[differ], _ = _min_eig(_lower(up[differ], size))
        down_ok &= bool(passed_down.all())
        up_ok &= bool(passed_up.all())
    return CrosscheckReport(down_ok, up_ok, equal, down_eigs, up_eigs, seed)
