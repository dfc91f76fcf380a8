"""Finite-patch weighted Dirac combs and the operators acting on them.

A comb is a finite list of atoms (position, complex weight) standing in for a
translation-bounded atomic measure.  Combs supported on a lattice can carry
the integer coordinates of their atoms.  Those coordinates are then the atom's
identity: duplicates, merging and the lift/descent round trip are decided
exactly on them, and only combs without them match positions within ``MERGE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the window norm and the scan live in ``almost``; perfbench/tracer.py finds them by these names
from .almost import a_norm, eps_norm_almost_periods  # noqa: F401
from .cps import CutProjectScheme, Window, _model_set
from .lattice import DEFAULT_BUDGET, MERGE_TOL, Box, _components, _first_near, _group_rows, _near, _RowIndex

LIFT_TOL = 1e-7  # how far an atom may sit from the lattice point it is lifted to


@dataclass(frozen=True)
class WeightedComb:
    """Finite weighted Dirac comb: distinct atoms with complex weights.

    ``refs`` optionally carries a parallel array of integer lattice
    coordinates when the comb is supported on a lattice (positions then equal
    the lattice map of the coordinates, or its physical projection).  Atoms
    are distinct when their ``refs`` rows are; a comb without ``refs`` needs
    positions more than ``MERGE_TOL`` apart in the sup norm, so that
    ``merge_atoms`` would merge none of them.
    """

    dim: int
    positions: np.ndarray
    weights: np.ndarray
    refs: np.ndarray | None = None

    def __init__(self, positions, weights, refs=None, validate=True) -> None:
        positions = np.asarray(positions, dtype=float)
        positions = positions.reshape(0, 1) if positions.shape == (0,) else np.atleast_2d(positions)
        weights = np.asarray(weights, dtype=complex).reshape(-1)
        if len(weights) != len(positions):
            raise ValueError("positions and weights must have equal length")
        if refs is not None:
            refs = np.atleast_2d(np.asarray(refs, dtype=np.int64))
            if len(refs) != len(positions):
                raise ValueError("refs must parallel the atom list")
        if validate:
            if not np.isfinite(positions).all():
                raise ValueError("atom positions must be finite")
            if not np.isfinite(weights).all():
                raise ValueError("atom weights must be finite")
            if refs is not None:
                if len(_group_rows(refs)[1]) < len(refs):
                    raise ValueError("duplicate positions: atoms share integer coordinates")
            elif (len(_group_rows((positions + 0.0).view(np.int64))[1]) < len(positions)
                  or len(_near(positions, positions, MERGE_TOL)[0]) > len(positions)):
                raise ValueError("duplicate positions: atoms closer than the merge tolerance")
        positions = positions.copy()
        weights = weights.copy()
        positions.setflags(write=False)
        weights.setflags(write=False)
        if refs is not None:
            refs = refs.copy()
            refs.setflags(write=False)
        object.__setattr__(self, "dim", positions.shape[1])
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "refs", refs)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @cached_property
    def ref_index(self) -> _RowIndex:
        """``refs`` sorted once per comb, for exact lookups of atoms by coordinates."""
        return _RowIndex(self.refs)

    def find(self, positions, refs=None) -> np.ndarray:
        """Index of the atom at each query, ``n_atoms`` for none: exact on ``refs`` when the
        comb carries them too, else the lowest-index atom within ``MERGE_TOL`` (sup norm)."""
        if refs is not None and self.refs is not None:
            return self.ref_index.find(np.atleast_2d(np.asarray(refs, dtype=np.int64)))
        return _first_near(self.positions, np.atleast_2d(np.asarray(positions, dtype=float)),
                           MERGE_TOL)

    @property
    def extent(self) -> Box | None:
        """Bounding box of the atoms, or None for the empty comb."""
        if self.n_atoms == 0:
            return None
        return Box(self.positions.min(axis=0), self.positions.max(axis=0))

    def scaled(self, factor: complex) -> "WeightedComb":
        return WeightedComb(self.positions, self.weights * factor, refs=self.refs, validate=False)


def strip_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^(d+m) supported on the lattice points with coordinates ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z), weights, refs=z)


def model_comb(cps: CutProjectScheme, z, weights) -> WeightedComb:
    """Comb on R^d supported on the physical projections of the points ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.int64))
    return WeightedComb(cps.lat.points(z)[:, : cps.d], weights, refs=z)

def merge_atoms(
    positions: np.ndarray,
    weights: np.ndarray,
    refs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Merge the atoms that sit at the same point.

    With ``refs`` an atom is its integer coordinates: atoms merge exactly when
    their rows are equal, whatever their positions.  Without them, groups are
    the connected components of the within-``MERGE_TOL`` relation (sup-norm) on
    the distinct positions, so exact repeats cost no pairs.  The group
    representative is its lowest-index member, groups are ordered by it, and
    weights are summed in index order, so the result is deterministic.
    """
    if refs is None:
        exact, distinct = _group_rows((positions + 0.0).view(np.int64))  # -0.0 + 0.0 is 0.0
        label, first = _group_rows(_components(positions[distinct], MERGE_TOL)[exact][:, None])
    else:
        label, first = _group_rows(refs)
    out_refs = refs[first] if refs is not None else None
    return positions[first], _sum_groups(weights, label, first), out_refs


def _sum_groups(weights: np.ndarray, label: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Weight sum of each group of ``_group_rows``, members added in index order."""
    order = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[order], np.arange(len(first)))
    return np.add.reduceat(weights[order], starts)

def lift(
    cps: CutProjectScheme,
    gamma: WeightedComb,
    window: Window,
    budget: int = DEFAULT_BUDGET,
) -> WeightedComb:
    """Lift a comb on R^d to the strip L ∩ (G × window): atom at x becomes atom at (x, xstar).

    Every atom must sit (within ``LIFT_TOL``, sup norm) on the physical part
    of exactly one lattice point whose internal part lies in ``window``.
    Weights and atom count are preserved.  When the input already carries integer
    coordinates they are trusted after validation, which keeps the round trip
    with ``descent`` exact.
    """
    if gamma.dim != cps.d:
        raise ValueError("comb dimension does not match the scheme's physical dimension")
    if window.m != cps.m:
        raise ValueError("window dimension does not match the scheme's internal dimension")
    if gamma.n_atoms == 0:
        return WeightedComb(np.zeros((0, cps.lat.n)), np.zeros(0, complex),
                            refs=np.zeros((0, cps.lat.n), np.int64))

    if gamma.refs is not None:
        full = cps.lat.points(gamma.refs)
        if not window.contains(full[:, cps.d :]).all():
            raise ValueError("atom not on Lambda(window): internal part outside the window")
        if np.max(np.abs(full[:, : cps.d] - gamma.positions)) > LIFT_TOL:
            raise ValueError("atom not on Lambda(window): position does not match its coordinates")
        return WeightedComb(full, gamma.weights, refs=gamma.refs, validate=False)

    z = _model_set(cps, window, gamma.extent.inflate(LIFT_TOL), budget)
    p = cps.lat.points(z)
    atom, matched = _near(p[:, : cps.d], gamma.positions, LIFT_TOL)
    count = np.bincount(atom, minlength=gamma.n_atoms)
    if (count != 1).any():
        i = int(np.argmax(count != 1))
        if count[i] == 0:
            raise ValueError(f"atom not on Lambda(window): no lattice point near atom {i}")
        raise ValueError(f"injectivity violation at atom {i}: two lattice points within tolerance")
    return WeightedComb(p[matched], gamma.weights, refs=z[matched], validate=False)


def descent(cps: CutProjectScheme, eta: WeightedComb) -> WeightedComb:
    """Drop the internal coordinate of a strip-supported comb: atom at (x, xstar) to x.

    Requires integer coordinates; positions are recomputed from them so that
    descent(lift(gamma)) reproduces gamma bit for bit.
    """
    if eta.dim != cps.lat.n:
        raise ValueError("comb dimension does not match the scheme's ambient dimension")
    if eta.refs is None:
        raise ValueError("descent requires integer lattice coordinates on the comb")
    positions = cps.lat.points(eta.refs)[:, : cps.d] if eta.n_atoms else np.zeros((0, cps.d))
    return WeightedComb(positions, eta.weights, refs=eta.refs, validate=False)

def _lex_positive(diffs: np.ndarray) -> np.ndarray:
    """True where the first nonzero coordinate of a row is positive."""
    sign = np.zeros(len(diffs))
    for i in range(diffs.shape[1]):
        col = diffs[:, i]
        sign = np.where(sign == 0, np.sign(col), sign)
    return sign > 0


def autocorrelation_patch(comb: WeightedComb, region: Box) -> WeightedComb:
    """Volume-normalised autocorrelation of a finite patch.

    Returns (1/vol) * sum over atom pairs of w(x) conj(w(y)) at x - y, with
    coinciding differences merged.  Only the lexicographically positive half
    is accumulated and the negative half mirrored, so Hermitian symmetry
    holds exactly.
    """
    if region.volume <= 0:
        raise ValueError("zero-volume region")
    if comb.n_atoms and not region.contains(comb.positions).all():
        raise ValueError("comb atoms must lie inside the region")
    vol = region.volume
    n = comb.n_atoms
    if n == 0:
        refs = None if comb.refs is None else comb.refs[:0]
        return WeightedComb(np.zeros((0, comb.dim)), np.zeros(0, complex), refs=refs)

    ii, jj = np.triu_indices(n, k=1)
    diffs = comb.positions[ii] - comb.positions[jj]
    vals = comb.weights[ii] * np.conj(comb.weights[jj])
    refs = None
    if comb.refs is not None:
        # the side of a difference is decided exactly, from its integer coordinates
        zd = comb.refs[ii] - comb.refs[jj]
        pos_side = _lex_positive(zd)
        refs = np.where(pos_side[:, None], zd, -zd)
    else:
        # a coordinate within MERGE_TOL of 0 is 0, or a difference whose exact
        # coordinate is 0 could land on both sides as +-1e-16
        pos_side = _lex_positive(np.where(np.abs(diffs) <= MERGE_TOL, 0.0, diffs))
    plus = np.where(pos_side[:, None], diffs, -diffs)
    plus_w = np.where(pos_side, vals, np.conj(vals))

    plus, plus_w, refs = merge_atoms(plus, plus_w, refs)

    zero_pos = np.zeros((1, comb.dim))
    zero_w = np.array([np.sum(np.abs(comb.weights) ** 2)], dtype=complex)
    positions = np.concatenate([zero_pos, plus, -plus])
    weights = np.concatenate([zero_w, plus_w, np.conj(plus_w)]) / vol
    out_refs = None
    if refs is not None:
        out_refs = np.concatenate([np.zeros((1, refs.shape[1]), np.int64), refs, -refs])
    return WeightedComb(positions, weights, refs=out_refs, validate=False)
