import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutproject import Box, BudgetError, Lattice, density, dual, lattice_points_in_box
from cutproject import lattice
from cutproject.lattice import _group_rows, _row_key

from .conftest import TAU
from .helpers import (brute_lattice_points, brute_points_around, brute_z_range, fourier_motzkin_axis0,
                      rowwise_points)

FIB_BASIS = [[1.0, TAU], [1.0, 1.0 - TAU]]


def test_density_identity_basis():
    assert density(Lattice(np.eye(2))) == 1.0


def test_density_fibonacci():
    # |det| = |1*(1-tau) - tau*1| = sqrt(5)
    assert density(Lattice(FIB_BASIS)) == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-14)
    assert density(Lattice(FIB_BASIS)) == pytest.approx(0.4472135954999579, abs=1e-12)


def test_density_column_scaling():
    rng = np.random.default_rng(3)
    basis = rng.uniform(-2, 2, size=(3, 3)) + 3 * np.eye(3)
    for c in (0.5, 2.0, 3.7):
        assert density(Lattice(c * np.asarray(basis))) == pytest.approx(
            density(Lattice(basis)) * c ** -3, rel=1e-12
        )


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="singular basis"):
        Lattice([[1.0, 2.0], [2.0, 4.0]])


def test_dual_identity_basis():
    assert np.allclose(dual(Lattice(np.eye(3))).basis, np.eye(3))


def test_dual_pairing_fibonacci():
    lat = Lattice(FIB_BASIS)
    dl = dual(lat)
    rng = np.random.default_rng(7)
    z = rng.integers(-20, 21, size=(100, 2))
    w = rng.integers(-20, 21, size=(100, 2))
    pair = np.sum(lat.points(z) * dl.points(w), axis=1)
    assert np.max(np.abs(np.exp(2j * np.pi * pair) - 1.0)) < 1e-10


def test_double_dual_same_point_set():
    lat = Lattice(FIB_BASIS)
    dd = dual(dual(lat))
    change = lat.inv_basis @ dd.basis
    assert np.max(np.abs(change - np.round(change))) < 1e-9
    assert abs(abs(np.linalg.det(np.round(change))) - 1.0) < 1e-9


def test_density_dual_product():
    lat = Lattice([[1.4, 0.3, 0.0], [-0.2, 2.0, 0.7], [0.1, 0.0, 0.9]])
    assert density(lat) * density(dual(lat)) == pytest.approx(1.0, abs=1e-10)


def test_enumerate_unit_grid():
    z, p = lattice_points_in_box(Lattice(np.eye(2)), Box([0.0, 0.0], [2.0, 2.0]))
    assert len(z) == 9
    assert z.dtype == np.int64
    assert np.array_equal(z.astype(float), p)


def test_enumerate_fibonacci_vs_brute_scan():
    lat = Lattice(FIB_BASIS)
    box = Box([0.0, -1.0], [10.0, 2.0])
    z, _ = lattice_points_in_box(lat, box)
    got = {tuple(row) for row in z}
    assert got == brute_lattice_points(lat, box, 30)
    assert len(got) > 0


def test_enumerate_inverted_box_empty():
    z, p = lattice_points_in_box(Lattice(np.eye(2)), Box([0.0, 0.0], [1.0, -1.0]))
    assert z.shape == (0, 2) and p.shape == (0, 2)


def test_enumerate_boundary_point_included():
    z, p = lattice_points_in_box(Lattice(np.eye(1)), Box([0.0], [3.0]))
    assert len(z) == 4  # both endpoints of the closed box


def test_enumerate_budget():
    with pytest.raises(BudgetError, match="budget exceeded"):
        lattice_points_in_box(Lattice(np.eye(2)), Box([0.0, 0.0], [1e4, 1e4]), budget=1000)


def test_enumerate_cover_beyond_int64_is_budget_error():
    # a 1e-300 basis passes the singularity check; its preimage cover reaches 1e300
    with pytest.raises(BudgetError, match="budget exceeded"):
        lattice_points_in_box(Lattice([[1e-300]]), Box([-1.0], [1.0]))


def test_basis_with_overflowing_inverse_rejected():
    # 1e-310 passes the singularity check, but its inverse overflows to inf
    with pytest.raises(ValueError, match="inverse is not finite"):
        Lattice([[1e-310]])


def test_group_rows_matches_first_occurrence_numbering():
    rng = np.random.default_rng(5)
    for n, k in [(0, 2), (1, 1), (40, 1), (60, 3), (200, 4)]:
        rows = rng.integers(-2, 3, size=(n, k)).astype(np.int64)
        seen = {}
        for row in map(tuple, rows):
            seen.setdefault(row, len(seen))
        label, first = _group_rows(rows)
        assert label.tolist() == [seen[row] for row in map(tuple, rows)]
        assert first.tolist() == [label.tolist().index(g) for g in range(len(seen))]


@st.composite
def rows_near_key_overflow(draw):
    """int64 rows whose column spans multiply to about 2**63.

    The spans are powers of two whose exponents sum to 63 (the largest key
    that fits), one of them is optionally raised by one (the smallest that
    does not), or all are small.  Both extreme values of every column occur.
    """
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["fits", "overflows", "small"]))
    if kind == "small":
        spans = [draw(st.integers(1, 5)) for _ in range(k)]
    else:
        cuts = sorted(draw(st.integers(0, 63)) for _ in range(k - 1))
        spans = [2 ** (b - a) for a, b in zip([0] + cuts, cuts + [63])]
        if kind == "overflows":
            spans[draw(st.integers(0, k - 1))] += 1
    lo = [draw(st.integers(-(2**63), 2**63 - s)) for s in spans]
    pool = [[lo[c], lo[c] + spans[c] - 1] + [draw(st.integers(lo[c], lo[c] + spans[c] - 1))]
            for c in range(k)]
    picks = draw(st.lists(st.tuples(*[st.integers(0, 2)] * k), min_size=0, max_size=40))
    rows = [[pool[c][0] for c in range(k)], [pool[c][1] for c in range(k)]]
    rows += [[pool[c][p[c]] for c in range(k)] for p in picks]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64), math.prod(spans)


@settings(max_examples=200)
@given(rows_near_key_overflow())
def test_group_rows_key_matches_lexsort(case):
    rows, span_product = case
    assert (_row_key(rows) is None) == (span_product > 2**63)
    label, first = _group_rows(rows)
    with mock.patch.object(lattice, "_row_key", return_value=None):
        lex_label, lex_first = _group_rows(rows)
    assert np.array_equal(label, lex_label) and np.array_equal(first, lex_first)
    seen = {}
    for row in map(tuple, rows):
        seen.setdefault(row, len(seen))
    assert label.tolist() == [seen[row] for row in map(tuple, rows)]
    assert first.tolist() == [label.tolist().index(g) for g in range(len(seen))]


def test_points_bit_identical_across_batch_sizes():
    lat = Lattice(FIB_BASIS)
    z = np.array([[3, -5], [2, 7], [-1, 4]])
    batched = lat.points(z)
    for i in range(3):
        assert np.array_equal(lat.points(z[i]), batched[i])
        assert np.array_equal(lat.points(z[i : i + 1])[0], batched[i])


def test_points_rejects_rows_of_another_width():
    # a row of the wrong width must not lose or invent a coordinate
    lat = Lattice(FIB_BASIS)
    for z in ([1, 2, 3], [[1, 2, 3]], [[1]]):
        with pytest.raises(ValueError, match="length 2"):
            lat.points(z)


def test_box_contains_rejects_points_of_another_width():
    # [[0.5]] must not broadcast against the 2-D box and come out inside
    box = Box([0.0, 0.0], [1.0, 1.0])
    for points in ([[0.5]], [0.5], [[0.5, 0.5, 0.5]]):
        with pytest.raises(ValueError, match="width"):
            box.contains(points)
    assert box.contains([0.5, 0.5]) and box.contains([[0.5, 0.5]]).tolist() == [True]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_box_contains_decides_rows_on_the_faces(dim):
    # a row is in exactly when lo - BOUNDARY_TOL <= x <= hi + BOUNDARY_TOL in every
    # coordinate: the shifted faces are in, the next float outward is out
    rng = np.random.default_rng(dim)
    lo = rng.uniform(-1e3, 1e3, dim)
    box = Box(lo, lo + rng.choice([0.0, 1e-3, 2.0], dim))  # degenerate sides included
    low, high = box.lo - lattice.BOUNDARY_TOL, box.hi + lattice.BOUNDARY_TOL
    faces = np.stack([low, np.nextafter(low, -np.inf), high, np.nextafter(high, np.inf),
                      0.5 * (box.lo + box.hi)], axis=1)
    rows = faces[np.arange(dim), rng.integers(0, 5, size=(4000, dim))]
    want = [all(low[i] <= row[i] <= high[i] for i in range(dim)) for row in rows.tolist()]
    assert box.contains(rows).tolist() == want
    assert 0 < sum(want) < len(want)
    assert [box.contains(row) for row in rows[:50]] == want[:50]


def test_enumerated_coordinates_are_integer():
    lat = Lattice(FIB_BASIS)
    z, p = lattice_points_in_box(lat, Box([-5.0, -5.0], [5.0, 5.0]))
    back = lat.coordinates(p)
    assert np.max(np.abs(back - np.round(back))) < 1e-9


@st.composite
def random_lattice_and_box(draw, dims=(2,)):
    n = draw(st.sampled_from(dims))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    if n > 2:
        # integer entries put lattice points on the faces of zero-width sides
        entries = st.one_of(entries, st.integers(-2, 2).map(float))
    basis = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    if abs(np.linalg.det(basis)) <= (0.1 if n == 2 else 1.0):
        basis = basis + 2.5 * np.eye(n)
    lo = np.array([draw(st.floats(-3.0, 1.0)) for _ in range(n)])
    thin = st.one_of(st.just(0.0), st.floats(0.0, 1e-3))
    sides = np.array([draw(st.floats(0.0, 3.0)) for _ in range(n)])
    n_thin = draw(st.integers(0, n - 1))
    sides[:n_thin] = [draw(thin) for _ in range(n_thin)]
    return Lattice(basis), Box(lo, lo + sides)


# most rows the brute-force scan may visit in one case
BRUTE_LIMIT = 1_000_000


def assert_strictly_lexicographic(z):
    steps = np.diff(z, axis=0)
    lead = steps[np.arange(len(steps)), np.argmax(steps != 0, axis=1)]
    assert (lead > 0).all()


@settings(max_examples=100)
@given(random_lattice_and_box(dims=(2, 3, 4)))
def test_enumeration_completeness_random(lat_box):
    lat, box = lat_box
    z_range = brute_z_range(lat, box)
    assume((2 * z_range + 1) ** lat.n <= BRUTE_LIMIT)
    z, _ = lattice_points_in_box(lat, box)
    assert_strictly_lexicographic(z)
    got = {tuple(row) for row in z}
    assert len(got) == len(z)
    assert got == brute_lattice_points(lat, box, z_range)


@pytest.mark.parametrize("n", [3, 4])
def test_enumeration_completeness_seeded(n):
    # boxes around a lattice point p0; every other one is thin (side 0 or
    # 1e-3) in one coordinate, with p0 on that face
    rng = np.random.default_rng(n)
    cases = 0
    while cases < 20:
        lat = Lattice(rng.uniform(-0.5, 0.5, size=(n, n)) + 2.0 * np.eye(n))
        z0 = rng.integers(-1, 2, size=n)
        p0 = lat.points(z0)
        sides = rng.uniform(2.0, 6.0, size=n)
        lo = p0 - rng.uniform(0.0, 1.0, size=n) * sides
        if cases % 2:
            i = rng.integers(n)
            lo[i], sides[i] = p0[i], rng.choice([0.0, 1e-3])
        box = Box(lo, lo + sides)
        z_range = brute_z_range(lat, box)
        if (2 * z_range + 1) ** n > BRUTE_LIMIT:
            continue
        z, _ = lattice_points_in_box(lat, box)
        assert_strictly_lexicographic(z)
        got = {tuple(row) for row in z}
        assert tuple(z0) in got
        assert got == brute_lattice_points(lat, box, z_range)
        cases += 1


SUBNORMAL_BASES = [
    [[1.0, 5e-324], [0.3, 1.7]],
    [[5e-324, 1.0], [1.0, 0.0]],
    [[1.2, 5e-324, 0.0], [0.0, 1.0, 5e-324], [0.4, 0.0, 0.9]],
]


@pytest.mark.parametrize(
    "basis, box",
    zip(SUBNORMAL_BASES, [Box([0.0, -1.0], [0.0, 3.0]), Box([-2.0, 1.0], [2.0, 1.0]),
                          Box([-2.0, 0.0, -1.5], [2.5, 0.0, 2.0])]),
)
def test_enumeration_subnormal_basis_entries(basis, box):
    lat = Lattice(basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, _ = lattice_points_in_box(lat, box)
    assert_strictly_lexicographic(z)
    got = {tuple(row) for row in z}
    assert got == brute_lattice_points(lat, box, brute_z_range(lat, box))
    assert len(got) > 0


@pytest.mark.parametrize(
    "basis, boxes",
    [
        ([[1.0, 5e-324], [0.3, 1.7]], [Box([0.0, -1.0], [0.0, 3.0]), Box([22.0, -8.4], [25.5, -8.4])]),
        ([[5e-324, 1.0], [1.0, 0.0]], [Box([-2.0, 1.0], [2.0, 1.0]), Box([31.0, -9.0], [31.0, -6.5])]),
        ([[1.2, 5e-324, 0.0], [0.0, 1.0, 5e-324], [0.4, 0.0, 0.9]],
         [Box([-2.0, 0.0, -1.5], [2.5, 0.0, 2.0]), Box([5.0, -6.0, 4.0], [7.5, -6.0, 5.5])]),
    ],
)
def test_enumeration_subnormal_basis_one_lattice_two_boxes(basis, boxes):
    # the elimination is built once, on the first box, and read by the second
    lat = Lattice(basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for box in boxes:
            z, _ = lattice_points_in_box(lat, box)
            assert_strictly_lexicographic(z)
            got = {tuple(row) for row in z}
            assert got == brute_lattice_points(lat, box, brute_z_range(lat, box))
            assert len(got) > 0


@pytest.mark.parametrize("basis", [
    FIB_BASIS,
    [[1, 0.7071067811865476, 0, -0.7071067811865476], [0, 0.7071067811865476, 1, 0.7071067811865476],
     [1, -0.7071067811865476, 0, 0.7071067811865476], [0, 0.7071067811865476, -1, 0.7071067811865476]],
    [[1.2, 5e-324, 0.0], [0.0, 1.0, 5e-324], [0.4, 0.0, 0.9]],
    [[1.0, 1e-13, 0.0], [0.3, 1.7, 0.0], [0.0, 1e-13, 1.1]],  # 1e-13 is dropped, not rounding
    np.random.default_rng(4).uniform(-2.0, 2.0, size=(4, 4)),
])
def test_elimination_rows_combine_the_box_rows(basis):
    # each level's rows are nonnegative combinations lam of the rows of [B; -B],
    # up to the coefficients recorded as dropped and rounding: the completeness
    # of ``lattice_points_in_box`` rests on it
    lat = Lattice(basis)
    a0 = np.concatenate([lat.basis, -lat.basis])
    for k, (a, lam, dropped) in enumerate(lat._elimination):
        assert a.shape[1] == k + 1 and (a[:, k] != 0).all()
        assert (lam >= 0).all() and (dropped >= 0).all()
        combined = lam @ a0
        full = np.pad(a, ((0, 0), (0, lat.n - k - 1)))
        assert (np.abs(combined - full) <= dropped + 1e-14 * (lam @ np.abs(a0))).all()


@st.composite
def eliminated_bases(draw):
    """A nonsingular basis, n = 1-4, entries in [-2, 2], some scaled by 1e-13 so that the
    elimination drops their terms."""
    n = draw(st.integers(1, 4))
    basis = np.array([[draw(st.floats(-2.0, 2.0)) * draw(st.sampled_from([1.0, 1.0, 1e-13]))
                       for _ in range(n)] for _ in range(n)])
    try:
        Lattice(basis)
    except ValueError:
        assume(False)
    return basis


@settings(max_examples=200)
@given(eliminated_bases())
def test_elimination_rows_of_one_support_by_packed_key(basis):
    # the packed support keys keep the rows, and the order, of np.unique(axis=0)
    got, want = lattice._fourier_motzkin(Lattice(basis)), fourier_motzkin_axis0(Lattice(basis))
    assert len(got) == len(want)
    for level, ref in zip(got, want):
        for x, y in zip(level, ref):
            assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@st.composite
def lattice_and_box_lists(draw):
    """A lattice, n = 1-4 with condition number at most 4, and a list of 1-12 boxes: boxes
    around lattice points up to about 1e4 out, empty boxes, pairs that share the face a
    lattice point lies on, and 1e-3 boxes between lattice points, whose integer cover is
    often empty."""
    n = draw(st.integers(1, 4))
    basis = np.eye(n) + np.array([[draw(st.floats(-0.5, 0.5)) for _ in range(n)] for _ in range(n)])
    assume(np.linalg.cond(basis) <= 4.0)
    lat = Lattice(basis)
    count = draw(st.integers(1, 12))
    boxes = []
    while len(boxes) < count:
        reach = 10 ** draw(st.integers(0, 4))
        z0 = np.array([draw(st.integers(-reach, reach)) for _ in range(n)])
        kind = draw(st.sampled_from(["around", "empty", "shared face", "between"]))
        if kind == "between":
            centre = lat.points(z0 + 0.5)
            boxes.append(Box(centre - 5e-4, centre + 5e-4))
            continue
        p0 = lat.points(z0)
        lo = p0 - np.array([draw(st.floats(0.0, 1.5)) for _ in range(n)])
        hi = p0 + np.array([draw(st.floats(0.0, 1.5)) for _ in range(n)])
        i = draw(st.integers(0, n - 1))
        if kind == "empty":
            hi[i] = lo[i] - draw(st.sampled_from([1e-9, 1.0]))
        if kind == "shared face":
            boxes.append(Box(lo, np.where(np.arange(n) == i, p0, hi)))
            lo[i] = p0[i]
        boxes.append(Box(lo, hi))
    return lat, boxes


@settings(max_examples=80)
@given(lattice_and_box_lists())
def test_points_in_boxes_match_one_call_per_box(case):
    lat, boxes = case
    z, p = lattice._points_in_boxes(lat, boxes)
    found = [lattice_points_in_box(lat, box) for box in boxes]
    assert np.array_equal(z, np.concatenate([zs for zs, _ in found]))
    assert np.array_equal(p.view(np.int64), np.concatenate([ps for _, ps in found]).view(np.int64))
    # the brute scan keeps points within its tolerance of an empty box too
    assert np.array_equal(z, np.concatenate([brute_points_around(lat, box)[0] for box in boxes if not box.is_empty]
                                            or [z[:0]]))


def test_points_in_boxes_one_box_between_lattice_points():
    # the integer cover of a box between the points of Z^2 is empty: no level runs
    z, p = lattice._points_in_boxes(Lattice(np.eye(2)), [Box([0.3, 0.3], [0.4, 0.4])] * 2)
    assert z.shape == (0, 2) and z.dtype == np.int64 and p.shape == (0, 2)


def test_points_in_boxes_budget_is_per_box():
    lat = Lattice(np.eye(2))
    square = Box([0.0, 0.0], [9.0, 9.0])  # 10 candidates for z0, then 100 for z1
    z, _ = lattice._points_in_boxes(lat, [square] * 3, budget=150)  # 300 candidates for z1 in all
    assert len(z) == 300
    # box by box, the first box over budget raises, whichever level meets it first
    long_z1 = Box([0.0, 0.0], [0.0, 199.0])  # 1 candidate for z0, 200 for z1
    long_z0 = Box([0.0, 0.0], [199.0, 0.0])  # 200 candidates for z0
    for boxes, k in (([square, Box([0.0, 0.0], [19.0, 9.0])], 1), ([long_z1, long_z0], 1), ([long_z0, long_z1], 0)):
        with pytest.raises(BudgetError) as own:
            for box in boxes:
                lattice_points_in_box(lat, box, budget=150)
        with pytest.raises(BudgetError) as got:
            lattice._points_in_boxes(lat, boxes, budget=150)
        assert str(got.value) == str(own.value)
        assert f"200 candidates for coordinate z{k} > budget 150" in str(got.value)


@st.composite
def lattice_and_far_boxes(draw):
    # strictly diagonally dominant (2 against at most 1.5), so |inv_basis| <= 2 in
    # the sup norm and the brute scan around each box stays small
    n = draw(st.integers(2, 4))
    basis = 2.5 * np.eye(n) + np.array([[draw(st.floats(-0.5, 0.5)) for _ in range(n)] for _ in range(n)])
    lat = Lattice(basis)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        # anchored at a lattice point p0 up to about 1e4 from the origin, so the
        # cover magnitudes m of the boxes differ by orders of magnitude
        reach = 2 * 10 ** draw(st.integers(0, 3))
        z0 = np.array([draw(st.integers(-reach, reach)) for _ in range(n)])
        p0 = lat.points(z0)
        sides = np.array([draw(st.floats(0.0, 2.0)) for _ in range(n)])
        lo = p0 - np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)]) * sides
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
            # zero-width or 1e-3-thin side with p0 on its face
            lo[i], sides[i] = p0[i], draw(st.sampled_from([0.0, 1e-3]))
        boxes.append((z0, Box(lo, lo + sides)))
    return basis, boxes


@settings(max_examples=60)
@given(lattice_and_far_boxes())
def test_enumeration_one_lattice_many_boxes(case):
    basis, boxes = case
    lat = Lattice(basis)
    for z0, box in boxes:
        z, p = lattice_points_in_box(lat, box)
        want, _ = brute_points_around(lat, box)
        assert np.array_equal(z, want)
        assert tuple(z0) in {tuple(row) for row in z}
        # the elimination cached on ``lat`` gives what a fresh one gives, bit for bit
        fresh_z, fresh_p = lattice_points_in_box(Lattice(basis), box)
        assert np.array_equal(z.view(np.int64), fresh_z.view(np.int64))
        assert np.array_equal(p.view(np.int64), fresh_p.view(np.int64))


@st.composite
def lattice_and_boxes_far_out(draw):
    """A lattice, n = 2-4 with condition number below 4, one entry scaled by 1e-13 in a third
    of the draws (the elimination drops its terms), and 20 boxes, each anchored at a lattice
    point 1e3-1e8 out along one coordinate, with one face 1e-9 from it and sides 0, 1e-3, 0.5
    or 2."""
    n = draw(st.integers(2, 4))
    basis = np.eye(n) + np.array([[draw(st.floats(-0.5, 0.5)) for _ in range(n)] for _ in range(n)])
    if draw(st.integers(0, 2)) == 0:
        basis[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] *= 1e-13
    assume(np.linalg.cond(basis) < 4.0)
    lat, rng, boxes = Lattice(basis), np.random.default_rng(draw(st.integers(0, 2**32 - 1))), []
    for _ in range(20):
        # far out along one coordinate only: a dropped term on it can then outgrow the row pad,
        # which the small cover magnitudes of the other coordinates keep small
        z0 = rng.integers(-3, 4, size=n)
        z0[rng.integers(n)] = rng.choice([-1, 1]) * int(10.0 ** rng.uniform(3, 8))
        p0 = lat.points(z0)
        sides = rng.choice([0.0, 1e-3, 0.5, 2.0], size=n)
        lo = p0 - rng.uniform(0.0, 1.0, size=n) * sides
        k, gap = rng.integers(n), rng.choice([-1e-9, 1e-9])
        if rng.integers(2):  # the lower face, or the upper one, 1e-9 inside or outside p0
            lo[k] = p0[k] + gap
        else:
            lo[k] = p0[k] + gap - sides[k]
        boxes.append(Box(lo, lo + sides))
    return basis, boxes


@settings(max_examples=40)
@given(lattice_and_boxes_far_out())
def test_enumeration_keeps_points_on_far_faces(case):
    # pins both enumeration slacks: with _ROW_PAD = 0, or without the dropped @ m term
    # of the right-hand sides, points on these faces go missing
    basis, boxes = case
    lat = Lattice(basis)
    for box in boxes:
        z, _ = lattice_points_in_box(lat, box)
        assert np.array_equal(z, brute_points_around(lat, box)[0])


@st.composite
def lattices_and_rows(draw):
    """A basis of dimension 1..4, near the identity or one of ``SUBNORMAL_BASES``, and up to
    five integer rows with entries up to 2**40 in size."""
    if draw(st.booleans()):
        basis = np.array(draw(st.sampled_from(SUBNORMAL_BASES)))
    else:
        n = draw(st.integers(1, 4))
        basis = np.eye(n) + np.array([[draw(st.floats(-0.5, 0.5)) for _ in range(n)] for _ in range(n)])
        assume(np.linalg.cond(basis) <= 4.0)
    n = len(basis)
    rows = draw(st.lists(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n), max_size=5))
    return Lattice(basis), np.array(rows, dtype=np.int64).reshape(-1, n)


@settings(max_examples=80)
@given(lattices_and_rows(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_enumeration_layout_and_position_bits(case, at):
    # every enumeration returns C-contiguous int64 and float64 (k, n) arrays, also for k = 0,
    # and every position has the bits of the row-major sum 0.0 + z_0 b_i0 + z_1 b_i1 + ...
    lat, rows = case
    n = lat.n
    assert np.array_equal(lat.points(rows).view(np.int64), rowwise_points(lat.basis, rows).view(np.int64))
    centre = lat.points(np.array(at[:n]))
    half_cell = lat.points(np.array(at[:n]) + 0.5)  # no lattice point within 1e-3 of it
    boxes = [Box(centre - 1.5, centre + 1.5), Box(half_cell - 1e-3, half_cell + 1e-3),
             Box(centre + 1.0, centre - 1.0)]
    for box, points in zip(boxes, ("some", "none", "none")):
        z, p = lattice_points_in_box(lat, box)
        assert (len(z) > 0) == (points == "some")
        for a, dtype in ((z, np.int64), (p, np.float64)):
            assert a.dtype == dtype and a.shape == (len(z), n) and a.flags.c_contiguous
        assert np.array_equal(p.view(np.int64), rowwise_points(lat.basis, z).view(np.int64))


def test_enumeration_cost_follows_output():
    # |x| <= 1e6 on the Fibonacci strip: 894,428 points, where the integer
    # bounding box of the strip's preimage holds about 4.9e11 candidates
    lat = Lattice(FIB_BASIS)
    z, p = lattice_points_in_box(lat, Box([-1e6, 0.0], [1e6, 1.0]), budget=2_000_000)
    assert len(z) == 894_428
    assert_strictly_lexicographic(z)
    # Ammann-Beenker 2+2 strip: no level holds more than 200k candidates
    c = np.sqrt(0.5)
    lat = Lattice([[1, c, 0, -c], [0, c, 1, c], [1, -c, 0, c], [0, c, -1, c]])
    z, _ = lattice_points_in_box(lat, Box([-200, -200, -1, -1], [200, 200, 1, 1]), budget=200_000)
    assert len(z) == 160_745


def test_budget_error_names_the_knob():
    with pytest.raises(BudgetError, match="budget exceeded") as info:
        lattice_points_in_box(Lattice(FIB_BASIS), Box([-1e4, 0.0], [1e4, 1.0]), budget=100)
    assert "budget =" in str(info.value)
    assert "--budget" in str(info.value)


@settings(max_examples=25)
@given(random_lattice_and_box())
def test_dual_pairing_integral_random(lat_box):
    lat, _ = lat_box
    dl = dual(lat)
    rng = np.random.default_rng(0)
    z = rng.integers(-10, 11, size=(50, 2))
    w = rng.integers(-10, 11, size=(50, 2))
    pair = np.sum(lat.points(z) * dl.points(w), axis=1)
    assert np.max(np.abs(pair - np.round(pair))) < 1e-9
