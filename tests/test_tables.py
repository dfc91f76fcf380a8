"""Every CSV table, byte for byte against Python's own formatting.

The tables are written by one encoder of ``%.17g`` and ``%d`` over numpy
columns.  These tests feed each writer random columns with signed zeros,
subnormals, huge values, infinities and nans (and negative int64
coordinates) and compare with the formatters in helpers that write one row
at a time, and the writer itself with the chunked ``%`` reference writer.
"""

import io
import math
import warnings
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutproject import spectrum_to_csv
from cutproject import cli
from cutproject import tables as tables_module
from cutproject.almost import AlmostPeriodScan
from cutproject.spectra import DiffractionSpectrum
from cutproject.tables import _POW_LO, _decimal_tables, _write_table

from .helpers import (
    reference_write_table,
    rowwise_almostperiods_csv,
    rowwise_modelset_csv,
    rowwise_oracle_csv,
    rowwise_spectrum_csv,
)

FIB_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fibonacci.toml"
FINITE_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
SPECIAL = np.concatenate([FINITE_SPECIAL, [np.inf, -np.inf, np.nan]])
INT64 = np.iinfo(np.int64)

# squares and differences of the 1e308 samples overflow to inf, row by row as in the tables
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def floats(rng, shape, special=SPECIAL):
    """Random magnitudes from 1e-320 to 1e300, with a third replaced by special values."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    mask = rng.random(shape) < 0.3
    vals[mask] = rng.choice(special, size=int(mask.sum()))
    return vals


def complexes(rng, n, special=SPECIAL):
    out = np.empty(n, dtype=complex)
    out.real = floats(rng, n, special)
    out.imag = floats(rng, n, special)
    return out


def spectrum(d, ks, amps):
    n = len(ks)
    return DiffractionSpectrum(ks=ks, internals=np.zeros((n, d)),
                               refs=np.zeros((n, 2 * d), np.int64), amplitudes=amps,
                               metadata={})


def scheme_config(d, **extra):
    """Stand-in config: the commands only pass these fields to the patched sources."""
    return SimpleNamespace(scheme=SimpleNamespace(d=d, m=d), window=None, profile=None, query=None,
                           patch_query=None, threshold=0.0, budget=None, raw={},
                           cutoff=lambda: None, **extra)


@pytest.mark.parametrize("d", [1, 2])
def test_modelset_table_matches_rowwise(monkeypatch, tmp_path, d):
    rng = np.random.default_rng(100 + d)
    x, xstar = floats(rng, (300, d)), floats(rng, (300, d))
    z = rng.integers(INT64.min, INT64.max, size=(300, 2 * d))
    monkeypatch.setattr(cli, "model_set", lambda *a, **k: z)
    cfg = scheme_config(d)
    cfg.scheme.split = lambda zz: (x, xstar)
    out = tmp_path / "ms.csv"
    assert cli.cmd_modelset(cfg, SimpleNamespace(out=str(out))) == 0
    assert out.read_bytes() == rowwise_modelset_csv(x, xstar, z).encode()


@pytest.mark.parametrize("d", [1, 2])
def test_diffract_table_matches_rowwise(monkeypatch, tmp_path, capsys, d):
    rng = np.random.default_rng(200 + d)
    ks, amps = floats(rng, (300, d)), complexes(rng, 300)
    monkeypatch.setattr(cli, "diffraction", lambda *a, **k: spectrum(d, ks, amps))
    expected = rowwise_spectrum_csv(d, ks, amps)
    out = tmp_path / "spec.csv"
    assert cli.cmd_diffract(scheme_config(d), SimpleNamespace(out=str(out))) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert cli.cmd_diffract(scheme_config(d), SimpleNamespace(out=None)) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("d", [1, 2])
def test_oracle_table_matches_rowwise(monkeypatch, tmp_path, d):
    rng = np.random.default_rng(300 + d)
    n, top = 300, 250
    ks, closed = floats(rng, (n, d)), complexes(rng, n, FINITE_SPECIAL)
    oracle = complexes(rng, top)
    monkeypatch.setattr(cli, "diffraction", lambda *a, **k: spectrum(d, ks, closed))
    monkeypatch.setattr(cli, "oracle_amplitudes", lambda *a, **k: oracle)
    order = np.argsort(-np.abs(closed))[:top]
    ref = float(np.max(np.abs(closed[order])))
    out = tmp_path / "oracle.csv"
    args = SimpleNamespace(radius=1.0, k=None, top=top, out=str(out))
    assert cli.cmd_oracle(scheme_config(d, oracle_radius=1.0), args) == 0
    expected = rowwise_oracle_csv(d, ks[order], closed[order], oracle, ref)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("d", [1, 2])
def test_almostperiods_table_matches_rowwise(monkeypatch, tmp_path, capsys, d):
    rng = np.random.default_rng(400 + d)
    # few distinct coordinates, so equal and signed-zero t tie across accepted and rejected
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25, 1e308, np.inf, -np.inf])
    ts, norms = rng.choice(pool, size=(300, d)), floats(rng, 300)
    # a NaN norm marks a skipped candidate, which is never accepted
    acc = (rng.random(300) < 0.5) & ~np.isnan(norms)
    scan = AlmostPeriodScan(ts, norms, acc, 0.5)
    monkeypatch.setattr(cli, "model_set", lambda *a, **k: np.zeros((1, 2 * d), np.int64))
    monkeypatch.setattr(cli, "model_comb", lambda *a, **k: None)
    monkeypatch.setattr(cli, "_difference_candidates", lambda *a, **k: (ts, None))
    monkeypatch.setattr(cli, "eps_norm_almost_periods", lambda *a, **k: scan)
    out = tmp_path / "ap.csv"
    args = SimpleNamespace(eps=1.0, max_candidates=300, out=str(out))
    assert cli.cmd_almostperiods(scheme_config(d), args) == 0
    assert out.read_bytes() == rowwise_almostperiods_csv(d, ts, norms, acc).encode()
    skipped = np.isnan(norms).sum()
    assert skipped > 0
    summary = f"accepted {acc.sum()} of 300 candidates ({skipped} skipped), max gap 0.5\n"
    assert capsys.readouterr().out == summary


def test_table_chunks_join_to_one_table(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(700)
    columns = [floats(rng, 10), rng.integers(INT64.min, INT64.max, 10), floats(rng, 10)]
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    _write_table(one, ["a", "b", "c"], columns)
    monkeypatch.setattr(tables_module, "_TABLE_CHUNK", 3)
    _write_table(many, ["a", "b", "c"], columns)
    assert many.read_bytes() == one.read_bytes()
    assert len(one.read_text().splitlines()) == 11
    monkeypatch.setattr(tables_module, "_TABLE_CHUNK", 4)
    _write_table(None, ["a", "b", "c"], columns)
    assert capsys.readouterr().out == one.read_text()


def test_intensities_equal_the_written_column(tmp_path):
    cfg = cli.load_config(str(FIB_CONFIG))
    spec = cli.diffraction(cfg.scheme, cfg.window, cfg.profile, cfg.query, 1e-3, cfg.cutoff())
    rng = np.random.default_rng(800)
    for s in (spec, spectrum(1, floats(rng, (500, 1)), complexes(rng, 500, FINITE_SPECIAL))):
        scalar = np.array([abs(a) ** 2 for a in s.amplitudes])
        assert np.array_equal(s.intensities.view(np.int64), scalar.view(np.int64))
        path = tmp_path / "spec.csv"
        spectrum_to_csv(s, path)
        column = np.array([float(line.rsplit(",", 1)[1])
                           for line in path.read_text().splitlines()[1:]])
        assert np.array_equal(s.intensities.view(np.int64), column.view(np.int64))
    assert spec.n_peaks > 4000


def test_diffract_stdout_equals_out_file(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert cli.main(["diffract", "--config", str(FIB_CONFIG), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["diffract", "--config", str(FIB_CONFIG)]) == 0
    assert capsys.readouterr().out == out.read_text()


# ---------------------------------------------------------------------------
# the encoder against the chunked ``%`` reference writer


def table_text(writer, columns) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        writer(None, [f"c{j}" for j in range(len(columns))], columns)
    return buf.getvalue()


@st.composite
def half_ties(draw):
    """Floats whose product |x| * 10**(16 - e) is exactly a half-integer.

    x = odd * 2**(e - 17) with odd * 5**(16 - e) in [2e16, 2e17), a float64 for e = -8..14.
    """
    e = draw(st.integers(-8, 14))
    five = 5 ** (16 - e)
    lo, hi = -(-2 * 10 ** 16 // five), (2 * 10 ** 17 - 1) // five
    odd = 2 * draw(st.integers(lo // 2, (hi - 1) // 2)) + 1
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(odd, e - 17)


def power_neighbours(k, step):
    return float(np.nextafter(10.0 ** k, math.copysign(math.inf, step))) if step else 10.0 ** k


FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                     math.nan, 1.7976931348623157e308]),
    st.floats(allow_subnormal=True, allow_nan=True, allow_infinity=True),
    st.builds(power_neighbours, st.integers(-323, 308), st.sampled_from([-1, 0, 1])),
    half_ties(),
    # the fixed/exponent edges: exponents -5, -4, 16 and 17
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.sampled_from([-5, -4, 16, 17])),
)
INTS = st.one_of(st.integers(INT64.min, INT64.max),
                 st.sampled_from([INT64.min, INT64.max, 0, -1, 10]))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    return [draw(arrays(np.int64, n, elements=INTS) if is_int
                 else arrays(float, n, elements=FLOATS)) for is_int in kinds]


@settings(max_examples=300)
@given(tables(), st.sampled_from([1, 3, None]))
def test_write_table_matches_percent_writer(columns, chunk):
    expected = table_text(reference_write_table, columns)
    with mock.patch.object(tables_module, "_TABLE_CHUNK", chunk or max(len(columns[0]), 1)):
        assert table_text(_write_table, columns) == expected


def test_write_table_matches_percent_writer_on_random_bits():
    rng = np.random.default_rng(900)
    bits = rng.integers(0, 2 ** 64, size=(60000, 3), dtype=np.uint64)
    columns = [*bits.view(np.float64).T, bits[:, 0].view(np.int64)]
    assert table_text(_write_table, columns) == table_text(reference_write_table, columns)


def test_power_table_is_correctly_rounded():
    powers = _decimal_tables().powers
    finite = np.isfinite(powers)
    assert finite[: 308 - _POW_LO].all()  # float64's own range at least
    for k, p in zip(range(_POW_LO, _POW_LO + len(powers)), powers):
        if finite[k - _POW_LO]:
            ulp = Fraction(*np.spacing(p).as_integer_ratio())
            assert abs(Fraction(*p.as_integer_ratio()) - Fraction(10) ** k) <= ulp / 2


def test_every_value_by_percent_when_no_product_is_trusted(monkeypatch):
    """A bound that trusts no product, as where longdouble is float64, writes the same bytes."""
    rng = np.random.default_rng(901)
    columns = [floats(rng, 3000), rng.integers(INT64.min, INT64.max, 3000), floats(rng, 3000)]
    expected = table_text(_write_table, columns)
    monkeypatch.setattr(tables_module, "_TIE_BOUND", 1.0)
    assert table_text(_write_table, columns) == expected
    assert expected == table_text(reference_write_table, columns)


def exact_product(x: float) -> tuple[int, int, int]:
    """(a, b, e) with a / b = |x| * 10**(16 - e) in [1e16, 1e17) exactly: the 17-digit product
    of a finite x != 0, and e = floor(log10 |x|) exactly."""
    num, den = abs(x).as_integer_ratio()
    e = math.floor(math.log10(abs(x)))  # off by at most one
    while True:
        a, b = num * 10 ** max(16 - e, 0), den * 10 ** max(e - 16, 0)
        if a < 10 ** 16 * b:
            e -= 1
        elif a >= 10 ** 17 * b:
            e += 1
        else:
            return a, b, e


def near_ties(n: int, seed: int) -> tuple[list, list]:
    """The floats among n random bit patterns whose 17-digit product P lies within 2 eps P of a
    half-integer (eps of longdouble), and those between 2 eps P and 4 eps P from one."""
    eps_num, eps_den = float(np.finfo(np.longdouble).eps).as_integer_ratio()
    inside, outside = [], []
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64)
    for x in bits.view(np.float64).tolist():
        if x != 0.0 and math.isfinite(x):
            a, b, _ = exact_product(x)
            # the distance |a / b mod 1 - 1/2| against 2 eps a / b, both times 2 b eps_den
            twice = abs(2 * (a % b) - b) * eps_den
            if twice <= 4 * eps_num * a:
                inside.append(x)
            elif twice <= 8 * eps_num * a:
                outside.append(x)
    return inside, outside


def test_near_ties_and_range_edges_match_percent(monkeypatch):
    # products inside the tie band and just outside it, products at 1e16 and 1e17 (around
    # powers of ten, where floor(log10) is off by one or rint carries to 1e17), signed zeros,
    # subnormals and the largest float: each written as '%.17g' % x
    inside, outside = near_ties(20000, 1000)
    powers = [float(Fraction(10) ** k) for k in range(-323, 309)]
    edges = powers + [float(np.nextafter(p, to)) for p in powers for to in (0.0, math.inf)]
    specials = [0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308]
    values = inside + outside + edges + specials
    values += [-v for v in values]

    def written(vals):
        return table_text(_write_table, [np.array(vals)])

    def percent(vals):
        return "c0\n" + "".join("%.17g\n" % v for v in vals)

    assert written(values) == percent(values)
    products = [exact_product(v) for v in edges]
    assert any(np.floor(np.log10(v)) != e for v, (_, _, e) in zip(edges, products))
    assert any(2 * a >= (2 * 10 ** 17 - 1) * b for a, b, _ in products)  # rint carries to 1e17
    if np.finfo(np.longdouble).nmant == 63:  # x87: the band holds products whose rint is wrong
        assert len(inside) > 100 and len(outside) > 100
        monkeypatch.setattr(tables_module, "_TIE_BOUND", 0.0)
        assert written(inside) != percent(inside)


def test_special_columns_raise_no_warning():
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-310, 1e-320])
    columns = [special, special[::-1].copy(), np.arange(len(special))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = table_text(_write_table, columns)
    assert text == table_text(reference_write_table, columns)
