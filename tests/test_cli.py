import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutproject import (Box, CutProjectScheme, Lattice, Window, box_profile, cli, density, make_cutoff,
                        model_comb, model_set)
from cutproject.cli import (CONFIG_KEYS, GOLDEN, ConfigError, build_parser, load_config, main,
                            parse_config_text, resolve_config)
from cutproject.spectra import _fiber_radii

from .helpers import (brute_points_around, crosscheck_trial_by_trial, full_box_diffraction,
                      grouped_almost_period_scan, integer_difference_candidates, random_schemes,
                      reference_write_table, rowwise_almostperiods_csv, rowwise_spectrum_csv)

REPO = Path(__file__).resolve().parents[1]
FIB_CONFIG = REPO / "configs" / "fibonacci.toml"
AB_CONFIG = REPO / "configs" / "ammann_beenker.toml"
DATA = REPO / "tests" / "data"

ZSPLIT = """
d = 1
m = 1
basis = [[1, 0], [0, 1]]
window = [[0, 1]]
profile = "box"
profile_box = [0, 1]
query = [-2, 2]
patch_query = [0, 40]
"""


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "cutproject", *argv],
        capture_output=True, text=True, cwd=REPO,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


# ---------------------------------------------------------------------------
# config parsing


def test_golden_expansion():
    values = parse_config_text("x = 1 - golden\ny = golden")
    assert values["y"] == GOLDEN
    assert values["x"] == 1.0 - GOLDEN


def test_parse_error_names_key():
    with pytest.raises(ConfigError, match="'basis'"):
        resolve_config(parse_config_text("d = 1\nm = 1\nbasis = [[1, oops]]"))


def test_rank_mismatch_rejected():
    text = "d = 1\nm = 2\nbasis = [[1, 0], [0, 1]]\nwindow = [[0, 1]]\nquery = [0, 1]"
    with pytest.raises(ConfigError, match="rank"):
        resolve_config(parse_config_text(text))


def test_missing_key_reported():
    with pytest.raises(ConfigError, match="missing required key 'window'"):
        resolve_config(parse_config_text("d = 1\nm = 1\nbasis = [[1, 0], [0, 1]]\nquery = [0, 1]"))


def test_section_headers_flatten():
    values = parse_config_text("[scheme]\nd = 1")
    assert values == {"scheme.d": 1}


def test_scheme_config_reads_dimensions_off_its_scheme():
    # the config keys d and m are checked against the lattice, then held by the scheme alone
    assert not {"d", "m"} & {f.name for f in dataclasses.fields(cli.SchemeConfig)}
    cfg = resolve_config(parse_config_text(AB_CONFIG.read_text()))
    assert (cfg.scheme.d, cfg.scheme.m) == (2, 2)


def test_config_file_resolves():
    cfg = resolve_config(parse_config_text(FIB_CONFIG.read_text()))
    assert cfg.scheme.d == cfg.scheme.m == 1
    assert cfg.scheme.lat.basis[0, 1] == GOLDEN
    assert cfg.threshold == 0.01


# ---------------------------------------------------------------------------
# exit codes


def test_check_fibonacci_exit_zero():
    proc = run_cli("check", "--config", str(FIB_CONFIG))
    assert proc.returncode == 0
    assert "injectivity: ok" in proc.stdout
    assert "internal density: ok" in proc.stdout
    assert "dual pairing: ok" in proc.stdout


def test_check_config_error_exit_two(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("d = 1\nm = 2\nbasis = [[1, 0], [0, 1]]\nwindow = [[0, 1]]\nquery = [0, 1]")
    proc = run_cli("check", "--config", str(bad))
    assert proc.returncode == 2
    assert "basis" in proc.stderr


def test_atoms_profile_kind_rejected(tmp_path, capsys):
    # an atomic profile's transform has no decay certificate, so no command can use one
    cfg = tmp_path / "atoms.toml"
    cfg.write_text(ZSPLIT.replace('profile = "box"\nprofile_box = [0, 1]',
                                  'profile = "atoms"\nprofile_atoms = [[0.5, 1, 0]]'))
    assert main(["diffract", "--config", str(cfg)]) == 2
    assert "unknown kind 'atoms'" in capsys.readouterr().err


def test_misspelled_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "typo.toml"
    cfg.write_text(FIB_CONFIG.read_text().replace("threshold = 0.01", "treshold = 0.5"))
    assert main(["diffract", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: unknown key 'treshold'\n"


def test_sectioned_key_rejected(capsys):
    # keys under a [section] header are flattened to 'section.key', which no command reads
    text = f"{FIB_CONFIG.read_text()}\n[diag]\ninj_radius = 3\nzeta = 1\n"
    with pytest.raises(ConfigError, match="^unknown key 'diag.inj_radius'$"):
        resolve_config(parse_config_text(text))


def test_check_square_lattice_exit_one(tmp_path):
    cfg = tmp_path / "zsplit.toml"
    cfg.write_text(ZSPLIT)
    proc = run_cli("check", "--config", str(cfg))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_exit_three_is_an_exhausted_budget():
    proc = run_cli("modelset", "--config", str(FIB_CONFIG), "--budget", "1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget error: enumeration budget exceeded")
    for knob in ("budget =", "--budget", "patch_query", "--radius", "threshold"):
        assert knob in proc.stderr


def test_exit_three_is_out_of_memory(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "autocorrelation_patch", exhausted)
    assert main(["pdcheck", "--config", str(FIB_CONFIG), "--trials", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: MemoryError\n")
    for knob in ("budget =", "--budget", "patch_query", "--radius", "threshold"):
        assert knob in err


def test_exit_four_is_a_crash_with_its_traceback(tmp_path):
    # a module the interpreter imports at start-up breaks one library function, then
    # ``python -m cutproject`` runs as usual
    (tmp_path / "sitecustomize.py").write_text(
        "import cutproject.cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise RuntimeError('injected defect')\n"
        "cutproject.cli.autocorrelation_patch = broken\n")
    path = os.pathsep.join([str(tmp_path), str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "cutproject", "pdcheck", "--config", str(FIB_CONFIG), "--trials", "5"],
        capture_output=True, text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert "in cmd_pdcheck" in proc.stderr
    assert proc.stderr.endswith("RuntimeError: injected defect\n")


# ---------------------------------------------------------------------------
# modelset


def test_modelset_csv(tmp_path, fib, fib_window):
    out = tmp_path / "points.csv"
    proc = run_cli("modelset", "--config", str(FIB_CONFIG), "--out", str(out), check=True)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,xstar1,z1,z2"
    from cutproject import Box, model_set

    z = model_set(fib, fib_window, Box([0.0], [120.0]))
    assert len(lines) == len(z) + 1
    first = lines[1].split(",")
    assert float(first[0]) == fib.split(z)[0][0, 0]
    assert int(first[2]) == z[0, 0]


# ---------------------------------------------------------------------------
# diffract


def test_diffract_deterministic_and_thread_invariant(tmp_path):
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        run_cli("diffract", "--config", str(FIB_CONFIG), "--out", str(out),
                "--threads", threads, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    meta = json.loads((tmp_path / "a.csv.json").read_text())
    assert meta["peak_phase_sign"] == -1
    assert meta["config"]["threshold"] == 0.01


def test_diffract_zero_amplitude_cases(tmp_path):
    empty_query = tmp_path / "empty.toml"
    empty_query.write_text(FIB_CONFIG.read_text().replace("query = [-5, 5]", "query = [0.2, 0.21]"))
    out = tmp_path / "empty.csv"
    run_cli("diffract", "--config", str(empty_query), "--out", str(out), check=True)
    assert out.read_text().strip() == "k1,re,im,intensity"

    high = tmp_path / "high.toml"
    high.write_text(FIB_CONFIG.read_text().replace("threshold = 0.01", "threshold = 0.9"))
    out2 = tmp_path / "high.csv"
    run_cli("diffract", "--config", str(high), "--out", str(out2), check=True)
    assert out2.read_text().strip() == "k1,re,im,intensity"


def test_diffract_amplitude_at_zero(tmp_path):
    out = tmp_path / "spec.csv"
    run_cli("diffract", "--config", str(FIB_CONFIG), "--out", str(out), check=True)
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    at_zero = [r for r in rows if float(r[0]) == 0.0]
    assert len(at_zero) == 1
    assert float(at_zero[0][1]) == pytest.approx(0.4472135954999579, abs=1e-12)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_agreement(tmp_path):
    out = tmp_path / "oracle.csv"
    run_cli("oracle", "--config", str(FIB_CONFIG), "--out", str(out), "--top", "10", check=True)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k1,re_closed,im_closed,re_oracle,im_oracle,agreement"
    assert len(lines) == 11
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 0.03
    zero_rows = [line for line in lines[1:] if float(line.split(",")[0]) == 0.0]
    assert len(zero_rows) == 1
    cells = zero_rows[0].split(",")
    assert float(cells[3]) == pytest.approx(float(cells[1]), rel=0.01)


def test_oracle_zero_radius_exit_two():
    proc = run_cli("oracle", "--config", str(FIB_CONFIG), "--radius", "0")
    assert proc.returncode == 2


def test_oracle_nan_radius_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(FIB_CONFIG), "--radius", "nan"])
    assert exc.value.code == 2
    assert "argument --radius: not a valid float: nan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pdcheck / almostperiods


def test_pdcheck_ok_and_corrupt():
    ok = run_cli("pdcheck", "--config", str(FIB_CONFIG), "--trials", "10")
    assert ok.returncode == 0
    assert "ok" in ok.stdout and "FAIL" not in ok.stdout
    bad = run_cli("pdcheck", "--config", str(FIB_CONFIG), "--trials", "10", "--corrupt")
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout


def test_almostperiods_eps_zero_only_identity(tmp_path):
    out = tmp_path / "ap.csv"
    proc = run_cli("almostperiods", "--config", str(FIB_CONFIG), "--eps", "0",
                   "--out", str(out), check=True)
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    accepted = [float(r[0]) for r in rows if r[-1] == "1"]
    assert accepted == [0.0]
    assert "accepted 1 of" in proc.stdout


AMMANN_BEENKER = """
d = 2
m = 2
basis = [[1, 0.70710678118654752, 0, -0.70710678118654752], [0, 0.70710678118654752, 1, 0.70710678118654752], [1, -0.70710678118654752, 0, 0.70710678118654752], [0, 0.70710678118654752, -1, 0.70710678118654752]]
window = [[-1, 1, -1, 1]]
profile = "trapezoid"
profile_plateau = [-0.8, 0.8, -0.8, 0.8]
profile_margin = 0.2
query = [-4, 4, -4, 4]
patch_query = [17.3, 45.3, -40, -12]
"""


@pytest.mark.parametrize("scheme, eps", [("fib", "1.5"), ("ab", "0")])
def test_almostperiods_merges_on_integer_coordinates(tmp_path, monkeypatch, capsys, scheme, eps):
    from cutproject import lattice

    def no_float_path(*args, **kwargs):
        raise AssertionError("float merge reached")

    if scheme == "fib":
        config = FIB_CONFIG
    else:
        config = tmp_path / "ab.toml"
        config.write_text(AMMANN_BEENKER)
    # eps 0 on the 2-D scheme keeps the accepted set at t = 0, so the max-gap
    # diagnostic, which matches accepted translations in a k-d tree, stays idle
    monkeypatch.setattr(lattice, "cKDTree", no_float_path)
    out = tmp_path / "ap.csv"
    code = main(["almostperiods", "--config", str(config), "--eps", eps,
                 "--max-candidates", "50", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert f"of {len(rows)} candidates (0 skipped)" in capsys.readouterr().out
    assert len(rows) == 51


def test_almostperiods_single_atom_patch(tmp_path, capsys):
    config = tmp_path / "one.toml"
    config.write_text(FIB_CONFIG.read_text() + "patch_query = [0, 0.5]\n")
    out = tmp_path / "ap.csv"
    assert main(["almostperiods", "--config", str(config), "--eps", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "accepted 0 of 1 candidates (1 skipped), max gap inf\n"
    assert out.read_text() == "t1,norm,accepted\n"


@pytest.mark.parametrize("argv, flag", [
    (["pdcheck", "--trials", "0"], "--trials"),
    (["almostperiods", "--eps", "1", "--max-candidates", "-3"], "--max-candidates"),
    (["oracle", "--top", "0"], "--top"),
    (["oracle", "--top", "-8"], "--top"),
    (["modelset", "--budget", "0"], "--budget"),
    (["modelset", "--budget", "-5"], "--budget"),
    (["check", "--seed", "-3"], "--seed"),
    (["modelset", "--seed", "-3"], "--seed"),
    (["almostperiods", "--eps", "-1"], "--eps"),
    (["almostperiods", "--eps", "nan"], "--eps"),
])
def test_bad_counts_rejected_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(FIB_CONFIG)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("line, message", [
    ("seed = -3", "key 'seed': must be at least 0"),
    ("budget = 0", "key 'budget': must be at least 1"),
])
def test_bad_seed_and_budget_keys_rejected(line, message):
    with pytest.raises(ConfigError, match=message):
        resolve_config(parse_config_text(f"{FIB_CONFIG.read_text()}\n{line}\n"))


def with_value(config: Path, key: str, value: str) -> str:
    """The config text with ``key = value`` in place of the key's line, or appended."""
    text = config.read_text()
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", text, flags=re.M):
        return re.sub(rf"^{key} = .*$", lambda _: line, text, flags=re.M)
    return f"{text}{line}\n"


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_junk_value_names_its_key(tmp_path, capsys, key):
    junk = ['"x"', "True", '[["x"]]'] + ["1.5"] * (key in ("d", "m", "seed", "budget"))
    for config in (FIB_CONFIG, AB_CONFIG):
        for value in junk:
            path = tmp_path / "junk.toml"
            path.write_text(with_value(config, key, value))
            try:
                load_config(str(path))
                error = None
            except ConfigError as exc:
                error = str(exc)
                assert f"key '{key}'" in error, (config.name, value)
            code = main(["modelset", "--config", str(path), "--out", str(tmp_path / "points.csv")])
            err = capsys.readouterr().err
            if error is None:
                assert code == 0, (config.name, value, err)
            else:
                assert (code, err) == (2, f"config error: {error}\n"), (config.name, value)


@pytest.mark.parametrize("key, value", [
    ("threshold", '"high"'),
    ("budget", '"many"'),
    ("query", '["a", 1]'),
    ("cutoff_margin", "-1"),
    ("cutoff_margin", "[0.1, 0.1]"),
    ("profile_box", "[1, 0]"),
    ("cutoff_plateau", "[1, 0]"),
    ("threshold", "1/0"),
    ("threshold", '"a" + 1'),
    ("threshold", '-"a"'),
    ("threshold", "1e400 - 1e400"),
    pytest.param("threshold", " + ".join(["1"] * 3000), id="threshold-too-deep"),
    ("basis", "[1, 2] * 2"),
    ("d", "1.5"),
    ("d", "True"),
    ("seed", "2.7"),
    ("seed", "1e400"),
    ("cutoff_plateau", "[0, 1, 0, 1]"),
    ("density_box", "[0, 1, 0, 1]"),
    ("query", "[-5, 5, -5, 5]"),
])
def test_malformed_value_is_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "bad.toml"
    path.write_text(with_value(FIB_CONFIG, key, value))
    assert main(["diffract", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key '{key}': ")


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "binary.toml"
    path.write_bytes(b"\xff\xfe")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "utf-8" in err


def test_integral_float_reads_as_int():
    cfg = resolve_config(parse_config_text(f"{FIB_CONFIG.read_text()}\nseed = 3.0\nbudget = 1e8\n"))
    assert (cfg.seed, cfg.budget) == (3, 100_000_000)
    assert type(cfg.seed) is int and type(cfg.budget) is int


def test_oracle_without_peaks_names_threshold(tmp_path, capsys):
    path = tmp_path / "high.toml"
    path.write_text(with_value(FIB_CONFIG, "threshold", "100"))
    assert main(["oracle", "--config", str(path), "--radius", "200"]) == 2
    assert capsys.readouterr().err == "config error: no spectrum peak in 'query' clears 'threshold' = 100\n"


def test_check_dual_pairing_absorbs_the_rounding_of_long_basis_columns(tmp_path, capsys):
    # the Fibonacci basis with its second column 100 times longer: the sampled lattice points
    # reach about 3,000, and max |exp(2 pi i k.l) - 1| rounds to 6.9e-11, between half the
    # check's 1e-10 and all of it
    path = tmp_path / "long.toml"
    path.write_text(with_value(FIB_CONFIG, "basis", "[[1, 100 * golden], [1, 100 * (1 - golden)]]"))
    main(["check", "--config", str(path)])
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("dual pairing: ok ")
    assert 5e-11 < float(line.rsplit("= ", 1)[1].rstrip(")")) < 1e-10


@pytest.mark.parametrize("args", [["almostperiods", "--eps", "1.5"], ["pdcheck"]])
def test_empty_patch_names_patch_query(tmp_path, capsys, args):
    # the patch is `patch_query`; `query`, the spectrum's box, holds peaks here
    path = tmp_path / "empty.toml"
    path.write_text(with_value(FIB_CONFIG, "patch_query", "[0.2, 0.21]"))
    assert main([*args, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: 'patch_query' holds no model-set points\n"


def test_almostperiods_one_row_per_translate(tmp_path):
    # a long patch: distinct integer translates are distinct t, and float
    # differences of one translate must not come out as near-equal twins
    config = tmp_path / "long.toml"
    config.write_text(FIB_CONFIG.read_text() + "patch_query = [0, 2000]\n")
    out = tmp_path / "ap.csv"
    assert main(["almostperiods", "--config", str(config), "--eps", "1.5",
                 "--max-candidates", "200", "--out", str(out)]) == 0
    ts = np.sort([float(line.split(",")[0]) for line in out.read_text().split("\n")[1:-1]])
    assert len(ts) == 201
    assert np.min(np.diff(ts)) > 1e-9


@pytest.mark.parametrize("config, args, name, stdout", [
    (FIB_CONFIG, ["--eps", "0.8"], "fibonacci_almostperiods", True),
    # the d = 2 summary's max gap comes from k-d tree distances, so only the table is pinned
    (AB_CONFIG, ["--eps", "6.5", "--max-candidates", "50"], "ammann_beenker_almostperiods", False),
    # the scale point, a config with its patch_query overridden: 3,785 atoms, 200 candidates
    ((AB_CONFIG, "[-30, 30, -30, 30]"), ["--eps", "6.5"], "ammann_beenker_almostperiods_3785", False),
])
def test_almostperiods_pinned_bytes(tmp_path, capsys, config, args, name, stdout):
    # t comes from elementwise Lattice.points and every norm is a sum of unit
    # masses, so these bytes hold on any numpy build
    if isinstance(config, tuple):
        config, patch = config
        text = config.read_text().replace("patch_query = [0, 28, 0, 28]", f"patch_query = {patch}")
        assert patch in text
        config = tmp_path / "patch.toml"
        config.write_text(text)
    out = tmp_path / "periods.csv"
    assert main(["almostperiods", "--config", str(config), *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    if stdout:
        assert capsys.readouterr().out == (DATA / f"{name}.stdout").read_text()


@pytest.mark.parametrize("config, args, name, code", [
    (FIB_CONFIG, ["--trials", "100"], "fibonacci_pdcheck", 0),
    (AB_CONFIG, ["--trials", "100"], "ammann_beenker_pdcheck", 0),
    (FIB_CONFIG, ["--corrupt", "--trials", "20"], "fibonacci_pdcheck_corrupt", 1),
    (AB_CONFIG, ["--corrupt", "--trials", "20"], "ammann_beenker_pdcheck_corrupt", 1),
])
def test_pdcheck_pinned_stdout(capsys, config, args, name, code):
    # the printed minimum eigenvalues are O(1) at 4 digits, far above what a
    # different LAPACK build can move
    assert main(["pdcheck", "--config", str(config), *args]) == code
    assert capsys.readouterr().out == (DATA / f"{name}.stdout").read_text()


@pytest.mark.parametrize("config", [FIB_CONFIG, AB_CONFIG])
def test_pdcheck_fails_a_lift_off_the_strip(capsys, monkeypatch, config):
    # a lift that keeps refs and weights but moves every internal coordinate by +7:
    # the lifted Gram entries are read where eta sits in G x H, so they all vanish
    from cutproject import WeightedComb, posdef

    lift = posdef.lift

    def off_strip(cps, gamma, window):
        eta = lift(cps, gamma, window)
        moved = eta.positions + np.r_[np.zeros(cps.d), np.full(cps.m, 7.0)]
        return WeightedComb(moved, eta.weights, refs=eta.refs, validate=False)

    monkeypatch.setattr(posdef, "lift", off_strip)
    assert main(["pdcheck", "--config", str(config), "--trials", "20"]) == 1
    assert "gram matrices entrywise equal: FAIL\n" in capsys.readouterr().out


def flat_box(lo, hi) -> str:
    return "[" + ", ".join(f"{a!r}, {b!r}" for a, b in zip(lo.tolist(), hi.tolist())) + "]"


@settings(max_examples=60)
@given(random_schemes())
def test_modelset_bytes_match_a_brute_scan(scheme):
    d, m, basis, window, (patch_lo, patch_hi) = scheme
    lat = Lattice(basis)
    full = Box(np.concatenate([patch_lo, np.min([lo for lo, _ in window], axis=0)]),
               np.concatenate([patch_hi, np.max([hi for _, hi in window], axis=0)]))
    z, p = brute_points_around(lat, full)
    x, xstar = p[:, :d], p[:, d:]
    keep = np.any([((xstar >= lo - 1e-9) & (xstar <= hi + 1e-9)).all(axis=1) for lo, hi in window], axis=0)
    order = np.lexsort(x[keep].T[::-1])  # by x, then by z: the brute rows come in z order
    z, x, xstar = z[keep][order], x[keep][order], xstar[keep][order]
    header = [f"x{i + 1}" for i in range(d)] + [f"xstar{i + 1}" for i in range(m)] + [f"z{i + 1}" for i in range(d + m)]
    with tempfile.TemporaryDirectory() as tmp:
        config, out, want = Path(tmp) / "scheme.toml", Path(tmp) / "points.csv", Path(tmp) / "want.csv"
        config.write_text(
            f"d = {d}\nm = {m}\nbasis = {basis.tolist()!r}\n"
            f"window = [{', '.join(flat_box(lo, hi) for lo, hi in window)}]\n"
            f"query = {flat_box(patch_lo, patch_hi)}\n"
        )
        assert main(["modelset", "--config", str(config), "--out", str(out)]) == 0
        reference_write_table(want, header, [*x.T, *xstar.T, *z.T])
        assert out.read_bytes() == want.read_bytes()


def random_config(d, m, basis, window, query, patch_query) -> str:
    return (f"d = {d}\nm = {m}\nbasis = {basis.tolist()!r}\n"
            f"window = [{', '.join(flat_box(lo, hi) for lo, hi in window)}]\n"
            f"query = {flat_box(*query)}\npatch_query = {flat_box(*patch_query)}\n")


@settings(max_examples=25)
@given(random_schemes().filter(lambda scheme: scheme[0] <= 2), st.integers(1, 30), st.floats(0.5, 6.0))
def test_almostperiods_bytes_match_the_grouped_merge_scan(scheme, max_cands, eps):
    # the patch grows so that candidates leave overlaps of the 12 unit windows per axis
    # that MIN_DIAMETERS asks; at d = 3 such patches are too large for the oracle's pairs
    d, m, basis, window, (lo, hi) = scheme
    patch = (lo, hi + (30.0 if d == 1 else 12.0))
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    z = model_set(cps, Window([Box(w_lo, w_hi) for w_lo, w_hi in window]), Box(*patch))
    assume(len(z))
    comb = model_comb(cps, z, np.ones(len(z)))
    cands, shifts = integer_difference_candidates(cps, comb.positions, comb.refs, max_cands)
    scan = grouped_almost_period_scan(comb, Box(np.zeros(d), np.ones(d)), eps, cands, shifts)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "scheme.toml", Path(tmp) / "periods.csv"
        config.write_text(random_config(d, m, basis, window, patch, patch))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["almostperiods", "--config", str(config), "--eps", repr(eps),
                         "--max-candidates", str(max_cands), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == rowwise_almostperiods_csv(d, scan.ts, scan.norms, scan.accepted).encode()
    skipped = int(np.isnan(scan.norms).sum())
    assert stdout.getvalue() == (f"accepted {np.count_nonzero(scan.accepted)} of {len(cands)} candidates "
                                 f"({skipped} skipped), max gap {scan.max_gap:.17g}\n")


@settings(max_examples=25)
@given(random_schemes(), st.floats(0.02, 0.5))
def test_diffract_bytes_match_the_full_box(scheme, fraction):
    # thin window sides widen to 0.5, whose box-profile transforms reach threshold far out;
    # the threshold starts at `fraction` of the highest peak and doubles until the outer
    # box the oracle enumerates holds about 2e4 dual points at most
    d, m, basis, window, query = scheme
    window = [(lo, np.maximum(hi, lo + 0.5)) for lo, hi in window]
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    profile = box_profile(Box(*window[0]))
    scale = density(cps.lat)
    threshold = fraction * scale * Box(*window[0]).volume
    while (np.prod(2.0 * _fiber_radii(profile.transform(), threshold / (10.0 * scale)))
           * Box(*query).volume / scale > 2e4):
        threshold *= 2.0
    bbox = Window([Box(lo, hi) for lo, hi in window]).bounding_box()
    want = full_box_diffraction(cps, profile, Box(*query), threshold, make_cutoff(bbox, np.full(m, 0.1)))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "scheme.toml", Path(tmp) / "spectrum.csv"
        config.write_text(random_config(d, m, basis, window, query, query) + f"threshold = {threshold!r}\n")
        assert main(["diffract", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == rowwise_spectrum_csv(d, want.ks, want.amplitudes).encode()


@settings(max_examples=60)
@given(random_schemes(), st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_pdcheck_stdout_matches_the_trial_by_trial_oracle(scheme, seed, trials):
    # gamma against a dict over all ordered pairs of patch points, keyed by z_i - z_j; the
    # report against the trial-by-trial oracle run on that gamma, whose atom order the trial
    # draws index; the oracle's O(n^2) lifted lookups keep patches to 150 points
    d, m, basis, window, patch = scheme
    cps = CutProjectScheme(lat=Lattice(basis), d=d)
    z = model_set(cps, Window([Box(lo, hi) for lo, hi in window]), Box(*patch))
    assume(0 < len(z) <= 150)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    x = cps.split(z)[0]
    sums = {}
    for zi, wi in zip(z.tolist(), w):
        for zj, wj in zip(z.tolist(), w):
            key = tuple(a - b for a, b in zip(zi, zj))
            sums[key] = sums.get(key, 0.0) + wi * np.conj(wj)
    vol = np.prod(x.max(axis=0) - x.min(axis=0) + 2.0)
    lo = np.min([w_lo for w_lo, _ in window], axis=0)
    hi = np.max([w_hi for _, w_hi in window], axis=0)
    gammas, crosscheck = [], cli.lift_pd_crosscheck

    def record(cps, gamma, window, trials, seed):
        gammas.append(gamma)
        return crosscheck(cps, gamma, window, trials=trials, seed=seed)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "lift_pd_crosscheck", record)
        config = Path(tmp) / "scheme.toml"
        config.write_text(random_config(d, m, basis, window, patch, patch) + f"seed = {seed}\n")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["pdcheck", "--config", str(config), "--trials", str(trials)])
    (gamma,) = gammas
    assert sorted(map(tuple, gamma.refs.tolist())) == sorted(sums)
    want = np.array([sums[tuple(r)] for r in gamma.refs.tolist()]) / vol
    assert np.allclose(gamma.weights, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    report = crosscheck_trial_by_trial(cps, gamma, Window(Box(lo - hi, hi - lo)), trials, seed)
    verdict = {True: "ok", False: "FAIL"}
    assert stdout.getvalue() == (
        f"configurations: {trials} trials, seed {seed}\n"
        f"downstairs positive semidefinite: {verdict[report.down_ok]} "
        f"(min eigenvalue {report.min_eigs_down.min():.3e})\n"
        f"lifted positive semidefinite: {verdict[report.up_ok]} "
        f"(min eigenvalue {report.min_eigs_up.min():.3e})\n"
        f"gram matrices entrywise equal: {verdict[report.entrywise_equal]}\n")
    assert code == (0 if report.down_ok and report.up_ok and report.entrywise_equal else 1)


@pytest.mark.parametrize("config, patch, name", [
    (FIB_CONFIG, None, "fibonacci_modelset"),
    (AB_CONFIG, "[0, 8, 0, 8]", "ammann_beenker_modelset"),
])
def test_modelset_pinned_bytes(tmp_path, config, patch, name):
    # positions are column-by-column sums of elementwise products (Lattice.points)
    # and %.17g is Python's own formatting, so these bytes hold on any numpy build
    if patch is not None:
        text = config.read_text().replace("patch_query = [0, 28, 0, 28]", f"patch_query = {patch}")
        assert patch in text
        config = tmp_path / "patch.toml"
        config.write_text(text)
    out = tmp_path / "points.csv"
    assert main(["modelset", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_diffract_pinned_bytes(tmp_path):
    # the 2+2 spectrum comes from the m >= 2 peak cover of doubling shells, and any
    # rewrite of the cover must keep these bytes; they are also the bytes numpy 2.4
    # writes with its AVX-512 and AVX2 loops turned off (NPY_DISABLE_CPU_FEATURES)
    out = tmp_path / "spectrum.csv"
    assert main(["diffract", "--config", str(AB_CONFIG), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "ammann_beenker_diffract.csv").read_bytes()
    sidecar = tmp_path / "spectrum.csv.json"
    assert sidecar.read_bytes() == (DATA / "ammann_beenker_diffract.json").read_bytes()


def test_oracle_explicit_peaks(tmp_path, capsys):
    out = tmp_path / "peaks.csv"
    assert main(["oracle", "--config", str(FIB_CONFIG), "--k", "0", "--k", "1.6180339887498949",
                 "--radius", "500", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
    assert [float(r[0]) for r in rows] == [0.0, 1.6180339887498949]
    assert all(float(r[-1]) <= 0.03 for r in rows)
    assert main(["oracle", "--config", str(FIB_CONFIG), "--k", "0.3"]) == 2
    assert "matches no spectrum peak" in capsys.readouterr().err


def test_parser_built_once_keeps_no_values_between_calls(tmp_path):
    assert build_parser() is build_parser()
    for k in ("0", "1.6180339887498949"):
        out = tmp_path / f"peaks_{k}.csv"
        assert main(["oracle", "--config", str(FIB_CONFIG), "--k", k, "--radius", "200",
                     "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [k]


def test_oracle_k_matches_in_the_sup_norm(tmp_path, capsys):
    # (9e-7, 9e-7) is 1.27e-6 from k = 0 in the Euclidean norm, 9e-7 in the sup norm
    out = tmp_path / "peaks.csv"
    assert main(["oracle", "--config", str(AB_CONFIG), "--radius", "30", "--k", "0.0000009,0.0000009",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
    assert [(float(r[0]), float(r[1])) for r in rows] == [(0.0, 0.0)]
    assert main(["oracle", "--config", str(AB_CONFIG), "--radius", "30", "--k", "0,0",
                 "--k", "0.0000011,0"]) == 2
    assert "k = [1.1e-06, 0.0] matches no spectrum peak" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, k", [("fib", "0,1.6180339887498949"), ("ab", "0")])
def test_oracle_k_needs_d_coordinates(tmp_path, capsys, scheme, k):
    config = FIB_CONFIG
    if scheme == "ab":
        config = tmp_path / "ab.toml"
        config.write_text(AMMANN_BEENKER)
    out = tmp_path / "peaks.csv"
    assert main(["oracle", "--config", str(config), "--k", "0" + ",0" * (scheme == "ab"),
                 "--k", k, "--out", str(out)]) == 2
    assert f"--k '{k}' has" in capsys.readouterr().err
    assert not out.exists()


def test_max_candidates_zero_keeps_identity(tmp_path, capsys):
    out = tmp_path / "ap.csv"
    code = main(["almostperiods", "--config", str(FIB_CONFIG), "--eps", "1",
                 "--max-candidates", "0", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "t1,norm,accepted\n0,0,1\n"
    assert capsys.readouterr().out.startswith("accepted 1 of 1 candidates (0 skipped)")


def test_main_in_process_matches_subprocess(capsys):
    code = main(["check", "--config", str(FIB_CONFIG)])
    assert code == 0
    assert "dual pairing: ok" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# enumeration


def test_elimination_runs_once_per_lattice(monkeypatch, capsys):
    from cutproject import cps, lattice, spectra
    from cutproject.spectra import diffraction

    builds, boxes = [], []

    def counted(calls, real):
        def call(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(lattice, "_fourier_motzkin", counted(builds, lattice._fourier_motzkin))
    for module in (spectra, cps):
        monkeypatch.setattr(module, "lattice_points_in_box", counted(boxes, module.lattice_points_in_box))

    cfg = load_config(AB_CONFIG)
    diffraction(cfg.scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(), budget=cfg.budget)
    assert (len(boxes), len(builds)) == (11, 1)  # the cover boxes on one dual lattice

    boxes.clear()
    builds.clear()
    assert main(["check", "--config", str(AB_CONFIG)]) == 0
    assert (len(boxes), len(builds)) == (2, 1)  # the injectivity and density boxes
    capsys.readouterr()


def test_dual_scheme_built_once_per_scheme(monkeypatch, capsys, tmp_path):
    from cutproject import cps, dual, dual_cps, lattice, lattice_comb_transform
    from cutproject.spectra import diffraction

    builds = []
    real = lattice._fourier_motzkin
    monkeypatch.setattr(lattice, "_fourier_motzkin", lambda lat: builds.append(lat) or real(lat))
    cfg = load_config(AB_CONFIG)
    dual_basis = dual(cfg.scheme.lat).basis

    def dual_builds():
        return sum(np.array_equal(lat.basis, dual_basis) for lat in builds)

    out = tmp_path / "compare.csv"
    assert main(["oracle", "--config", str(AB_CONFIG), "--top", "5", "--radius", "30", "--out", str(out)]) == 0
    assert (dual_builds(), len(builds)) == (1, 2)  # the dual's cover boxes and the primal patch
    capsys.readouterr()

    # a library caller holding one scheme reads one dual lattice through every route
    builds.clear()
    scheme = cps.CutProjectScheme(lat=Lattice(cfg.scheme.lat.basis), d=cfg.scheme.d)
    for _ in range(2):
        diffraction(scheme, cfg.window, cfg.profile, cfg.query, cfg.threshold, cfg.cutoff(),
                    budget=cfg.budget)
    assert (dual_builds(), len(builds)) == (1, 1)
    assert dual_cps(scheme) is scheme.dual
    assert lattice_comb_transform(scheme, cfg.profile).period is scheme.dual.lat
