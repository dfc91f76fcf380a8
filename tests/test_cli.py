import json
import subprocess
import sys
from pathlib import Path

import pytest

from cutproject.cli import GOLDEN, ConfigError, main, parse_config_text, resolve_config

REPO = Path(__file__).resolve().parents[1]
FIB_CONFIG = REPO / "configs" / "fibonacci.toml"

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


def test_config_file_resolves():
    cfg = resolve_config(parse_config_text(FIB_CONFIG.read_text()))
    assert cfg.d == cfg.m == 1
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


def test_check_square_lattice_exit_one(tmp_path):
    cfg = tmp_path / "zsplit.toml"
    cfg.write_text(ZSPLIT)
    proc = run_cli("check", "--config", str(cfg))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


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
    from cutproject import comb

    def no_float_path(*args, **kwargs):
        raise AssertionError("float merge reached")

    if scheme == "fib":
        config = FIB_CONFIG
    else:
        config = tmp_path / "ab.toml"
        config.write_text(AMMANN_BEENKER)
    # eps 0 on the 2-D scheme keeps the accepted set at t = 0, so the max-gap
    # diagnostic, which matches accepted translations in a k-d tree, stays idle
    monkeypatch.setattr(comb, "cKDTree", no_float_path)
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
])
def test_bad_counts_rejected_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(FIB_CONFIG)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err


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
