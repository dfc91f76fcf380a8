"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cutproject import (
    Box,
    MotifAtom,
    MotifDensityFiber,
    PeriodicMeasure,
    TruncationSpec,
    WeightedComb,
    Window,
    a_norm,
    autocorrelation_patch,
    box_profile,
    descent,
    diffraction,
    dual,
    dual_cps,
    eps_norm_almost_periods,
    lattice_comb_transform,
    lattice_points_in_box,
    lift,
    lift_pd_crosscheck,
    make_cutoff,
    model_comb,
    model_set,
    norm_bound_check,
    oracle_amplitudes,
    pairing_values,
    project,
    spectral_projector,
    strip_comb,
    trapezoid_profile,
)
from cutproject.spectra import _axis_pair_tail

from .helpers import grid_a_norm

REPO = Path(__file__).resolve().parents[1]
FIB_CONFIG = REPO / "configs" / "fibonacci.toml"
DENS = 1.0 / np.sqrt(5.0)


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s


def fib_top_peaks(fib, count):
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)
    spec = diffraction(fib, window, profile, Box([-5.0], [5.0]), 0.01, cutoff)
    order = np.argsort(-np.abs(spec.amplitudes))[:count]
    return spec, order


def test_criterion_1_dual_pairing(fib, cps2d):
    with criterion(1, "dual pairing on Fibonacci and a random 2+2 scheme", 1.0):
        rng = np.random.default_rng(101)
        for cps in (fib, cps2d):
            n = cps.lat.n
            z = rng.integers(-20, 21, size=(1000, n))
            w = rng.integers(-20, 21, size=(1000, n))
            pair = np.sum(cps.lat.points(z) * dual(cps.lat).points(w), axis=1)
            assert np.max(np.abs(np.exp(2j * np.pi * pair) - 1.0)) < 1e-10


def test_criterion_2_lift_descent_round_trip(fib):
    with criterion(2, "lift/descent round trips, exact in integer coordinates", 1.0):
        window = Window(Box([0.0], [1.0]))
        z_all = model_set(fib, window, Box([0.0], [60.0]))
        rng = np.random.default_rng(202)
        for _ in range(100):
            size = int(rng.integers(1, len(z_all) + 1))
            idx = rng.choice(len(z_all), size=size, replace=False)
            weights = rng.normal(size=size) + 1j * rng.normal(size=size)

            gamma = model_comb(fib, z_all[idx], weights)
            eta = lift(fib, gamma, window)
            back = descent(fib, eta)
            assert np.array_equal(back.weights, gamma.weights)
            assert np.array_equal(back.refs, gamma.refs)
            assert np.array_equal(back.positions, gamma.positions)

            eta0 = strip_comb(fib, z_all[idx], weights)
            up = lift(fib, descent(fib, eta0), window)
            assert np.array_equal(up.weights, eta0.weights)
            assert np.array_equal(up.refs, eta0.refs)
            assert np.array_equal(up.positions, eta0.positions)


def _patch_for(cps, rng):
    if cps.m == 1:
        window = Window(Box([0.0], [1.0]))
        query = Box([0.0], [40.0])
    else:
        window = Window(Box([0.0, 0.0], [1.0, 1.0]))
        query = Box([-4.0, -4.0], [4.0, 4.0])
    z = model_set(cps, window, query)
    weights = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    comb = model_comb(cps, z, weights)
    lo = comb.extent.lo - 1.0
    hi = comb.extent.hi + 1.0
    gamma = autocorrelation_patch(comb, Box(lo, hi))
    bbox = window.bounding_box()
    diff_window = Window(Box(bbox.lo - bbox.hi, bbox.hi - bbox.lo))
    return gamma, diff_window


def _flip_center(gamma):
    idx = int(np.argmin(np.linalg.norm(gamma.positions, axis=1)))
    w = gamma.weights.copy()
    w[idx] = -w[idx]
    return WeightedComb(gamma.positions, w, refs=gamma.refs, validate=False)


def test_criterion_3_pd_lift_crosscheck(fib, cps2d):
    with criterion(3, "positive definiteness transfers through the lift", 30.0):
        for i in range(100):
            cps = fib if i % 2 == 0 else cps2d
            rng = np.random.default_rng(3000 + i)
            gamma, diff_window = _patch_for(cps, rng)
            report = lift_pd_crosscheck(cps, gamma, diff_window, trials=2, seed=3000 + i)
            assert report.entrywise_equal
            assert report.down_ok and report.up_ok
            assert np.array_equal(report.min_eigs_down, report.min_eigs_up)
            assert np.min(report.min_eigs_down) >= -1e-8
        for i in range(20):
            cps = fib if i % 2 == 0 else cps2d
            rng = np.random.default_rng(3500 + i)
            gamma, diff_window = _patch_for(cps, rng)
            report = lift_pd_crosscheck(cps, _flip_center(gamma), diff_window,
                                        trials=2, seed=3500 + i)
            assert report.entrywise_equal
            assert not report.down_ok and not report.up_ok
            assert report.down_ok == report.up_ok


def test_criterion_4_route_equality_and_cutoff_independence(fib):
    with criterion(4, "fibered-pairing route equals the closed form; margins agree", 30.0):
        spec, order = fib_top_peaks(fib, 20)
        shifts = spec.internals[order]
        closed_fiber = box_profile(Box([0.0], [1.0])).transform().value(-shifts)
        closed_amp = DENS * closed_fiber
        assert np.max(np.abs(spec.amplitudes[order] - closed_amp)) < 1e-14

        per_margin = {}
        for margin in (0.05, 0.1, 0.2):
            f = make_cutoff(Box([0.0], [1.0]), margin).dual_transform()
            fiber = box_profile(Box([0.0], [1.0])).transform()
            env_f = f.axes[0].envelope()
            env_h = fiber.axes[0].envelope()
            radius = 1500.0
            while np.max(_axis_pair_tail(env_f, env_h, radius, shifts[:, 0])) > 1.8e-8:
                radius *= 1.3
            trunc = TruncationSpec(radius=radius, panel=1.0, order=24, tail_tol=2e-8)
            values, tails = pairing_values(f, fiber, shifts, trunc)
            assert np.max(tails) <= 2e-8  # certified truncation tail
            amps = DENS * values
            rel = np.abs(amps - closed_amp) / np.abs(closed_amp)
            assert np.max(rel) < 1e-8
            per_margin[margin] = amps
        for one, two in ((0.05, 0.1), (0.05, 0.2), (0.1, 0.2)):
            assert np.max(np.abs(per_margin[one] - per_margin[two])) < 1e-9


def test_criterion_5_oracle_convergence(fib):
    with criterion(5, "closed-form amplitudes match the patch oracle", 60.0):
        window = Window(Box([0.0], [1.0]))
        profile = box_profile(Box([0.0], [1.0]))
        spec, order = fib_top_peaks(fib, 10)
        ks = spec.ks[order]
        closed = spec.amplitudes[order]
        oracle = oracle_amplitudes(fib, window, profile, ks, 2000.0)
        ref = float(np.max(np.abs(closed)))
        assert np.max(np.abs(oracle - closed)) < 0.03 * ref

        z = model_set(fib, window, Box([-2000.0], [2000.0]))
        empirical = len(z) / 4000.0
        at_zero = closed[np.argmin(np.linalg.norm(ks, axis=1))]
        assert abs(at_zero.real - empirical) < 0.01 * empirical


def test_criterion_6_projector_commutation(fib):
    with criterion(6, "spectral projectors commute with the projection", 5.0):
        base = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
        rho = PeriodicMeasure(
            period=base.period, d=1, m=1, scale=base.scale,
            motif=base.motif + (
                MotifDensityFiber(
                    density=trapezoid_profile([-0.3], [0.3], 0.2),
                    fiber=trapezoid_profile([-0.5], [0.5], 0.25).transform(),
                ),
            ),
        )
        f = make_cutoff(Box([-0.5], [1.0]), 0.2).dual_transform()
        query = Box([-5.0], [5.0])
        internal_radius = 40.0
        whole = project(rho, f, query, 1e-4, internal_radius)
        pp = project(spectral_projector(rho, "pp"), f, query, 1e-4, internal_radius)
        ac = project(spectral_projector(rho, "ac"), f, query, 1e-4, internal_radius)
        sc = project(spectral_projector(rho, "sc"), f, query, 1e-4, internal_radius)

        assert np.array_equal(pp.atoms.positions, whole.atoms.positions)
        assert np.max(np.abs(pp.atoms.weights - whole.atoms.weights)) <= 1e-10
        assert pp.densities == () and ac.atoms.n_atoms == 0
        assert len(ac.densities) == len(whole.densities) == 1
        assert np.array_equal(ac.densities[0].translates, whole.densities[0].translates)
        assert np.max(np.abs(ac.densities[0].coefficients
                             - whole.densities[0].coefficients)) <= 1e-10
        assert sc.atoms.n_atoms == 0 and sc.densities == ()

        parts = (
            spectral_projector(rho, "pp").motif
            + spectral_projector(rho, "ac").motif
            + spectral_projector(rho, "sc").motif
        )
        assert sorted(map(id, parts)) == sorted(map(id, rho.motif))


def test_criterion_7_norm_bound_and_almost_periods(fib):
    with criterion(7, "projection norm bound holds; projected spectrum is almost periodic", 60.0):
        rng = np.random.default_rng(7007)
        internal_radius = 30.0
        for case in range(20):
            a = float(rng.uniform(-0.2, 0.2))
            b = float(rng.uniform(0.6, 1.1))
            delta = float(rng.uniform(0.1, 0.3))
            profile = trapezoid_profile([float(rng.uniform(0.0, 0.2))],
                                        [float(rng.uniform(0.5, 0.9))],
                                        float(rng.uniform(0.1, 0.25)))
            rho = lattice_comb_transform(fib, profile)
            if case % 3 == 0:
                rho = PeriodicMeasure(
                    period=rho.period, d=1, m=1, scale=rho.scale,
                    motif=rho.motif + (
                        MotifAtom(phys=np.zeros(1), internal=np.array([0.2]),
                                  weight=complex(rng.uniform(0.2, 1.0))),
                    ),
                )
            f = make_cutoff(Box([a], [b]), delta).dual_transform()
            k_lo = float(rng.uniform(-1.0, 0.0))
            k_hi = k_lo + float(rng.uniform(0.5, 2.0))
            k_box = Box([k_lo], [k_hi])
            k1_box = Box([k_lo - 0.3], [k_hi + 0.3])
            report = norm_bound_check(rho, f, k_box, k1_box, sweep_halfwidth=20.0, internal_sweep=5.0,
                                      internal_radius=internal_radius)
            assert report.ok, f"case {case}: left {report.left} > right {report.right}"
            assert report.constant_per_axis == pytest.approx(1.0 + np.pi * np.tanh(np.pi), abs=2e-6)

        # fixed, not drawn, so the cases above keep their draws: a density
        # component puts mass on the left side's density branch
        base = lattice_comb_transform(fib, trapezoid_profile([0.1], [0.7], 0.2))
        rho = PeriodicMeasure(
            period=base.period, d=1, m=1, scale=base.scale,
            motif=base.motif + (
                MotifDensityFiber(
                    density=trapezoid_profile([-0.3], [0.3], 0.2),
                    fiber=trapezoid_profile([-0.5], [0.5], 0.25).transform(),
                ),
            ),
        )
        f = make_cutoff(Box([-0.1], [0.9]), 0.2).dual_transform()
        report = norm_bound_check(rho, f, Box([-0.5], [0.5]), Box([-0.8], [0.8]), sweep_halfwidth=20.0,
                                  internal_sweep=5.0, internal_radius=internal_radius)
        assert report.ok, f"density case: left {report.left} > right {report.right}"
        assert report.left_density > 0.0

        # almost periods of the projected pure-point measure on [-50, 50]
        rho = lattice_comb_transform(fib, box_profile(Box([0.0], [1.0])))
        f = make_cutoff(Box([0.0], [1.0]), 0.1).dual_transform()
        proj = project(spectral_projector(rho, "pp"), f, Box([-50.0], [50.0]), 0.0, 6.5)
        eps = 0.1 * float(np.max(np.abs(proj.atoms.weights)))

        dual_pts, dual_pos = lattice_points_in_box(
            dual_cps(fib).lat, Box([-80.0, -0.004], [80.0, 0.004])
        )
        candidates = dual_pos[:, :1]
        cand_ts = np.sort(dual_pos[:, 0])
        candidate_bound = float(np.max(np.diff(cand_ts)))
        scan = eps_norm_almost_periods(proj.atoms, Box([0.0], [1.0]), eps, candidates)
        # every small-internal translate qualifies
        assert np.count_nonzero(scan.accepted) == len(candidates) >= 3
        assert scan.max_gap <= candidate_bound


def test_criterion_8_a_norm_sweep_vs_grid():
    with criterion(8, "event-driven window norm equals the brute-force grid", 30.0):
        rng = np.random.default_rng(808)
        for case in range(25):
            idx = rng.choice(640, size=40, replace=False)
            pos = (idx / 64.0)[:, None]
            w = rng.normal(size=40) + 1j * rng.normal(size=40)
            comb = WeightedComb(pos, w)
            box = Box([0.0], [0.937])
            region = Box([0.5], [9.5])
            assert a_norm(comb, box, region) == pytest.approx(
                grid_a_norm(comb, box, region, pitch=1e-3), abs=1e-6
            )
        for case in range(25):
            idx = rng.choice(256, size=(50, 2), replace=True)
            pos = np.unique(idx / 64.0, axis=0)
            w = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
            comb = WeightedComb(pos, w)
            box = Box([0.0, 0.0], [0.937, 0.65])
            region = Box([0.25, 0.25], [3.75, 3.75])
            assert a_norm(comb, box, region) == pytest.approx(
                grid_a_norm(comb, box, region, pitch=1e-3), abs=1e-6
            )


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "diffract output is byte-identical across runs and thread counts", 60.0):
        outputs = []
        for name, threads in (("one.csv", "1"), ("two.csv", "1"), ("four.csv", "4")):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "cutproject", "diffract",
                 "--config", str(FIB_CONFIG), "--out", str(out), "--threads", threads],
                capture_output=True, text=True, cwd=REPO,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        meta = json.loads((tmp_path / "one.csv.json").read_text())
        assert meta["n_peaks"] > 0
