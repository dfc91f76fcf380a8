#!/usr/bin/env python3
"""Golden-ratio chain walkthrough: scheme diagnostics, spectrum, oracle check.

Builds the d = m = 1 scheme with basis columns (1, 1) and (tau, 1 - tau),
prints the strongest diffraction peaks, and compares the closed-form
amplitudes against the direct patch-sum oracle at two radii.
"""

import numpy as np

from cutproject import (
    Box,
    CutProjectScheme,
    Lattice,
    Window,
    box_profile,
    density,
    diffraction,
    internal_density_check,
    make_cutoff,
    model_set,
    oracle_amplitudes,
    verify_injectivity,
)

TAU = (1.0 + np.sqrt(5.0)) / 2.0


def main() -> None:
    scheme = CutProjectScheme(lat=Lattice([[1.0, TAU], [1.0, 1.0 - TAU]]), d=1)
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    cutoff = make_cutoff(Box([0.0], [1.0]), 0.1)

    print(f"lattice density: {density(scheme.lat):.12f} (1/sqrt5 = {1/np.sqrt(5):.12f})")
    inj = verify_injectivity(scheme, search_radius=50.0)
    dens = internal_density_check(scheme, Box([0.0], [1.0]), eps=0.05, search_radius=200.0)
    print(f"injectivity certificate (radius 50): {'ok' if inj.ok else 'FAIL'}")
    print(f"internal density certificate (eps 0.05): {'ok' if dens.ok else 'FAIL'}, "
          f"max gap {dens.max_gap:.4f}")

    z = model_set(scheme, window, Box([0.0], [30.0]))
    xs = scheme.split(z)[0][:, 0]
    print(f"\nmodel set on [0, 30]: {len(z)} points, gaps "
          f"{sorted(set(np.round(np.diff(xs), 6)))}")

    spectrum = diffraction(scheme, window, profile, Box([-5.0], [5.0]), 0.01, cutoff)
    order = np.argsort(-np.abs(spectrum.amplitudes))[:8]
    print(f"\nspectrum: {spectrum.n_peaks} peaks above 0.01 in |k| <= 5")
    print(f"{'k':>10} {'kstar':>10} {'|A| closed':>12} {'|A| R=500':>12} {'|A| R=2000':>12}")
    oracle_500 = oracle_amplitudes(scheme, window, profile, spectrum.ks[order], 500.0)
    oracle_2000 = oracle_amplitudes(scheme, window, profile, spectrum.ks[order], 2000.0)
    for i, idx in enumerate(order):
        print(f"{spectrum.ks[idx, 0]:>10.5f} {spectrum.internals[idx, 0]:>10.5f} "
              f"{abs(spectrum.amplitudes[idx]):>12.8f} {abs(oracle_500[i]):>12.8f} "
              f"{abs(oracle_2000[i]):>12.8f}")
    err = np.abs(oracle_2000 - spectrum.amplitudes[order])
    print(f"\nmax |oracle(R=2000) - closed| over these peaks: {err.max():.2e}")


if __name__ == "__main__":
    main()
