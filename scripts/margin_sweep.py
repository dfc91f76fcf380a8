#!/usr/bin/env python3
"""Cutoff-independence experiment: the spectrum does not move with the margin.

Pairs the transform measure against psi tensor the cutoff's inverse transform
for several ramp widths and tabulates the per-peak deviations.  As long as
the plateau contains the window, the amplitudes agree to the truncation tail.
Exits 1 when two margins disagree by more than CROSS_MARGIN_TOL or a
certified tail exceeds ``tail_tol``.
"""

import sys

import numpy as np

from cutproject import (
    Box,
    CutProjectScheme,
    Lattice,
    TruncationSpec,
    Window,
    box_profile,
    diffraction,
    make_cutoff,
    pairing_values,
)

TAU = (1.0 + np.sqrt(5.0)) / 2.0
MARGINS = (0.05, 0.1, 0.2, 0.4)
CROSS_MARGIN_TOL = 1e-9  # acceptance criterion 4: the amplitudes do not move with the margin


def main() -> int:
    scheme = CutProjectScheme(lat=Lattice([[1.0, TAU], [1.0, 1.0 - TAU]]), d=1)
    window = Window(Box([0.0], [1.0]))
    profile = box_profile(Box([0.0], [1.0]))
    spectrum = diffraction(scheme, window, profile, Box([-5.0], [5.0]), 0.05,
                           make_cutoff(Box([0.0], [1.0]), 0.1))
    order = np.argsort(-np.abs(spectrum.amplitudes))[:6]
    shifts = spectrum.internals[order]
    fiber = profile.transform()
    scale = spectrum.metadata["scale"]

    results = {}
    tails_ok = True
    for margin in MARGINS:
        f = make_cutoff(Box([0.0], [1.0]), margin).dual_transform()
        trunc = TruncationSpec(radius=4000.0, panel=1.0, order=24, tail_tol=1e-6)
        values, tails = pairing_values(f, fiber, shifts, trunc)
        results[margin] = scale * values
        tails_ok &= bool(tails.max() <= trunc.tail_tol)
        print(f"margin {margin}: max certified tail {tails.max():.2e}")

    print(f"\n{'k':>10} " + " ".join(f"margin {m:<8}" for m in MARGINS))
    for i, idx in enumerate(order):
        row = " ".join(f"{abs(results[m][i]):<15.10f}" for m in MARGINS)
        print(f"{spectrum.ks[idx, 0]:>10.5f} {row}")
    base = results[MARGINS[0]]
    worst = max(np.max(np.abs(results[m] - base)) for m in MARGINS[1:])
    print(f"\nlargest cross-margin amplitude deviation: {worst:.2e}")
    if not tails_ok:
        print("a certified tail exceeds tail_tol", file=sys.stderr)
    if worst > CROSS_MARGIN_TOL:
        print(f"the deviation exceeds {CROSS_MARGIN_TOL:.0e}", file=sys.stderr)
    return 0 if tails_ok and worst <= CROSS_MARGIN_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
