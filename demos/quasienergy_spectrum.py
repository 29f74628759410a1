"""Quasienergy spectra of the kicked ladder and the near-pi/T pairing.

Builds and diagonalizes the Floquet propagator for a small ladder,
then looks at how every quasienergy level acquires a partner shifted
by almost exactly pi/T once the kick is strong.  The spacing
statistics quantify the worst and best pairing across the spectrum.
"""

import math

import numpy as np

from spinladder import (
    DriveParams,
    build_floquet,
    diagonalize,
    make_lattice,
    spacing_stats,
)

PERIOD = 2.0
UNIT = math.pi / PERIOD

lattice = make_lattice(4, 2, bc_x="periodic", bc_y="periodic",
                       dedup_coincident_bonds=False)
params = DriveParams(j_x=0.05 * UNIT, j_y=1.0, h=0.85 * UNIT, period=PERIOD)

op = build_floquet(lattice, params)
spectrum = diagonalize(op)
print(f"lattice {lattice.n_x}x{lattice.n_y}, dimension {spectrum.dim}")
print(f"worst unitarity residual: {float(np.max(spectrum.residuals)):.2e}")

eps = spectrum.quasienergies
print("\nlowest eight quasienergies (radians per unit time):")
for value in eps[:8]:
    print(f"  {value:+.6f}")

stats = spacing_stats(spectrum)
print("\npairing deviation from pi/T across the spectrum (pi/T units):")
print(f"  min {stats.min_dev / UNIT:.3e}   max {stats.max_dev / UNIT:.3e}")

# weaker kick: pairing degrades by orders of magnitude
weak = DriveParams(j_x=0.05 * UNIT, j_y=1.0, h=0.55 * UNIT, period=PERIOD)
weak_stats = spacing_stats(diagonalize(build_floquet(lattice, weak)))
print("\nsame lattice at h = 0.55 pi/T:")
print(f"  min {weak_stats.min_dev / UNIT:.3e}   max {weak_stats.max_dev / UNIT:.3e}")
