"""Period-doubled magnetization and its power spectrum.

Evolves product states stroboscopically under the kicked drive and
Fourier-analyzes the total magnetization.  At the ideal kick angle the
response alternates exactly.  Away from it the subharmonic peak at
half the drive frequency survives on open chains, and its height grows
with chain length before edge effects saturate it.
"""

import math

import numpy as np

from spinladder import (
    DriveParams,
    build_floquet,
    evolve_stroboscopic,
    make_lattice,
    power_spectrum,
    prepare_state,
)

PERIOD = 2.0
UNIT = math.pi / PERIOD
PERIODS = 2000

# ideal kick angle: the trace alternates exactly and all weight sits at pi/T
lattice = make_lattice(2, 2)
ideal = DriveParams(j_x=0.13, j_y=0.31, h=math.pi / 2, period=PERIOD)
op = build_floquet(lattice, ideal)
state = prepare_state(lattice, "up")
trace = evolve_stroboscopic(op, state, 40)
print("ideal kick, first eight stroboscopic magnetizations:")
print("  " + "  ".join(f"{v:+.3f}" for v in trace.values[:8]))

# detuned kick on an open chain: the subharmonic line persists
chain = make_lattice(1, 8)
params = DriveParams(j_x=0.05 * UNIT, j_y=0.6 * UNIT, h=0.8 * UNIT,
                     period=PERIOD)
op = build_floquet(chain, params)
state = prepare_state(chain, "up")
trace = evolve_stroboscopic(op, state, PERIODS)
spec = power_spectrum(trace)
half = spec.n_samples // 2
peak = spec.magnitudes[half]
others = np.delete(spec.magnitudes[1:], half - 1)
print(f"\nopen 1x8 chain at h = 0.8 pi/T, {PERIODS} periods:")
print(f"  peak at omega = pi/T: {peak:.3f} "
      f"({peak / chain.n_sites:.3f} per site)")
print(f"  next largest line:    {float(np.max(others)):.3f}")

# peak height per site versus chain length
print("\nsubharmonic peak per site versus open chain length:")
for n in (4, 6, 8, 10):
    chain = make_lattice(1, n)
    op = build_floquet(chain, params)
    state = prepare_state(chain, "up")
    spec = power_spectrum(evolve_stroboscopic(op, state, PERIODS))
    print(f"  N = {n:2d}: {spec.magnitudes[spec.n_samples // 2] / n:.3f}")
