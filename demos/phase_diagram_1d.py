"""Analytic phase diagram of the kicked chain from the transfer matrix.

The end-mode amplitudes of an open kicked chain obey a two-term
recursion whose transfer matrix has closed-form eigenvalues.  A decaying
branch means a normalizable pi mode.  This script rasters the phase
diagram from the eigenvalue moduli, then builds the closed-form ansatz
operator on a finite chain and shows that its residual against an exact
pi mode is tiny inside the subharmonic phases and order one outside.
"""

import math

import numpy as np

from spinladder import (
    DriveParams,
    PhaseLabel,
    build_floquet,
    classify_phase,
    make_lattice,
    mode_residual,
    mpm_ansatz_operator,
    mpm_solution,
    transfer_matrix,
)

HALF_PI = math.pi / 2

# coarse raster over the kick and coupling angles
symbols = {
    PhaseLabel.PM: ".",
    PhaseLabel.ZERO_SG: "0",
    PhaseLabel.PI_SG: "P",
    PhaseLabel.ZERO_PI_PM: "B",
    PhaseLabel.BOUNDARY: "+",
}
angles = np.linspace(0.05, 0.95, 19) * HALF_PI
print("phase raster, kick angle down, coupling angle across")
print("(. paramagnet, 0 zero mode only, P pi mode only, B both, + boundary)")
for h in angles[::-1]:
    row = "".join(symbols[classify_phase(float(h), float(j))] for j in angles)
    print(f"  h = {h / HALF_PI:4.2f} pi/2 | {row}")

# eigenvalues at a point with simple closed forms
tm = transfer_matrix(3 * math.pi / 8, math.pi / 4)
print(f"\ntransfer matrix at (3pi/8, pi/4): "
      f"eigenvalues {tm.e_minus:+.6f}, {tm.e_plus:+.6f} "
      f"(product {tm.e_minus * tm.e_plus:.12f})")

# finite-chain ansatz built from the decaying branch
chain = make_lattice(1, 10)
period = 2.0

for h_frac, j_frac in ((0.40, 0.30), (0.35, 0.10)):
    h = h_frac * math.pi
    j = j_frac * math.pi
    label = classify_phase(h, j).name
    sol = mpm_solution(h, j, chain.n_y)
    ansatz = mpm_ansatz_operator(chain, sol)
    params = DriveParams(j_x=0.0, j_y=j, h=h, period=period)
    op = build_floquet(chain, params)
    res = mode_residual(op, ansatz, "pi")
    print(f"ansatz at (h, J) = ({h_frac:.2f} pi, {j_frac:.2f} pi), "
          f"phase {label}: decay |E-| = {abs(sol.decay):.3f}, "
          f"residual {res:.3e}")

# the residual inside the pi phase shrinks with chain length like |E-|^N
print("\nresidual versus chain length at (0.40 pi, 0.30 pi):")
for n in (6, 8, 10):
    chain = make_lattice(1, n)
    sol = mpm_solution(0.40 * math.pi, 0.30 * math.pi, n)
    ansatz = mpm_ansatz_operator(chain, sol)
    op = build_floquet(chain, DriveParams(j_x=0.0, j_y=0.30 * math.pi,
                                          h=0.40 * math.pi, period=period))
    print(f"  N = {n:2d}: {mode_residual(op, ansatz, 'pi'):.3e}")
