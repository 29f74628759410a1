"""Corner Majorana operators and their spectral weight at quasienergy pi/T.

The Jordan-Wigner corner operators at opposite ends of the ladder are
exact pi modes when the kick angle hits pi/2, and remain approximate pi
modes over a finite window around that point.  The spectral functions
resolve how much of each corner operator lives at quasienergy 0 versus
pi/T as the kick strength is varied.
"""

import math

import numpy as np

from spinladder import (
    DriveParams,
    SpectralFunctionConfig,
    build_floquet,
    corner_modes,
    corner_spectral_functions,
    diagonalize,
    make_lattice,
    mode_residual,
    verify_dictionary,
)

PERIOD = 2.0
UNIT = math.pi / PERIOD

# operator dictionary sanity: every site obeys the mapping identities
lattice = make_lattice(3, 2)
report = verify_dictionary(lattice)
print(f"dictionary identities checked: {report.identities_checked}, "
      f"max deviation {report.max_deviation:.2e}")

# exact pi modes at the ideal kick angle, any coupling strengths
ideal = DriveParams(j_x=0.37, j_y=0.81, h=math.pi / 2, period=PERIOD)
op = build_floquet(lattice, ideal)
mode_a, mode_b = corner_modes(lattice)
res_a = mode_residual(op, mode_a, "pi")
res_b = mode_residual(op, mode_b, "pi")
print(f"\nideal kick on {lattice.n_x}x{lattice.n_y}: "
      f"corner residuals {res_a:.2e} and {res_b:.2e}")

# away from the ideal point the corner operator is only close to a pi mode
detuned = DriveParams(j_x=0.05 * UNIT, j_y=0.6 * UNIT, h=0.8 * UNIT,
                      period=PERIOD)
op = build_floquet(lattice, detuned)
print(f"detuned kick (h = 0.8 pi/T): corner residual "
      f"{mode_residual(op, mode_a, 'pi'):.4f}")

# spectral weight of the corner operators across the kick axis
scan_lattice = make_lattice(4, 2, bc_x="periodic", bc_y="periodic",
                            dedup_coincident_bonds=False)
config = SpectralFunctionConfig(chi=16, window=0.01)
print("\nspectral weight on a 4x2 torus (chi = 16 states, window 0.01):")
print("   h/(pi/T)    S0(c1)   S0(c2)   Spi(c1)  Spi(c2)")
for h in (0.2, 0.4, 0.6, 0.8):
    params = DriveParams(j_x=0.05 * UNIT, j_y=0.6 * UNIT, h=h * UNIT,
                         period=PERIOD)
    spec = diagonalize(build_floquet(scan_lattice, params))
    sf = corner_spectral_functions(spec, scan_lattice, config)
    print(f"   {h:.2f}       {sf.s0_1:7.3f}  {sf.s0_2:7.3f}  "
          f"{sf.spi_1:7.3f}  {sf.spi_2:7.3f}")
print("weight migrates from quasienergy 0 to pi/T as the kick strengthens")
