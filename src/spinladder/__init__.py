"""Exact simulation of a periodically kicked Ising spin ladder.

The package builds the one-period propagator of a two-step drive
(ZZ couplings on both legs and rungs, then a uniform transverse kick)
on small rectangular lattices, diagonalizes it exactly, and provides
the analysis layers built on top: quasienergy spacing statistics,
Jordan-Wigner corner operators and their spectral functions, a closed
transfer-matrix treatment of the single-chain limit, and stroboscopic
magnetization dynamics with subharmonic power spectra.
"""

from .dynamics import (
    MagnetizationTrace,
    PowerSpectrum,
    evolve_scan,
    evolve_stroboscopic,
    measure_magnetization,
    one_flip,
    power_spectrum,
    prepare_state,
    uniform_tilt,
)
from .floquet import (
    DriveParams,
    FloquetOperator,
    NumericalToleranceError,
    QuasienergySpectrum,
    SpacingStats,
    build_floquet,
    diagonalize,
    fold_quasienergy,
    rotate_x_all_sites,
    spacing_stats,
)
from .lattice import (
    DEFAULT_SITE_CAP,
    DENSE_SITE_CAP,
    Bond,
    Lattice,
    SizeCapError,
    make_lattice,
)
from .majorana import (
    DictionaryReport,
    SpectralFunctionConfig,
    SpectralFunctions,
    corner_modes,
    corner_spectral_functions,
    gamma_pbc,
    mode_residual,
    verify_dictionary,
)
from .pauli import PauliString
from .transfer1d import (
    MpmSolution,
    PbcLineCheck,
    PhaseLabel,
    TransferMatrix,
    classify_phase,
    mpm_ansatz_operator,
    mpm_solution,
    pbc_line_check,
    transfer_matrix,
)

__all__ = [
    "Bond",
    "DEFAULT_SITE_CAP",
    "DENSE_SITE_CAP",
    "DictionaryReport",
    "DriveParams",
    "FloquetOperator",
    "Lattice",
    "MagnetizationTrace",
    "MpmSolution",
    "NumericalToleranceError",
    "PauliString",
    "PbcLineCheck",
    "PhaseLabel",
    "PowerSpectrum",
    "QuasienergySpectrum",
    "SizeCapError",
    "SpacingStats",
    "SpectralFunctionConfig",
    "SpectralFunctions",
    "TransferMatrix",
    "build_floquet",
    "classify_phase",
    "corner_modes",
    "corner_spectral_functions",
    "diagonalize",
    "evolve_scan",
    "evolve_stroboscopic",
    "fold_quasienergy",
    "gamma_pbc",
    "make_lattice",
    "measure_magnetization",
    "mode_residual",
    "mpm_ansatz_operator",
    "mpm_solution",
    "one_flip",
    "pbc_line_check",
    "power_spectrum",
    "prepare_state",
    "rotate_x_all_sites",
    "spacing_stats",
    "transfer_matrix",
    "uniform_tilt",
    "verify_dictionary",
]

__version__ = "0.1.0"
