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
    ScanPoint,
    all_up,
    evolve_stroboscopic,
    measure_magnetization,
    one_flip,
    power_spectrum,
    prepare_state,
    scan_subharmonic,
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
    solvable_point_spectrum_1x4,
    solvable_point_spectrum_2x2,
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
    MajoranaMode,
    SpectralFunctionConfig,
    SpectralFunctions,
    corner_modes,
    corner_spectral_functions,
    gamma_pbc,
    majorana,
    mode_residual,
    verify_dictionary,
)
from .pauli import PauliString, basis_state
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
    "MajoranaMode",
    "MpmSolution",
    "NumericalToleranceError",
    "PauliString",
    "PbcLineCheck",
    "PhaseLabel",
    "PowerSpectrum",
    "QuasienergySpectrum",
    "ScanPoint",
    "SizeCapError",
    "SpacingStats",
    "SpectralFunctionConfig",
    "SpectralFunctions",
    "TransferMatrix",
    "all_up",
    "basis_state",
    "build_floquet",
    "classify_phase",
    "corner_modes",
    "corner_spectral_functions",
    "diagonalize",
    "evolve_stroboscopic",
    "fold_quasienergy",
    "gamma_pbc",
    "majorana",
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
    "scan_subharmonic",
    "solvable_point_spectrum_1x4",
    "solvable_point_spectrum_2x2",
    "spacing_stats",
    "transfer_matrix",
    "uniform_tilt",
    "verify_dictionary",
]

__version__ = "0.1.0"
