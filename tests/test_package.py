"""The public surface of the package."""

import subprocess
import sys

import spinladder


def test_all_names_unique_and_resolvable():
    names = spinladder.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(spinladder, name)


def test_cli_import_leaves_scipy_out():
    """The CLI, diagonalize and the corner spectral functions run on
    numpy's bundled LAPACK, so no command imports scipy; nor numpy.ma,
    whose import would cost every fresh process about 20 ms."""
    check = """
import sys
import spinladder.cli
from spinladder.floquet import DriveParams, build_floquet, diagonalize
from spinladder.lattice import make_lattice
from spinladder.majorana import SpectralFunctionConfig, corner_spectral_functions

lat = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
spectrum = diagonalize(build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0)))
corner_spectral_functions(spectrum, lat, SpectralFunctionConfig(chi=16, window=0.01))
print('scipy' in sys.modules, 'numpy.ma' in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "False False"
