"""The public surface of the package."""

import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spinladder

SUBMODULES = [info.name for info in pkgutil.iter_modules(spinladder.__path__)]


def test_all_names_unique_and_resolvable():
    names = spinladder.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(spinladder, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_is_the_module(name):
    """``import spinladder.<name> as m`` and ``spinladder.<name>`` give
    the module, not a function re-exported under its name."""
    assert importlib.import_module(f"spinladder.{name}") is getattr(spinladder, name)


def test_no_export_shadows_a_submodule():
    assert not set(spinladder.__all__) & set(SUBMODULES)


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
    env = dict(os.environ)
    src = str(Path(spinladder.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    assert result.stdout.strip() == "False False"


def test_make_lattice_is_the_lattice_class():
    """One constructor holds the lattice defaults and checks; make_lattice
    is its name for the callers."""
    from spinladder.lattice import Lattice, make_lattice

    assert make_lattice is Lattice
    assert make_lattice(1, 4) == Lattice(n_x=1, n_y=4, bc_x="open", bc_y="open")


def undocumented(name, obj):
    """Qualified names of ``obj`` and of its own public methods and
    properties that have no docstring; a value that is neither a
    function nor a class has none to give."""
    if inspect.isfunction(obj):
        return [] if obj.__doc__ else [name]
    if not inspect.isclass(obj):
        return []
    missing = [] if obj.__doc__ else [name]
    for attr, value in vars(obj).items():
        if attr.startswith("_"):
            continue
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, (property, functools.cached_property)) or inspect.isfunction(value):
            if not value.__doc__:
                missing.append(f"{name}.{attr}")
    return missing


def test_every_public_name_has_a_docstring():
    """Every function and class of __all__, and every public method and
    property a class defines, says what it is."""
    missing = [m for name in spinladder.__all__ for m in undocumented(name, getattr(spinladder, name))]
    assert missing == []
