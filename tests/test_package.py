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
    """scipy is imported by diagonalize alone, so the dynamics commands
    start without it."""
    check = "import sys, spinladder.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "False"
