"""The four benchmark workloads and the checks on what they produce.

Each workload is one ``spinladder`` subcommand with a fixed config.  The
seed jitters the drive couplings within JITTER (relative) and changes
nothing else, so every seed does the same amount of work; seed 0 gives
the values below exactly.

Why these four:

* ``spacing_table``: nearly all of the time is the dense Schur in
  ``floquet.diagonalize``, and only eigenvalues are used.  Sector
  diagonalization would show here; the dynamics layers do nothing.
* ``corner_scan``: the same ``diagonalize`` layer, but full eigenvectors
  are needed; the only user of ``majorana.corner_spectral_functions``
  and ``PauliString.apply``.  A sector path that is cheap for
  eigenvalues but costly to embed back loses here.
* ``tilt_chain16``: one long evolution of a 1 MiB state; the kick and
  the tilted measurement each take about half of every period.  No
  diagonalization and a single evolution, so batching over h shows no
  change here.
* ``h_scan_chain12``: eight evolutions of a 64 KiB state with an
  untilted measurement; per-call overhead matters, and batched
  evolution would show here.

The 6x2 and 1x12 tori of the full spacing table are left out: each takes
about two minutes of Schur alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: relative band within which a nonzero seed moves each drive coupling
JITTER = 0.01

PERIOD = 2.0
UNIT = math.pi / PERIOD  # one pi/T in raw angular-frequency units

#: tolerances of the output checks
EIG_TOL = 1e-10
WEIGHT_SLACK = 1e-12
#: |magnetization| <= N ||v||^2, and evolution keeps | ||v|| - 1 | <= 1e-10
MAGNETIZATION_SLACK = 2.5e-10
#: spacing rows of a reference recomputation must agree to this (pi/T units)
SPACING_RTOL = 1e-6
SPACING_ATOL = 1e-12
#: corner weights of two runs of the same code must agree to this
CORNER_ATOL = 1e-9

SPACING_SIZES = ["2x2", "3x2", "4x2", "5x2", "1x4", "1x6", "1x8", "1x10"]
CORNER_H = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
SCAN_H = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
TILT_PERIODS = 100
SCAN_PERIODS = 2000

NAMES = ("spacing_table", "corner_scan", "tilt_chain16", "h_scan_chain12")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, config file body and operation labels."""

    name: str
    command: str
    config: dict
    ops: tuple[str, ...]

    @property
    def n_sites(self) -> int:
        lattice = self.config["lattice"]
        return int(lattice["n_x"]) * int(lattice["n_y"])


def _factors(seed: int, count: int) -> list[float]:
    if seed == 0:
        return [1.0] * count
    rng = random.Random(seed)
    return [1.0 + JITTER * (2.0 * rng.random() - 1.0) for _ in range(count)]


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with couplings jittered by ``seed``."""
    f_x, f_y, f_h = _factors(seed, 3)
    periodic = {"bc_x": "periodic", "bc_y": "periodic", "dedup": False}
    if name == "spacing_table":
        sizes = [[int(v) for v in label.split("x")] for label in SPACING_SIZES]
        config = {
            "lattice": periodic,
            "drive": {
                "units": "raw",
                "j_x": 0.05 * UNIT * f_x,
                "j_y": 1.0 * f_y,
                "h": 0.85 * UNIT * f_h,
                "period": PERIOD,
            },
            "task": {"sizes": sizes},
        }
        return Workload(name, "spacing-table", config, tuple(SPACING_SIZES))
    if name == "corner_scan":
        values = [h * f_h for h in CORNER_H]
        config = {
            "lattice": {"n_x": 4, "n_y": 2, **periodic},
            "drive": {"units": "pi_over_t", "j_x": 0.05 * f_x, "j_y": 0.6 * f_y, "period": PERIOD},
            "task": {"chi": 16, "window": 0.01, "scan_param": "h", "values": values},
        }
        return Workload(name, "corner-spectral", config, tuple(repr(v) for v in values))
    if name == "tilt_chain16":
        angle = math.pi / 4
        config = {
            "lattice": {"n_x": 1, "n_y": 16, "bc_x": "open", "bc_y": "open"},
            "drive": {
                "units": "pi_over_t",
                "j_x": 0.05 * f_x,
                "j_y": 0.6 * f_y,
                "h": 0.9 * f_h,
                "period": PERIOD,
            },
            "task": {"periods": TILT_PERIODS, "init": f"tilt:{angle!r}", "axis": angle},
        }
        return Workload(name, "power", config, ("evolution",))
    if name == "h_scan_chain12":
        values = [h * f_h for h in SCAN_H]
        config = {
            "lattice": {"n_x": 1, "n_y": 12, "bc_x": "open", "bc_y": "open"},
            "drive": {"units": "pi_over_t", "j_x": 0.05 * f_x, "j_y": 0.6 * f_y, "period": PERIOD},
            "task": {"h_values": values, "periods": SCAN_PERIODS, "init": "up", "axis": 0.0},
        }
        return Workload(name, "scan", config, tuple(repr(v) for v in values))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def read_artifact(path: str) -> tuple[list[str], list[list[str]]]:
    """(note lines, rows of cells) of a CSV artifact, without its header row."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        raise ValueError(f"{path} has no header row")
    # the first two comment lines are the command and the config
    notes = [line[2:] for line in comments[2:]]
    return notes, [line.split(",") for line in body[1:]]


def _in_range(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and lo <= value <= hi


def _row_ok(workload: Workload, row: list[str]) -> bool:
    """One artifact row against the range checks of its workload."""
    try:
        cells = [float(c) for c in row[1:]]
    except ValueError:
        return False
    if workload.name == "spacing_table":
        # deviations in units of pi/T: 0 <= min <= max <= 1
        return len(cells) == 2 and _in_range(cells[0], 0.0, 1.0) and _in_range(cells[1], cells[0], 1.0)
    if workload.name == "corner_scan":
        if len(cells) != 4 or not all(_in_range(c, 0.0, 1.0) for c in cells):
            return False
        s0_1, s0_2, spi_1, spi_2 = cells
        return s0_1 + spi_1 <= 1.0 + WEIGHT_SLACK and s0_2 + spi_2 <= 1.0 + WEIGHT_SLACK
    # a power-spectrum magnitude or a subharmonic peak
    return len(cells) == 1 and _in_range(cells[0], 0.0, workload.n_sites * (1.0 + MAGNETIZATION_SLACK))


def check_artifact(workload: Workload, path: str) -> dict[str, str]:
    """Failed operations of one artifact, as {op label: reason}.

    A missing artifact fails every operation.  For the table-like
    workloads each operation owns one row, found by its first cell; a
    row that is missing or out of range fails that operation.  The power
    spectrum of ``tilt_chain16`` is one operation whose every bin must be
    in range, on the right frequency grid, with one bin per period.
    """
    try:
        _, rows = read_artifact(path)
    except (OSError, ValueError) as exc:
        return {op: f"artifact unreadable: {exc}" for op in workload.ops}
    failed: dict[str, str] = {}
    if workload.name == "tilt_chain16":
        periods = int(workload.config["task"]["periods"])
        step = 2.0 * math.pi / (periods * PERIOD)
        if len(rows) != periods:
            failed["evolution"] = f"{len(rows)} spectrum rows for {periods} periods"
        for k, row in enumerate(rows):
            try:
                omega = float(row[0])
            except (IndexError, ValueError):
                omega = math.nan
            if not (_row_ok(workload, row) and abs(omega - k * step) <= 1e-12):
                failed["evolution"] = f"bad spectrum bin {k}: {row}"
                break
        return failed
    by_key = {row[0]: row for row in rows if row}
    for op in workload.ops:
        row = by_key.get(op)
        if row is None:
            failed[op] = "row missing"
        elif not _row_ok(workload, row):
            failed[op] = f"row out of range: {row}"
    unexpected = len(rows) - sum(op in by_key for op in workload.ops)
    if unexpected > 0:
        # rows that belong to no operation, or a second row for one
        failed["unexpected rows"] = f"{unexpected} rows match no operation"
    return failed


def reference_check(workload: Workload) -> tuple[dict[str, str], dict[str, float], list[list[str]]]:
    """Recompute every diagonalization with the public API and check it.

    Returns ({op label: reason} for failed operations, health figures,
    reference rows).  Each dense U must satisfy ||UV - VL||_F <= EIG_TOL,
    ||V^H V - I||_F <= EIG_TOL and |sum(lambda) - tr U| <= EIG_TOL * dim.
    For ``spacing_table`` the reference rows are the recomputed (min, max)
    deviations, which every artifact must match within SPACING_RTOL.
    Workloads without a diagonalization have nothing to recompute.
    """
    # imported here, not at the top, so that run.py can report missing
    # program sources before anything imports them
    from dataclasses import replace

    import numpy as np

    from spinladder import cli
    from spinladder.floquet import build_floquet, diagonalize, spacing_stats
    from spinladder.lattice import make_lattice

    failed: dict[str, str] = {}
    health = {"max_eig_residual": 0.0, "max_unitarity_dev": 0.0}
    reference: list[list[str]] = []
    if workload.name not in ("spacing_table", "corner_scan"):
        return failed, health, reference
    config = cli.resolve_config(workload.command, workload.config, {})
    params = cli.resolve_drive(config)
    block = config["lattice"]
    for label in workload.ops:
        if workload.name == "spacing_table":
            n_x, n_y = (int(v) for v in label.split("x"))
            point = params
        else:
            n_x, n_y = int(block["n_x"]), int(block["n_y"])
            point = replace(params, h=float(label) * math.pi / params.period)
        lattice = make_lattice(
            n_x, n_y, bc_x=block["bc_x"], bc_y=block["bc_y"],
            dedup_coincident_bonds=bool(block["dedup"]),
        )
        try:
            op = build_floquet(lattice, point, materialize_dense=True)
            spectrum = diagonalize(op)
        except (ValueError, RuntimeError) as exc:  # size cap or tolerance
            failed[label] = f"recomputation failed: {exc}"
            continue
        u = np.asarray(op.dense)
        v = spectrum.eigenvectors
        lam = spectrum.eigenvalues
        residual = float(np.linalg.norm(u @ v - v * lam))
        ortho = float(np.linalg.norm(v.conj().T @ v - np.eye(lattice.dim)))
        trace_dev = float(abs(lam.sum() - np.trace(u)))
        health["max_eig_residual"] = max(health["max_eig_residual"], residual)
        health["max_unitarity_dev"] = max(
            health["max_unitarity_dev"], float(np.abs(np.abs(lam) - 1.0).max()), ortho
        )
        if residual > EIG_TOL or ortho > EIG_TOL or trace_dev > EIG_TOL * lattice.dim:
            failed[label] = (
                f"eigenpairs off: residual {residual:.2e}, orthonormality {ortho:.2e}, "
                f"trace {trace_dev:.2e}"
            )
        if workload.name == "spacing_table":
            stats = spacing_stats(spectrum)
            unit = math.pi / params.period
            reference.append([label, repr(stats.min_dev / unit), repr(stats.max_dev / unit)])
    return failed, health, reference


def disagreements(workload: Workload, rows: list[list[str]], reference: list[list[str]]) -> dict[str, str]:
    """Operations whose row differs from the reference row with the same key.

    Spacing rows may differ within SPACING_RTOL, since BLAS threading
    moves their last digits; corner weights within CORNER_ATOL.  The
    dynamics workloads evolve with elementwise arithmetic only, so their
    rows must match digit for digit.  Rows missing on either side are
    left to ``check_artifact``.
    """
    by_key = {row[0]: row for row in rows if row}
    out: dict[str, str] = {}
    for want in reference:
        got = by_key.get(want[0])
        if got is None or len(got) != len(want):
            continue
        if workload.name in ("tilt_chain16", "h_scan_chain12"):
            same = got == want
        else:
            try:
                pairs = [(float(a), float(b)) for a, b in zip(got[1:], want[1:])]
            except ValueError:
                continue
            if workload.name == "spacing_table":
                same = all(abs(a - b) <= SPACING_ATOL + SPACING_RTOL * abs(b) for a, b in pairs)
            else:
                same = all(abs(a - b) <= CORNER_ATOL for a, b in pairs)
        if not same:
            out[_label(workload, want[0])] = f"row {got} differs from reference {want}"
    return out


def _label(workload: Workload, key: str) -> str:
    """Operation label of the row whose first cell is ``key``."""
    if workload.name == "tilt_chain16":
        return "evolution"
    return key
