"""Command line front end: config handling and plot-ready data emission.

Every subcommand reads one merged configuration (JSON file plus flag
overrides), runs the corresponding computation, and writes one CSV or
JSON artifact.  The fully resolved configuration is embedded in the
artifact header, so each result file documents how to regenerate
itself; nothing in the pipeline draws random numbers, and rerunning a
header config reproduces the file byte for byte.

Exit codes: 0 success, 2 configuration error, 3 size-cap violation,
4 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from typing import Any, Callable, Sequence

from .dynamics import (
    evolve_stroboscopic,
    one_flip,
    power_spectrum,
    prepare_state,
    scan_subharmonic,
)
from .floquet import (
    DriveParams,
    NumericalToleranceError,
    build_floquet,
    diagonalize,
    spacing_stats,
)
from .lattice import Lattice, SizeCapError, make_lattice
from .majorana import SpectralFunctionConfig, corner_spectral_functions
from .transfer1d import classify_phase, transfer_matrix

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_CAP = 3
EXIT_NUMERICAL = 4

#: the ten ladder and chain sizes of the spacing-deviation table
DEFAULT_SIZES = [
    [2, 2], [3, 2], [4, 2], [5, 2], [6, 2],
    [1, 4], [1, 6], [1, 8], [1, 10], [1, 12],
]


class ConfigError(ValueError):
    """Malformed, inconsistent, or incomplete run configuration."""


_LATTICE_DEFAULTS: dict[str, Any] = {
    "n_x": 4,
    "n_y": 2,
    "bc_x": "open",
    "bc_y": "open",
    "dedup": True,
}
_DRIVE_DEFAULTS: dict[str, Any] = {
    "units": "pi_over_t",
    "j_x": 0.05,
    "j_y": 0.6,
    "h": 0.8,
    "period": 2.0,
}
_OUTPUT_DEFAULTS: dict[str, Any] = {"path": None, "format": "csv"}

_TASK_DEFAULTS: dict[str, dict[str, Any]] = {
    "spectrum": {},
    "spacing-table": {"sizes": DEFAULT_SIZES},
    "dynamics": {"periods": 2000, "init": "flip:1", "axis": 0.0},
    "power": {"periods": 2000, "init": "flip:1", "axis": 0.0},
    "scan": {"h_values": [], "periods": 2000, "init": "up", "axis": 0.0},
    "corner-spectral": {"chi": 16, "window": 0.01, "scan_param": "h", "values": []},
    "phase1d": {"h_values": [], "j_values": []},
}


def _merge_block(defaults: dict, override: Any, block: str) -> dict:
    if override is None:
        return dict(defaults)
    if not isinstance(override, dict):
        raise ConfigError(f"config block {block!r} must be an object")
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {block!r} block: {', '.join(sorted(unknown))}"
        )
    merged = dict(defaults)
    merged.update(override)
    return merged


def resolve_config(command: str, file_config: dict | None, overrides: dict) -> dict:
    """Merge defaults, config-file blocks, and flag overrides, in that order.

    Returns a plain-JSON dict with blocks lattice/drive/task/output.  The
    result round-trips through json unchanged and is what gets embedded
    in output headers.
    """
    file_config = file_config or {}
    if not isinstance(file_config, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(file_config) - {"lattice", "drive", "task", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    config = {
        "lattice": _merge_block(_LATTICE_DEFAULTS, file_config.get("lattice"), "lattice"),
        "drive": _merge_block(_DRIVE_DEFAULTS, file_config.get("drive"), "drive"),
        "task": _merge_block(_TASK_DEFAULTS[command], file_config.get("task"), "task"),
        "output": _merge_block(_OUTPUT_DEFAULTS, file_config.get("output"), "output"),
    }
    for block, values in overrides.items():
        for key, value in values.items():
            if key not in config[block]:
                raise ConfigError(f"unknown {block} key {key!r}")
            config[block][key] = value
    if config["drive"]["units"] not in ("pi_over_t", "raw"):
        raise ConfigError(
            f"drive units must be 'pi_over_t' or 'raw', got {config['drive']['units']!r}"
        )
    if config["output"]["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {config['output']['format']!r}")
    return config


def resolve_lattice(config: dict) -> Lattice:
    block = config["lattice"]
    try:
        return make_lattice(
            int(block["n_x"]),
            int(block["n_y"]),
            bc_x=block["bc_x"],
            bc_y=block["bc_y"],
            dedup_coincident_bonds=bool(block["dedup"]),
        )
    except SizeCapError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice block: {exc}") from exc


def resolve_drive(config: dict) -> DriveParams:
    """Convert the drive block to raw couplings, applying units once."""
    block = config["drive"]
    try:
        values = {k: float(block[k]) for k in ("j_x", "j_y", "h", "period")}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad drive block: {exc}") from exc
    if block["units"] == "pi_over_t":
        return DriveParams.from_pi_over_t(**values)
    return DriveParams(**values)


def _coupling_to_raw(value: float, config: dict) -> float:
    """One scan value, drive units to raw angular frequency."""
    if config["drive"]["units"] == "pi_over_t":
        return float(value) * math.pi / float(config["drive"]["period"])
    return float(value)


def parse_init(token: Any) -> Any:
    """Initial-state grammar: 'up', 'down', 'flip:K', 'tilt:X', or a list.

    flip:K puts the single down spin at 0-based site K; tilt:X tilts
    every spin by X radians from +z toward +y.  Lists are passed through
    as per-site entries ('up', 'down', or an angle).
    """
    if isinstance(token, (list, tuple)):
        return tuple(token)
    if not isinstance(token, str):
        raise ConfigError(f"init spec must be a string or list, got {token!r}")
    if token in ("up", "down"):
        return token
    if token.startswith("flip:"):
        try:
            position = int(token.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad flip position in {token!r}") from exc
        def build(lattice: Lattice) -> tuple[str, ...]:
            try:
                return one_flip(lattice.n_sites, position)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        return build
    if token.startswith("tilt:"):
        try:
            angle = float(token.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad tilt angle in {token!r}") from exc
        return angle
    raise ConfigError(f"unrecognized init spec {token!r}")


def _fmt(value: Any) -> str:
    """Full-precision, bit-stable text for one CSV cell."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(
    path: str,
    fmt: str,
    command: str,
    config: dict,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    comments: Sequence[str] = (),
) -> None:
    """Write one artifact atomically (temp file in place, then rename)."""
    config_json = json.dumps(config, sort_keys=True)
    if fmt == "csv":
        lines = [f"# spinladder {command}", f"# config: {config_json}"]
        lines.extend(f"# {note}" for note in comments)
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        document = {
            "command": command,
            "config": config,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        if comments:
            document["notes"] = list(comments)
        payload = json.dumps(document, sort_keys=True, indent=2) + "\n"

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".spinladder-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_emitted_config(path: str) -> tuple[str, dict]:
    """Recover (command, resolved config) from an emitted artifact.

    Understands both output formats; the returned config can be fed back
    through the same subcommand to regenerate the file exactly.
    """
    with open(path) as handle:
        first = handle.readline()
        if first.startswith("{"):
            handle.seek(0)
            document = json.load(handle)
            return document["command"], document["config"]
        second = handle.readline()
    if not first.startswith("# spinladder ") or not second.startswith("# config: "):
        raise ConfigError(f"{path} does not carry a spinladder header")
    command = first[len("# spinladder "):].strip()
    config = json.loads(second[len("# config: "):])
    return command, config


def cmd_spectrum(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Quasienergies of the full propagator: index, energy, residual."""
    lattice = resolve_lattice(config)
    params = resolve_drive(config)
    op = build_floquet(lattice, params, materialize_dense=True)
    spectrum = diagonalize(op)
    rows = [
        [n, float(spectrum.quasienergies[n]), float(spectrum.residuals[n])]
        for n in range(spectrum.dim)
    ]
    return ["index", "quasienergy", "residual"], rows


def cmd_spacing_table(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Min/max deviation of the spacing from pi/T, one row per size.

    Deviations are quoted in units of pi/T so rows compare directly with
    tabulated values.  Sizes that fail (cap or tolerance) are reported
    on stderr and skipped; the remaining rows are still emitted.
    """
    params = resolve_drive(config)
    block = config["lattice"]
    unit = math.pi / params.period
    rows = []
    for entry in config["task"]["sizes"]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"sizes entries must be [n_x, n_y] pairs, got {entry!r}")
        n_x, n_y = int(entry[0]), int(entry[1])
        label = f"{n_x}x{n_y}"
        try:
            lattice = make_lattice(
                n_x,
                n_y,
                bc_x=block["bc_x"],
                bc_y=block["bc_y"],
                dedup_coincident_bonds=bool(block["dedup"]),
            )
            op = build_floquet(lattice, params, materialize_dense=True)
            stats = spacing_stats(diagonalize(op))
        except (SizeCapError, NumericalToleranceError, ValueError) as exc:
            print(f"spacing-table: {label} failed: {exc}", file=sys.stderr)
            continue
        rows.append([label, stats.min_dev / unit, stats.max_dev / unit])
    return ["size", "min_dev", "max_dev"], rows


def _run_trace(config: dict):
    lattice = resolve_lattice(config)
    params = resolve_drive(config)
    task = config["task"]
    periods = int(task["periods"])
    init = parse_init(task["init"])
    state = prepare_state(lattice, init)
    op = build_floquet(lattice, params)
    return evolve_stroboscopic(op, state, periods, axis=float(task["axis"]))


def cmd_dynamics(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Stroboscopic magnetization trace: period index, total magnetization."""
    trace = _run_trace(config)
    rows = [[int(n), float(m)] for n, m in zip(trace.times, trace.values)]
    return ["n", "magnetization"], rows


def cmd_power(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Discrete power spectrum of the stroboscopic trace."""
    spectrum = power_spectrum(_run_trace(config))
    rows = [
        [float(w), float(m)]
        for w, m in zip(spectrum.frequencies, spectrum.magnitudes)
    ]
    return ["omega", "magnitude"], rows


def cmd_scan(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Subharmonic peak height versus kick field h on one lattice."""
    lattice = resolve_lattice(config)
    params = resolve_drive(config)
    task = config["task"]
    init = parse_init(task["init"])
    h_raw = [_coupling_to_raw(v, config) for v in task["h_values"]]
    points = scan_subharmonic(
        [lattice],
        params,
        h_raw,
        init,
        periods=int(task["periods"]),
        axis=float(task["axis"]),
    )
    rows = [[float(v), float(p.peak)] for v, p in zip(task["h_values"], points)]
    return ["h", "peak"], rows


def cmd_corner_spectral(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Corner spectral functions along a scan of h or j_y."""
    lattice = resolve_lattice(config)
    params = resolve_drive(config)
    task = config["task"]
    scan_param = task["scan_param"]
    if scan_param not in ("h", "j_y"):
        raise ConfigError(f"scan_param must be 'h' or 'j_y', got {scan_param!r}")
    sf_config = SpectralFunctionConfig(chi=int(task["chi"]), window=float(task["window"]))
    rows = []
    for value in task["values"]:
        point = replace(params, **{scan_param: _coupling_to_raw(value, config)})
        op = build_floquet(lattice, point, materialize_dense=True)
        s = corner_spectral_functions(diagonalize(op), lattice, sf_config)
        rows.append([float(value), s.s0_1, s.s0_2, s.spi_1, s.spi_2])
    return [scan_param, "s0_1", "s0_2", "spi_1", "spi_2"], rows


def cmd_phase1d(config: dict) -> tuple[list[str], list[list[Any]]]:
    """Analytic single-chain phase raster over a (h, J) angle grid.

    Grid values are raw kick angles in radians inside (0, pi/2); each
    row carries the phase label and both transfer-matrix eigenvalues
    (nan at the singular angles where the matrix is undefined).
    """
    task = config["task"]
    rows = []
    for h in task["h_values"]:
        for j in task["j_values"]:
            label = classify_phase(float(h), float(j))
            tm = transfer_matrix(float(h), float(j))
            rows.append([float(h), float(j), label.value, tm.e_minus, tm.e_plus])
    return ["h", "j", "label", "e_minus", "e_plus"], rows


_COMMANDS: dict[str, Callable[[dict], tuple[list[str], list[list[Any]]]]] = {
    "spectrum": cmd_spectrum,
    "spacing-table": cmd_spacing_table,
    "dynamics": cmd_dynamics,
    "power": cmd_power,
    "scan": cmd_scan,
    "corner-spectral": cmd_corner_spectral,
    "phase1d": cmd_phase1d,
}


def _parse_float_list(text: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _parse_sizes(text: str) -> list[list[int]]:
    sizes = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"sizes entries look like 4x2, got {piece!r}")
        try:
            sizes.append([int(parts[0]), int(parts[1])])
        except ValueError as exc:
            raise ConfigError(f"bad size {piece!r}") from exc
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinladder",
        description="Exact kicked spin-ladder simulations, one artifact per run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__.splitlines()[0])
        p.add_argument("--config", help="JSON config file (blocks: lattice, drive, task, output)")
        p.add_argument("--out", help="output path (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--nx", type=int, help="lattice extent along x")
        p.add_argument("--ny", type=int, help="lattice extent along y")
        p.add_argument("--bc-x", choices=("open", "periodic"), help="x boundary condition")
        p.add_argument("--bc-y", choices=("open", "periodic"), help="y boundary condition")
        p.add_argument(
            "--dedup",
            choices=("true", "false"),
            help="drop coincident wrap bonds instead of doubling them",
        )
        p.add_argument("--units", choices=("pi_over_t", "raw"), help="drive coupling units")
        p.add_argument("--jx", type=float, help="leg coupling")
        p.add_argument("--jy", type=float, help="rung coupling")
        p.add_argument("--h", type=float, help="kick field")
        p.add_argument("--period", type=float, help="drive period T")
        if name in ("dynamics", "power", "scan"):
            p.add_argument("--periods", type=int, help="number of drive periods M")
            p.add_argument("--init", help="initial state: up | down | flip:K | tilt:X")
            p.add_argument("--axis", type=float, help="measurement axis angle from +z, radians")
        if name == "scan":
            p.add_argument("--h-values", help="comma-separated kick fields (drive units)")
        if name == "corner-spectral":
            p.add_argument("--chi", type=int, help="number of sampled eigenstates")
            p.add_argument("--window", type=float, help="quasienergy window half-width")
            p.add_argument("--scan-param", choices=("h", "j_y"), help="swept coupling")
            p.add_argument("--values", help="comma-separated scan values (drive units)")
        if name == "spacing-table":
            p.add_argument("--sizes", help="comma-separated sizes, e.g. 2x2,3x2,1x8")
        if name == "phase1d":
            p.add_argument("--h-values", help="comma-separated kick angles, radians")
            p.add_argument("--j-values", help="comma-separated coupling angles, radians")
    return parser


def _collect_overrides(command: str, args: argparse.Namespace) -> dict:
    overrides: dict[str, dict[str, Any]] = {"lattice": {}, "drive": {}, "task": {}, "output": {}}
    mapping = [
        ("lattice", "n_x", args.nx),
        ("lattice", "n_y", args.ny),
        ("lattice", "bc_x", args.bc_x),
        ("lattice", "bc_y", args.bc_y),
        ("lattice", "dedup", None if args.dedup is None else args.dedup == "true"),
        ("drive", "units", args.units),
        ("drive", "j_x", args.jx),
        ("drive", "j_y", args.jy),
        ("drive", "h", args.h),
        ("drive", "period", args.period),
        ("output", "path", args.out),
        ("output", "format", args.format),
    ]
    if command in ("dynamics", "power", "scan"):
        mapping += [
            ("task", "periods", args.periods),
            ("task", "init", args.init),
            ("task", "axis", args.axis),
        ]
    if command == "scan" and args.h_values is not None:
        mapping.append(("task", "h_values", _parse_float_list(args.h_values)))
    if command == "corner-spectral":
        mapping += [
            ("task", "chi", args.chi),
            ("task", "window", args.window),
            ("task", "scan_param", args.scan_param),
        ]
        if args.values is not None:
            mapping.append(("task", "values", _parse_float_list(args.values)))
    if command == "spacing-table" and args.sizes is not None:
        mapping.append(("task", "sizes", _parse_sizes(args.sizes)))
    if command == "phase1d":
        if args.h_values is not None:
            mapping.append(("task", "h_values", _parse_float_list(args.h_values)))
        if args.j_values is not None:
            mapping.append(("task", "j_values", _parse_float_list(args.j_values)))
    for block, key, value in mapping:
        if value is not None:
            overrides[block][key] = value
    return overrides


_COMMAND_NOTES: dict[str, tuple[str, ...]] = {
    "spacing-table": ("deviations in units of pi/T",),
    "spectrum": ("quasienergies in radians per unit time",),
    "power": ("omega in radians per unit time",),
    "phase1d": ("h and j are raw kick angles in radians",),
}


def run_command(command: str, config: dict) -> None:
    """Execute one resolved config and write its artifact."""
    path = config["output"]["path"]
    if not path:
        raise ConfigError("no output path; set output.path or pass --out")
    columns, rows = _COMMANDS[command](config)
    emit(
        path,
        config["output"]["format"],
        command,
        config,
        columns,
        rows,
        comments=_COMMAND_NOTES.get(command, ()),
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        file_config = None
        if args.config:
            try:
                with open(args.config) as handle:
                    file_config = json.load(handle)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        overrides = _collect_overrides(command, args)
        config = resolve_config(command, file_config, overrides)
        run_command(command, copy.deepcopy(config))
    except SizeCapError as exc:
        print(f"spinladder {command}: size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except NumericalToleranceError as exc:
        print(f"spinladder {command}: numerical tolerance: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"spinladder {command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
