"""Command line front end: config handling and plot-ready data emission.

Every subcommand reads one merged configuration (JSON file plus flag
overrides), runs the corresponding computation, and writes one CSV or
JSON artifact.  The fully resolved configuration is embedded in the
artifact header, so each result file documents how to regenerate
itself; nothing in the pipeline draws random numbers, and rerunning a
header config reproduces the file byte for byte.

Exit codes: 0 success, 2 configuration error (an output path that
cannot be written included), 3 size-cap violation, 4 numerical-tolerance
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, NamedTuple, Sequence, get_args, get_origin

from .dynamics import (
    MagnetizationTrace,
    evolve_stroboscopic,
    one_flip,
    power_spectrum,
    prepare_state,
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


class _Flag(NamedTuple):
    """One flag and the config value it sets.

    ``kind`` is the tuple of values the config value may take, or its
    type written as an annotation (``list[float]``, ``str | None``;
    ``object`` where the reader checks the value itself); ``parse``
    reads list and bool flag text.  ``default`` is the value of a
    lattice, drive or output key; task defaults are per subcommand
    (see _COMMANDS).
    """

    name: str
    block: str
    key: str
    kind: Any
    help: str
    parse: Callable[[str], Any] | None = None
    default: Any = None


#: every config flag, in help order; a subcommand takes a task flag
#: exactly when its task block has the flag's key
_FLAGS: tuple[_Flag, ...] = (
    _Flag("--out", "output", "path", str | None, "output path (overrides config)"),
    _Flag("--format", "output", "format", ("csv", "json"), "output format", default="csv"),
    _Flag("--nx", "lattice", "n_x", int, "lattice extent along x", default=4),
    _Flag("--ny", "lattice", "n_y", int, "lattice extent along y", default=2),
    _Flag("--bc-x", "lattice", "bc_x", ("open", "periodic"), "x boundary condition",
          default="open"),
    _Flag("--bc-y", "lattice", "bc_y", ("open", "periodic"), "y boundary condition",
          default="open"),
    _Flag("--dedup", "lattice", "dedup", bool,
          "drop coincident wrap bonds instead of doubling them", lambda text: text == "true",
          default=True),
    _Flag("--units", "drive", "units", ("pi_over_t", "raw"), "drive coupling units",
          default="pi_over_t"),
    _Flag("--jx", "drive", "j_x", float, "leg coupling", default=0.05),
    _Flag("--jy", "drive", "j_y", float, "rung coupling", default=0.6),
    _Flag("--h", "drive", "h", float, "kick field", default=0.8),
    _Flag("--period", "drive", "period", float, "drive period T", default=2.0),
    _Flag("--periods", "task", "periods", int, "number of drive periods M"),
    _Flag("--init", "task", "init", object, "initial state: up | down | flip:K | tilt:X"),
    _Flag("--axis", "task", "axis", float, "measurement axis angle from +z, radians"),
    _Flag("--h-values", "task", "h_values", list[float],
          "comma-separated kick fields, drive units (phase1d: angles, radians)", _parse_float_list),
    _Flag("--chi", "task", "chi", int, "number of sampled eigenstates"),
    _Flag("--window", "task", "window", float, "quasienergy window half-width"),
    _Flag("--scan-param", "task", "scan_param", ("h", "j_y"), "swept coupling"),
    _Flag("--values", "task", "values", list[float], "comma-separated scan values (drive units)",
          _parse_float_list),
    _Flag("--sizes", "task", "sizes", list[tuple[int, int]],
          "comma-separated sizes, e.g. 2x2,3x2,1x8", _parse_sizes),
    _Flag("--j-values", "task", "j_values", list[float], "comma-separated coupling angles, radians",
          _parse_float_list),
)


def _is_kind(kind: Any, value: Any) -> bool:
    """Whether a JSON value has the kind of a _Flag, element by element."""
    if isinstance(kind, tuple):
        return value in kind
    if kind in (int, float):
        # bool is an int subclass, and a float key also takes JSON integers
        # that a float holds; json and argparse both read nan and inf,
        # which no key accepts
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            return False
        try:
            return kind is int or math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return isinstance(value, list) and all(_is_kind(item, v) for v in value)
    if get_origin(kind) is tuple:
        # a fixed-length JSON array, e.g. an [n_x, n_y] size
        items = get_args(kind)
        return (
            isinstance(value, list)
            and len(value) == len(items)
            and all(map(_is_kind, items, value))
        )
    return isinstance(value, kind)


def _check_value(flag: _Flag, value: Any) -> None:
    """Reject a config value of the wrong JSON type instead of coercing it."""
    kind = flag.kind
    if not _is_kind(kind, value):
        if isinstance(kind, tuple):
            wanted = f"one of {kind}"
        elif kind is float:
            wanted = "a finite float"
        elif get_origin(kind) is None:
            wanted = kind.__name__
        else:
            wanted = str(kind)
        raise ConfigError(f"{flag.block}.{flag.key} must be {wanted}, got {value!r}")


def resolve_config(command: str, file_config: dict | None, overrides: dict) -> dict:
    """Merge defaults, config-file blocks, and flag overrides, in that order.

    Returns a plain-JSON dict with blocks lattice/drive/task/output.  The
    result round-trips through json unchanged and is what gets embedded
    in output headers.
    """
    file_config = file_config or {}
    if not isinstance(file_config, dict):
        raise ConfigError("config file must contain a JSON object")
    # a deep copy, so editing the result's lists leaves the defaults alone
    task = copy.deepcopy(_COMMANDS[command].task)
    config = {"lattice": {}, "drive": {}, "task": task, "output": {}}
    for flag in _FLAGS:
        if flag.block != "task":
            config[flag.block][flag.key] = flag.default
    for source in (file_config, overrides):
        unknown = set(source) - set(config)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
        for block, values in source.items():
            if not isinstance(values, dict):
                raise ConfigError(f"config block {block!r} must be an object")
            unknown = set(values) - set(config[block])
            if unknown:
                raise ConfigError(
                    f"unknown key(s) in {block!r} block: {', '.join(sorted(unknown))}"
                )
            config[block].update(values)
    for flag in _FLAGS:
        if flag.key in config[flag.block]:
            _check_value(flag, config[flag.block][flag.key])
    return config


def resolve_lattice(config: dict, **sizes: int) -> Lattice:
    """Build the lattice block's lattice; keywords replace n_x or n_y."""
    block = {**config["lattice"], **sizes}
    return make_lattice(
        block["n_x"],
        block["n_y"],
        bc_x=block["bc_x"],
        bc_y=block["bc_y"],
        dedup_coincident_bonds=block["dedup"],
    )


def resolve_drive(config: dict, **couplings: float) -> DriveParams:
    """Convert the drive block to raw couplings, applying units once.

    Keywords replace block values, given in the block's units, so each
    scan point is converted exactly like the block itself.
    """
    block = {**config["drive"], **couplings}
    try:
        values = {k: float(block[k]) for k in ("j_x", "j_y", "h", "period")}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad drive block: {exc}") from exc
    if block["units"] == "pi_over_t":
        return DriveParams.from_pi_over_t(**values)
    return DriveParams(**values)


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
        if not math.isfinite(angle):
            raise ConfigError(f"tilt angle in {token!r} is not finite")
        return angle
    raise ConfigError(f"unrecognized init spec {token!r}")


def _fmt(value: Any) -> str:
    """Full-precision, bit-stable text for one CSV cell."""
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


#: what a subcommand handler returns: columns, rows and header notes
_Table = tuple[list[str], list[list[Any]], list[str]]


def cmd_spectrum(config: dict) -> _Table:
    """Quasienergies of the full propagator: index, energy, residual."""
    lattice = resolve_lattice(config)
    params = resolve_drive(config)
    op = build_floquet(lattice, params)
    spectrum = diagonalize(op)
    rows = [
        [n, float(spectrum.quasienergies[n]), float(spectrum.residuals[n])]
        for n in range(spectrum.dim)
    ]
    return ["index", "quasienergy", "residual"], rows, ["quasienergies in radians per unit time"]


def cmd_spacing_table(config: dict) -> _Table:
    """Min/max deviation of the spacing from pi/T, one row per size.

    Deviations are quoted in units of pi/T so rows compare directly with
    tabulated values.  A size that fails (cap or tolerance) gets no row
    but one header note, also printed on stderr; the remaining rows are
    still emitted.
    """
    params = resolve_drive(config)
    unit = math.pi / params.period
    rows = []
    notes = ["deviations in units of pi/T"]
    for n_x, n_y in config["task"]["sizes"]:
        label = f"{n_x}x{n_y}"
        try:
            lattice = resolve_lattice(config, n_x=n_x, n_y=n_y)
            op = build_floquet(lattice, params)
            stats = spacing_stats(diagonalize(op))
        except (NumericalToleranceError, ValueError) as exc:
            notes.append(f"{label} failed: {exc}")
            print(f"spacing-table: {notes[-1]}", file=sys.stderr)
            continue
        rows.append([label, stats.min_dev / unit, stats.max_dev / unit])
    return ["size", "min_dev", "max_dev"], rows, notes


def _trace_runner(config: dict) -> Callable[..., MagnetizationTrace]:
    """Resolve a dynamics task and prepare its state; return its evolution.

    The whole task is checked here, before any evolution, so a bad
    config fails even when a scan has no values.  The returned function
    evolves the state with the given drive couplings replaced, in the
    block's units.
    """
    lattice = resolve_lattice(config)
    resolve_drive(config)
    task = config["task"]
    periods = int(task["periods"])
    axis = float(task["axis"])
    state = prepare_state(lattice, parse_init(task["init"]))

    def run(**couplings: float) -> MagnetizationTrace:
        op = build_floquet(lattice, resolve_drive(config, **couplings))
        return evolve_stroboscopic(op, state, periods, axis=axis)

    return run


def cmd_dynamics(config: dict) -> _Table:
    """Stroboscopic magnetization trace: period index, total magnetization."""
    trace = _trace_runner(config)()
    rows = [[int(n), float(m)] for n, m in zip(trace.times, trace.values)]
    return ["n", "magnetization"], rows, []


def cmd_power(config: dict) -> _Table:
    """Discrete power spectrum of the stroboscopic trace."""
    spectrum = power_spectrum(_trace_runner(config)())
    rows = [
        [float(w), float(m)]
        for w, m in zip(spectrum.frequencies, spectrum.magnitudes)
    ]
    return ["omega", "magnitude"], rows, ["omega in radians per unit time"]


def cmd_scan(config: dict) -> _Table:
    """Subharmonic peak height versus kick field h on one lattice."""
    run = _trace_runner(config)
    rows = [
        [float(v), power_spectrum(run(h=v)).subharmonic_amplitude]
        for v in config["task"]["h_values"]
    ]
    return ["h", "peak"], rows, []


def cmd_corner_spectral(config: dict) -> _Table:
    """Corner spectral functions along a scan of h or j_y."""
    lattice = resolve_lattice(config)
    task = config["task"]
    scan_param = task["scan_param"]
    sf_config = SpectralFunctionConfig(chi=int(task["chi"]), window=float(task["window"]))
    # the whole task fails here, before the scan, even when no values are given
    sf_config.check(lattice.dim, resolve_drive(config).period)
    rows = []
    for value in task["values"]:
        point = resolve_drive(config, **{scan_param: value})
        op = build_floquet(lattice, point)
        s = corner_spectral_functions(diagonalize(op), lattice, sf_config)
        rows.append([float(value), s.s0_1, s.s0_2, s.spi_1, s.spi_2])
    return [scan_param, "s0_1", "s0_2", "spi_1", "spi_2"], rows, []


def cmd_phase1d(config: dict) -> _Table:
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
    notes = ["h and j are raw kick angles in radians"]
    return ["h", "j", "label", "e_minus", "e_plus"], rows, notes


class _Command(NamedTuple):
    """One subcommand: its handler and the defaults of its task block."""

    run: Callable[[dict], _Table]
    task: dict[str, Any]


_COMMANDS: dict[str, _Command] = {
    "spectrum": _Command(cmd_spectrum, {}),
    "spacing-table": _Command(cmd_spacing_table, {"sizes": DEFAULT_SIZES}),
    "dynamics": _Command(cmd_dynamics, {"periods": 2000, "init": "flip:1", "axis": 0.0}),
    "power": _Command(cmd_power, {"periods": 2000, "init": "flip:1", "axis": 0.0}),
    "scan": _Command(cmd_scan, {"h_values": [], "periods": 2000, "init": "up", "axis": 0.0}),
    "corner-spectral": _Command(
        cmd_corner_spectral, {"chi": 16, "window": 0.01, "scan_param": "h", "values": []}
    ),
    "phase1d": _Command(cmd_phase1d, {"h_values": [], "j_values": []}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinladder",
        description="Exact kicked spin-ladder simulations, one artifact per run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__.splitlines()[0])
        p.add_argument("--config", help="JSON config file (blocks: lattice, drive, task, output)")
        for flag in _FLAGS:
            if flag.block != "task" or flag.key in command.task:
                choices = ("true", "false") if flag.kind is bool else flag.kind
                p.add_argument(
                    flag.name,
                    dest=flag.key,
                    type=flag.kind if flag.kind in (int, float) else None,
                    choices=choices if isinstance(choices, tuple) else None,
                    help=flag.help,
                )
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    """Config values of the flags given, by block; list and bool text is parsed here."""
    overrides: dict[str, dict[str, Any]] = {}
    for flag in _FLAGS:
        value = getattr(args, flag.key, None)
        if value is not None:
            value = flag.parse(value) if flag.parse else value
            overrides.setdefault(flag.block, {})[flag.key] = value
    return overrides


def run_command(command: str, config: dict) -> None:
    """Execute one resolved config and write its artifact."""
    path = config["output"]["path"]
    if not path:
        raise ConfigError("no output path; set output.path or pass --out")
    columns, rows, notes = _COMMANDS[command].run(config)
    try:
        emit(path, config["output"]["format"], command, config, columns, rows, notes)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


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
        overrides = _collect_overrides(args)
        config = resolve_config(command, file_config, overrides)
        run_command(command, copy.deepcopy(config))
    except SizeCapError as exc:
        print(f"spinladder {command}: size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except NumericalToleranceError as exc:
        print(f"spinladder {command}: numerical tolerance: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"spinladder {command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
