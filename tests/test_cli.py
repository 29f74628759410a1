"""End-to-end tests of the command line front end.

Each test drives main() with real argv lists, reads back the emitted
artifact, and compares against the library computed directly.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinladder import cli, dynamics
from spinladder.dynamics import (
    evolve_stroboscopic,
    one_flip,
    power_spectrum,
    prepare_state,
)
from spinladder.floquet import (
    DriveParams,
    NumericalToleranceError,
    QuasienergySpectrum,
    build_floquet,
    diagonalize,
    spacing_stats,
)
from spinladder.lattice import make_lattice
from spinladder.majorana import SpectralFunctionConfig, corner_spectral_functions
from spinladder.transfer1d import classify_phase, transfer_matrix
from solvable_point import solvable_point_spectrum_1x4


def read_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


def test_spectrum_artifact_matches_library(tmp_path):
    out = tmp_path / "spec.csv"
    code = cli.main([
        "spectrum", "--out", str(out), "--nx", "1", "--ny", "4",
        "--jx", "0.0", "--jy", "1.0", "--h", "1.0",
    ])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert comments[0] == "# spinladder spectrum"
    assert header == ["index", "quasienergy", "residual"]
    assert len(rows) == 16

    lattice = make_lattice(1, 4)
    params = DriveParams.from_pi_over_t(j_x=0.0, j_y=1.0, h=1.0, period=2.0)
    spectrum = diagonalize(build_floquet(lattice, params))
    emitted = np.array([float(r[1]) for r in rows])
    np.testing.assert_array_equal(emitted, spectrum.quasienergies)
    assert all(float(r[2]) < 1e-10 for r in rows)

    # the kick angle is pi/2 here, so the closed form applies
    expected = solvable_point_spectrum_1x4(params.j_y, params.period)
    np.testing.assert_allclose(np.sort(emitted), expected, atol=1e-10)


def test_identity_drive_gives_zero_quasienergies(tmp_path):
    out = tmp_path / "zero.csv"
    code = cli.main([
        "spectrum", "--out", str(out), "--nx", "1", "--ny", "3",
        "--units", "raw", "--jx", "0.0", "--jy", "0.0", "--h", "0.0",
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert all(abs(float(r[1])) < 1e-14 for r in rows)


def test_header_replay_regenerates_bytes(tmp_path):
    out = tmp_path / "replay.csv"
    assert cli.main(["spectrum", "--out", str(out), "--nx", "1", "--ny", "3"]) == 0
    original = out.read_bytes()
    command, config = cli.read_emitted_config(str(out))
    assert command == "spectrum"
    out.unlink()
    cli.run_command(command, config)
    assert out.read_bytes() == original


def test_same_invocation_is_bitwise_stable(tmp_path):
    out = tmp_path / "stable.csv"
    argv = ["dynamics", "--out", str(out), "--nx", "1", "--ny", "2",
            "--periods", "12", "--init", "up"]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


def test_dynamics_rows_match_module(tmp_path):
    out = tmp_path / "dyn.csv"
    code = cli.main([
        "dynamics", "--out", str(out), "--nx", "1", "--ny", "2",
        "--units", "raw", "--jx", "0.0", "--jy", "0.5", "--h", "0.7",
        "--periods", "8", "--init", "flip:0", "--axis", "0.3",
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["n", "magnetization"]
    lattice = make_lattice(1, 2)
    op = build_floquet(lattice, DriveParams(j_x=0.0, j_y=0.5, h=0.7, period=2.0))
    trace = evolve_stroboscopic(
        op, prepare_state(lattice, one_flip(2, 0)), periods=8, axis=0.3
    )
    assert [int(r[0]) for r in rows] == list(range(9))
    np.testing.assert_array_equal([float(r[1]) for r in rows], trace.values)


def test_power_rows_match_module(tmp_path):
    out = tmp_path / "pow.csv"
    code = cli.main([
        "power", "--out", str(out), "--nx", "1", "--ny", "2",
        "--units", "raw", "--jx", "0.0", "--jy", "0.5", "--h", "0.7",
        "--periods", "16", "--init", "up",
    ])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["omega", "magnitude"]
    assert "# omega in radians per unit time" in comments
    lattice = make_lattice(1, 2)
    op = build_floquet(lattice, DriveParams(j_x=0.0, j_y=0.5, h=0.7, period=2.0))
    trace = evolve_stroboscopic(op, prepare_state(lattice, "up"), periods=16)
    spectrum = power_spectrum(trace)
    np.testing.assert_array_equal([float(r[0]) for r in rows], spectrum.frequencies)
    np.testing.assert_array_equal([float(r[1]) for r in rows], spectrum.magnitudes)


def test_power_odd_period_count_is_config_error(tmp_path):
    out = tmp_path / "odd.csv"
    code = cli.main([
        "power", "--out", str(out), "--nx", "1", "--ny", "2",
        "--periods", "9", "--init", "up",
    ])
    assert code == 2
    assert not out.exists()


def test_scan_applies_units_once(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli.main([
        "scan", "--out", str(out), "--nx", "1", "--ny", "2",
        "--jx", "0.0", "--jy", "0.5", "--h-values", "0.8,1.0",
        "--periods", "6", "--init", "up",
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["h", "peak"]
    assert [float(r[0]) for r in rows] == [0.8, 1.0]

    lattice = make_lattice(1, 2)
    state = prepare_state(lattice, "up")
    peaks = []
    for v in (0.8, 1.0):
        params = DriveParams.from_pi_over_t(j_x=0.0, j_y=0.5, h=v, period=2.0)
        trace = evolve_stroboscopic(build_floquet(lattice, params), state, 6)
        peaks.append(power_spectrum(trace).subharmonic_amplitude)
    assert np.array_equal([float(r[1]) for r in rows], peaks)


def test_scan_with_no_values_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code = cli.main(["scan", "--out", str(out), "--nx", "1", "--ny", "2",
                     "--h-values", ""])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["h", "peak"]
    assert rows == []


def test_scan_across_stacks_matches_single_peaks(tmp_path):
    """The 1x15 chain evolves at most two h values per stack, so five
    values run as stacks of 2, 2 and 1; each peak still equals that of
    its own single evolution."""
    out = tmp_path / "scan.csv"
    h_values = [0.6, 0.7, 0.8, 0.9, 1.0]
    code = cli.main([
        "scan", "--out", str(out), "--nx", "1", "--ny", "15",
        "--h-values", ",".join(map(repr, h_values)), "--periods", "6",
        "--init", "flip:3", "--axis", "0.4",
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == h_values

    lattice = make_lattice(1, 15)
    assert dynamics.SCAN_STACK_AMPLITUDES // lattice.dim == 2
    state = prepare_state(lattice, one_flip(15, 3))
    peaks = []
    for v in h_values:
        params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=v, period=2.0)
        trace = evolve_stroboscopic(build_floquet(lattice, params), state, 6, axis=0.4)
        peaks.append(power_spectrum(trace).subharmonic_amplitude)
    assert np.array_equal([float(r[1]) for r in rows], peaks)


@pytest.mark.parametrize("bad", [
    ["--init", "flip:5"], ["--init", "wobble"], ["--period", "-1"], ["--nx", "0"],
    ["--periods", "9"], ["--periods", "1"],
])
def test_scan_checks_task_without_values(tmp_path, bad):
    """Lattice, drive, initial state and a period count that gives a
    power spectrum are checked before the h loop, so an empty scan still
    rejects a bad config."""
    out = tmp_path / "empty.csv"
    code = cli.main(["scan", "--out", str(out), "--nx", "1", "--ny", "2",
                     "--h-values", "", *bad])
    assert code == 2
    assert not out.exists()


FAILED_1X15 = "1x15 failed: diagonalize refused for 15 sites (cap 13)"


def test_spacing_table_skips_oversized_entries(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli.main([
        "spacing-table", "--out", str(out), "--sizes", "1x4,1x15",
    ])
    assert code == 0
    assert capsys.readouterr().err == f"spacing-table: {FAILED_1X15}\n"
    comments, header, rows = read_csv(out)
    assert "# deviations in units of pi/T" in comments
    assert header == ["size", "min_dev", "max_dev"]
    assert [r[0] for r in rows] == ["1x4"]

    lattice = make_lattice(1, 4)
    params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.8, period=2.0)
    stats = spacing_stats(diagonalize(build_floquet(lattice, params)))
    unit = math.pi / 2.0
    assert float(rows[0][1]) == stats.min_dev / unit
    assert float(rows[0][2]) == stats.max_dev / unit


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spacing_table_notes_failed_sizes(tmp_path, fmt):
    """A failed size gets one artifact note in either format, and
    replaying the header regenerates the artifact byte for byte."""
    out = tmp_path / f"table.{fmt}"
    argv = ["spacing-table", "--out", str(out), "--format", fmt, "--sizes", "1x15,1x4"]
    assert cli.main(argv) == 0
    original = out.read_bytes()
    if fmt == "json":
        notes = json.loads(original)["notes"]
    else:
        notes = [line[2:] for line in read_csv(out)[0][2:]]
    assert notes == ["deviations in units of pi/T", FAILED_1X15]
    command, config = cli.read_emitted_config(str(out))
    out.unlink()
    cli.run_command(command, config)
    assert out.read_bytes() == original


class Embedded(Exception):
    """Raised in place of building the full-basis eigenvector matrix."""


def test_spectrum_commands_never_embed_eigenvectors(tmp_path, monkeypatch):
    """spectrum and spacing-table read levels only, and corner-spectral
    embeds only its sampled eigenvectors: no command builds the D x D
    eigenvector matrix."""

    def embed(spectrum):
        raise Embedded

    monkeypatch.setattr(QuasienergySpectrum, "eigenvectors", property(embed))
    torus = ["--bc-x", "periodic", "--bc-y", "periodic", "--dedup", "false"]
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", "--out", str(out), "--nx", "3", "--ny", "2", *torus]) == 0
    assert cli.main(["spacing-table", "--out", str(out), "--sizes", "3x2,1x8", *torus]) == 0
    assert [r[0] for r in read_csv(out)[2]] == ["3x2", "1x8"]
    for lattice in (torus, ["--bc-x", "open", "--bc-y", "open"]):
        assert cli.main([
            "corner-spectral", "--out", str(out), "--nx", "3", "--ny", "2", *lattice,
            "--chi", "4", "--window", "0.01", "--values", "0.5,0.8",
        ]) == 0
        assert [r[0] for r in read_csv(out)[2]] == ["0.5", "0.8"]


def test_phase1d_labels_match_classifier(tmp_path):
    out = tmp_path / "phase.csv"
    code = cli.main([
        "phase1d", "--out", str(out), "--h-values", "0.5,1.2", "--j-values", "0.7",
    ])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["h", "j", "label", "e_minus", "e_plus"]
    assert "# h and j are raw kick angles in radians" in comments
    assert len(rows) == 2
    for row in rows:
        h, j = float(row[0]), float(row[1])
        assert row[2] == classify_phase(h, j).value
        tm = transfer_matrix(h, j)
        assert float(row[3]) == tm.e_minus
        assert float(row[4]) == tm.e_plus
    assert rows[0][2] == "0-SG"
    assert rows[1][2] == "pi-SG"


def test_corner_spectral_row_matches_module(tmp_path):
    out = tmp_path / "corner.csv"
    code = cli.main([
        "corner-spectral", "--out", str(out), "--nx", "2", "--ny", "2",
        "--chi", "4", "--window", "0.01", "--scan-param", "h", "--values", "0.8",
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["h", "s0_1", "s0_2", "spi_1", "spi_2"]
    assert len(rows) == 1

    lattice = make_lattice(2, 2)
    params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.8, period=2.0)
    spectrum = diagonalize(build_floquet(lattice, params))
    funcs = corner_spectral_functions(
        spectrum, lattice, SpectralFunctionConfig(chi=4, window=0.01)
    )
    assert [float(v) for v in rows[0][1:]] == [
        funcs.s0_1, funcs.s0_2, funcs.spi_1, funcs.spi_2,
    ]


def test_json_format_round_trips(tmp_path):
    """The document parses as strict JSON: at h = 1e-13 the transfer
    matrix is undefined and its eigenvalues, nan in CSV, are null."""
    out = tmp_path / "doc.json"
    code = cli.main([
        "phase1d", "--out", str(out), "--format", "json",
        "--h-values", "1.2,1e-13", "--j-values", "0.7",
    ])
    assert code == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    with open(out) as handle:
        document = json.load(handle, parse_constant=refuse)
    assert document["command"] == "phase1d"
    assert document["columns"] == ["h", "j", "label", "e_minus", "e_plus"]
    assert document["rows"][0][2] == "pi-SG"
    assert document["rows"][1] == [1e-13, 0.7, "0-SG", None, None]
    command, config = cli.read_emitted_config(str(out))
    assert command == "phase1d"
    assert config["task"]["h_values"] == [1.2, 1e-13]


@pytest.mark.parametrize("document", [{"a": 1}, {"command": "spectrum"}, {"config": {}}])
def test_json_without_command_or_config_is_config_error(tmp_path, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    with pytest.raises(cli.ConfigError, match="command and config"):
        cli.read_emitted_config(str(path))


@pytest.mark.parametrize("name, text", [
    ("doc.json", "{not json"),
    ("table.csv", "# spinladder spectrum\n# config: {oops\n"),
    ("doc.json", '{"command": "spectrum", "config": [1]}'),
    ("table.csv", "# spinladder spectrum\n# config: [1]\n"),
], ids=["json-invalid", "csv-invalid", "json-not-object", "csv-not-object"])
def test_malformed_emitted_config_is_config_error(tmp_path, name, text):
    """A header config that is not valid JSON, or not a JSON object,
    raises ConfigError naming the file, not a bare decode error."""
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(cli.ConfigError, match=re.escape(str(path))):
        cli.read_emitted_config(str(path))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_artifact_mode_follows_umask(tmp_path, umask):
    """An artifact, new or overwritten, gets the mode of a file opened
    normally under the same umask."""
    out = tmp_path / "mode.csv"
    plain = tmp_path / "plain.csv"
    argv = ["phase1d", "--out", str(out), "--h-values", "1.2", "--j-values", "0.7"]
    previous = os.umask(umask)
    try:
        plain.write_text("")
        assert cli.main(argv) == 0
        assert out.stat().st_mode == plain.stat().st_mode
        out.chmod(0o644)
        assert cli.main(argv) == 0
        assert out.stat().st_mode == plain.stat().st_mode
    finally:
        os.umask(previous)


def test_artifact_leaves_process_umask_alone(tmp_path, monkeypatch):
    """The kernel applies the umask to the temporary file, so writing an
    artifact never sets the umask of the process, not even for a moment
    in which another thread's new file would take the wrong mode."""
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    out = tmp_path / "out.csv"
    monkeypatch.setattr(os, "umask", refuse)
    assert cli.main(["phase1d", "--out", str(out), "--h-values", "1.2", "--j-values", "0.7"]) == 0
    monkeypatch.undo()
    assert out.read_text().startswith("# spinladder phase1d\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "lattice": {"n_x": 1, "n_y": 3},
        "drive": {"h": 0.5},
        "output": {"path": str(tmp_path / "ignored.csv")},
    }))
    out = tmp_path / "chosen.csv"
    code = cli.main([
        "spectrum", "--config", str(config_path), "--h", "0.9", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "ignored.csv").exists()
    _, config = cli.read_emitted_config(str(out))
    assert config["drive"]["h"] == 0.9
    assert config["lattice"]["n_y"] == 3


def test_resolved_config_shares_no_lists_with_defaults():
    config = cli.resolve_config("scan", None, {})
    config["task"]["h_values"].append(0.5)
    assert cli.resolve_config("scan", None, {})["task"]["h_values"] == []
    config = cli.resolve_config("spacing-table", None, {})
    config["task"]["sizes"][0][0] = 9
    assert cli.resolve_config("spacing-table", None, {})["task"]["sizes"][0] == [2, 2]


#: (flag, text, block, key, parsed value) for the flags every subcommand takes
COMMON_FLAGS = [
    ("--format", "json", "output", "format", "json"),
    ("--nx", "2", "lattice", "n_x", 2),
    ("--ny", "3", "lattice", "n_y", 3),
    ("--bc-x", "periodic", "lattice", "bc_x", "periodic"),
    ("--bc-y", "periodic", "lattice", "bc_y", "periodic"),
    ("--dedup", "false", "lattice", "dedup", False),
    ("--units", "raw", "drive", "units", "raw"),
    ("--jx", "0.25", "drive", "j_x", 0.25),
    ("--jy", "0.5", "drive", "j_y", 0.5),
    ("--h", "0.75", "drive", "h", 0.75),
    ("--period", "3.0", "drive", "period", 3.0),
]
TRACE_FLAGS = [
    ("--periods", "6", "task", "periods", 6),
    ("--init", "flip:0", "task", "init", "flip:0"),
    ("--axis", "0.3", "task", "axis", 0.3),
]
#: subcommand -> (arguments that keep the run tiny, its task flags)
SUBCOMMAND_FLAGS = {
    "spectrum": ([], []),
    "spacing-table": (
        ["--sizes", "1x2"],
        [("--sizes", "1x2,2x1", "task", "sizes", [[1, 2], [2, 1]])],
    ),
    "dynamics": (["--periods", "4"], TRACE_FLAGS),
    "power": (["--periods", "4"], TRACE_FLAGS),
    "scan": (
        ["--periods", "4"],
        TRACE_FLAGS + [("--h-values", "0.5,0.7", "task", "h_values", [0.5, 0.7])],
    ),
    "corner-spectral": (["--chi", "2"], [
        ("--chi", "3", "task", "chi", 3),
        ("--window", "0.02", "task", "window", 0.02),
        ("--scan-param", "j_y", "task", "scan_param", "j_y"),
        ("--values", "0.4", "task", "values", [0.4]),
    ]),
    "phase1d": ([], [
        ("--h-values", "0.5,1.2", "task", "h_values", [0.5, 1.2]),
        ("--j-values", "0.7", "task", "j_values", [0.7]),
    ]),
}
FLAG_CASES = [
    pytest.param(command, base, *case, id=f"{command}{case[0]}")
    for command, (base, task_flags) in SUBCOMMAND_FLAGS.items()
    for case in COMMON_FLAGS + task_flags
]


@pytest.mark.parametrize("command, base, flag, text, block, key, expected", FLAG_CASES)
def test_each_flag_lands_under_its_config_key(
    tmp_path, command, base, flag, text, block, key, expected
):
    out = tmp_path / "flag.out"
    argv = [command, "--out", str(out), "--nx", "1", "--ny", "2", *base, flag, text]
    assert cli.main(argv) == 0
    emitted_command, config = cli.read_emitted_config(str(out))
    assert emitted_command == command
    assert config["output"]["path"] == str(out)
    value = config[block][key]
    assert value == expected and type(value) is type(expected)


def test_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "x.csv"
    # no output path anywhere
    assert cli.main(["spectrum", "--nx", "1", "--ny", "2"]) == 2
    # malformed init token
    assert cli.main(["dynamics", "--out", str(out), "--init", "wobble"]) == 2
    # flip position outside the lattice
    assert cli.main(
        ["dynamics", "--out", str(out), "--nx", "1", "--ny", "2", "--init", "flip:2"]
    ) == 2
    # malformed sizes list
    assert cli.main(["spacing-table", "--out", str(out), "--sizes", "4y2"]) == 2
    # unknown config keys
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"drive": {"hx": 1.0}}))
    assert cli.main(["spectrum", "--out", str(out), "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert cli.main(["spectrum", "--out", str(out), "--config", str(bad)]) == 2
    # config values of the wrong JSON type are rejected, not coerced
    for block in (
        {"lattice": {"n_x": 1, "n_y": 2, "dedup": "false"}},
        {"lattice": {"n_x": 1.7, "n_y": 2}},
        {"lattice": {"n_x": 1, "n_y": 2}, "task": {"periods": 4.9}},
    ):
        bad.write_text(json.dumps(block))
        assert cli.main(["dynamics", "--out", str(out), "--config", str(bad)]) == 2
    # list elements of the wrong JSON type, and a non-string output path
    for command, block in (
        ("phase1d", {"task": {"h_values": ["0.5"], "j_values": [0.7]}}),
        ("spacing-table", {"task": {"sizes": [[1.7, 2]]}}),
        ("phase1d", {"output": {"path": 5}}),
    ):
        bad.write_text(json.dumps({"output": {"path": str(out)}, **block}))
        assert cli.main([command, "--config", str(bad)]) == 2
    # non-finite numbers, from flags, tilt angles and config files
    for argv in (
        ["dynamics", "--nx", "1", "--ny", "2", "--periods", "2", "--axis", "nan"],
        ["dynamics", "--nx", "1", "--ny", "2", "--periods", "2", "--init", "tilt:nan"],
        ["corner-spectral", "--nx", "2", "--ny", "1", "--chi", "2", "--window", "nan",
         "--values", "0.8"],
        # more samples than states, and overlapping 0 and pi/T windows, with no scan values
        ["corner-spectral", "--nx", "1", "--ny", "2", "--chi", "5", "--values="],
        ["corner-spectral", "--nx", "2", "--ny", "2", "--window", "1.0", "--values="],
    ):
        assert cli.main([*argv, "--out", str(out)]) == 2
    bad.write_text('{"lattice": {"n_x": 1, "n_y": 2}, "task": {"periods": 2, "axis": NaN}}')
    assert cli.main(["dynamics", "--out", str(out), "--config", str(bad)]) == 2
    # list init entries that are neither up/down nor a finite real angle
    for init in ([None, "up"], [True, "up"]):
        bad.write_text(json.dumps(
            {"lattice": {"n_x": 1, "n_y": 2}, "task": {"periods": 2, "init": init}}
        ))
        assert cli.main(["dynamics", "--out", str(out), "--config", str(bad)]) == 2
    # a zero period in pi/T units, and an integer no float holds under a float key
    assert cli.main(
        ["dynamics", "--nx", "1", "--ny", "2", "--periods", "2", "--period", "0", "--out", str(out)]
    ) == 2
    bad.write_text('{"lattice": {"n_x": 1, "n_y": 2}, "task": {"periods": 2, "axis": 1%s}}' % ("0" * 400))
    assert cli.main(["dynamics", "--out", str(out), "--config", str(bad)]) == 2
    assert not out.exists()
    # an output path in a missing directory, and one that is a directory
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    for target in (tmp_path / "missing" / "x.csv", outdir):
        assert cli.main(["spectrum", "--nx", "2", "--ny", "2", "--out", str(target)]) == 2
    assert not list(tmp_path.glob(".spinladder-*"))
    assert not list(outdir.iterdir())
    # spectrum above the dense size cap
    assert cli.main(["spectrum", "--out", str(out), "--nx", "1", "--ny", "15"]) == 3

    def explode(config):
        """Surrogate handler that reports a tolerance failure."""
        raise NumericalToleranceError("synthetic drift")

    row = cli._COMMANDS["spectrum"]._replace(run=explode)
    monkeypatch.setitem(cli._COMMANDS, "spectrum", row)
    assert cli.main(["spectrum", "--out", str(out), "--nx", "1", "--ny", "2"]) == 4


def rows_at_blas_threads(tmp_path, argv, artifact):
    """Run the CLI in a subprocess started at one and at two OpenBLAS
    threads and return the artifact's data rows for each start count.

    cli.main sets OpenBLAS to one thread before it runs a command, so
    both runs compute at one thread; they check that an artifact does
    not depend on the count the process starts with.
    test_dynamics.test_evolution_independent_of_blas_threads runs the
    evolution from the library at two threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    artifacts = {}
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "spinladder.cli", *argv, "--out", artifact],
            cwd=workdir, env=env, check=True, timeout=300,
        )
        artifacts[threads] = read_csv(workdir / artifact)[2]
    return artifacts


def test_corner_spectral_independent_of_blas_threads(tmp_path):
    """The 4x2 torus splits into 16 sectors of 16 states, so no step of
    the corner scan depends on the BLAS thread count."""
    artifacts = rows_at_blas_threads(tmp_path, [
        "corner-spectral", "--nx", "4", "--ny", "2",
        "--bc-x", "periodic", "--bc-y", "periodic", "--dedup", "false",
        "--jx", "0.05", "--jy", "0.6", "--chi", "16", "--window", "0.01",
        "--values", "0.8",
    ], "corner.csv")
    assert len(artifacts["1"]) == 1
    assert artifacts["1"] == artifacts["2"]


def test_open_spectrum_independent_of_blas_threads(tmp_path):
    """The open 1x10 chain splits into four blocks of 240 to 272 states
    and the open 6x2 ladder into eight of 496 to 560, large enough for
    threaded LAPACK; diagonalize runs them on one thread."""
    for n_x, n_y in ((1, 10), (6, 2)):
        workdir = tmp_path / f"{n_x}x{n_y}"
        workdir.mkdir()
        artifacts = rows_at_blas_threads(workdir, [
            "spectrum", "--nx", str(n_x), "--ny", str(n_y),
            "--jx", "0.05", "--jy", "0.6", "--h", "0.8",
        ], "spectrum.csv")
        assert len(artifacts["1"]) == 2 ** (n_x * n_y)
        assert artifacts["1"] == artifacts["2"]


@pytest.mark.parametrize("lattice", [
    ["--nx", "5", "--ny", "2"],
    ["--nx", "6", "--ny", "2", "--bc-x", "periodic", "--bc-y", "periodic", "--dedup", "false"],
    ["--nx", "6", "--ny", "2"],
])
def test_large_corner_spectral_independent_of_blas_threads(tmp_path, lattice):
    """Blocks of 496 to 560 states (open 6x2) and products of about
    170 x 170 x 16 per sector (6x2 torus) would both reach a second BLAS
    thread; the corner weights must not move with it.  The open 5x2,
    with blocks of 120 to 152, stays as the smaller open case."""
    artifacts = rows_at_blas_threads(tmp_path, [
        "corner-spectral", *lattice, "--jx", "0.05", "--jy", "0.6",
        "--chi", "16", "--window", "0.01", "--values", "0.8",
    ], "corner.csv")
    assert len(artifacts["1"]) == 1
    assert artifacts["1"] == artifacts["2"]


def test_scan_independent_of_blas_threads(tmp_path):
    """A 1x14 scan evolves its three h values as one stack of 3 x 16384
    amplitudes; its artifact must not depend on the OpenBLAS thread
    count the process starts with (the command runs at one thread)."""
    artifacts = rows_at_blas_threads(tmp_path, [
        "scan", "--nx", "1", "--ny", "14", "--jx", "0.05", "--jy", "0.6",
        "--h-values", "0.7,0.85,1.0", "--periods", "20", "--init", f"tilt:{math.pi / 4!r}",
        "--axis", repr(math.pi / 4),
    ], "scan.csv")
    assert len(artifacts["1"]) == 3
    assert artifacts["1"] == artifacts["2"]


def test_dynamics_independent_of_blas_threads(tmp_path):
    """Tilted 1x14 and 1x16 dynamics artifacts must not depend on the
    OpenBLAS thread count the process starts with (the command runs at
    one thread); test_evolution_independent_of_blas_threads runs the
    library at two."""
    for n_y in (14, 16):
        workdir = tmp_path / f"1x{n_y}"
        workdir.mkdir()
        artifacts = rows_at_blas_threads(workdir, [
            "dynamics", "--nx", "1", "--ny", str(n_y), "--jx", "0.05", "--jy", "0.6",
            "--h", "0.9", "--periods", "20", "--init", f"tilt:{math.pi / 4!r}",
            "--axis", repr(math.pi / 4),
        ], "trace.csv")
        assert len(artifacts["1"]) == 21
        assert artifacts["1"] == artifacts["2"]
