"""End-to-end tests of the command line front end.

Each test drives main() with real argv lists, reads back the emitted
artifact, and compares against the library computed directly.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinladder import cli
from spinladder.dynamics import (
    all_up,
    evolve_stroboscopic,
    one_flip,
    power_spectrum,
    prepare_state,
    scan_subharmonic,
)
from spinladder.floquet import (
    DriveParams,
    NumericalToleranceError,
    build_floquet,
    diagonalize,
    solvable_point_spectrum_1x4,
    spacing_stats,
)
from spinladder.lattice import make_lattice
from spinladder.majorana import SpectralFunctionConfig, corner_spectral_functions
from spinladder.transfer1d import classify_phase, transfer_matrix


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
    closed = np.asarray(solvable_point_spectrum_1x4(params.j_y, params.period))
    expected = np.sort(np.repeat(closed[:, 0], closed[:, 1].astype(int)))
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
    trace = evolve_stroboscopic(op, prepare_state(lattice, all_up(2)), periods=16)
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
    params = DriveParams.from_pi_over_t(j_x=0.0, j_y=0.5, h=0.0, period=2.0)
    raw_values = [v * math.pi / 2.0 for v in (0.8, 1.0)]
    points = scan_subharmonic([lattice], params, raw_values, "up", periods=6)
    np.testing.assert_array_equal(
        [float(r[1]) for r in rows], [p.peak for p in points]
    )


def test_scan_with_no_values_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code = cli.main(["scan", "--out", str(out), "--nx", "1", "--ny", "2",
                     "--h-values", ""])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["h", "peak"]
    assert rows == []


def test_spacing_table_skips_oversized_entries(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli.main([
        "spacing-table", "--out", str(out), "--sizes", "1x4,1x15",
    ])
    assert code == 0
    assert "1x15 failed" in capsys.readouterr().err
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
    out = tmp_path / "doc.json"
    code = cli.main([
        "phase1d", "--out", str(out), "--format", "json",
        "--h-values", "1.2", "--j-values", "0.7",
    ])
    assert code == 0
    with open(out) as handle:
        document = json.load(handle)
    assert document["command"] == "phase1d"
    assert document["columns"] == ["h", "j", "label", "e_minus", "e_plus"]
    assert document["rows"][0][2] == "pi-SG"
    command, config = cli.read_emitted_config(str(out))
    assert command == "phase1d"
    assert config["task"]["h_values"] == [1.2]


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
    # spectrum above the dense size cap
    assert cli.main(["spectrum", "--out", str(out), "--nx", "1", "--ny", "15"]) == 3

    def explode(config):
        """Surrogate handler that reports a tolerance failure."""
        raise NumericalToleranceError("synthetic drift")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", explode)
    assert cli.main(["spectrum", "--out", str(out), "--nx", "1", "--ny", "2"]) == 4


def rows_at_blas_threads(tmp_path, argv, artifact):
    """Run the CLI in a subprocess at one and two OpenBLAS threads and
    return the artifact's data rows for each thread count."""
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


def test_dynamics_independent_of_blas_threads(tmp_path):
    """At 2**14 amplitudes OpenBLAS splits dot products across threads;
    the kick's matmuls and the magnetization sum must not depend on it."""
    artifacts = rows_at_blas_threads(tmp_path, [
        "dynamics", "--nx", "1", "--ny", "14", "--jx", "0.05", "--jy", "0.6",
        "--h", "0.9", "--periods", "20", "--init", f"tilt:{math.pi / 4!r}",
        "--axis", repr(math.pi / 4),
    ], "trace.csv")
    assert len(artifacts["1"]) == 21
    assert artifacts["1"] == artifacts["2"]
