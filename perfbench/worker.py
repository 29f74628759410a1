"""One benchmark sample, in a fresh process.

    python3 perfbench/worker.py run WORKLOAD SEED
    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py trace WORKLOAD SEED NOTES_FROM

The worker writes its config and artifact into the current directory.

Every mode first sets up: import ``spinladder``, resolve the workload's
config and make one warm-up ``diagonalize`` call.  ``setup`` stops
there.  ``run`` then times one ``spinladder.cli.main`` call with
tracing off.  ``trace`` repeats the workload through the public
functions of each module, with a span around every call, and writes its
artifact with the note lines of the artifact NOTES_FROM.  Each prints
one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import spinladder.cli as cli  # noqa: E402
from spinladder.dynamics import (  # noqa: E402
    MagnetizationTrace,
    evolve_stroboscopic,
    measure_magnetization,
    power_spectrum,
    prepare_state,
)
from spinladder.floquet import (  # noqa: E402
    DriveParams,
    build_floquet,
    diagonalize,
    rotate_x_all_sites,
    spacing_stats,
)
from spinladder.lattice import make_lattice  # noqa: E402
from spinladder.majorana import SpectralFunctionConfig, corner_spectral_functions  # noqa: E402
from spinladder.pauli import PauliString  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, summarize, write_csv  # noqa: E402

IMPORTED = time.perf_counter()

#: periods at the start of each traced evolution whose rebuilt step is
#: also compared with FloquetOperator.apply
APPLY_CHECK_PERIODS = 2
NORM_TOL = 1e-10


def environment() -> dict:
    """BLAS libraries with version and threads, numpy/scipy versions, CPUs."""
    import ctypes
    import glob
    import platform

    import scipy

    blas = []
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"user": package.__name__, "library": os.path.basename(path)}
            for key, stem, restype in (
                ("config", "get_config", ctypes.c_char_p),
                ("threads", "get_num_threads", ctypes.c_int),
            ):
                for symbol in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}"):
                    func = getattr(lib, symbol, None)
                    if func is not None:
                        func.restype = restype
                        value = func()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
                        break
            blas.append(entry)
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def setup(workload: workloads.Workload) -> dict:
    """Resolve the config and warm up ``diagonalize``; time every part.

    The warm-up is a 4x2 torus, large enough to reach the threaded BLAS
    path, so its first-call cost lands here and not in the timed call.
    """
    cli.resolve_config(workload.command, workload.config, {})
    resolved = time.perf_counter()
    lattice = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    op = build_floquet(lattice, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0), materialize_dense=True)
    spectrum = diagonalize(op)
    done = time.perf_counter()
    return {
        "setup_s": done - START,
        "import_s": IMPORTED - START,
        "resolve_config_s": resolved - IMPORTED,
        "first_call_s": done - resolved,
        "max_eig_residual": float(spectrum.residuals.max()),
        "max_unitarity_dev": float(np.abs(np.abs(spectrum.eigenvalues) - 1.0).max()),
    }


def run_untraced(workload: workloads.Workload) -> dict:
    with open("config.json", "w") as handle:
        json.dump(workload.config, handle)
    argv = [workload.command, "--config", "config.json", "--out", "artifact.csv"]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kib / 1024.0}


# -- traced run ---------------------------------------------------------


def traced_evolution(tracer: Tracer, op, state: np.ndarray, periods: int, axis: float):
    """``evolve_stroboscopic`` rebuilt with one span per step of a period.

    Returns (magnetizations, worst norm drift, states after periods
    0..APPLY_CHECK_PERIODS); the states are checked against
    ``FloquetOperator.apply`` once tracing is over.
    """
    n = op.lattice.n_sites
    theta = op.params.theta_h
    values = np.empty(periods + 1)
    drift = 0.0
    v = np.asarray(state, dtype=complex)
    kept = [v]
    with tracer.span("dynamics.evolve", cpu=True):
        with tracer.span("dynamics.measure"):
            values[0] = measure_magnetization(v, n, axis)
        for step in range(1, periods + 1):
            with tracer.span("floquet.apply"):
                with tracer.span("floquet.zz"):
                    out = op.zz_phase * v
                with tracer.span("floquet.kick"):
                    v = rotate_x_all_sites(out, n, theta)
            with tracer.span("dynamics.norm"):
                drift = max(drift, abs(float(np.linalg.norm(v)) - 1.0))
            with tracer.span("dynamics.measure"):
                values[step] = measure_magnetization(v, n, axis)
            if step <= APPLY_CHECK_PERIODS:
                kept.append(v.copy())
    return values, drift, kept


class TracedWorkload:
    """The workload repeated through public module functions, under spans.

    ``run`` returns the columns and rows the subcommand writes; the
    attributes collect what the checks need afterwards.
    """

    def __init__(self, tracer: Tracer, workload: workloads.Workload, artifact: str):
        self.tracer = tracer
        self.workload = workload
        with tracer.span("cli.resolve_config"):
            self.config = cli.resolve_config(
                workload.command, workload.config, {"output": {"path": artifact}}
            )
        self.params = cli.resolve_drive(self.config)
        self.max_norm_drift = 0.0
        self.periods = 0
        self.amplitude_periods = 0
        self.diagonalize_dim_sum = 0
        self.apply_mismatch: list[str] = []
        self.first_evolution = None

    def lattice(self, n_x: int, n_y: int):
        block = self.config["lattice"]
        with self.tracer.span("lattice.make_lattice"):
            return make_lattice(
                n_x, n_y, bc_x=block["bc_x"], bc_y=block["bc_y"],
                dedup_coincident_bonds=bool(block["dedup"]),
            )

    def spectrum(self, lattice, params):
        with self.tracer.span("floquet.build_phase"):
            build_floquet(lattice, params)
        with self.tracer.span("floquet.build_dense"):
            op = build_floquet(lattice, params, materialize_dense=True)
        self.diagonalize_dim_sum += lattice.dim
        with self.tracer.span("floquet.diagonalize", cpu=True):
            return diagonalize(op)

    def evolve(self, label: str, lattice, params, state, periods: int, axis: float):
        with self.tracer.span("floquet.build_phase"):
            op = build_floquet(lattice, params)
        values, drift, kept = traced_evolution(self.tracer, op, state, periods, axis)
        self.max_norm_drift = max(self.max_norm_drift, drift)
        self.periods += periods
        self.amplitude_periods += periods * lattice.dim
        for before, after in zip(kept, kept[1:]):
            if not np.array_equal(op.apply(before), after):
                self.apply_mismatch.append(label)
                break
        if self.first_evolution is None:
            self.first_evolution = (op, state, periods, axis, values)
        trace = MagnetizationTrace(
            times=np.arange(periods + 1), values=values, axis=axis, period=params.period
        )
        with self.tracer.span("dynamics.power_spectrum"):
            return power_spectrum(trace)

    def run(self) -> tuple[list[str], list[list]]:
        name = self.workload.name
        task = self.config["task"]
        block = self.config["lattice"]
        raw = math.pi / self.params.period
        ops = self.workload.ops
        if name == "spacing_table":
            rows = []
            for label, (n_x, n_y) in zip(ops, task["sizes"]):
                with self.tracer.op(label):
                    spectrum = self.spectrum(self.lattice(n_x, n_y), self.params)
                    with self.tracer.span("floquet.spacing_stats"):
                        stats = spacing_stats(spectrum)
                rows.append([label, stats.min_dev / raw, stats.max_dev / raw])
            return ["size", "min_dev", "max_dev"], rows
        lattice = self.lattice(int(block["n_x"]), int(block["n_y"]))
        if name == "corner_scan":
            sf_config = SpectralFunctionConfig(chi=int(task["chi"]), window=float(task["window"]))
            rows = []
            for label, value in zip(ops, task["values"]):
                with self.tracer.op(label):
                    spectrum = self.spectrum(lattice, replace(self.params, h=float(value) * raw))
                    with self.tracer.span("majorana.corner_spectral"):
                        s = corner_spectral_functions(spectrum, lattice, sf_config)
                rows.append([float(value), s.s0_1, s.s0_2, s.spi_1, s.spi_2])
            return ["h", "s0_1", "s0_2", "spi_1", "spi_2"], rows
        with self.tracer.span("dynamics.prepare_state"):
            state = prepare_state(lattice, cli.parse_init(task["init"]))
        periods = int(task["periods"])
        axis = float(task["axis"])
        if name == "tilt_chain16":
            with self.tracer.op("evolution"):
                spectrum = self.evolve("evolution", lattice, self.params, state, periods, axis)
            rows = [[float(w), float(m)] for w, m in zip(spectrum.frequencies, spectrum.magnitudes)]
            return ["omega", "magnitude"], rows
        rows = []
        for label, value in zip(ops, task["h_values"]):
            with self.tracer.op(label):
                params = replace(self.params, h=float(value) * raw)
                spectrum = self.evolve(label, lattice, params, state, periods, axis)
            rows.append([float(value), spectrum.subharmonic_amplitude])
        return ["h", "peak"], rows


def run_traced(workload: workloads.Workload, seed: int, notes_from: str) -> dict:
    tracer = Tracer()
    artifact = "traced.csv"
    notes, _ = workloads.read_artifact(notes_from)
    original_apply = PauliString.apply

    def traced_apply(self, state):
        with tracer.span("pauli.apply"):
            return original_apply(self, state)

    PauliString.apply = traced_apply
    try:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        with tracer.span("run"):
            traced = TracedWorkload(tracer, workload, artifact)
            columns, rows = traced.run()
            with tracer.span("cli.emit"):
                cli.emit(artifact, "csv", workload.command, traced.config, columns, rows, notes)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        PauliString.apply = original_apply

    failed = {label: "rebuilt period differs from FloquetOperator.apply" for label in traced.apply_mismatch}
    if traced.max_norm_drift > NORM_TOL:
        failed[workload.ops[0]] = f"norm drift {traced.max_norm_drift:.3e}"
    if traced.first_evolution is not None:
        op, state, periods, axis, values = traced.first_evolution
        if not np.array_equal(evolve_stroboscopic(op, state, periods, axis=axis).values, values):
            failed[workload.ops[0]] = "rebuilt evolution differs from evolve_stroboscopic"

    spans = tracer.finished()
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    write_csv(spans, os.path.join(out_dir, f"spans-{workload.name}-{seed}.csv"))
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "artifact_bytes": os.path.getsize(artifact),
        "failed": failed,
        "max_norm_drift": traced.max_norm_drift,
        "periods": traced.periods,
        "amplitude_periods": traced.amplitude_periods,
        "diagonalize_dim_sum": traced.diagonalize_dim_sum,
        "spans": len(spans),
        "layers": summarize(spans),
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[1], argv[2], int(argv[3])
    workload = workloads.make(name, seed)
    info = setup(workload)
    if mode == "run":
        info.update(run_untraced(workload))
    elif mode == "trace":
        info.update(run_traced(workload, seed, argv[4]))
    info["environment"] = environment()
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
