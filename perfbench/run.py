"""Benchmark of the spinladder CLI: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each sample is a fresh process (``worker.py``) that sets up
and then makes one ``spinladder.cli.main`` call.  With ``--trace 0``
samples are taken for about ``--seconds`` seconds, at least MIN_SAMPLES
of them, and then set-up-only workers until SETUP_SAMPLES set-ups have
been timed; the end-to-end metrics are medians.  With ``--trace 1``
two untraced samples are followed by one traced sample, and the
per-layer metrics come from its spans.

Outside the timed call every artifact is checked (``workloads.py``);
an operation (one size, one h point, one evolution) whose check fails
counts in ``failed``.  The line before the last holds a record of the
environment, every sample and the artifact digests; the last line is
the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
#: set-ups timed per untraced run, counting those of the samples
SETUP_SAMPLES = 10
TRACE_UNTRACED_SAMPLES = 2
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read from its files; None if not one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Run:
    """Samples of one workload and seed, their checks and their record."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = workloads.make(name, seed)
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.samples: list[dict] = []
        self.setups: list[dict] = []
        self.spawned = 0
        self.attempted = 0
        self.failures: dict[str, dict[str, str]] = {}
        self.environment: dict | None = None

    def spawn(self, mode: str, *extra: str) -> tuple[dict | None, Path]:
        """One worker process; returns its JSON result (None on failure) and its directory.

        The worker runs in its own directory and names its artifact by a
        relative path, so the path in the artifact header, and with it
        the digest, is the same for every sample.
        """
        sub = self.workdir / f"{mode}-{self.spawned}"
        sub.mkdir()
        self.spawned += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload.name, str(self.seed), *extra]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(argv, cwd=sub, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} worker timed out after {timeout:.0f} s", file=sys.stderr)
            return None, sub
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            result = json.loads(lines[-1])
        except (IndexError, ValueError) as exc:
            print(f"perfbench: {mode} worker failed ({exc}):\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None, sub
        environment = result.pop("environment")
        self.environment = self.environment or environment
        if mode != "trace":
            self.setups.append({k: result[k] for k in ("setup_s", "import_s", "first_call_s")})
        return result, sub

    def record_failures(self, key: str, failed: dict[str, str]) -> None:
        self.attempted += len(self.workload.ops)
        if failed:
            self.failures[key] = failed

    def sample(self) -> None:
        """One untraced sample and the range checks on its artifact."""
        result, sub = self.spawn("run")
        artifact = sub / "artifact.csv"
        if result is None or result["exit_code"] != 0:
            failed = {op: "worker or CLI failed" for op in self.workload.ops}
        else:
            failed = workloads.check_artifact(self.workload, str(artifact))
        result = result or {}
        result["artifact"] = str(artifact)
        result["sha256"] = digest(artifact)
        self.samples.append(result)
        self.record_failures(f"sample {len(self.samples) - 1}", failed)

    def setup_sample(self) -> None:
        """One worker that only sets up; it counts as one operation."""
        self.attempted += 1
        result, _ = self.spawn("setup")
        if result is None:
            self.failures[f"setup {self.spawned - 1}"] = {"setup": "worker failed"}

    def artifact_rows(self, path: str) -> list[list[str]]:
        try:
            return workloads.read_artifact(path)[1]
        except (OSError, ValueError):
            return []

    def check_against_reference(self) -> dict[str, float]:
        """Recompute the spectra, check them, and compare every sample's rows."""
        failed, health, reference = workloads.reference_check(self.workload)
        for index, sample in enumerate(self.samples):
            mismatch = dict(failed)
            mismatch.update(
                workloads.disagreements(self.workload, self.artifact_rows(sample["artifact"]), reference)
            )
            if mismatch:
                self.failures.setdefault(f"sample {index}", {}).update(mismatch)
        return health

    def traced(self) -> dict | None:
        """The traced sample, checked against the first untraced artifact."""
        reference = self.samples[0]["artifact"]
        result, sub = self.spawn("trace", reference)
        artifact = sub / "traced.csv"
        if result is None:
            failed = {op: "traced worker failed" for op in self.workload.ops}
        else:
            failed = dict(result["failed"])
            failed.update(workloads.check_artifact(self.workload, str(artifact)))
            failed.update(
                workloads.disagreements(
                    self.workload, self.artifact_rows(str(artifact)), self.artifact_rows(reference)
                )
            )
        self.record_failures("traced", failed)
        return result

    @property
    def failed(self) -> int:
        return sum(len(ops) for ops in self.failures.values())

    def median(self, key: str) -> float | None:
        values = [s[key] for s in (self.setups if key == "setup_s" else self.samples) if key in s]
        return statistics.median(values) if values else None


def layer_metrics(run: Run, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced sample's span table.

    Times per period are totals over every evolved period divided by
    their number.  A layer the workload never calls reads 0.
    """
    layers = traced["layers"]

    def total(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    periods = traced["periods"]

    def per_period(name: str) -> float:
        return total(name) / periods if periods else 0.0

    amplitudes = traced["amplitude_periods"]
    evolve_wall = total("dynamics.evolve")
    dense_extra = total("floquet.build_dense") - total("floquet.build_phase") if total("floquet.build_dense", "calls") else 0.0
    return {
        "floquet.build_phase_s": (total("floquet.build_phase"), "s"),
        "floquet.build_dense_s": (dense_extra, "s"),
        "floquet.diagonalize_s": (total("floquet.diagonalize"), "s"),
        "floquet.diagonalize_cpu_s": (total("floquet.diagonalize", "cpu_s"), "s"),
        "floquet.diagonalize_calls": (total("floquet.diagonalize", "calls"), "count"),
        "floquet.diagonalize_dim_sum": (float(traced["diagonalize_dim_sum"]), "count"),
        "floquet.diagonalize_first_call_s": (traced["first_call_s"], "s"),
        "floquet.spacing_stats_s": (total("floquet.spacing_stats"), "s"),
        "floquet.apply_s": (per_period("floquet.apply"), "s"),
        "floquet.zz_s": (per_period("floquet.zz"), "s"),
        "floquet.kick_s": (per_period("floquet.kick"), "s"),
        "floquet.kick_ns_per_amp": (total("floquet.kick") / amplitudes * 1e9 if amplitudes else 0.0, "ns"),
        "dynamics.measure_s": (per_period("dynamics.measure"), "s"),
        "dynamics.norm_s": (per_period("dynamics.norm"), "s"),
        "dynamics.evolve_cpu_ratio": (total("dynamics.evolve", "cpu_s") / evolve_wall if evolve_wall else 0.0, "ratio"),
        "dynamics.prepare_state_s": (total("dynamics.prepare_state"), "s"),
        "dynamics.power_spectrum_s": (total("dynamics.power_spectrum"), "s"),
        "dynamics.periods_per_s": (periods / evolve_wall if evolve_wall else 0.0, "1/s"),
        "majorana.corner_spectral_s": (total("majorana.corner_spectral", "self_s"), "s"),
        "pauli.apply_s": (total("pauli.apply"), "s"),
        "pauli.apply_calls": (total("pauli.apply", "calls"), "count"),
        "lattice.make_lattice_s": (total("lattice.make_lattice"), "s"),
        "cli.resolve_config_s": (total("cli.resolve_config"), "s"),
        "cli.emit_s": (total("cli.emit"), "s"),
        "cli.artifact_bytes": (float(traced["artifact_bytes"]), "bytes"),
        "artifact.distinct_digests": (float(len({s["sha256"] for s in run.samples})), "count"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinladder" / "__init__.py").is_file():
        print(f"perfbench: no spinladder sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            run = Run(args.workload, args.seed, workdir)
        except ValueError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            for _ in range(TRACE_UNTRACED_SAMPLES):
                run.sample()
        else:
            while len(run.samples) < MIN_SAMPLES or (
                (time.perf_counter() - run.started) * (len(run.samples) + 1) / len(run.samples)
                <= args.seconds
            ):
                run.sample()
            # bounded, in case set-up workers keep failing
            while len(run.setups) < SETUP_SAMPLES and run.spawned < 2 * SETUP_SAMPLES:
                run.setup_sample()
        health = run.check_against_reference()
        traced = run.traced() if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        if traced is None:
            metrics = {}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(run, traced).items()}
    else:
        metrics = {k: {"value": run.median(k), "unit": u} for k, u in END_TO_END.items()}

    if traced is not None:
        # health figures and tracing overhead: reported, not metrics
        health = {
            "max_eig_residual": max(traced["max_eig_residual"], health["max_eig_residual"]),
            "max_unitarity_dev": max(traced["max_unitarity_dev"], health["max_unitarity_dev"]),
            "max_norm_drift": traced["max_norm_drift"],
            "trace_overhead_s": traced["wall_s"] - (run.median("wall_s") or 0.0),
        }
    failed = run.failed
    record = {
        "workload": run.workload.name,
        "seed": args.seed,
        "config": run.workload.config,
        "git_commit": git_commit(ROOT),
        "environment": run.environment,
        "samples": [
            {k: s.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb", "sha256")}
            for s in run.samples
        ],
        "setups": run.setups,
        "distinct_digests": len({s["sha256"] for s in run.samples}),
        "error_rate": failed / run.attempted,
        "failures": run.failures,
        "health": health,
        "traced": None if traced is None else {k: traced[k] for k in ("wall_s", "cpu_s", "spans", "layers")},
    }
    print(json.dumps({"record": record}))
    correct = failed == 0 and bool(metrics) and all(s.get("wall_s") is not None for s in run.samples)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
