"""Tests of the benchmark's own code: span arithmetic, the rebuilt period,
and the counting of failed operations.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import math

import numpy as np
import pytest

import workloads
from spans import Span, Tracer, self_times, summarize
from spinladder import cli
from spinladder.dynamics import evolve_stroboscopic, prepare_state, uniform_tilt
from spinladder.floquet import DriveParams, build_floquet
from spinladder.lattice import make_lattice
from worker import APPLY_CHECK_PERIODS, traced_evolution


def test_self_time_subtracts_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has one child [2, 3]
    spans = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("a.inner", 2.0, 3.0, 1, "op"),
        Span("b", 5.0, 9.0, 0, "op"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    table = summarize(spans)
    assert table["root"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["total_s"] == pytest.approx(3.0)


def test_tracer_records_parents_and_operation():
    tracer = Tracer()
    with tracer.op("2x2"):
        with tracer.span("outer"):
            with tracer.span("inner", cpu=True):
                pass
    spans = tracer.finished()
    assert [s.name for s in spans] == ["op", "outer", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 1]
    assert {s.op for s in spans} == {"2x2"}
    assert spans[2].cpu is not None and spans[1].cpu is None
    assert all(own >= 0.0 for own in self_times(spans))


def test_rebuilt_period_matches_library_bit_for_bit():
    lattice = make_lattice(1, 8)
    params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.9, period=2.0)
    op = build_floquet(lattice, params)
    state = prepare_state(lattice, uniform_tilt(8, math.pi / 4))
    periods = 40
    tracer = Tracer()
    values, drift, kept = traced_evolution(tracer, op, state, periods, math.pi / 4)

    assert len(kept) == APPLY_CHECK_PERIODS + 1
    for before, after in zip(kept, kept[1:]):
        assert np.array_equal(op.apply(before), after)
    reference = evolve_stroboscopic(op, state, periods, axis=math.pi / 4)
    assert np.array_equal(values, reference.values)
    assert drift < 1e-12
    table = summarize(tracer.finished())
    assert table["floquet.zz"]["calls"] == table["floquet.kick"]["calls"] == periods
    assert table["dynamics.measure"]["calls"] == periods + 1


def _emit(tmp_path, workload, rows):
    path = str(tmp_path / "artifact.csv")
    config = cli.resolve_config(workload.command, workload.config, {"output": {"path": path}})
    columns = {"scan": ["h", "peak"], "spacing-table": ["size", "min_dev", "max_dev"]}[workload.command]
    cli.emit(path, "csv", workload.command, config, columns, rows)
    return path


def test_corrupted_row_counts_as_failed_operation(tmp_path):
    workload = workloads.make("h_scan_chain12", 3)
    rows = [[float(h), 0.5] for h in workload.config["task"]["h_values"]]
    assert workloads.check_artifact(workload, _emit(tmp_path, workload, rows)) == {}

    rows[2][1] = workload.n_sites + 1.0  # a peak above N
    failed = workloads.check_artifact(workload, _emit(tmp_path, workload, rows))
    assert list(failed) == [workload.ops[2]]


def test_missing_size_row_counts_as_failed_operation(tmp_path):
    workload = workloads.make("spacing_table", 0)
    rows = [[label, 1e-3, 0.02] for label in workload.ops if label != "5x2"]
    failed = workloads.check_artifact(workload, _emit(tmp_path, workload, rows))
    assert list(failed) == ["5x2"]


def test_rows_differing_from_reference_are_failed_operations():
    workload = workloads.make("h_scan_chain12", 0)
    reference = [[op, "0.25"] for op in workload.ops]
    rows = [list(row) for row in reference]
    assert workloads.disagreements(workload, rows, reference) == {}
    rows[0][1] = "0.25000000000000006"  # dynamics rows must match exactly
    assert list(workloads.disagreements(workload, rows, reference)) == [workload.ops[0]]


def test_seed_zero_gives_listed_couplings_and_seeds_keep_work_fixed():
    base = workloads.make("corner_scan", 0)
    assert base.config["drive"]["j_y"] == 0.6
    assert base.config["task"]["values"] == workloads.CORNER_H
    for seed in (1, 2, 17):
        other = workloads.make("corner_scan", seed)
        assert len(other.ops) == len(base.ops)
        for key in ("j_x", "j_y"):
            ratio = other.config["drive"][key] / base.config["drive"][key]
            assert abs(ratio - 1.0) <= workloads.JITTER
    with pytest.raises(ValueError):
        workloads.make("no_such_workload", 0)
