"""Tests for state preparation, stroboscopic evolution and power spectra."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinladder import dynamics
from spinladder.dynamics import (
    MagnetizationTrace,
    evolve_scan,
    evolve_stroboscopic,
    measure_magnetization,
    one_flip,
    power_spectrum,
    prepare_state,
    resolve_spec,
    uniform_tilt,
)
from spinladder.floquet import (
    DriveParams,
    NumericalToleranceError,
    build_floquet,
    rotate_x_all_sites,
)
from spinladder.lattice import make_lattice
from spinladder.pauli import PauliString


def tilt_operator(n_sites: int, axis: float) -> np.ndarray:
    """Dense sum_k [cos(axis) Z_k + sin(axis) Y_k]."""
    dim = 1 << n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n_sites):
        total += math.cos(axis) * PauliString.single(n_sites, k, "z").to_matrix()
        total += math.sin(axis) * PauliString.single(n_sites, k, "y").to_matrix()
    return total


def test_all_up_is_basis_index_zero():
    lat = make_lattice(2, 3)
    state = prepare_state(lat, "up")
    expected = np.zeros(64)
    expected[0] = 1.0
    np.testing.assert_allclose(state, expected)


def test_one_flip_occupies_single_bit():
    lat = make_lattice(1, 4)
    state = prepare_state(lat, one_flip(4, position=2))
    expected = np.zeros(16)
    expected[1 << 2] = 1.0
    np.testing.assert_allclose(state, expected)


def test_one_flip_default_and_bounds():
    assert one_flip(4) == ("up", "down", "up", "up")
    with pytest.raises(ValueError):
        one_flip(4, position=4)
    with pytest.raises(ValueError):
        one_flip(4, position=-1)


def test_resolve_spec_shapes():
    lat = make_lattice(1, 3)
    assert resolve_spec(lat, "up") == ("up", "up", "up")
    assert resolve_spec(lat, 0.25) == (0.25, 0.25, 0.25)
    assert resolve_spec(lat, lambda l: one_flip(l.n_sites, 0)) == ("down", "up", "up")
    with pytest.raises(ValueError):
        resolve_spec(lat, ("up", "down"))
    with pytest.raises(ValueError):
        prepare_state(lat, ("up", "sideways", "up"))
    # numpy reals are angles like Python floats
    assert np.array_equal(prepare_state(lat, (np.float32(0.5),) * 3), prepare_state(lat, 0.5))


@pytest.mark.parametrize("entry", [None, True, False, math.nan, math.inf, 1j, b"up"])
def test_site_entries_must_be_tokens_or_finite_angles(entry):
    lat = make_lattice(1, 2)
    with pytest.raises(ValueError, match="finite angle"):
        prepare_state(lat, (entry, "up"))


@given(
    angles=st.lists(
        st.floats(-math.pi, math.pi, allow_nan=False), min_size=1, max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_prepare_state_normalized(angles):
    lat = make_lattice(1, len(angles))
    state = prepare_state(lat, tuple(angles))
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_magnetization_simple_oracles():
    lat = make_lattice(2, 2)
    up = prepare_state(lat, "up")
    assert measure_magnetization(up, 4) == pytest.approx(4.0, abs=1e-12)
    flipped = prepare_state(lat, one_flip(4))
    assert measure_magnetization(flipped, 4) == pytest.approx(2.0, abs=1e-12)


@given(theta=st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_tilted_state_saturates_along_its_own_axis(theta):
    n = 3
    lat = make_lattice(1, n)
    state = prepare_state(lat, uniform_tilt(n, theta))
    along = measure_magnetization(state, n, axis=theta)
    assert along == pytest.approx(float(n), abs=1e-10)
    projected = measure_magnetization(state, n, axis=0.0)
    assert projected == pytest.approx(n * math.cos(theta), abs=1e-10)


@given(
    theta=st.floats(-2.0, 2.0, allow_nan=False),
    axis=st.floats(-2.0, 2.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_magnetization_matches_dense_operator(theta, axis):
    n = 3
    lat = make_lattice(1, n)
    state = prepare_state(lat, uniform_tilt(n, theta))
    dense = float(np.real(state.conj() @ tilt_operator(n, axis) @ state))
    assert measure_magnetization(state, n, axis) == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 12, 16, 17])
def test_measurement_matches_elementwise_sums(n):
    """The products against the chunk tables give the elementwise sums
    to rounding: the squared norm and the z magnetization of a random
    state, and its magnetization along a tilted axis, which the tilted
    binding gives bit for bit as measure_magnetization does, without
    writing its input.  From 16 sites on a row's chunks take more than
    one product."""
    rng = np.random.default_rng(n)
    dim = 1 << n
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    z = n - 2.0 * np.bitwise_count(np.arange(dim))
    real = (state * np.array([1, -1j, -1, 1j])[np.bitwise_count(np.arange(dim)) % 4]).reshape(1, -1)
    sums = np.empty((1, 1, 2))
    dynamics._bind_measure(real, np.empty_like(real), n)(sums)
    assert sums[0, 0, 0] == pytest.approx(float(np.sum(np.abs(state) ** 2)), abs=1e-13)
    assert sums[0, 0, 1] == pytest.approx(float(np.abs(state) ** 2 @ z), abs=1e-13 * n)
    assert measure_magnetization(state, n) == sums[0, 0, 1]
    tilted = rotate_x_all_sites(state.copy(), n, 0.5 * 0.9)
    assert measure_magnetization(state, n, 0.9) == pytest.approx(
        float(np.abs(tilted) ** 2 @ z), abs=1e-13 * n
    )
    before = real.copy()
    dynamics._bind_measure(real, np.empty_like(real), n, 0.9, np.empty_like(real))(sums)
    assert sums[0, 0, 1] == measure_magnetization(state, n, 0.9)
    assert np.array_equal(real, before)


@pytest.mark.parametrize("axis", [0.0, 0.9])
def test_repeated_measurement_allocates_no_state_buffer(axis):
    """measure_magnetization takes its buffers from the thread's
    workspace, so a second call on a 1x16 state allocates less than a
    quarter of one buffer of D complex values and reads the same value."""
    n = 16
    rng = np.random.default_rng(7)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    first = measure_magnetization(state, n, axis)
    tracemalloc.start()
    try:
        second = measure_magnetization(state, n, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < 0.25 * 16 * state.size, f"traced peak {peak} bytes"


def test_trivial_drive_keeps_trace_constant():
    lat = make_lattice(1, 3)
    op = build_floquet(lat, DriveParams(j_x=0.0, j_y=0.0, h=0.0, period=2.0))
    trace = evolve_stroboscopic(op, prepare_state(lat, "up"), periods=6)
    assert trace.n_periods == 6
    assert trace.values.shape == (7,)
    np.testing.assert_allclose(trace.values, 3.0, atol=1e-12)
    assert not trace.values.flags.writeable


def test_evolution_validates_inputs():
    lat = make_lattice(1, 2)
    op = build_floquet(lat, DriveParams(j_x=0.0, j_y=0.4, h=0.3, period=2.0))
    state = prepare_state(lat, "up")
    with pytest.raises(ValueError):
        evolve_stroboscopic(op, state, periods=0)
    for wrong in (np.ones(8, dtype=complex) / math.sqrt(8), state.reshape(2, 2)):
        with pytest.raises(ValueError, match="shape"):
            evolve_stroboscopic(op, wrong, periods=1)
    nan_state = state.copy()
    nan_state[1] = np.nan
    for axis in (0.0, math.pi / 4):
        with pytest.raises(NumericalToleranceError):
            evolve_stroboscopic(op, 0.9 * state, periods=1, axis=axis)
        # a NaN norm must fail the guard, not pass it as zero drift
        with pytest.raises(NumericalToleranceError):
            evolve_stroboscopic(op, nan_state, periods=1, axis=axis)


@pytest.mark.parametrize("axis", [0.0, math.pi / 4])
def test_evolution_leaves_input_state_unmodified(axis):
    """The evolution works in place on its own buffers, never on the
    caller's complex, contiguous state."""
    lat = make_lattice(1, 5)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.9, 2.0))
    state = prepare_state(lat, uniform_tilt(5, math.pi / 3))
    assert state.dtype == complex and state.flags.c_contiguous
    before = state.copy()
    evolve_stroboscopic(op, state, periods=7, axis=axis)
    assert np.array_equal(state, before)


def rebuilt_trace(op, state, periods, axis):
    """Magnetizations and worst norm drift from op.apply and
    measure_magnetization, period by period.  The squared norm is
    summed, as the measurement sums it, from the squared floats of the
    state in the kick's real frame: the state times
    conj(i**popcount(b)), rotated by rotate_x_all_sites first when the
    axis is tilted."""
    n = op.lattice.n_sites
    frame = np.array([1, -1j, -1, 1j])[np.bitwise_count(np.arange(op.lattice.dim)) % 4]
    v = np.asarray(state, dtype=complex)
    values = [measure_magnetization(v, n, axis)]
    drift = 0.0
    sums = np.empty((1, 1, 2))
    for _ in range(periods):
        v = op.apply(v)
        measured = v if axis == 0.0 else rotate_x_all_sites(v.copy(), n, 0.5 * axis)
        real = (measured * frame).reshape(1, -1)
        dynamics._bind_measure(real, np.empty_like(real), n)(sums)
        drift = max(drift, abs(math.sqrt(sums[0, 0, 0]) - 1.0))
        values.append(measure_magnetization(v, n, axis))
    return np.array(values), drift


@pytest.mark.parametrize(
    "lat",
    [make_lattice(1, n) for n in (1, 2, 3, 5, 8, 12, 16, 17)]
    + [make_lattice(2, 3, bc_y="periodic")],
    ids=lambda lat: f"{lat.n_x}x{lat.n_y}{'p' if lat.bc_y == 'periodic' else ''}",
)
def test_evolution_matches_per_period_rebuild_bit_for_bit(lat):
    """The evolution runs in the kick's real frame on its own buffers;
    its trace and norm drift must equal the public per-period rebuild
    exactly.  Odd N exercises the global i**-N of the kernel, h = 0 the
    identity blocks, raw h = pi the kick angle pi/2."""
    n = lat.n_sites
    periods = 6 if n >= 12 else 24
    state = prepare_state(lat, uniform_tilt(n, math.pi / 4))
    for h in (0.0, 0.83, math.pi):
        op = build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=h, period=2.0))
        for axis in (0.0, math.pi / 4, math.pi):
            trace = evolve_stroboscopic(op, state, periods, axis)
            values, drift = rebuilt_trace(op, state, periods, axis)
            assert np.array_equal(trace.values, values), (h, axis)
            assert trace.max_norm_drift == drift, (h, axis)


@pytest.mark.parametrize(
    "lat",
    [make_lattice(1, n) for n in range(1, 18)] + [make_lattice(2, 3, bc_y="periodic")],
    ids=lambda lat: f"{lat.n_x}x{lat.n_y}{'p' if lat.bc_y == 'periodic' else ''}",
)
def test_scan_rows_equal_single_evolutions_bit_for_bit(lat):
    """Each row of a stacked scan runs gemms of the sizes a single
    evolution runs, with its own kick angle, so its trace and norm drift
    equal evolve_stroboscopic of the operator built at its h exactly.
    The chains give one to five groups of sites, a narrower last group
    at N % 4 != 0; h = 0 rows take identity blocks, inside a stack and
    in a stack of their own, raw h = pi is the kick angle pi/2."""
    n = lat.n_sites
    periods = 6 if n >= 12 else 24
    state = prepare_state(lat, uniform_tilt(n, math.pi / 4))
    ops = {
        h: build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=h, period=2.0))
        for h in (0.83, 0.0, math.pi, 1.9)
    }
    fields = tuple(ops)
    for axis in (0.0, math.pi / 4, math.pi):
        for stack in (fields, fields[1:2] * 2):
            traces = evolve_scan(ops[0.83], stack, state, periods, axis)
            assert len(traces) == len(stack)
            for h, trace in zip(stack, traces):
                single = evolve_stroboscopic(ops[h], state, periods, axis)
                assert np.array_equal(trace.values, single.values), (h, axis)
                assert trace.max_norm_drift == single.max_norm_drift, (h, axis)
                assert not trace.values.flags.writeable


def test_scan_needs_a_kick_field():
    lat = make_lattice(1, 4)
    op = build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=0.83, period=2.0))
    with pytest.raises(ValueError, match="at least one kick field"):
        evolve_scan(op, [], prepare_state(lat, "up"), 2)


def test_scan_bounds_its_own_stacks(monkeypatch):
    """A library call is bounded as the CLI's is: five fields on the
    1x15 chain, two rows per stack, ask the workspace for stacks of 2, 2
    and 1 rows, and each trace equals its single evolution bit for bit."""
    lat = make_lattice(1, 15)
    assert dynamics.SCAN_STACK_AMPLITUDES // lat.dim == 2
    drives = [DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0) for h in (0.6, 0.7, 0.8, 0.9, 1.0)]
    state = prepare_state(lat, one_flip(15, 3))
    asked = []
    workspace = dynamics._workspace

    def spy(count, rows, dim):
        asked.append(rows)
        return workspace(count, rows, dim)

    monkeypatch.setattr(dynamics, "_workspace", spy)
    op = build_floquet(lat, drives[0])
    traces = evolve_scan(op, [d.h for d in drives], state, 6, axis=0.4)
    assert asked == [2, 2, 1]
    for drive, trace in zip(drives, traces, strict=True):
        single = evolve_stroboscopic(build_floquet(lat, drive), state, 6, axis=0.4)
        assert np.array_equal(trace.values, single.values)
        assert trace.max_norm_drift == single.max_norm_drift


def traced_peak(call):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("axis", [0.0, 0.4])
def test_repeated_scan_across_stacks_allocates_no_state_buffer(axis):
    """Five fields on the 1x15 chain run stacks of 2, 2 and 1 rows; the
    last stack borrows a view of the 2-row workspace, so a repeated scan
    allocates less than one buffer of D complex values (0.5 MiB)."""
    lat = make_lattice(1, 15)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
    state = prepare_state(lat, one_flip(15, 3))
    fields = [DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0).h for h in (0.6, 0.7, 0.8, 0.9, 1.0)]
    evolve_scan(op, fields, state, 2, axis)
    peak = traced_peak(lambda: evolve_scan(op, fields, state, 2, axis))
    assert peak < 16 * state.size, f"traced peak {peak} bytes"


@pytest.mark.parametrize("axis", [0.0, 0.4])
def test_measurement_after_scan_allocates_no_state_buffer(axis):
    """measure_magnetization borrows one row of the workspace that a
    two-row 1x15 scan left in its thread, so it allocates less than one
    buffer of D complex values (0.5 MiB)."""
    lat = make_lattice(1, 15)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
    state = prepare_state(lat, one_flip(15, 3))
    evolve_scan(op, (0.5, 0.6), state, 2, axis)
    peak = traced_peak(lambda: measure_magnetization(state, 15, axis))
    assert peak < 16 * state.size, f"traced peak {peak} bytes"


def test_alternating_requests_keep_one_workspace():
    """On the 1x15 chain an untilted two-row scan asks for 2 buffers of
    2 rows and a tilted measurement for 3 buffers of 1 row.  The first
    alternation leaves a workspace that covers both, so in the second
    neither call allocates a buffer of D complex values (0.5 MiB)."""
    lat = make_lattice(1, 15)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
    state = prepare_state(lat, one_flip(15, 3))
    calls = (
        lambda: evolve_scan(op, (0.5, 0.6), state, 2),
        lambda: measure_magnetization(state, 15, 0.4),
    )
    for call in calls:
        call()
    peaks = [traced_peak(call) for call in calls]
    assert max(peaks) < 16 * state.size, f"traced peaks {peaks} bytes"


def test_workspace_starts_on_a_64_byte_boundary():
    """Every fresh workspace puts u on a 64-byte boundary, which malloc
    does not promise, and a request it covers gets a view of it."""
    for dim in (2, 4, 64, 4096):
        for rows in (1, 3):
            buffers = dynamics._workspace(2, rows, dim)
            assert buffers[0].ctypes.data % 64 == 0, (dim, rows)
            assert buffers[0].flags.c_contiguous
        assert np.shares_memory(dynamics._workspace(1, 2, dim), buffers)


def test_scan_names_first_drifted_period():
    """The norms are checked once, after the loop; a drifted row fails
    the whole scan with the first period its norm is off."""
    lat = make_lattice(1, 3)
    op = build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=0.3, period=2.0))
    state = prepare_state(lat, "up")
    with pytest.raises(NumericalToleranceError, match=r"after 1 periods \(h = 0.3\)"):
        evolve_scan(op, (0.3, 0.5), 0.9 * state, periods=5)


def test_threads_never_share_a_workspace():
    """Two threads run tilted scans of the same (rows, D) shape at
    different h at the same time; each gets the traces and norm drifts
    of the same call made alone, bit for bit."""
    lat = make_lattice(1, 12)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
    state = prepare_state(lat, uniform_tilt(12, math.pi / 4))
    scans = [
        [DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0).h for h in hs]
        for hs in ((0.7, 0.9), (0.8, 1.0))
    ]
    alone = [evolve_scan(op, fields, state, 300, math.pi / 4) for fields in scans]
    start = threading.Barrier(len(scans))

    def scan(fields):
        start.wait()
        return evolve_scan(op, fields, state, 300, math.pi / 4)

    with ThreadPoolExecutor(len(scans)) as pool:
        together = list(pool.map(scan, scans))
    for traces, reference in zip(together, alone):
        for trace, single in zip(traces, reference):
            assert np.array_equal(trace.values, single.values)
            assert trace.max_norm_drift == single.max_norm_drift


def test_trace_records_norm_drift():
    lat = make_lattice(1, 8)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.9, 2.0))
    state = prepare_state(lat, uniform_tilt(8, math.pi / 4))
    trace = evolve_stroboscopic(op, state, periods=200, axis=math.pi / 4)
    assert 0.0 <= trace.max_norm_drift <= 1e-12


#: defines wait_for_quiet(): OpenBLAS workers spin for 50 to 100 ms
#: after numpy or scipy loads them, so a timed window waits until a
#: 50 ms sleep costs almost no CPU time
QUIET_PRELUDE = """
import time

def wait_for_quiet():
    for _ in range(100):
        cpu0 = time.process_time()
        time.sleep(0.05)
        if time.process_time() - cpu0 < 0.002:
            return
    raise RuntimeError("the process never went quiet")
"""

ONE_CORE_SCRIPT = QUIET_PRELUDE + """
import math, resource
from spinladder.dynamics import evolve_stroboscopic, measure_magnetization, prepare_state, uniform_tilt
from spinladder.floquet import DriveParams, build_floquet
from spinladder.lattice import make_lattice

lat = make_lattice(1, 16)
op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.9, 2.0))
state = prepare_state(lat, uniform_tilt(16, math.pi / 4))
{warm_up}
evolve_stroboscopic(op, state, 2, axis=math.pi / 4)
periods = 30
wait_for_quiet()
faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cpu0, wall0 = time.process_time(), time.perf_counter()
evolve_stroboscopic(op, state, periods, axis=math.pi / 4)
ratio = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
print(ratio, faults / periods)
"""

SCAN_ONE_CORE_SCRIPT = QUIET_PRELUDE + """
import math
from spinladder.dynamics import evolve_scan, prepare_state, uniform_tilt
from spinladder.floquet import DriveParams, build_floquet
from spinladder.lattice import make_lattice

lat = make_lattice(1, 14)
op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
fields = [DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0).h for h in (0.7, 0.8, 0.9, 1.0)]
state = prepare_state(lat, uniform_tilt(14, math.pi / 4))
evolve_scan(op, fields, state, 2, axis=math.pi / 4)
wait_for_quiet()
cpu0, wall0 = time.process_time(), time.perf_counter()
evolve_scan(op, fields, state, 30, axis=math.pi / 4)
print((time.process_time() - cpu0) / (time.perf_counter() - wall0))
"""

CORNER_SCAN_SCRIPT = QUIET_PRELUDE + """
from spinladder.floquet import DriveParams, build_floquet, diagonalize
from spinladder.lattice import make_lattice
from spinladder.majorana import SpectralFunctionConfig, corner_spectral_functions

lat = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
config = SpectralFunctionConfig(chi=16, window=0.01)

def scan(values):
    for h in values:
        op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0))
        corner_spectral_functions(diagonalize(op), lat, config)

scan([0.8])
wait_for_quiet()
cpu0, wall0 = time.process_time(), time.perf_counter()
scan([0.1 * k for k in range(1, 10)] * 3)
print((time.process_time() - cpu0) / (time.perf_counter() - wall0))
"""


FIRST_SPECTRUM_SCRIPT = QUIET_PRELUDE + """
from spinladder.floquet import DriveParams, build_floquet, diagonalize
from spinladder.lattice import make_lattice

def openblas_builds():
    with open("/proc/self/maps") as maps:
        return {line.split()[-1] for line in maps if "openblas" in line}

lat = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, 0.8, 2.0))
wait_for_quiet()
before = openblas_builds()
diagonalize(op)
cpu0, own0 = time.process_time(), time.thread_time()
time.sleep(0.05)
cpu = (time.process_time() - cpu0) - (time.thread_time() - own0)
print(cpu, len(openblas_builds() - before))
"""

CLI_POOL_SCRIPT = """
import os, tempfile, time
import numpy as np
from spinladder import cli
from spinladder.floquet import DriveParams, build_floquet, diagonalize
from spinladder.lattice import make_lattice

a = np.ones((600, 600))
a @ a
with tempfile.TemporaryDirectory() as tmp:
    cli.main(["spacing-table", "--sizes", "2x2,1x4", "--out", os.path.join(tmp, "table.csv")])
cpu0, own0 = time.process_time(), time.thread_time()
time.sleep(0.05)
cpu = (time.process_time() - cpu0) - (time.thread_time() - own0)
diagonalize(build_floquet(make_lattice(2, 2), DriveParams(0.1, 0.2, 0.3, 2.0)))
print(cpu, len(os.listdir("/proc/self/task")))
"""


LIBRARY_THREADS_SCRIPT = """
import hashlib, math
from spinladder import _blas
from spinladder.dynamics import evolve_scan, prepare_state, uniform_tilt
from spinladder.floquet import DriveParams, build_floquet
from spinladder.lattice import make_lattice

print(*(get_threads() for _, get_threads, _ in _blas._thread_controls()))
for n, hs in ((14, (0.7, 0.8, 0.9, 1.0)), (16, (0.9,)), (17, (0.9,))):
    lat = make_lattice(1, n)
    op = build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, hs[0], 2.0))
    fields = [DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0).h for h in hs]
    state = prepare_state(lat, uniform_tilt(n, math.pi / 4))
    for axis in (0.0, math.pi / 4):
        for trace in evolve_scan(op, fields, state, 6, axis):
            digest = hashlib.sha256(trace.values.tobytes()).hexdigest()
            print(n, axis, digest, trace.max_norm_drift.hex())
"""


def run_at_blas_threads(script, threads="2"):
    """Run ``script`` in a fresh interpreter at ``threads`` OpenBLAS
    threads and return what it prints."""
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return done.stdout


def run_at_two_blas_threads(script):
    """The numbers ``script`` prints at two OpenBLAS threads."""
    return [float(v) for v in run_at_blas_threads(script).split()]


def assert_one_core(ratio):
    """A spinning second thread would bring CPU time to about twice the
    wall time; load on the host can only lower the ratio."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the CPU/wall check needs two CPUs")
    assert ratio <= 1.3, f"CPU time is {ratio:.2f} x wall time"


@pytest.mark.parametrize(
    "warm_up",
    [
        "",
        "op.apply(state)",
        "measure_magnetization(state, 16, math.pi / 4)",
        "op.apply(state); measure_magnetization(state, 16, math.pi / 4)",
    ],
    ids=["none", "apply", "measure", "both"],
)
def test_evolution_stays_on_one_core(warm_up):
    """A tilted 1x16 evolution allocates its buffers once, not per
    period: each fresh 1 MiB state per period would cost 256 minor page
    faults whenever the allocator has handed the pages back.  The next
    evolution of the same shape reuses them, whatever ran before the
    first one, so it faults in no fresh pages either.  At two OpenBLAS
    threads no gemm of the kick and no norm or measurement sum wakes the
    second thread."""
    ratio, faults = run_at_two_blas_threads(ONE_CORE_SCRIPT.format(warm_up=warm_up))
    assert faults <= 8, f"{faults:.1f} minor page faults per period"
    assert_one_core(ratio)


def test_stacked_scan_stays_on_one_core():
    """A tilted 1x14 scan of four h values evolves as one stack of
    4 x 16384 amplitudes; at two OpenBLAS threads no gemm of the
    per-row kicks and no row sum wakes the second thread."""
    (ratio,) = run_at_two_blas_threads(SCAN_ONE_CORE_SCRIPT)
    assert_one_core(ratio)


def test_evolution_independent_of_blas_threads():
    """evolve_scan, called from the library at one and at two OpenBLAS
    threads, gives the same traces and norm drifts bit for bit, tilted
    and untilted: a four-row 1x14 stack, 1x16 and 1x17, where the kick's
    gemms and the measurement's products would reach a second thread if
    they were not cut.  The child prints the thread count it runs at, so
    the two-thread leg is known to run at two."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a second OpenBLAS thread needs two CPUs")
    traces = {}
    for threads in ("1", "2"):
        counts, *traces[threads] = run_at_blas_threads(LIBRARY_THREADS_SCRIPT, threads).splitlines()
        assert set(counts.split()) == {threads}, f"the child ran OpenBLAS at {counts} threads"
    assert len(traces["1"]) == 2 * (4 + 1 + 1)
    assert traces["1"] == traces["2"]


def test_corner_scan_stays_on_one_core():
    """A warmed 4x2 corner scan (diagonalize and the corner weights, 27
    h values) never wakes the second OpenBLAS thread."""
    (ratio,) = run_at_two_blas_threads(CORNER_SCAN_SCRIPT)
    assert_one_core(ratio)


def test_first_spectrum_wakes_no_idle_blas_pool():
    """The first diagonalize loads no OpenBLAS build that it does not
    call: the call maps no new OpenBLAS file, and a freshly loaded build
    would start its thread pool, whose workers spin for about 0.1 s, so
    during a 50 ms sleep right after the call the other threads of the
    process would use about 50 ms of CPU time.  The pool numpy starts on
    import spins the same way, so the child waits for it to go quiet
    before the call.  The sleeping thread's own time is left out, so
    time the host charges to it while it wakes does not count."""
    cpu, loaded = run_at_two_blas_threads(FIRST_SPECTRUM_SCRIPT)
    assert loaded == 0, f"diagonalize mapped {loaded:.0f} new OpenBLAS files"
    assert cpu < 0.005, f"other threads used {1e3 * cpu:.1f} ms of CPU time in a 50 ms sleep"


def test_cli_stops_idle_blas_pool():
    """cli.main stops the OpenBLAS pool before it runs a command: right
    after a threaded product woke the pool, a command and a 50 ms sleep
    leave the other threads idle, where a spinning worker would use most
    of the sleep.  A later diagonalize, whose one_thread finds the count
    already at one, starts no pool thread again."""
    cpu, tasks = run_at_two_blas_threads(CLI_POOL_SCRIPT)
    assert cpu < 0.005, f"other threads used {1e3 * cpu:.1f} ms of CPU time in a 50 ms sleep"
    assert tasks == 1, f"the process runs {tasks:.0f} threads after diagonalize"


def test_ideal_kick_alternates_exactly():
    """At kick angle pi/2 every period flips all spins, so the trace
    alternates between +N and -N and the spectrum is one clean bin."""
    n = 4
    lat = make_lattice(2, 2)
    op = build_floquet(lat, DriveParams(j_x=0.13, j_y=0.31, h=math.pi / 2, period=2.0))
    trace = evolve_stroboscopic(op, prepare_state(lat, "up"), periods=20)
    signs = (-1.0) ** np.arange(21)
    np.testing.assert_allclose(trace.values, n * signs, atol=1e-10)

    spec = power_spectrum(trace)
    assert spec.subharmonic_amplitude == pytest.approx(float(n), abs=1e-10)
    assert spec.dominance_ratio > 1e12
    assert spec.frequencies[spec.n_samples // 2] == pytest.approx(
        math.pi / op.params.period, abs=1e-12
    )


def test_power_spectrum_rejects_short_or_odd_traces():
    def fake_trace(m):
        times = np.arange(m + 1)
        values = np.zeros(m + 1)
        return MagnetizationTrace(times=times, values=values, axis=0.0, period=2.0)

    with pytest.raises(ValueError):
        power_spectrum(fake_trace(1))
    with pytest.raises(ValueError):
        power_spectrum(fake_trace(7))
    # the shortest accepted trace has only the 0 and pi/T bins
    alternating = MagnetizationTrace(
        times=np.arange(3), values=np.array([0.0, 1.0, -1.0]), axis=0.0, period=2.0
    )
    spectrum = power_spectrum(alternating)
    assert spectrum.subharmonic_amplitude == 1.0
    assert spectrum.dominance_ratio == math.inf


@given(
    values=st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=4, max_size=24
    ).filter(lambda v: len(v) % 2 == 0)
)
@settings(max_examples=40, deadline=None)
def test_power_spectrum_parseval(values):
    samples = np.array(values)
    m = samples.size
    trace = MagnetizationTrace(
        times=np.arange(m + 1),
        values=np.concatenate([[0.0], samples]),
        axis=0.0,
        period=2.0,
    )
    spec = power_spectrum(trace)
    assert spec.n_samples == m
    # 1/M-normalized DFT turns Parseval into mean-square equality
    assert float(np.sum(spec.magnitudes**2)) == pytest.approx(
        float(np.mean(samples**2)), abs=1e-10
    )
    assert spec.frequencies[0] == 0.0
    np.testing.assert_allclose(np.diff(spec.frequencies), math.pi / m, atol=1e-12)

