"""Stroboscopic magnetization dynamics and subharmonic response.

States are prepared as product states with per-site Bloch angles in the
z-y plane, evolved period by period with the matrix-free propagator, and
measured along an arbitrary z-y axis.  One binding, _bind_measure,
measures for both evolve_scan and measure_magnetization.  It works in
the kick's real frame: for a tilted axis it rotates the state into a
separate buffer with the real kick kernel, so that the tilted axis
becomes the z axis, then it reduces the squared float64 view of the
amplitudes to the squared norm and the diagonal sum of sigma_z
expectation values; this reuses the kick kernel instead of building any
operator matrix.

evolve_scan evolves one state under one operator at several kick fields
h, in bounded (rows, D) stacks with one row per h that share the zz phase;
each row equals the single evolution at its h bit for bit, and
evolve_stroboscopic is the one-row case.  An evolution never writes its
input, runs its stacks in one loop over views of its thread's workspace,
which lends one to any request that it covers, binds each stack once,
and runs every period in the kick's real frame: the zz multiply into
the kick's entry buffer, one row at a time, then the real kick kernel,
with no quarter-turn phase passes, since |Q x| = |x| for the exact
phase diagonal Q that separates the frame from the state.  The measurement squares the floats into the kick's
scratch and reduces them with two products per row against small
cached tables, each cut by the vector length alone to at most
KICK_GEMM_MACS multiply-adds, so every BLAS call of a period runs on
the calling thread and a row's sums do not depend on the other rows.
Each measurement, period 0 included, writes its squared norm and
magnetization into its own slot of one record, and the norms are
checked after the loop.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .floquet import (
    KICK_GEMM_MACS,
    FloquetOperator,
    NumericalToleranceError,
    _bind_kick,
    _quarter_turn,
)
from .lattice import Lattice

#: allowed drift of the state norm during evolution
NORM_TOL = 1e-10

#: amplitudes in one stack of evolve_scan: its h values evolve together
#: in consecutive stacks of at most max(1, this // D) rows
SCAN_STACK_AMPLITUDES = 1 << 16

#: one entry of a product-state specification: a Bloch angle or a token
SiteSpec = float | str

#: per-site specification, a uniform token/angle, or a callable on the lattice
ProductStateSpec = Sequence[SiteSpec] | SiteSpec | Callable[[Lattice], Sequence[SiteSpec]]


def one_flip(n_sites: int, position: int = 1) -> tuple[str, ...]:
    """All spins up except one down at ``position`` (0-based site index)."""
    if not 0 <= position < n_sites:
        raise ValueError(f"flip position {position} outside 0..{n_sites - 1}")
    spec = ["up"] * n_sites
    spec[position] = "down"
    return tuple(spec)


def uniform_tilt(n_sites: int, angle: float) -> tuple[float, ...]:
    """Per-site spec of ``n_sites`` spins, each tilted by ``angle`` radians from +z toward +y."""
    return (float(angle),) * n_sites


def _site_spinor(entry: SiteSpec) -> np.ndarray:
    if isinstance(entry, str):
        token = entry.strip().lower()
        if token == "up":
            return np.array([1.0, 0.0], dtype=complex)
        if token == "down":
            return np.array([0.0, 1.0], dtype=complex)
        raise ValueError(f"unknown site token {entry!r}; use 'up', 'down', or an angle")
    if not isinstance(entry, numbers.Real) or isinstance(entry, bool) or not math.isfinite(entry):
        raise ValueError(f"site entry {entry!r} is neither 'up', 'down' nor a finite angle")
    theta = float(entry)
    # +1 eigenvector of cos(theta) sigma_z + sin(theta) sigma_y
    return np.array([math.cos(0.5 * theta), 1j * math.sin(0.5 * theta)])


def resolve_spec(lattice: Lattice, spec: ProductStateSpec) -> tuple[SiteSpec, ...]:
    """Normalize a state spec to one entry per site of this lattice."""
    if callable(spec):
        spec = spec(lattice)
    if isinstance(spec, (str, float, int)):
        return tuple([spec] * lattice.n_sites)
    entries = tuple(spec)
    if len(entries) != lattice.n_sites:
        raise ValueError(
            f"state spec has {len(entries)} entries for {lattice.n_sites} sites"
        )
    return entries


def prepare_state(lattice: Lattice, spec: ProductStateSpec) -> np.ndarray:
    """Normalized product state from per-site angles or up/down tokens.

    Site k occupies bit k of the basis index, so the tensor product is
    folded from the highest site down to keep amplitudes aligned with
    the basis-state convention.
    """
    entries = resolve_spec(lattice, spec)
    state = np.array([1.0], dtype=complex)
    for entry in reversed(entries):
        state = np.kron(state, _site_spinor(entry))
    return state


@functools.lru_cache(maxsize=8)
def _zsum_tables(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The two real tables that reduce the squared float64 view of a
    state to its squared norm and its z magnetization.

    Float f = 2b + (0 for re, 1 for im) of basis state b is cut into
    chunks of C = 2**ceil((n_sites + 1) / 2) floats, so that f holds the
    L = log2(C) - 1 low sites of b within its chunk j and the
    n_sites - L high sites in the chunk number c.  ``low`` (C, 2) holds
    per j the z-sum of its low sites and 1, so a chunk times ``low``
    gives its low-site z-sum and its squared norm.  ``high``
    (2 * chunks, 2) turns those pairs into (squared norm,
    magnetization), adding the chunk's offset n_sites - L -
    2 * popcount(c) times its squared norm.  Both tables hold
    O(2**(n_sites / 2)) floats.
    """
    width = (n_sites + 2) // 2
    low_sites = width - 1
    j = np.arange(1 << width, dtype=np.uint64) >> np.uint64(1)
    low = np.ones((1 << width, 2))
    low[:, 0] = low_sites - 2.0 * np.bitwise_count(j)
    c = np.arange(1 << (n_sites + 1 - width), dtype=np.uint64)
    high = np.zeros((c.size, 2, 2))
    high[:, 0, 1] = 1.0
    high[:, 1, 0] = 1.0
    high[:, 1, 1] = n_sites - low_sites - 2.0 * np.bitwise_count(c)
    high = high.reshape(-1, 2)
    for table in (low, high):
        table.setflags(write=False)
    return low, high


def _bind_measure(
    u: np.ndarray,
    scratch: np.ndarray,
    n_sites: int,
    axis: float = 0.0,
    rotated: np.ndarray | None = None,
) -> Callable[[np.ndarray], None]:
    """Bind the measurement along cos(axis) z + sin(axis) y of each row
    of the complex, contiguous (rows, D) stack ``u`` of real-frame
    states; return ``measure(out)``, which writes the squared norm and
    the magnetization of row r into out[r, 0] and leaves ``u`` as it is.

    ``scratch`` is a complex, contiguous array shaped like ``u`` and
    overwritten by each call, and ``out`` an array of shape (rows, 1, 2)
    whose last axis is contiguous.  A tilted axis needs one more such
    buffer from the caller, ``rotated``: it takes the rotated state, as
    the real kick kernel at angle axis/2, which is exp(-i axis/2 sum_k
    X_k) in the real frame, reads ``u`` in place and turns the tilted
    axis into z.  The float64 view of the measured state is then squared
    into the float64 view of ``scratch``; one np.matmul reduces each
    stack of chunks against the (C, 2) table of _zsum_tables, and one
    more per row the chunks' pairs against the per-chunk table.  The
    stacks are cut by the vector length alone to at most KICK_GEMM_MACS
    multiply-adds, so OpenBLAS runs every product on the calling thread,
    and a row of a stack runs exactly the products a single vector runs.
    """
    rows, dim = u.shape
    measured, tilt = u, None
    if axis != 0.0:
        measured = rotated
        _, tilt = _bind_kick(measured, scratch, n_sites, (0.5 * axis,), source=u)
    low, high = _zsum_tables(n_sites)
    size = low.shape[0]
    chunks = 2 * dim // size
    stack = min(chunks, KICK_GEMM_MACS // (2 * size))
    floats = measured.view(np.float64)
    squared = scratch.view(np.float64)
    partial = np.empty((rows, chunks, 2))
    chunked = squared.reshape(rows, -1, stack, size)
    stacked = partial.reshape(rows, -1, stack, 2)
    pairs = partial.reshape(rows, 1, 2 * chunks)

    def measure(out: np.ndarray) -> None:
        if tilt is not None:
            tilt()
        np.square(floats, out=squared)
        np.matmul(chunked, low, out=stacked)
        np.matmul(pairs, high, out=out)

    return measure


#: the calling thread's evolution workspace, kept for its next evolution
_held = threading.local()


def _workspace(count: int, rows: int, dim: int) -> np.ndarray:
    """``count`` complex, contiguous (rows, dim) buffers, as one
    (count, rows, dim) view of the calling thread's workspace.

    Each thread holds at most one workspace, on a 64-byte boundary: the
    last one it allocated.  It lends a view to any request of the same
    dim and at most as many buffers and rows, so an evolution it covers
    faults in no fresh pages and allocates no D-sized buffer.  A request
    of the same dim that it does not cover frees it and allocates the
    larger of the held and the requested buffer count and row count, so
    requests that alternate between more buffers and more rows allocate
    once; a request of another dim frees it and allocates its own shape.
    """
    buffers = getattr(_held, "buffers", None)
    held = buffers.shape[:2] if buffers is not None and buffers.shape[2] == dim else (0, 0)
    if held[0] < count or held[1] < rows:
        shape = (max(count, held[0]), max(rows, held[1]))
        size = shape[0] * shape[1] * dim
        # drop the old workspace before the new one is allocated
        _held.buffers = buffers = None
        # 64-byte aligned, which malloc does not promise: a misaligned u runs ~20 % slower
        raw = np.empty(size + 3, dtype=complex)
        skip = -raw.ctypes.data % 64 // 16
        _held.buffers = buffers = raw[skip:skip + size].reshape(*shape, dim)
    return buffers[:count, :rows]


def measure_magnetization(
    state: np.ndarray, n_sites: int, axis: float = 0.0
) -> float:
    """Total magnetization along cos(axis) z + sin(axis) y.

    Measured as evolve_scan measures: the state over i**popcount(b)
    (exact, every factor is +-1 or +-i) is the kick's real-frame state,
    which _bind_measure reads.  The state is never written.  Its
    buffers (u, the scratch and, for a tilted axis, the rotated state)
    are views of the calling thread's workspace, as evolve_scan's are, so
    a repeated call allocates no buffer of size D.
    """
    u, scratch, *rotated = _workspace(3 if axis != 0.0 else 2, 1, np.size(state))
    _quarter_turn(np.divide, np.asarray(state), n_sites, u)
    out = np.empty((1, 1, 2))
    _bind_measure(u, scratch, n_sites, axis, *rotated)(out)
    return float(out[0, 0, 1])


@dataclass(frozen=True)
class MagnetizationTrace:
    """Stroboscopic record of the magnetization along one axis.

    ``values[n]`` is the magnetization after n full periods, n = 0..M;
    ``max_norm_drift`` is the largest |norm - 1| seen after a period.
    """

    times: np.ndarray
    values: np.ndarray
    axis: float
    period: float
    max_norm_drift: float = 0.0

    @property
    def n_periods(self) -> int:
        """Evolved periods M: the samples after the initial one."""
        return self.values.size - 1


def evolve_scan(
    op: FloquetOperator,
    h_values: Sequence[float],
    state: np.ndarray,
    periods: int,
    axis: float = 0.0,
) -> tuple[MagnetizationTrace, ...]:
    """Evolve one state under ``op`` at each kick field of ``h_values``
    for ``periods`` drive periods, measuring each step; return one trace
    per h, in order.

    The kick fields are raw, in the units of ``op.params.h``, and the
    angle of each is ``replace(op.params, h=h).theta_h``.  They run in
    consecutive stacks of at most max(1, SCAN_STACK_AMPLITUDES // D)
    rows, one per h, for every caller: a stack's rows share the zz phase
    of ``op`` (it depends on the lattice, j_x, j_y and T alone) and each
    has its own kick angle.  Every gemm of the kick and every product of
    the measurement has the size it has for one row, so each trace
    equals evolve_stroboscopic of the operator at its h bit for bit;
    only the per-call overhead is shared.

    The input state is never written.  The evolution runs in the kick's
    real frame: it holds u = conj(Q) v with Q = diag(i**popcount(b))
    instead of the state v, so a period is the zz multiply followed by
    the real kick kernel, with none of the phase passes of
    rotate_x_all_sites.  The diagonals commute with Q, and multiplying
    by +-1 or +-i is exact, so u is the public per-period state up to an
    exact phase per amplitude, and measure_magnetization, which turns
    its input into the same frame, reads the same floats.  A row at
    h = 0 takes identity blocks, which leave every amplitude's value as
    it is.

    One loop runs the stacks in turn.  Each takes its buffers, one row
    per h, as views of the calling thread's workspace (_workspace): u,
    the kernel's scratch and, for a tilted axis, the rotated state of
    the measurement.  The workspace lends them to every later stack and
    evolution in the same thread that it covers, so those allocate no
    buffer of size D and fault in no fresh pages; threads never share a
    workspace.  Per stack, the measurement is bound once to u and the
    scratch, which holds nothing between a kick and the next zz
    multiply, and leaves u as it is.  The kick is bound once to the same
    two: the zz multiply writes into its entry buffer and the kick
    leaves the result in u.  The zz phase multiplies one row of u at a
    time, each row a (D,) by (D,) product of the same floats as the
    broadcast over the stack, and no (rows, D) copy of the phase is made.

    The measurement of period n, n = 0..M, writes its squared norm and
    magnetization into slot n of its row of one (len(h_values), M + 1,
    1, 2) record; the values and the norms are views of it.  The norms
    of periods 1..M of every row are checked after the loop: a drift
    beyond NORM_TOL raises, naming the first period in which any row
    drifts and that row's h, rather than returning silently wrong data.
    """
    angles = tuple(replace(op.params, h=h).theta_h for h in h_values)
    if not angles:
        raise ValueError("need at least one kick field")
    if periods < 1:
        raise ValueError("periods must be >= 1")
    n = op.lattice.n_sites
    v = np.asarray(state, dtype=complex)
    if v.shape != (op.lattice.dim,):
        raise ValueError(f"state must have shape ({op.lattice.dim},), got {v.shape}")
    stack = max(1, SCAN_STACK_AMPLITUDES // v.size)
    # (squared norm, magnetization) of each row after periods 0..M
    record = np.empty((len(angles), periods + 1, 1, 2))
    for start in range(0, len(angles), stack):
        kicks, out = angles[start:start + stack], record[start:start + stack]
        u, scratch, *rotated = _workspace(3 if axis != 0.0 else 2, len(kicks), v.size)
        measure = _bind_measure(u, scratch, n, axis, *rotated)
        # conj(Q) v, exactly, without a conjugated copy of Q
        _quarter_turn(np.divide, v, n, u)
        entry, kick = _bind_kick(u, scratch, n, kicks)
        # row by row: broadcast over an 8-row 1x12 stack, 39 to 44 us against 29 to 30
        rows = list(zip(u, entry))
        measure(out[:, 0])
        for step in range(1, periods + 1):
            for state, into in rows:
                np.multiply(op.zz_phase, state, out=into)
            kick()
            measure(out[:, step])
    record.setflags(write=False)
    values, norms_sq = record[:, :, 0, 1], record[:, 1:, 0, 0]
    drift = np.sqrt(norms_sq)
    drift -= 1.0
    np.abs(drift, out=drift)
    # written so that a NaN norm fails too
    bad = ~(drift <= NORM_TOL)
    if bad.any():
        step = int(np.flatnonzero(bad.any(axis=0))[0])
        row = int(np.flatnonzero(bad[:, step])[0])
        raise NumericalToleranceError(
            f"norm drifted to {math.sqrt(norms_sq[row, step])!r} after {step + 1} periods"
            f" (h = {h_values[row]!r})"
        )
    times = np.arange(periods + 1)
    times.setflags(write=False)
    return tuple(
        MagnetizationTrace(
            times=times,
            values=values[row],
            axis=axis,
            period=op.params.period,
            max_norm_drift=float(drift[row].max()),
        )
        for row in range(len(angles))
    )


def evolve_stroboscopic(
    op: FloquetOperator,
    state: np.ndarray,
    periods: int,
    axis: float = 0.0,
) -> MagnetizationTrace:
    """Evolve a state for ``periods`` drive periods, measuring each step.

    The one-row case of evolve_scan, at the operator's own h: the input
    state is never written, it borrows the thread's workspace, and a
    norm drift beyond NORM_TOL raises NumericalToleranceError.
    """
    (trace,) = evolve_scan(op, (op.params.h,), state, periods, axis)
    return trace


@dataclass(frozen=True)
class PowerSpectrum:
    """DFT magnitudes of a stroboscopic trace.

    Built from the M samples at n = 1..M with 1/M normalization, so a
    pure alternating trace of amplitude A has magnitude A in the
    subharmonic bin k = M/2 and nothing elsewhere.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    n_samples: int
    period: float

    @property
    def subharmonic_amplitude(self) -> float:
        """Magnitude in the bin at angular frequency pi/T (k = M/2)."""
        return float(self.magnitudes[self.n_samples // 2])

    @property
    def dominance_ratio(self) -> float:
        """Subharmonic magnitude over the largest other nonzero-frequency
        bin; inf when every such bin is 0 or, on a two-sample trace, when
        there is none."""
        half = self.n_samples // 2
        others = np.delete(self.magnitudes, [0, half])
        top = float(np.max(others, initial=0.0))
        if top == 0.0:
            return math.inf
        return self.subharmonic_amplitude / top


def check_spectrum_periods(periods: int) -> None:
    """Raise ValueError unless ``periods`` evolved periods give a power
    spectrum: at least two, and an even number, so that pi/T sits on
    the frequency grid."""
    if periods < 2:
        raise ValueError("need at least two evolved periods")
    if periods % 2:
        raise ValueError(f"sample count {periods} is odd; pi/T is then off-grid")


def power_spectrum(trace: MagnetizationTrace) -> PowerSpectrum:
    """Power spectrum of a magnetization trace on the frequency grid 2 pi k / (M T).

    Requires an even number of evolved periods so that pi/T sits exactly
    on the grid.
    """
    m = trace.n_periods
    check_spectrum_periods(m)
    samples = trace.values[1:]
    coeffs = np.fft.fft(samples) / m
    magnitudes = np.abs(coeffs)
    frequencies = 2.0 * math.pi * np.arange(m) / (m * trace.period)
    for arr in (frequencies, magnitudes):
        arr.setflags(write=False)
    return PowerSpectrum(
        frequencies=frequencies,
        magnitudes=magnitudes,
        n_samples=m,
        period=trace.period,
    )
