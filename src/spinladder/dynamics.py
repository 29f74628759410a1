"""Stroboscopic magnetization dynamics and subharmonic response.

States are prepared as product states with per-site Bloch angles in the
z-y plane, evolved period by period with the matrix-free propagator, and
measured along an arbitrary z-y axis.  The measurement rotates the state
into a separate buffer so that the tilted axis becomes the z axis, then
accumulates the diagonal sum of sigma_z expectation values; this reuses
the kick kernel instead of building any operator matrix.

evolve_scan evolves one state under one operator at several kick fields
h, as one (rows, D) stack with one row per h that shares the zz phase;
each row equals the single evolution at its h bit for bit, and
evolve_stroboscopic is the one-row case.  An evolution never writes its
input, allocates and binds its workspace once, and runs every period in
the kick's real frame: the zz multiply into the kick's entry buffer,
then the real kick kernel, with no quarter-turn phase passes, since
|Q x| = |x| for the exact phase diagonal Q that separates the frame
from the state.  The norm guard sums the same squared amplitudes as the
magnetization, elementwise and row by row, so no step of a period calls
BLAS outside the kick's single-threaded gemms; the squared norms are
recorded per period and checked after the loop.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .floquet import (
    FloquetOperator,
    NumericalToleranceError,
    _bind_kick,
    _quarter_turns,
    rotate_x_all_sites,
)
from .lattice import Lattice

#: allowed drift of the state norm during evolution
NORM_TOL = 1e-10

#: one entry of a product-state specification: a Bloch angle or a token
SiteSpec = float | str

#: per-site specification, a uniform token/angle, or a callable on the lattice
ProductStateSpec = Sequence[SiteSpec] | SiteSpec | Callable[[Lattice], Sequence[SiteSpec]]


def all_up(n_sites: int) -> tuple[str, ...]:
    return ("up",) * n_sites

def one_flip(n_sites: int, position: int = 1) -> tuple[str, ...]:
    """All spins up except one down at ``position`` (0-based site index)."""
    if not 0 <= position < n_sites:
        raise ValueError(f"flip position {position} outside 0..{n_sites - 1}")
    spec = ["up"] * n_sites
    spec[position] = "down"
    return tuple(spec)

def uniform_tilt(n_sites: int, angle: float) -> tuple[float, ...]:
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
def _zsum_diagonal(n_sites: int) -> np.ndarray:
    idx = np.arange(1 << n_sites, dtype=np.uint64)
    out = (n_sites - 2.0 * np.bitwise_count(idx)).astype(float)
    out.setflags(write=False)
    return out


def _magnetization_and_norm(
    amplitudes: np.ndarray, weights: np.ndarray, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """Z magnetization and squared norm from the squared ``amplitudes``,
    of one vector or of each row of a stack.

    ``weights`` is a float scratch array of the same shape, overwritten.
    Both are elementwise sums, not BLAS dots, which OpenBLAS would split
    by thread count from 2**14 amplitudes on.
    """
    np.abs(amplitudes, out=weights)
    np.square(weights, out=weights)
    norm_sq = weights.sum(axis=-1)
    weights *= _zsum_diagonal(n_sites)
    return weights.sum(axis=-1), norm_sq


def measure_magnetization(
    state: np.ndarray, n_sites: int, axis: float = 0.0
) -> float:
    """Total magnetization along cos(axis) z + sin(axis) y.

    Rotating a copy of the state by exp(-i axis/2 sum_k X_k) turns the
    tilted axis into z, after which the observable is diagonal.
    """
    work = np.asarray(state, dtype=complex)
    if axis != 0.0:
        work = rotate_x_all_sites(work.copy(), n_sites, 0.5 * axis)
    return float(_magnetization_and_norm(work, np.empty(work.shape), n_sites)[0])


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
    angle of each is ``replace(op.params, h=h).theta_h``.  All of them
    run as one (rows, D) stack, one row per h: the rows share the zz
    phase of ``op`` (it depends on the lattice, j_x, j_y and T alone)
    and each has its own kick angle.  Every gemm of the kick has the
    size it has for one row, and the row sums of the measurement are the
    sums of one row, so each trace equals evolve_stroboscopic of the
    operator at its h bit for bit; only the per-call overhead is shared.

    The input state is never written.  The evolution runs in the kick's
    real frame: it holds u = conj(Q) v with Q = diag(i**popcount(b))
    instead of the state v, so a period is the zz multiply followed by
    the real kick kernel, with none of the phase passes of
    rotate_x_all_sites.  The diagonals commute with Q, and multiplying
    by +-1 or +-i is exact, so u is the public per-period state up to an
    exact phase per amplitude and |u|**2 = |v|**2 bit for bit.  A row at
    h = 0 takes identity blocks, which leave every amplitude's value as
    it is.

    All buffers are allocated once per evolution: u, the kernel's
    scratch and, for a tilted measurement, the rotated state, each one
    row per h.  The kick is bound once to u and the scratch: the zz
    multiply writes into its entry buffer and the kick leaves the result
    in u.  The tilted measurement is bound once to the rotated state and
    the same scratch, with its first site group reading u in place; it
    runs the same kernel at angle axis/2, which is rotate_x_all_sites
    without its phases, and leaves u as it is.  The measurement squares
    the amplitudes into the float64 view of the scratch, which holds
    nothing between a kick and the next zz multiply.

    The squared norms, summed from the squared amplitudes the
    measurement sums anyway, are recorded every period and checked once
    after the loop: a drift beyond NORM_TOL in any row raises, naming
    the first period it shows in, rather than returning silently wrong
    data.
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
    u = np.empty((len(angles), v.size), dtype=complex)
    np.multiply(v, _quarter_turns(n).conj(), out=u)
    scratch = np.empty_like(u)
    # the first half of the scratch's floats, free while u is measured
    weights = scratch.reshape(-1).view(np.float64)[: u.size].reshape(u.shape)
    entry, kick = _bind_kick(u, scratch, n, angles)
    measured = u
    if axis != 0.0:
        measured = np.empty_like(u)
        _, tilt = _bind_kick(measured, scratch, n, 0.5 * axis, source=u)

    def measure() -> tuple[np.ndarray, np.ndarray]:
        if axis != 0.0:
            tilt()
        return _magnetization_and_norm(measured, weights, n)

    values = np.empty((len(angles), periods + 1))
    norms_sq = np.empty((len(angles), periods))
    values[:, 0] = measure()[0]
    for step in range(1, periods + 1):
        np.multiply(op.zz_phase, u, out=entry)
        kick()
        values[:, step], norms_sq[:, step - 1] = measure()
    drift = np.abs(np.sqrt(norms_sq) - 1.0)
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
    for arr in (times, values):
        arr.setflags(write=False)
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
    state is never written, every buffer is allocated once, and a norm
    drift beyond NORM_TOL raises NumericalToleranceError.
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
