"""Stroboscopic magnetization dynamics and subharmonic response.

States are prepared as product states with per-site Bloch angles in the
z-y plane, evolved period by period with the matrix-free propagator, and
measured along an arbitrary z-y axis.  The measurement rotates a copy of
the state so that the tilted axis becomes the z axis, then accumulates
the diagonal sum of sigma_z expectation values; this reuses the kick
kernel instead of building any operator matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .floquet import (
    DriveParams,
    FloquetOperator,
    NumericalToleranceError,
    build_floquet,
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


def measure_magnetization(
    state: np.ndarray, n_sites: int, axis: float = 0.0
) -> float:
    """Total magnetization along cos(axis) z + sin(axis) y.

    Rotating the state by exp(-i axis/2 sum_k X_k) turns the tilted axis
    into z, after which the observable is diagonal.
    """
    if axis != 0.0:
        work = state.copy()
        rotate_x_all_sites(work, n_sites, 0.5 * axis)
    else:
        work = state
    weights = np.abs(work) ** 2
    # an elementwise product and a pairwise sum, not a BLAS dot, which
    # OpenBLAS would split by thread count from 2**14 amplitudes on
    weights *= _zsum_diagonal(n_sites)
    return float(weights.sum())


@dataclass(frozen=True)
class MagnetizationTrace:
    """Stroboscopic record of the magnetization along one axis.

    ``values[n]`` is the magnetization after n full periods, n = 0..M.
    """

    times: np.ndarray
    values: np.ndarray
    axis: float
    period: float

    @property
    def n_periods(self) -> int:
        return self.values.size - 1


def evolve_stroboscopic(
    op: FloquetOperator,
    state: np.ndarray,
    periods: int,
    axis: float = 0.0,
) -> MagnetizationTrace:
    """Evolve a state for ``periods`` drive periods, measuring each step.

    The norm is checked against drift after every period; a violation
    beyond NORM_TOL raises rather than returning silently wrong data.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    n = op.lattice.n_sites
    v = np.asarray(state, dtype=complex)
    values = np.empty(periods + 1)
    values[0] = measure_magnetization(v, n, axis)
    for step in range(1, periods + 1):
        v = op.apply(v)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalToleranceError(
                f"norm drifted to {norm!r} after {step} periods"
            )
        values[step] = measure_magnetization(v, n, axis)
    times = np.arange(periods + 1)
    for arr in (times, values):
        arr.setflags(write=False)
    return MagnetizationTrace(
        times=times, values=values, axis=axis, period=op.params.period
    )


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
        """Subharmonic magnitude over the largest other nonzero-frequency bin."""
        half = self.n_samples // 2
        others = np.delete(self.magnitudes, [0, half])
        top = float(np.max(others))
        if top == 0.0:
            return math.inf
        return self.subharmonic_amplitude / top


def power_spectrum(trace: MagnetizationTrace) -> PowerSpectrum:
    """Power spectrum of a magnetization trace on the frequency grid 2 pi k / (M T).

    Requires an even number of evolved periods so that pi/T sits exactly
    on the grid.
    """
    m = trace.n_periods
    if m < 2:
        raise ValueError("need at least two evolved periods")
    if m % 2:
        raise ValueError(f"sample count {m} is odd; pi/T is then off-grid")
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


@dataclass(frozen=True)
class ScanPoint:
    """Subharmonic peak height at one (lattice, h) grid point."""

    n_x: int
    n_y: int
    h: float
    peak: float


def scan_subharmonic(
    lattices: Iterable[Lattice],
    params: DriveParams,
    h_values: Iterable[float],
    init: ProductStateSpec,
    periods: int = 2000,
    axis: float = 0.0,
) -> tuple[ScanPoint, ...]:
    """Subharmonic peak height over a (lattice, h) grid.

    ``params`` supplies the couplings and period; its h field is
    replaced by each scan value in turn (all in raw units).  ``init``
    may be a per-site sequence, a uniform token or angle, or a callable
    receiving each lattice, which is how mixed-size scans stay valid.
    """
    points = []
    for lattice in lattices:
        v0 = prepare_state(lattice, init)
        for h in h_values:
            op = build_floquet(lattice, replace(params, h=float(h)))
            trace = evolve_stroboscopic(op, v0, periods, axis)
            spec = power_spectrum(trace)
            points.append(
                ScanPoint(
                    n_x=lattice.n_x,
                    n_y=lattice.n_y,
                    h=float(h),
                    peak=spec.subharmonic_amplitude,
                )
            )
    return tuple(points)
