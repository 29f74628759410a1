"""One-period propagator for the kicked Ising ladder and its spectrum.

The drive alternates between an Ising half-period and a transverse kick,

    U = U_kick * U_zz,
    U_zz   = exp(+i sum_bonds theta_bond Z_a Z_b),   theta_bond = J_bond T / 2,
    U_kick = prod_k exp(-i theta_h X_k),             theta_h    = h T / 2,

so the interaction half acts first on a state.  U_zz is diagonal in the
computational basis and the kick factorizes over sites.  That gives a
matrix-free apply(): one elementwise multiply, then the kick in a real
frame, exp(-i theta X) = S exp(i theta Y) S^dagger with S = diag(1, i).
rotate_x_all_sites divides by the exact quarter-turn phase
i**popcount(b) of each basis state b, one cached factor for the high
and one for the low bits, each of O(2**(N/2)) entries, runs the real
kernel (one matmul per group of KICK_BLOCK_SITES = 3 sites with the
cached kron power of exp(i theta Y) on the float64 view of the state,
alternating with a scratch buffer and ending in the state), and
multiplies the two factors back.  The lowest group's block is the
16 x 16 kron(R^3, I2) and every upper group's the 8 x 8 R^3, so a kick
costs at most 16 + 8 (ceil(N / 3) - 1) multiply-adds per float: 40 at
12 sites.  The kernel takes one angle for every state or one angle
per row of a stack; its blocks are cached per tuple of angles, stacked
along a leading row axis, with the lowest group's block stored
transposed so that its gemm runs NN.  Every gemm stays below
KICK_GEMM_MACS multiply-adds and has the same size for a row of a stack
as for one state, so the kick runs on the calling thread and a row's
result does not depend on the other rows.  The phases commute with
U_zz, so a caller that propagates many periods (dynamics.evolve_scan,
one row per kick field) stays in the real frame, binds the kernel to
buffers it owns once, and each period multiplies the zz phase into the
kernel's entry buffer one row at a time and calls the kernel alone.
apply() also takes a stack of states, and that is how the spectrum
reads U: the symmetry blocks are projected from U applied to the orbit
representatives.

Quasienergies are eps = -arg(lambda) / T folded into (-pi/T, pi/T].
The spectrum is computed sector by sector: the global spin flip and, per
lattice direction, the one-site translation (periodic) or reflection
(open) commute with U and split it into small blocks before any dense
factorization; the group's character table, sector partners and orbits
are derived once, when its SymmetryGroup is built.  Both halves of U are
symmetric matrices, so sector -k is the time-reversed copy of sector k
and only one of the two is factorized.
Each block is diagonalized by two Hermitian eigensolves (numpy's eigh):
one of the Hermitian part of the block turned by a fixed mirror angle,
then one of the anti-Hermitian part within each cluster of levels that
the first cannot tell apart.  The spectrum holds its levels in sorted
order with one sector label each, and every eigenvector in the basis
|r, k> of the orbit representatives r in its sector k: one
representatives x levels array, from which the full-basis vectors and
the overlaps with them are built on demand.  No command imports scipy.
diagonalize and QuasienergySpectrum.overlaps run numpy's OpenBLAS on one
thread (_blas.one_thread), so the levels and the overlaps do not depend
on the thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _blas
from .lattice import DENSE_SITE_CAP, Lattice, check_site_cap

#: eigenpair quality demanded of diagonalize()
RESIDUAL_TOL = 1e-10

#: turn (rad) of each block before its Hermitian part is taken; off the
#: multiples of pi/2, so levels at +-eps or pi/T -+ eps are not mirror pairs
MIRROR_ANGLE = (math.sqrt(5) - 1) / 2

#: Hermitian-part levels further apart than this are in different
#: clusters: an admixture of about eps / CLUSTER_GAP across the gap, times
#: a unit-circle distance of at most 2, keeps a residual at RESIDUAL_TOL/100
CLUSTER_GAP = 200 * np.finfo(float).eps / RESIDUAL_TOL

#: sites per kron block of the matrix-free kick (rotate_x_all_sites).
#: The lowest group's block is 2**(w + 1) square and the others 2**w, so
#: w = 3 costs 40 multiply-adds per float at 12 sites, where w = 4 cost
#: 64.  One untilted kick of a stack of 8 rows, or of the
#: max(1, 2**16 // D) rows of an evolve_scan stack where that is fewer,
#: on 64-byte aligned buffers at one OpenBLAS thread, in us: the range
#: over three processes of the best of 7 runs (2-vCPU Xeon, OpenBLAS
#: 0.3.31):
#:
#:     sites  rows  w = 3         w = 4
#:         8     8  7.4-7.7       6.7-7.5
#:        10     8  26-27         25-27
#:        12     8  90-94         109-112
#:        14     4  262-294       267-292
#:        16     1  294-339       272-332
#:        20     1  9510-10150    10510-11120
#:
#: From 14 sites on a stack is 1 MiB or more and the kick is bound by
#: memory more than by multiply-adds; at 16 sites w = 3 makes six passes
#: over the state, the last with 2 x 2 blocks, against four for w = 4
KICK_BLOCK_SITES = 3

#: multiply-adds per gemm of the kick; every gemm is cut into row or
#: column stacks of at most this size (a power of two), below the size
#: from which OpenBLAS starts a second thread: with 3-site groups, at
#: most 512 rows times the 16 x 16 lowest block, and the 8 x 8 upper
#: blocks times at most 2048 columns.  The cut also keeps the kick fast
#: at one thread: uncut and pinned to one thread, a tilted 1x16
#: evolution ran 20 to 30 % slower with 4-site blocks
KICK_GEMM_MACS = 1 << 17

#: amplitudes of the stack of unit vectors that diagonalize applies U to
#: at once (256 KiB of complex values): max(1, this // D) representatives
#: per stack, so above 2**14 states one at a time
_PROJECTION_AMPLITUDES = 1 << 14


class NumericalToleranceError(RuntimeError):
    """A numerical guarantee (unitarity, eigenpair residual, norm) failed."""


@dataclass(frozen=True)
class DriveParams:
    """Couplings of one drive period, stored as raw angular frequencies.

    ``j_x`` couples leg bonds, ``j_y`` rung bonds, ``h`` is the kick
    field, ``period`` the full driving period T.  The three kick angles
    below absorb the half-period factor T/2.
    """

    j_x: float
    j_y: float
    h: float
    period: float

    def __post_init__(self) -> None:
        for name in ("j_x", "j_y", "h", "period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @classmethod
    def from_pi_over_t(
        cls, j_x: float, j_y: float, h: float, period: float
    ) -> "DriveParams":
        """Build from couplings quoted in units of pi/T.

        A coupling u in these units has raw value u * pi / period, hence
        kick angle u * pi / 2 independent of the period.
        """
        # the constructor rejects a zero period before it is divided by
        cls(j_x=j_x, j_y=j_y, h=h, period=period)
        scale = math.pi / period
        return cls(j_x=j_x * scale, j_y=j_y * scale, h=h * scale, period=period)

    @property
    def theta_x(self) -> float:
        return 0.5 * self.j_x * self.period

    @property
    def theta_y(self) -> float:
        return 0.5 * self.j_y * self.period

    @property
    def theta_h(self) -> float:
        return 0.5 * self.h * self.period


def _kick_blocks(angle: float, n_sites: int) -> tuple[np.ndarray, ...]:
    """The real blocks of the kick kernel, one per group of
    KICK_BLOCK_SITES sites, lowest group first.

    A group of w sites takes R^w, the 2**w x 2**w kron power of
    exp(i * angle * Y) = [[c, s], [-s, c]].  The lowest group acts on
    the float64 view of the amplitudes, whose (re, im) pairs double the
    axis, so its block is kron(R^w, I2): 16 x 16 for a full group of
    three sites, against 8 x 8 for each upper group.  Only the last
    group is narrower, when KICK_BLOCK_SITES does not divide n_sites.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    powers = [np.ones((1, 1))]
    for _ in range(min(KICK_BLOCK_SITES, n_sites)):
        powers.append(np.kron(powers[-1], np.array([[c, s], [-s, c]])))
    widths = [min(KICK_BLOCK_SITES, n_sites - k) for k in range(0, n_sites, KICK_BLOCK_SITES)]
    return (np.kron(powers[widths[0]], np.eye(2)), *(powers[w] for w in widths[1:]))


@functools.lru_cache(maxsize=32)
def _stacked_blocks(angles: tuple[float, ...], n_sites: int) -> tuple[np.ndarray, ...]:
    """_kick_blocks of each angle, stacked along a leading row axis and
    shaped to broadcast against the kernel's operands.

    The lowest group's block is stored transposed and contiguous, so its
    gemm (rows of amplitudes times the block's transpose) runs NN.
    Cached per tuple of angles: the kick angles are fixed per evolution
    and the measurement angle per axis, and the blocks cost more to build
    than a kick.
    """
    groups = zip(*(_kick_blocks(angle, n_sites) for angle in angles))
    lowest = np.stack(next(groups)).swapaxes(1, 2).copy()[:, np.newaxis]
    blocks = (lowest, *(np.stack(group)[:, np.newaxis, np.newaxis] for group in groups))
    for block in blocks:
        block.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=8)
def _quarter_factors(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """i**popcount over the high and over the low bits of a basis index.

    With L = n_sites // 2 low sites, b = 2**L h + l and i**popcount(b),
    the diagonal of prod_k S_k, is high[h, 0] * low[l]: ``high`` is a
    (2**(n_sites - L), 1) column and ``low`` a (2**L,) row, together
    O(2**(n_sites / 2)) entries.
    """
    turns = np.array([1, 1j, -1, -1j])
    low_sites = n_sites // 2
    high, low = (
        turns[np.bitwise_count(np.arange(1 << width, dtype=np.uint64)) % 4]
        for width in (n_sites - low_sites, low_sites)
    )
    high = high[:, np.newaxis]
    for table in (high, low):
        table.setflags(write=False)
    return high, low


def _quarter_turn(ufunc: np.ufunc, state: np.ndarray, n_sites: int, out: np.ndarray) -> np.ndarray:
    """Write ufunc(state, i**popcount(b)) into the contiguous ``out`` and
    return it, for ufunc np.divide or np.multiply.

    ``state`` is one vector or a stack along the last axis, and ``out``
    has its shape or a stack of it.  Both are viewed as (..., high rows,
    low columns) and taken through the two factors of _quarter_factors
    in turn, so nothing of size 2**n_sites is built.  Every factor is
    +-1 or +-i, so each step is exact and every amplitude gets the value
    of one pass by the full phase; only the sign of a zero part can
    differ.
    """
    high, low = _quarter_factors(n_sites)
    view = out.reshape(*out.shape[:-1], high.size, low.size)
    ufunc(state.reshape(*state.shape[:-1], high.size, low.size), high, out=view)
    ufunc(view, low, out=view)
    return out


def _bind_kick(
    state: np.ndarray,
    scratch: np.ndarray,
    n_sites: int,
    angle: float | tuple[float, ...],
    source: np.ndarray | None = None,
) -> tuple[np.ndarray, Callable[[], None]]:
    """Bind the real kron power of exp(i * angle * Y) to the complex,
    contiguous ``state`` (one vector or a stack of vectors along the
    last axis) and ``scratch``; return ``(entry, kick)``.

    ``angle`` is one angle for every vector or a tuple with one angle
    per row of an (m, D) stack.  The caller writes the kernel's input
    into ``entry``, which is ``scratch`` when the number of site groups
    is odd and ``state`` when it is even; each call of ``kick`` then
    overwrites both buffers and leaves the result in ``state``, so a
    caller that kicks the same buffers every period binds the matmul
    operands once.  Sites are taken in groups of KICK_BLOCK_SITES = 3
    (the last group may be narrower).  Group [k, k + w) multiplies the
    axis of bits k..k+w-1 by its cached real block, writing into the
    other buffer.  Per float, the lowest group costs 2**(w + 1)
    multiply-adds and each upper group 2**w, 40 in all on 12 sites, and
    the kick allocates nothing.  The lowest group interleaves real and
    imaginary parts and multiplies stacks of rows by its 16 x 16 block;
    upper groups multiply stacks of columns by their 8 x 8 blocks.  Every gemm is cut, by the vector
    length alone, to at most KICK_GEMM_MACS multiply-adds, which
    OpenBLAS runs on the calling thread, so each output is one inner
    product of length 2**w or 2**(w + 1) whatever the thread count, the
    stack size or the angles of the other rows.

    Given ``source``, a contiguous array shaped like ``state``, the
    first site group reads it instead of ``entry`` and never writes it,
    so a caller kicks a state that it must keep without first copying
    it into ``entry``.
    """
    angles = angle if isinstance(angle, tuple) else (angle,)
    # with one angle the whole stack folds into the batch axis
    lead = len(angles)
    blocks = _stacked_blocks(angles, n_sites)
    # the groups alternate between the buffers, so the last one writes state
    src, dst = (scratch, state) if len(blocks) % 2 else (state, scratch)
    entry = src
    products = []
    for k, block in zip(range(0, n_sites, KICK_BLOCK_SITES), blocks):
        read = source if k == 0 and source is not None else src
        x, y = read.view(np.float64), dst.view(np.float64)
        size = block.shape[-1]
        if k == 0:
            shape = (lead, -1, min(KICK_GEMM_MACS // size**2, x.shape[-1] // size), size)
            products.append((x.reshape(shape), block, y.reshape(shape)))
        else:
            cols = 2 << k
            chunk = min(cols, KICK_GEMM_MACS // size**2)
            shape = (lead, -1, size, cols // chunk, chunk)
            products.append((block, x.reshape(shape).swapaxes(2, 3), y.reshape(shape).swapaxes(2, 3)))
        src, dst = dst, src

    def kick() -> None:
        for a, b, out in products:
            np.matmul(a, b, out=out)

    return entry, kick


def rotate_x_all_sites(state: np.ndarray, n_sites: int, angle: float) -> np.ndarray:
    """Apply prod_k exp(-i * angle * X_k) in place and return the array.

    The caller must own ``state`` (complex, contiguous, one vector or a
    stack of vectors along the first axis); it is overwritten.  With
    S = diag(1, i), exp(-i angle X) = S exp(i angle Y) S^dagger, and
    exp(i angle Y) is real.  So the state times the phase
    conj(i**popcount(b)) of prod_k S_k^dagger, formed as the state over
    the two factors of i**popcount(b) in turn (_quarter_turn, exact:
    every factor is +-1 or +-i), goes into the kernel's entry buffer,
    the real kick kernel runs with a fresh scratch buffer and leaves its
    result in ``state``, and the two factors are multiplied back.  At
    angle 0 the kernel's blocks are identities, so every amplitude keeps
    its value.
    """
    entry, kick = _bind_kick(state, np.empty_like(state), n_sites, angle)
    _quarter_turn(np.divide, state, n_sites, entry)
    kick()
    return _quarter_turn(np.multiply, state, n_sites, state)


@dataclass(frozen=True)
class FloquetOperator:
    """One-period propagator bound to a lattice and drive parameters.

    ``zz_phase`` is the diagonal of the interaction half; ``dense`` is
    the kron-built matrix, kept as an independent oracle for tests, or
    None.  Nothing in the package reads it: apply() is the one way the
    package evaluates U, on a state or on a stack of states.
    """

    lattice: Lattice
    params: DriveParams
    zz_phase: np.ndarray
    dense: np.ndarray | None = None

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One stroboscopic period, matrix-free, on a state of shape (D,)
        or on each row of an (m, D) stack; row j of the result equals
        apply(state[j]) bit for bit, so the rows of apply(np.eye(D)) are
        the columns of U."""
        state = np.asarray(state, dtype=complex)
        dim = self.lattice.dim
        if state.ndim not in (1, 2) or state.shape[-1] != dim:
            raise ValueError(f"state must have shape ({dim},) or (m, {dim}), got {state.shape}")
        # the kick views rows as contiguous float64, so the product is C-ordered
        out = np.multiply(self.zz_phase, state, order="C")
        return rotate_x_all_sites(out, self.lattice.n_sites, self.params.theta_h)


def build_floquet(
    lattice: Lattice, params: DriveParams, materialize_dense: bool = False
) -> FloquetOperator:
    """Assemble the one-period propagator.

    Only the diagonal interaction phase is precomputed; apply() works
    from it and the kick angle.  It is built in place in the complex
    result: bond by bond, theta times the bond's Z_a Z_b eigenvalue is
    added to the imaginary parts through a strided view whose axes are
    the bond's two bits, then np.exp runs in place, so the build makes
    no temporary of size 2**N.  ``materialize_dense`` also builds the
    full 2**N x 2**N matrix as a kron product of single-site kicks
    (refused above DENSE_SITE_CAP sites), an oracle independent of the
    blocked kick kernel.
    """
    n = lattice.n_sites
    zz_phase = np.zeros(lattice.dim, dtype=complex)
    accum = zz_phase.imag
    for a, b, axis in lattice.bonds:
        theta = params.theta_x if axis == "x" else params.theta_y
        # axes 1 and 3 are bits hi and lo of the basis index, and the
        # Z_a Z_b eigenvalue is +1 where they agree
        lo, hi = sorted((a, b))
        pairs = accum.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
        pairs += theta * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, np.newaxis, :, np.newaxis]
    np.exp(zz_phase, out=zz_phase)
    zz_phase.setflags(write=False)

    dense = None
    if materialize_dense:
        check_site_cap(lattice.n_sites, DENSE_SITE_CAP, "dense propagator")
        c = math.cos(params.theta_h)
        s = math.sin(params.theta_h)
        site = np.array([[c, -1j * s], [-1j * s, c]])
        kick = np.ones((1, 1), dtype=complex)
        for _ in range(lattice.n_sites):
            kick = np.kron(kick, site)
        dense = kick * zz_phase[np.newaxis, :]
        dense.setflags(write=False)
    return FloquetOperator(lattice=lattice, params=params, zz_phase=zz_phase, dense=dense)


def fold_quasienergy(eps, period: float):
    """Fold quasienergies into the Brillouin zone (-pi/T, pi/T]."""
    w = np.pi / period
    return w - np.mod(w - np.asarray(eps), 2.0 * w)


@dataclass(frozen=True)
class SymmetryGroup:
    """Abelian symmetry group of the propagator, acting on basis indices,
    with its character table and orbits derived once at construction.

    The group is a product of cyclic factors of the given ``orders``:
    the global spin flip P = prod_k X_k (order 2) first, then each
    accepted lattice translation or reflection.  Element e, numbered in
    C order over the exponent tuple (e_1, e_2, ...), maps basis index b
    to ``images[e, b]``.  The derived tables, all read-only:

    - ``characters[k, e]`` = exp(2 pi i sum_j k_j e_j / orders_j), with
      sectors numbered like the elements;
    - ``partners[k]``, the number of sector -k, whose characters are the
      complex conjugates of sector k's;
    - ``reps``, the smallest image of every orbit, ascending;
      ``orbit[b]``, the orbit number of basis index b; ``carrier[b]``,
      an element that maps the orbit's representative onto b;
    - ``stab_sums[k, a]``, the sum of the characters of sector k over the
      stabilizer of reps[a]: the stabilizer size when the character is
      trivial on it and 0 otherwise; row 0, the trivial sector, holds
      the stabilizer sizes;
    - ``kept[k]``, the numbers a, ascending, of the representatives
      whose state |r_a, k> exists (``stab_sums[k, a] > 0``): the one
      place that decides which states a sector has, read by diagonalize
      and QuasienergySpectrum.overlaps.  A sector whose ``kept`` is
      empty has no levels, such as sector 1 of the 1x2 and 2x1 lattices.
    """

    orders: tuple[int, ...]
    images: np.ndarray
    characters: np.ndarray = field(init=False, repr=False, compare=False)
    partners: np.ndarray = field(init=False, repr=False, compare=False)
    reps: np.ndarray = field(init=False, repr=False, compare=False)
    orbit: np.ndarray = field(init=False, repr=False, compare=False)
    carrier: np.ndarray = field(init=False, repr=False, compare=False)
    stab_sums: np.ndarray = field(init=False, repr=False, compare=False)
    kept: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # sectors and elements share one numbering of the exponent tuples
        exps = np.indices(self.orders).reshape(len(self.orders), -1)
        turns = sum(np.outer(e, e) % n / n for e, n in zip(exps, self.orders))
        characters = np.exp(2j * np.pi * turns)
        flipped = tuple(-e % n for e, n in zip(exps, self.orders))
        partners = np.ravel_multi_index(flipped, self.orders)
        reps, orbit = np.unique(self.images.min(axis=0), return_inverse=True)
        carrier = np.argmax(self.images[:, reps[orbit]] == np.arange(orbit.size), axis=0)
        fixed = self.images[:, reps] == reps
        stab_sums = np.rint((characters @ fixed).real)
        tables = dict(
            characters=characters, partners=partners, reps=reps,
            orbit=orbit, carrier=carrier, stab_sums=stab_sums,
        )
        for name, arr in tables.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        kept = tuple(np.flatnonzero(row > 0) for row in stab_sums)
        for arr in kept:
            arr.setflags(write=False)
        object.__setattr__(self, "kept", kept)

    @property
    def order(self) -> int:
        return self.images.shape[0]


@functools.lru_cache(maxsize=8)
def symmetry_group(lattice: Lattice) -> SymmetryGroup:
    """The spin flip and the lattice symmetries as basis permutations.

    P maps index b to b ^ (2**N - 1), which commutes with U because the
    kick is uniform and every Z_a Z_b phase is flip invariant.  A site
    permutation sigma maps b to sum_k bit_k(b) << sigma(k); the lattice
    supplies only commuting translations and reflections that preserve
    the bond set, so each one commutes with both halves of the drive
    and the group is abelian.  Cached per lattice: a scan
    diagonalizes many drives on one lattice, and the group's tables are
    read-only.
    """
    dim = lattice.dim
    idx = np.arange(dim)
    generators = [(idx ^ (dim - 1), 2)]
    for sites, order in lattice.symmetries():
        moved = np.zeros(dim, dtype=idx.dtype)
        for k, target in enumerate(sites):
            moved |= ((idx >> k) & 1) << target
        generators.append((moved, order))
    images = idx[np.newaxis, :]
    for perm, order in generators:
        powers = [images]
        for _ in range(order - 1):
            powers.append(perm[powers[-1]])
        images = np.stack(powers, axis=1).reshape(-1, dim)
    return SymmetryGroup(orders=tuple(n for _, n in generators), images=images)


@dataclass(frozen=True)
class QuasienergySpectrum:
    """Eigendecomposition of a Floquet operator in the sector bases.

    Quasienergies are sorted ascending in (-pi/T, pi/T]; level n has
    unit-circle eigenvalue ``eigenvalues[n]``, eigenpair residual
    ``residuals[n] = ||U v_n - lambda_n v_n||_2`` and symmetry sector
    ``labels[n]``, numbered like the rows of ``group.characters``.
    Column n of the n_reps x D ``sector_vectors`` is eigenvector n in
    the basis |r_a, labels[n]> of the orbit representatives r_a
    (``group.reps``), zero on the representatives whose state does not
    exist in that sector (a not in ``group.kept[labels[n]]``).
    vectors() embeds chosen eigenvectors in the full basis and
    overlaps(), its adjoint, projects full-basis states onto all of
    them, both from the group's character and orbit tables and without
    a D x D matrix.  The dense ``eigenvectors`` (eigenvector n is
    ``eigenvectors[:, n]``) is built only when read; nothing in the
    package reads it.
    """

    quasienergies: np.ndarray
    eigenvalues: np.ndarray
    residuals: np.ndarray
    period: float
    group: SymmetryGroup
    labels: np.ndarray
    sector_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.quasienergies.size

    def vectors(self, ranks) -> np.ndarray:
        """The eigenvectors of the given ranks in the full basis, as the
        columns of a D x len(ranks) array.

        State b = g r of orbit r has amplitude
        sum_{g' r = b} conj(chi(g')) / sqrt(|G| S_r) = conj(chi(g)) sqrt(|stab r| / |G|)
        in |r, k>, since chi is constant on the coset g * stab(r); the
        group holds g (``carrier``) and |stab r| (row 0 of
        ``stab_sums``).  Every entry is one product of that amplitude and
        a ``sector_vectors`` entry, taken rank by rank, so a column does
        not depend on which other ranks are asked for.
        """
        ranks = np.asarray(ranks, dtype=np.intp).reshape(-1)
        group = self.group
        weights = np.sqrt(group.stab_sums[0, group.orbit] / group.order)
        coef = group.characters[self.labels[ranks]][:, group.carrier].conj() * weights
        return (coef * self.sector_vectors.T[ranks][:, group.orbit]).T

    @_blas.one_thread()
    def overlaps(self, states) -> np.ndarray:
        """<v_m|x> for every rank m and every column x of ``states``.

        The adjoint of vectors(): ``states`` is one full-basis vector of
        shape (D,) or a block (D, c), and row m of the result, of the
        same shape, holds the overlaps with eigenvector m.  The sector
        components of x,

            <r, k|x> = sum_g chi_k(g) x[g r] / sqrt(|G| S_r),

        are character sums: the character table times x gathered at the
        images of the representatives, the same sum that diagonalize
        projects its blocks with.  The conjugate transpose of each
        sector's columns of ``sector_vectors``, on the rows of its
        ``group.kept``, then turns them into eigenbasis coefficients.  The sector bases are orthonormal and
        jointly complete, so for a unitary V this is V^H x.  The
        products run on one BLAS thread, so the overlaps do not depend
        on the thread count.
        """
        x = np.asarray(states)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(
                f"states must have shape ({self.dim},) or ({self.dim}, c), got {x.shape}"
            )
        block = x.reshape(self.dim, -1)
        group = self.group
        # gathered[g, a, c] = x[g(r_a), c]; sums[k, a, c] = sum_g chi_k(g) gathered[g, a, c]
        gathered = block[group.images[:, group.reps]]
        sums = np.tensordot(group.characters, gathered, axes=1)
        del gathered
        out = np.empty(block.shape, dtype=complex)
        for k, keep in enumerate(group.kept):
            ranks = np.flatnonzero(self.labels == k)
            norm = np.sqrt(group.order * group.stab_sums[k, keep])
            components = sums[k, keep] / norm[:, np.newaxis]
            out[ranks] = self.sector_vectors[keep[:, np.newaxis], ranks].conj().T @ components
        return out.reshape(x.shape)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        """vectors() of every rank, built on first access, then cached and
        read-only.  The sector bases are orthonormal and jointly
        complete, so the embedded vectors form a unitary matrix.
        """
        vectors = self.vectors(np.arange(self.dim))
        vectors.setflags(write=False)
        return vectors


def _unitary_eig(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, orthonormal eigenvectors (columns) and residuals of a
    unitary matrix B, from two Hermitian eigensolves.

    1. eigh of the Hermitian part of R = exp(-i MIRROR_ANGLE) B gives
       cos(x), x = arg lambda - MIRROR_ANGLE, and an orthonormal basis Q.
       B is normal, so Q diagonalizes it except among levels of equal or
       nearly equal cos(x), such as the mirror pairs x and -x.
    2. The sorted cos(x) split into clusters wherever adjacent values lie
       more than CLUSTER_GAP apart; rounding mixes levels across such a
       gap by about eps / CLUSTER_GAP, a residual of RESIDUAL_TOL / 100.
    3. In each cluster of two or more levels, eigh of the Hermitian
       (S - S^H) / 2i, S = exp(-i psi) Q_c^H R Q_c, with eigenvalues
       sin(x - psi), rotates Q_c onto eigenvectors.  The cluster sits
       near x = +-arccos(c) for its mean cosine c; psi = 0 tells the
       mirror pairs apart, and where |c| < 1/2, near the turning points
       of sin(x), psi = pi/4 keeps both arcs pi/12 away from them.
    4. The eigenvalues are the Rayleigh quotients q^H B q, and the
       residuals ||B q - lambda q|| come from B Q.
    """
    hermitian = (0.5 * np.exp(-1j * MIRROR_ANGLE)) * block
    hermitian += hermitian.conj().T
    cosines, vecs = np.linalg.eigh(hermitian)
    del hermitian
    image = block @ vecs
    cuts = np.flatnonzero(np.diff(cosines) > CLUSTER_GAP) + 1
    for lo, hi in zip([0, *cuts], [*cuts, cosines.size]):
        if hi - lo < 2:
            continue
        psi = 0.25 * np.pi if abs(cosines[lo:hi].mean()) < 0.5 else 0.0
        small = np.exp(-1j * (MIRROR_ANGLE + psi)) * (vecs[:, lo:hi].conj().T @ image[:, lo:hi])
        _, rotation = np.linalg.eigh(0.5j * (small.conj().T - small))
        vecs[:, lo:hi] = vecs[:, lo:hi] @ rotation
        image[:, lo:hi] = image[:, lo:hi] @ rotation
    lam = np.einsum("ij,ij->j", vecs.conj(), image)
    image -= vecs * lam
    residuals = np.linalg.norm(image, axis=0)
    return lam, vecs, residuals


@_blas.one_thread()
def diagonalize(op: FloquetOperator) -> QuasienergySpectrum:
    """Eigendecomposition of the propagator, one symmetry sector at a time.

    Sectors: the group of ``symmetry_group`` (global spin flip plus the
    translations and reflections the lattice admits; nothing is
    configured) commutes with U.  Each basis state belongs to an orbit,
    represented by its smallest image r.  In sector k the state

        |r, k> = sum_g conj(chi_k(g)) |g r> / sqrt(|G| S_r),

    with stabilizer sum S_r = sum over g fixing r of chi_k(g), exists
    when S_r != 0, for the representatives of ``group.kept[k]``; a
    sector without them has no block.  g commutes with U, so the block is

        U_k[a, b] = <r_a, k| U |r_b, k>
                  = sum_g chi_k(g) U[g r_a, r_b] / sqrt(S_a S_b).

    apply() on stacks of unit vectors at the orbit representatives, in
    their order and at most _PROJECTION_AMPLITUDES amplitudes per stack
    (at least one representative), gives U|r_b> for every b (the dense
    matrix is neither needed nor read).  A stack's amplitudes at the
    images g r_a, weighted by the characters, give its columns of every
    factorized block in one product, and the stack is freed before the
    next one is applied.  Each row of a stack equals a single-vector
    apply bit for bit and the character product is one gemm per
    representative, so no entry depends on the stack size.  Each block
    is factorized on its own and dropped as soon as it is.

    Time reversal halves the factorizations.  U = K Z with the kick K
    and the diagonal zz phase Z both symmetric, so U^T = K^-1 U K: if
    U v = lambda v, then K conj(v) = lambda conj(Z v) is an eigenvector
    with the same eigenvalue.  conj maps sector k onto sector -k (the
    conjugate characters) and Z is constant on orbits, so the basis
    states of -k are the conjugates of k's, and sector -k's eigenvectors
    are conj(zz_r * q) for sector k's eigenvectors q.  Only the
    self-conjugate sectors (k = -k) and the lower-numbered sector of each
    (k, -k) pair are factorized; the partner gets copies of the
    eigenvalues and residuals.  On an open lattice every character is
    +-1, so every sector is its own partner and nothing is copied.

    Each factorized block is diagonalized by _unitary_eig: two Hermitian
    eigensolves, which give an orthonormal basis even inside degenerate
    clusters, with the levels read as Rayleigh quotients and the
    residuals ||U_k q - lambda q|| computed explicitly.  Per block, the
    eigenvalue moduli must lie within RESIDUAL_TOL of 1, and so must the
    residuals.  The embedding into the full basis is an isometry that
    intertwines U with its blocks, so a block residual is also the
    full-basis residual of the embedded vector.

    Levels of all sectors, concatenated in ascending sector order, are
    sorted together by quasienergy (stable, so ties keep sector order; a
    level and its copy in the partner sector tie exactly).  Each
    level's sector goes into ``labels`` and its eigenvector, in the
    representative basis of that sector, into its column of
    ``sector_vectors``, written in place once the blocks are freed; the
    partner's conj(zz_r * q) is formed as it is written.  The dense
    D x D ``eigenvectors`` is embedded only when read, and lattices
    above DENSE_SITE_CAP sites are refused.  numpy's bundled
    OpenBLAS runs on one thread meanwhile, so the levels do not depend on
    the thread count.
    """
    check_site_cap(op.lattice.n_sites, DENSE_SITE_CAP, "diagonalize")
    group = symmetry_group(op.lattice)
    reps, stab_sums, partners = group.reps, group.stab_sums, group.partners
    # every sector with states, and the ones among them that are factorized
    sectors = [k for k, keep in enumerate(group.kept) if keep.size]
    factored = [k for k in sectors if k <= partners[k]]

    dim = op.lattice.dim
    characters = group.characters[factored]
    images = group.images[:, reps]
    # blocks[k][a, b] = U_k[a, b] over the positions a, b in group.kept[k]
    blocks = {k: np.empty((group.kept[k].size,) * 2, dtype=complex) for k in factored}
    norms = {k: np.sqrt(stab_sums[k, group.kept[k]]) for k in factored}
    step = max(1, _PROJECTION_AMPLITUDES // dim)
    for lo in range(0, reps.size, step):
        hi = min(lo + step, reps.size)
        basis = np.zeros((hi - lo, dim), dtype=complex)
        basis[np.arange(hi - lo), reps[lo:hi]] = 1.0
        # sums[j, i, a] = sum_g chi_k(g) U[g r_a, r_b] for b = lo + j, k = factored[i]
        sums = characters @ op.apply(basis)[:, images]
        for i, k in enumerate(factored):
            keep, norm = group.kept[k], norms[k]
            # the kept b in [lo, hi) fill a contiguous run of the block's columns
            cols = slice(*np.searchsorted(keep, (lo, hi)))
            blocks[k][:, cols] = sums[keep[cols] - lo, i][:, keep].T / np.outer(norm, norm[cols])
        # freed before the next stack is built
        del basis, sums

    factors = {}  # sector label: (eigenvectors, eigenvalues, residuals)
    for k in factored:
        # the block is dropped as soon as it is factorized
        lam, q_mat, residuals = _unitary_eig(blocks.pop(k))
        modulus_dev = np.abs(np.abs(lam) - 1.0)
        if modulus_dev.max() > RESIDUAL_TOL:
            raise NumericalToleranceError(
                f"eigenvalue modulus deviates from 1 by {modulus_dev.max():.3e} "
                f"in sector {k}"
            )
        if residuals.max() > RESIDUAL_TOL:
            raise NumericalToleranceError(
                f"worst eigenpair residual {residuals.max():.3e} exceeds "
                f"{RESIDUAL_TOL:.1e} in sector {k}"
            )
        factors[k] = (q_mat, lam, residuals)

    # sector k copies the levels of the factored one of k and -k
    sizes = [group.kept[k].size for k in sectors]
    period = op.params.period
    lam = np.concatenate([factors[min(k, partners[k])][1] for k in sectors])
    residuals = np.concatenate([factors[min(k, partners[k])][2] for k in sectors])
    eps = fold_quasienergy(-np.angle(lam) / period, period)
    order = np.argsort(eps, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = np.repeat(sectors, sizes)[order]
    ranks = dict(zip(sectors, np.split(rank, np.cumsum(sizes)[:-1])))
    sector_vectors = np.zeros((reps.size, order.size), dtype=complex)
    for k in factored:
        # each q is dropped once its sector and the partner's copy are written
        q_mat = factors.pop(k)[0]
        keep = group.kept[k]
        sector_vectors[np.ix_(keep, ranks[k])] = q_mat
        if partners[k] != k:
            zz = op.zz_phase[reps[keep], np.newaxis]
            sector_vectors[np.ix_(keep, ranks[partners[k]])] = (zz * q_mat).conj()

    eps, lam, residuals = eps[order], lam[order], residuals[order]
    for arr in (eps, lam, residuals, labels, sector_vectors):
        arr.setflags(write=False)
    return QuasienergySpectrum(
        quasienergies=eps,
        eigenvalues=lam,
        residuals=residuals,
        period=period,
        group=group,
        labels=labels,
        sector_vectors=sector_vectors,
    )


@dataclass(frozen=True)
class SpacingStats:
    """Deviation of the spectrum from exact pi/T pairing.

    With the D quasienergies sorted, level n is paired with level
    n + D/2 (Khemani et al., PRL 116, 250401 (2016)); each pair deviates
    by |eps_{n+D/2} - eps_n - pi/T|.  min_dev and max_dev are the
    extremes over the D/2 pairs; exact pairing makes both zero.
    """

    min_dev: float
    max_dev: float


def spacing_stats(spectrum: QuasienergySpectrum) -> SpacingStats:
    """Rank pairing of the sorted spectrum against a pi/T shift.

    All levels lie in (-pi/T, pi/T], so every paired difference is
    already in [0, 2 pi/T) and needs no folding.  Raises ValueError for
    an empty or odd-sized spectrum.
    """
    eps = np.sort(np.asarray(spectrum.quasienergies, dtype=float))
    if eps.size == 0 or eps.size % 2:
        raise ValueError(
            f"pi pairing needs an even, nonempty spectrum, got {eps.size} levels"
        )
    half = eps.size // 2
    dev = np.abs(eps[half:] - eps[:half] - np.pi / spectrum.period)
    return SpacingStats(min_dev=float(dev.min()), max_dev=float(dev.max()))

