"""One-period propagator for the kicked Ising ladder and its spectrum.

The drive alternates between an Ising half-period and a transverse kick,

    U = U_kick * U_zz,
    U_zz   = exp(+i sum_bonds theta_bond Z_a Z_b),   theta_bond = J_bond T / 2,
    U_kick = prod_k exp(-i theta_h X_k),             theta_h    = h T / 2,

so the interaction half acts first on a state.  U_zz is diagonal in the
computational basis and the kick factorizes over sites.  That gives a
matrix-free apply(): one elementwise multiply, then the kick in a real
frame, exp(-i theta X) = S exp(i theta Y) S^dagger with S = diag(1, i).
rotate_x_all_sites multiplies by an exact quarter-turn phase per basis
state, runs the real kernel (one matmul per group of KICK_BLOCK_SITES
sites with the cached kron power of exp(i theta Y) on the float64 view
of the state, into a scratch buffer), and multiplies the phase back,
O(2**N * 2**KICK_BLOCK_SITES) per period.  Every gemm stays below
KICK_GEMM_MACS multiply-adds, so the kick runs on the calling thread.
The phases commute with U_zz, so a caller that propagates many periods
(dynamics.evolve_stroboscopic) stays in the real frame and calls the
kernel alone, on buffers it owns.  apply() also takes a stack of
states, and that is how the spectrum reads U: the symmetry blocks are
projected from U applied to the orbit representatives.

Quasienergies are eps = -arg(lambda) / T folded into (-pi/T, pi/T].
The spectrum is computed sector by sector: the global spin flip and the
lattice translations commute with U and split it into small blocks
before any dense factorization; the group's character table, sector
partners and orbits are derived once, when its SymmetryGroup is built.
Both halves of U are symmetric matrices, so sector -k is the
time-reversed copy of sector k and only one of the two is factorized.
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

#: sites per kron block of the matrix-free kick (rotate_x_all_sites)
KICK_BLOCK_SITES = 4

#: multiply-adds per gemm of the kick; every gemm is cut into row or
#: column stacks of at most this size (a power of two), below the size
#: from which OpenBLAS starts a second thread
KICK_GEMM_MACS = 1 << 17


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


@functools.lru_cache(maxsize=32)
def _kick_blocks(angle: float, n_sites: int) -> tuple[np.ndarray, ...]:
    """The real blocks of the kick kernel, one per group of
    KICK_BLOCK_SITES sites, lowest group first.

    A group of w sites takes R^w, the 2**w x 2**w kron power of
    exp(i * angle * Y) = [[c, s], [-s, c]].  The lowest group acts on
    the float64 view of the amplitudes, whose (re, im) pairs double the
    axis, so its block is kron(R^w, I2).  Cached: the kick angle is
    fixed per operator and the measurement angle per evolution, and the
    blocks cost more to build than a kick.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    powers = [np.ones((1, 1))]
    for _ in range(min(KICK_BLOCK_SITES, n_sites)):
        powers.append(np.kron(powers[-1], np.array([[c, s], [-s, c]])))
    widths = [min(KICK_BLOCK_SITES, n_sites - k) for k in range(0, n_sites, KICK_BLOCK_SITES)]
    blocks = (np.kron(powers[widths[0]], np.eye(2)), *(powers[w] for w in widths[1:]))
    for block in blocks:
        block.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=8)
def _quarter_turns(n_sites: int) -> np.ndarray:
    """i**popcount(b) for every basis index b, the diagonal of prod_k S_k."""
    idx = np.arange(1 << n_sites, dtype=np.uint64)
    out = np.array([1, 1j, -1, -1j])[np.bitwise_count(idx) % 4]
    out.setflags(write=False)
    return out


def _kick_in_frame(
    state: np.ndarray, scratch: np.ndarray, n_sites: int, angle: float
) -> np.ndarray:
    """Apply the real kron power of exp(i * angle * Y) to the complex,
    contiguous ``state`` (one vector or a stack of vectors along the
    last axis), alternating with ``scratch``.

    Both buffers are overwritten; the return value is whichever of the
    two holds the result.  Sites are taken in groups of KICK_BLOCK_SITES
    (the last group may be narrower).  Group [k, k + w) multiplies the
    axis of bits k..k+w-1 by its cached real block, writing into the
    other buffer, so the kick costs O(2**N * 2**KICK_BLOCK_SITES) time
    per vector and allocates nothing.  The lowest group interleaves real
    and imaginary parts and multiplies stacks of rows; upper groups
    multiply stacks of columns.  Every gemm is cut, by the vector length
    alone, to at most KICK_GEMM_MACS multiply-adds, which OpenBLAS runs
    on the calling thread, so each output is one inner product of length
    2**w or 2**(w + 1) whatever the thread count or the stack size.
    """
    src, dst = state, scratch
    for k, block in zip(range(0, n_sites, KICK_BLOCK_SITES), _kick_blocks(angle, n_sites)):
        x, y = src.view(np.float64), dst.view(np.float64)
        size = block.shape[0]
        if k == 0:
            shape = (-1, min(KICK_GEMM_MACS // size**2, x.shape[-1] // size), size)
            np.matmul(x.reshape(shape), block.T, out=y.reshape(shape))
        else:
            cols = 2 << k
            chunk = min(cols, KICK_GEMM_MACS // size**2)
            shape = (-1, size, cols // chunk, chunk)
            np.matmul(
                block,
                x.reshape(shape).swapaxes(1, 2),
                out=y.reshape(shape).swapaxes(1, 2),
            )
        src, dst = dst, src
    return src


def rotate_x_all_sites(state: np.ndarray, n_sites: int, angle: float) -> np.ndarray:
    """Apply prod_k exp(-i * angle * X_k) in place and return the array.

    The caller must own ``state`` (complex, contiguous, one vector or a
    stack of vectors along the first axis); it is overwritten.  With
    S = diag(1, i), exp(-i angle X) = S exp(i angle Y) S^dagger, and
    exp(i angle Y) is real.  So the state is multiplied by the phase
    conj(i**popcount(b)) of prod_k S_k^dagger (exact: every factor is +-1
    or +-i), the real kick kernel runs on a fresh scratch buffer, and the
    phase i**popcount(b) is multiplied back.
    """
    if math.sin(angle) == 0.0:
        # only angle 0 gets here: sin of a nonzero float is never 0.0
        return state
    quarter = _quarter_turns(n_sites)
    state *= quarter.conj()
    out = _kick_in_frame(state, np.empty_like(state), n_sites, angle)
    return np.multiply(out, quarter, out=state)


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
    from it and the kick angle.  ``materialize_dense`` also builds the
    full 2**N x 2**N matrix as a kron product of single-site kicks
    (refused above DENSE_SITE_CAP sites), an oracle independent of the
    blocked kick kernel.
    """
    dim = lattice.dim
    idx = np.arange(dim)
    accum = np.zeros(dim)
    for a, b, axis in lattice.bonds:
        theta = params.theta_x if axis == "x" else params.theta_y
        # Z_a Z_b eigenvalue: +1 when bits a and b agree
        zz = 1.0 - 2.0 * (((idx >> a) ^ (idx >> b)) & 1)
        accum += theta * zz
    zz_phase = np.exp(1j * accum)
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
    accepted lattice translation.  Element e, numbered in C order over
    the exponent tuple (e_1, e_2, ...), maps basis index b to
    ``images[e, b]``.  The derived tables, all read-only:

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
      the stabilizer sizes.
    """

    orders: tuple[int, ...]
    images: np.ndarray
    characters: np.ndarray = field(init=False, repr=False, compare=False)
    partners: np.ndarray = field(init=False, repr=False, compare=False)
    reps: np.ndarray = field(init=False, repr=False, compare=False)
    orbit: np.ndarray = field(init=False, repr=False, compare=False)
    carrier: np.ndarray = field(init=False, repr=False, compare=False)
    stab_sums: np.ndarray = field(init=False, repr=False, compare=False)

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

    @property
    def order(self) -> int:
        return self.images.shape[0]


@functools.lru_cache(maxsize=8)
def symmetry_group(lattice: Lattice) -> SymmetryGroup:
    """The spin flip and the lattice translations as basis permutations.

    P maps index b to b ^ (2**N - 1), which commutes with U because the
    kick is uniform and every Z_a Z_b phase is flip invariant.  A site
    permutation sigma maps b to sum_k bit_k(b) << sigma(k); the lattice
    supplies only translations that preserve the bond set, so each one
    commutes with both halves of the drive.  Cached per lattice: a scan
    diagonalizes many drives on one lattice, and the group's tables are
    read-only.
    """
    dim = lattice.dim
    idx = np.arange(dim)
    generators = [(idx ^ (dim - 1), 2)]
    for translation in lattice.translations():
        moved = np.zeros(dim, dtype=idx.dtype)
        for k, target in enumerate(translation.sites):
            moved |= ((idx >> k) & 1) << target
        generators.append((moved, translation.order))
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
    exist in that sector (``group.stab_sums[labels[n], a] == 0``).
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
        sector's columns of ``sector_vectors`` then turns them into
        eigenbasis coefficients.  The sector bases are orthonormal and
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
        out = np.empty(block.shape, dtype=complex)
        for k in range(group.order):
            ranks = np.flatnonzero(self.labels == k)
            keep = group.stab_sums[k] > 0
            norm = np.sqrt(group.order * group.stab_sums[k, keep])
            components = sums[k, keep] / norm[:, np.newaxis]
            out[ranks] = self.sector_vectors[np.ix_(keep, ranks)].conj().T @ components
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
    translations the lattice admits; nothing is configured) commutes
    with U.  Each basis state belongs to an orbit, represented by its
    smallest image r.  In sector k the state

        |r, k> = sum_g conj(chi_k(g)) |g r> / sqrt(|G| S_r),

    with stabilizer sum S_r = sum over g fixing r of chi_k(g), exists
    when S_r != 0.  g commutes with U, so the block is

        U_k[a, b] = <r_a, k| U |r_b, k>
                  = sum_g chi_k(g) U[g r_a, r_b] / sqrt(S_a S_b).

    One apply() on the stack of unit vectors at the n orbit
    representatives gives U|r_b> for every b (the dense matrix is
    neither needed nor read).  Its amplitudes at the images g r_a,
    weighted by the characters, give every factorized block in one
    product, and each block is factorized on its own.

    Time reversal halves the factorizations.  U = K Z with the kick K
    and the diagonal zz phase Z both symmetric, so U^T = K^-1 U K: if
    U v = lambda v, then K conj(v) = lambda conj(Z v) is an eigenvector
    with the same eigenvalue.  conj maps sector k onto sector -k (the
    conjugate characters) and Z is constant on orbits, so the basis
    states of -k are the conjugates of k's, and sector -k's eigenvectors
    are conj(zz_r * q) for sector k's eigenvectors q.  Only the
    self-conjugate sectors (k = -k) and the lower-numbered sector of each
    (k, -k) pair are factorized; the partner gets copies of the
    eigenvalues and residuals.

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
    factored = np.flatnonzero(np.arange(group.order) <= partners)

    basis = np.zeros((reps.size, op.lattice.dim), dtype=complex)
    basis[np.arange(reps.size), reps] = 1.0
    # columns[b, x] = U[x, r_b]
    columns = op.apply(basis)
    del basis
    # blocks[b, i, a] = sum_g chi_k(g) U[g r_a, r_b] for sector k = factored[i]
    blocks = group.characters[factored] @ columns[:, group.images[:, reps]]
    del columns

    factors = {}  # sector label: (eigenvectors, eigenvalues, residuals)
    for i, k in enumerate(factored):
        keep = stab_sums[k] > 0
        if not keep.any():
            continue
        norm = np.sqrt(stab_sums[k, keep])
        block = blocks[:, i].T[np.ix_(keep, keep)] / np.outer(norm, norm)
        lam, q_mat, residuals = _unitary_eig(block)
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
    del blocks

    # every sector with levels, ascending, and the factored sector it copies
    source = dict(sorted({int(p): int(k) for k in factors for p in (k, partners[k])}.items()))
    sizes = [factors[k][1].size for k in source.values()]
    period = op.params.period
    lam = np.concatenate([factors[k][1] for k in source.values()])
    residuals = np.concatenate([factors[k][2] for k in source.values()])
    eps = fold_quasienergy(-np.angle(lam) / period, period)
    order = np.argsort(eps, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = np.repeat(list(source), sizes)[order]
    ranks = dict(zip(source, np.split(rank, np.cumsum(sizes)[:-1])))
    sector_vectors = np.zeros((reps.size, order.size), dtype=complex)
    for k in list(factors):
        # each q is dropped once its sector and the partner's copy are written
        q_mat = factors.pop(k)[0]
        keep = stab_sums[k] > 0
        sector_vectors[np.ix_(keep, ranks[k])] = q_mat
        if partners[k] != k:
            zz = op.zz_phase[reps[keep], np.newaxis]
            sector_vectors[np.ix_(keep, ranks[partners[k]])] = (zz * q_mat).conj()

    eps = np.ascontiguousarray(eps[order])
    lam = np.ascontiguousarray(lam[order])
    residuals = np.ascontiguousarray(residuals[order])
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


def _merge_levels(raw: list[float], period: float):
    """Fold, sort and merge coincident levels into (value, multiplicity)."""
    folded = sorted(float(fold_quasienergy(e, period)) for e in raw)
    merged: list[tuple[float, int]] = []
    for value in folded:
        if merged and abs(value - merged[-1][0]) <= 1e-12:
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((value, 1))
    # levels 1e-12-close across the zone edge would be distinct physically,
    # so no wrap-around merge is attempted
    return merged


def solvable_point_spectrum_1x4(j_y: float, period: float) -> list[tuple[float, int]]:
    """Closed-form quasienergy levels of the 4-site chain at kick angle pi/2.

    At theta_h = pi/2 the kick is a global spin flip (up to phase) and the
    propagator is solved by cat states over each basis pair, giving the
    levels -(j_y / 2) * sum_j s_j and their pi/T partners, s_j = +-1 over
    the three interior bonds.  Returns folded (value, multiplicity) pairs.
    """
    w = np.pi / period
    raw: list[float] = []
    for total, count in ((3, 1), (1, 3), (-1, 3), (-3, 1)):
        base = -0.5 * j_y * total
        raw.extend([base] * count)
        raw.extend([base + w] * count)
    return _merge_levels(raw, period)


def solvable_point_spectrum_2x2(
    j_y: float, j_x: float, period: float
) -> list[tuple[float, int]]:
    """Closed-form quasienergy levels of the 2x2 plaquette at kick angle pi/2.

    Same cat-state construction as the chain; the rung couplings enter
    through s_1, s_2 and the two leg bonds only act when the rung signs
    agree, via the (1 + s_1 s_2) factor.
    """
    w = np.pi / period
    raw: list[float] = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                base = -0.5 * j_y * (s1 + s2) - 0.5 * j_x * (1 + s1 * s2) * s3
                raw.append(base)
                raw.append(base + w)
    return _merge_levels(raw, period)
