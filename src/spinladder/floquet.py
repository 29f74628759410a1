"""One-period propagator for the kicked Ising ladder and its spectrum.

The drive alternates between an Ising half-period and a transverse kick,

    U = U_kick * U_zz,
    U_zz   = exp(+i sum_bonds theta_bond Z_a Z_b),   theta_bond = J_bond T / 2,
    U_kick = prod_k exp(-i theta_h X_k),             theta_h    = h T / 2,

so the interaction half acts first on a state.  U_zz is diagonal in the
computational basis and the kick factorizes over sites.  That gives a
matrix-free apply(): one elementwise multiply, then one matmul per
group of KICK_BLOCK_SITES sites with the cached kron power of the
one-site kick, O(2**N * 2**KICK_BLOCK_SITES) per period.  It also gives
any single element U[r, c] as zz_phase[c] times a product of N
single-site kick factors (entries()).

Quasienergies are eps = -arg(lambda) / T folded into (-pi/T, pi/T].
The spectrum is computed sector by sector: the global spin flip and the
lattice translations commute with U and split it into small blocks
before any dense factorization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import DENSE_SITE_CAP, Lattice, SizeCapError

#: eigenpair quality demanded of diagonalize()
RESIDUAL_TOL = 1e-10

#: sites per kron block of the matrix-free kick (rotate_x_all_sites)
KICK_BLOCK_SITES = 4

#: rows per gemm in the kick's lowest block of sites
KICK_GEMM_ROWS = 1024


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
def _kick_block(angle: float, width: int) -> np.ndarray:
    """The 2**width x 2**width kron power of exp(-i * angle * X).

    Cached: the kick angle is fixed per operator and the measurement
    angle per evolution, and building a block costs more than a kick.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    site = np.array([[c, -1j * s], [-1j * s, c]])
    block = np.ones((1, 1), dtype=complex)
    for _ in range(width):
        block = np.kron(block, site)
    block.setflags(write=False)
    return block


def rotate_x_all_sites(state: np.ndarray, n_sites: int, angle: float) -> np.ndarray:
    """Apply prod_k exp(-i * angle * X_k) in place and return the array.

    The caller must own ``state`` (complex, contiguous); it is overwritten.
    Sites are taken in groups of KICK_BLOCK_SITES (the last group may be
    narrower).  Group [k, k + w) multiplies the axis of bits k..k+w-1 by
    the cached 2**w x 2**w kron power of the one-site rotation, one
    matmul per group (for the lowest group a stack of gemms of at most
    KICK_GEMM_ROWS rows), writing into a second buffer; the two buffers
    alternate, so the kick costs O(2**N * 2**KICK_BLOCK_SITES) time and
    one extra state of memory.  Each output amplitude is one inner
    product of length 2**w, which gemm does not split across threads, so
    the result does not depend on the BLAS thread count.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    if s == 0.0:
        # angle is an exact multiple of pi, so each factor is +-identity
        if c != 1.0:
            state *= c ** n_sites
        return state
    src, dst = state, np.empty_like(state)
    for k in range(0, n_sites, KICK_BLOCK_SITES):
        width = min(KICK_BLOCK_SITES, n_sites - k)
        block = _kick_block(angle, width)
        if k == 0:
            # one gemm over all 4096 rows of a 16-site state makes
            # threaded OpenBLAS pack them at once: 1 MiB more peak memory
            shape = (-1, min(KICK_GEMM_ROWS, state.size >> width), 1 << width)
            np.matmul(src.reshape(shape), block.T, out=dst.reshape(shape))
        else:
            shape = (-1, 1 << width, 1 << k)
            np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not state:
        state[...] = src
    return state


@dataclass(frozen=True)
class FloquetOperator:
    """One-period propagator bound to a lattice and drive parameters.

    ``zz_phase`` is the diagonal of the interaction half; ``dense`` is
    the kron-built matrix, kept as an independent oracle for tests, or
    None.  Nothing in the package reads it: single elements come from
    entries() and states are propagated by apply().
    """

    lattice: Lattice
    params: DriveParams
    zz_phase: np.ndarray
    dense: np.ndarray | None = None

    def entries(self, rows, cols) -> np.ndarray:
        """U[rows, cols] for broadcastable integer index arrays.

        U[r, c] = prod_k site[bit_k(r), bit_k(c)] * zz_phase[c], with the
        single-site kick factors multiplied from site N-1 down to site 0,
        the order of the kron product in build_floquet, so every element
        equals the dense matrix's bit for bit.
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        c = math.cos(self.params.theta_h)
        s = math.sin(self.params.theta_h)
        site = np.array([[c, -1j * s], [-1j * s, c]])
        out = np.ones(np.broadcast_shapes(rows.shape, cols.shape), dtype=complex)
        for k in reversed(range(self.lattice.n_sites)):
            out *= site[(rows >> k) & 1, (cols >> k) & 1]
        out *= self.zz_phase[cols]
        return out

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One stroboscopic period on a state vector, matrix-free."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (self.lattice.dim,):
            raise ValueError(
                f"state must have shape ({self.lattice.dim},), got {state.shape}"
            )
        out = self.zz_phase * state
        return rotate_x_all_sites(out, self.lattice.n_sites, self.params.theta_h)


def build_floquet(
    lattice: Lattice, params: DriveParams, materialize_dense: bool = False
) -> FloquetOperator:
    """Assemble the one-period propagator.

    Only the diagonal interaction phase is precomputed; apply() and
    entries() work from it and the kick angle.  ``materialize_dense``
    also builds the full 2**N x 2**N matrix as a kron product (refused
    above DENSE_SITE_CAP sites), an oracle independent of entries().
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
        if lattice.n_sites > DENSE_SITE_CAP:
            raise SizeCapError(
                f"dense propagator refused for {lattice.n_sites} sites "
                f"(cap {DENSE_SITE_CAP})"
            )
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
class QuasienergySpectrum:
    """Full eigendecomposition of a Floquet operator.

    Quasienergies are sorted ascending in (-pi/T, pi/T]; eigenvector n is
    ``eigenvectors[:, n]`` with unit-circle eigenvalue ``eigenvalues[n]``
    and eigenpair residual ``residuals[n] = ||U v - lambda v||_2``.
    """

    quasienergies: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    residuals: np.ndarray
    period: float

    @property
    def dim(self) -> int:
        return self.quasienergies.size


@dataclass(frozen=True)
class SymmetryGroup:
    """Abelian symmetry group of the propagator, acting on basis indices.

    The group is a product of cyclic factors of the given ``orders``:
    the global spin flip P = prod_k X_k (order 2) first, then each
    accepted lattice translation.  Element e, numbered in C order over
    the exponent tuple (e_1, e_2, ...), maps basis index b to
    ``images[e, b]``; its character in sector k is
    exp(2 pi i sum_j k_j e_j / orders_j), with sectors numbered like
    the elements.
    """

    orders: tuple[int, ...]
    images: np.ndarray

    @property
    def order(self) -> int:
        return self.images.shape[0]

    def characters(self) -> np.ndarray:
        """(sector, element) table of the group characters."""
        # sectors and elements share one numbering of the exponent tuples
        exps = np.indices(self.orders).reshape(len(self.orders), -1)
        turns = sum(np.outer(e, e) % n / n for e, n in zip(exps, self.orders))
        return np.exp(2j * np.pi * turns)


def symmetry_group(lattice: Lattice) -> SymmetryGroup:
    """The spin flip and the lattice translations as basis permutations.

    P maps index b to b ^ (2**N - 1), which commutes with U because the
    kick is uniform and every Z_a Z_b phase is flip invariant.  A site
    permutation sigma maps b to sum_k bit_k(b) << sigma(k); the lattice
    supplies only translations that preserve the bond set, so each one
    commutes with both halves of the drive.
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


def diagonalize(op: FloquetOperator) -> QuasienergySpectrum:
    """Eigendecomposition of the propagator, one symmetry sector at a time.

    Sectors: the group of ``symmetry_group`` (global spin flip plus the
    translations the lattice admits; nothing is configured) commutes
    with U.  Each basis state belongs to an orbit, represented by its
    smallest image r.  In sector k the state

        |r, k> = sum_g conj(chi_k(g)) |g r> / sqrt(|G| S_r),

    with stabilizer sum S_r = sum over g fixing r of chi_k(g), exists
    when S_r != 0.  The block

        U_k[a, b] = <r_a, k| U |r_b, k>
                  = sum_g conj(chi_k(g)) U[r_a, g r_b] / sqrt(S_a S_b)

    is gathered element by element through ``op.entries`` (the dense
    matrix is neither needed nor read), at N |G| n**2 cost for n orbit
    representatives, and factorized on its own; the sector bases are
    orthonormal and jointly complete, so embedding the block
    eigenvectors gives a full-basis unitary V.  The embedded V is a
    dense D x D matrix, hence the DENSE_SITE_CAP refusal.

    Each block goes through a complex Schur decomposition.  A unitary
    block is normal, so its Schur form is diagonal to machine precision
    and the Schur basis is orthonormal even inside degenerate clusters
    (plain eigensolvers lose orthogonality there).  Per block, the
    eigenvalue moduli must lie within RESIDUAL_TOL of 1, and the column
    norms of the strict upper triangle, which equal the block residuals
    ||U_k q - lambda q|| up to LAPACK backward error, within
    RESIDUAL_TOL.  Because the embedding is an isometry that intertwines
    U with its blocks, a block residual is also the full-basis residual
    ||U v_n - lambda_n v_n|| of the embedded vector.

    Levels of all sectors are sorted together by quasienergy (stable,
    so ties keep sector order).
    """
    if op.lattice.n_sites > DENSE_SITE_CAP:
        raise SizeCapError(
            f"diagonalize refused for {op.lattice.n_sites} sites "
            f"(cap {DENSE_SITE_CAP}): the eigenvectors fill a dense matrix"
        )
    dim = op.lattice.dim
    group = symmetry_group(op.lattice)
    images = group.images
    chars = group.characters()

    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    fixed = images[:, reps] == reps
    # S_r per sector: the stabilizer size when chi is trivial on it, else 0
    stab_sums = np.rint((chars @ fixed).real)
    # gathered[g, a, b] = U[r_a, g(r_b)]
    gathered = op.entries(reps[np.newaxis, :, np.newaxis], images[:, reps][:, np.newaxis, :])
    blocks = np.einsum("kg,gab->kab", chars.conj(), gathered)

    sectors, lam_parts, residual_parts = [], [], []
    for k in range(group.order):
        keep = stab_sums[k] > 0
        if not keep.any():
            continue
        norm = np.sqrt(stab_sums[k, keep])
        block = blocks[k][np.ix_(keep, keep)] / np.outer(norm, norm)
        t_mat, q_mat = scipy.linalg.schur(block, output="complex")
        lam = np.diag(t_mat).copy()
        modulus_dev = np.abs(np.abs(lam) - 1.0)
        if modulus_dev.max() > RESIDUAL_TOL:
            raise NumericalToleranceError(
                f"eigenvalue modulus deviates from 1 by {modulus_dev.max():.3e} "
                f"in sector {k}"
            )
        residuals = np.linalg.norm(np.triu(t_mat, 1), axis=0)
        if residuals.max() > RESIDUAL_TOL:
            raise NumericalToleranceError(
                f"worst eigenpair residual {residuals.max():.3e} exceeds "
                f"{RESIDUAL_TOL:.1e} in sector {k}"
            )
        sectors.append((k, keep, q_mat))
        lam_parts.append(lam)
        residual_parts.append(residuals)

    period = op.params.period
    lam = np.concatenate(lam_parts)
    residuals = np.concatenate(residual_parts)
    eps = fold_quasienergy(-np.angle(lam) / period, period)
    order = np.argsort(eps, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)

    # Embedding: state b = g r of orbit r has amplitude
    # sum_{g' r = b} conj(chi(g')) / sqrt(|G| S_r) = conj(chi(g)) sqrt(|stab r| / |G|)
    # in |r, k>, since chi is constant on the coset g * stab(r).
    carrier = np.argmax(images[:, reps[orbit]] == np.arange(dim), axis=0)
    weight = np.sqrt(fixed.sum(axis=0)[orbit] / group.order)
    vectors = np.zeros((dim, dim), dtype=complex)
    start = 0
    for k, keep, q_mat in sectors:
        cols = slot[start:start + q_mat.shape[1]]
        start += q_mat.shape[1]
        rows = np.flatnonzero(keep[orbit])
        coef = chars[k, carrier[rows]].conj() * weight[rows]
        position = np.cumsum(keep) - 1
        vectors[np.ix_(rows, cols)] = coef[:, np.newaxis] * q_mat[position[orbit[rows]]]

    eps = np.ascontiguousarray(eps[order])
    lam = np.ascontiguousarray(lam[order])
    residuals = np.ascontiguousarray(residuals[order])
    for arr in (eps, vectors, lam, residuals):
        arr.setflags(write=False)
    return QuasienergySpectrum(
        quasienergies=eps,
        eigenvectors=vectors,
        eigenvalues=lam,
        residuals=residuals,
        period=period,
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
