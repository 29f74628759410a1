"""One-period propagator for the kicked Ising ladder and its spectrum.

The drive alternates between an Ising half-period and a transverse kick,

    U = U_kick * U_zz,
    U_zz   = exp(+i sum_bonds theta_bond Z_a Z_b),   theta_bond = J_bond T / 2,
    U_kick = prod_k exp(-i theta_h X_k),             theta_h    = h T / 2,

so the interaction half acts first on a state.  U_zz is diagonal in the
computational basis and the kick factorizes over sites, which gives a
matrix-free apply() costing O((N + 1) 2**N) per period.

Quasienergies are eps = -arg(lambda) / T folded into (-pi/T, pi/T].
The spectrum is computed sector by sector: the global spin flip and the
lattice translations commute with U and split it into small blocks
before any dense factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import DENSE_SITE_CAP, Lattice, SizeCapError

#: eigenpair quality demanded of diagonalize()
RESIDUAL_TOL = 1e-10


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


def rotate_x_all_sites(state: np.ndarray, n_sites: int, angle: float) -> np.ndarray:
    """Apply prod_k exp(-i * angle * X_k) in place and return the array.

    The caller must own ``state`` (complex, contiguous); it is overwritten.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    if s == 0.0:
        # angle is an exact multiple of pi, so each factor is +-identity
        if c != 1.0:
            state *= c ** n_sites
        return state
    for k in range(n_sites):
        view = state.reshape(-1, 2, 1 << k)
        upper = view[:, 0, :].copy()
        lower = view[:, 1, :]
        view[:, 0, :] = c * upper - 1j * s * lower
        view[:, 1, :] = c * lower - 1j * s * upper
    return state


@dataclass(frozen=True)
class FloquetOperator:
    """One-period propagator bound to a lattice and drive parameters.

    ``zz_phase`` is the diagonal of the interaction half; ``dense`` is
    the materialized matrix or None for matrix-free use.
    """

    lattice: Lattice
    params: DriveParams
    zz_phase: np.ndarray
    dense: np.ndarray | None = None

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

    With ``materialize_dense`` the full 2**N x 2**N matrix is built
    (refused above DENSE_SITE_CAP sites); otherwise only the diagonal
    interaction phase is precomputed and apply() works matrix-free.
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

    is gathered from the dense U, at D**2 total cost, and factorized on
    its own; the sector bases are orthonormal and jointly complete, so
    embedding the block eigenvectors gives a full-basis unitary V.

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
    if op.dense is None:
        raise ValueError(
            "diagonalize needs a dense propagator; rebuild with materialize_dense=True"
        )
    u = np.asarray(op.dense)
    dim = u.shape[0]
    group = symmetry_group(op.lattice)
    images = group.images
    chars = group.characters()

    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    fixed = images[:, reps] == reps
    # S_r per sector: the stabilizer size when chi is trivial on it, else 0
    stab_sums = np.rint((chars @ fixed).real)
    # gathered[g, a, b] = U[r_a, g(r_b)]
    gathered = u[reps[np.newaxis, :, np.newaxis], images[:, reps][:, np.newaxis, :]]
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
    """Per-state deviation from exact pi/T pairing of the spectrum.

    ``deviations[n]`` is the circular distance from quasienergy n shifted
    by pi/T to its nearest neighbour in the spectrum; min_dev and max_dev
    are its extremes.  Exact pairing makes every deviation zero.
    """

    min_dev: float
    max_dev: float
    deviations: np.ndarray


def spacing_stats(spectrum: QuasienergySpectrum) -> SpacingStats:
    """Distance of each level's pi/T-shifted partner to the spectrum.

    Folding is circular: distances are measured on the quasienergy circle
    of circumference 2 pi/T, so pairs straddling the zone edge are still
    recognized.  Runs in O(D log D).
    """
    eps = np.asarray(spectrum.quasienergies, dtype=float)
    if eps.size == 0:
        raise ValueError("empty spectrum")
    period = spectrum.period
    w = np.pi / period
    zone = 2.0 * w

    ordered = np.sort(eps)
    targets = np.asarray(fold_quasienergy(eps + w, period))
    pos = np.searchsorted(ordered, targets)
    n = eps.size
    left = (pos - 1) % n
    right = pos % n

    def circ_dist(a, b):
        d = np.abs(a - b)
        return np.minimum(d, zone - d)

    deviations = np.minimum(
        circ_dist(targets, ordered[left]), circ_dist(targets, ordered[right])
    )
    deviations.setflags(write=False)
    return SpacingStats(
        min_dev=float(deviations.min()),
        max_dev=float(deviations.max()),
        deviations=deviations,
    )


def _merge_levels(raw: list[float], period: float, tol: float = 1e-12):
    """Fold, sort and merge coincident levels into (value, multiplicity)."""
    folded = sorted(float(fold_quasienergy(e, period)) for e in raw)
    merged: list[tuple[float, int]] = []
    for value in folded:
        if merged and abs(value - merged[-1][0]) <= tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((value, 1))
    # levels tol-close across the zone edge would be distinct physically,
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
