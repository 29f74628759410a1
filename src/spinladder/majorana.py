"""Jordan-Wigner Majorana operators on the ladder and corner-mode diagnostics.

Each site (i, j) carries two Majorana operators built from a string of
sigma_x over all preceding sites in the column-major order (all columns
left of i, then rows below j within column i), terminated by sigma_z
(kind A) or sigma_y (kind B).  With the lattice's contiguous-prefix site
ordering the string is simply X on every site of lower flat index.

The two lattice-corner operators, A at (1, 1) and B at (n_x, n_y),
anticommute with the propagator exactly at kick angle pi/2 and are the
reference operators for the corner spectral functions.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .floquet import RESIDUAL_TOL, FloquetOperator, QuasienergySpectrum, fold_quasienergy
from .lattice import DENSE_SITE_CAP, Lattice, check_site_cap
from .pauli import PauliString

#: dense dictionary/anticommutator verification refuses above this size
DICTIONARY_DENSE_CAP = 8

#: largest dense deviation verify_dictionary accepts for an identity
DICTIONARY_TOL = 1e-13


def majorana(lattice: Lattice, kind: str, i: int, j: int) -> PauliString:
    """Jordan-Wigner Majorana operator at site (i, j).

    The X string covers every site with flat index below idx(i, j); the
    terminal factor is Z (kind A) or Y (kind B) at the site itself.
    """
    if kind not in ("A", "B"):
        raise ValueError(f"kind must be 'A' or 'B', got {kind!r}")
    idx = lattice.site_index(i, j)
    n = lattice.n_sites
    prefix = (1 << idx) - 1
    bit = 1 << idx
    if kind == "A":
        return PauliString(n, x_mask=prefix, z_mask=bit)
    # Y terminal: i * X Z at the site
    return PauliString(n, x_mask=prefix | bit, z_mask=bit, phase=1j)


def corner_modes(lattice: Lattice) -> tuple[PauliString, PauliString]:
    """The two corner operators: A at (1, 1) and B at (n_x, n_y)."""
    return (
        majorana(lattice, "A", 1, 1),
        majorana(lattice, "B", lattice.n_x, lattice.n_y),
    )


def gamma_pbc(lattice: Lattice) -> PauliString:
    """Boundary operator gamma_B(1) * prod_{1<j<N} [gamma_A(j) gamma_B(j)] * gamma_A(N).

    This is the nonlocal factor through which the wrap bond of a periodic
    chain acts in the Majorana language: Z_N Z_1 = i^{N-1} gamma_pbc, and
    the operator commutes with the end modes gamma_A(1) and gamma_B(N).
    Defined for chains (n_x = 1) with at least two sites; the product is
    taken in the written order, so the overall phase is fixed.
    """
    if lattice.n_x != 1:
        raise ValueError("gamma_pbc is defined for 1 x N chains")
    n = lattice.n_y
    if n < 2:
        raise ValueError("chain must have at least two sites")
    out = majorana(lattice, "B", 1, 1)
    for j in range(2, n):
        out = out * majorana(lattice, "A", 1, j)
        out = out * majorana(lattice, "B", 1, j)
    return out * majorana(lattice, "A", 1, n)


@dataclass(frozen=True)
class DictionaryReport:
    """Outcome of the spin-to-Majorana dictionary verification."""

    identities_checked: int
    max_deviation: float
    failures: tuple[str, ...]


def _dense_product(factors: list[PauliString]) -> np.ndarray:
    """The product of the factors' dense matrices, left to right."""
    return functools.reduce(np.matmul, [f.to_matrix() for f in factors])


def verify_dictionary(lattice: Lattice) -> DictionaryReport:
    """Check the spin-to-Majorana operator identities on every site and bond.

    Site identity: sigma_x = i gamma_A gamma_B.  Each bond of
    ``lattice.bonds``, with flat ends a < b, couples through the string
    of every site between them,

        sigma_z(b) sigma_z(a) = [i gamma_B(a) gamma_A(b)]
            * prod_{a<m<b} [i gamma_A(m) gamma_B(m)]

    A rung has no site between its ends, a leg has the rest of its
    column and the start of the next one, and a wrap bond goes the whole
    way round.  Every Majorana pair carries the factor i that makes it a
    spin operator (each string factor is a sigma_x).  Each side of an
    identity is a list of factors, multiplied once in exact string
    arithmetic and once as the product of the factors' dense matrices,
    so the dense check also catches a wrong dense factor; the dense
    sides must agree to within DICTIONARY_TOL.
    """
    check_site_cap(lattice.n_sites, DICTIONARY_DENSE_CAP, "dense dictionary check")
    n = lattice.n_sites
    checked = 0
    worst = 0.0
    failures: list[str] = []

    def record(name: str, lhs: list[PauliString], rhs: list[PauliString]) -> None:
        nonlocal checked, worst
        checked += 1
        dev = float(np.max(np.abs(_dense_product(lhs) - _dense_product(rhs))))
        worst = max(worst, dev)
        exact = functools.reduce(operator.mul, lhs) == functools.reduce(operator.mul, rhs)
        if not exact or dev > DICTIONARY_TOL:
            strings = "agree" if exact else "differ"
            failures.append(f"{name}: strings {strings}, dense deviation {dev:.3e}")

    def site(k: int) -> tuple[int, int]:
        return k // lattice.n_y + 1, k % lattice.n_y + 1

    def ij_pair(kind1, k1, kind2, k2) -> list[PauliString]:
        """The factors i gamma_1 and gamma_2 of i gamma_1 gamma_2, at flat sites k1, k2."""
        g1 = majorana(lattice, kind1, *site(k1))
        g2 = majorana(lattice, kind2, *site(k2))
        return [replace(g1, phase=1j * g1.phase), g2]

    for k in range(n):
        i, j = site(k)
        record(f"sigma_x({i},{j})", [PauliString.single(n, k, "x")], ij_pair("A", k, "B", k))

    for bond in lattice.bonds:
        a, b = sorted((bond.a, bond.b))
        rhs = ij_pair("B", a, "A", b)
        for m in range(a + 1, b):
            rhs += ij_pair("A", m, "B", m)
        zb, za = PauliString.single(n, b, "z"), PauliString.single(n, a, "z")
        record(f"bond {site(bond.a)}-{site(bond.b)}", [zb, za], rhs)

    return DictionaryReport(
        identities_checked=checked,
        max_deviation=worst,
        failures=tuple(failures),
    )


def mode_residual(
    op: FloquetOperator, mode: PauliString | np.ndarray, target: str
) -> float:
    """Max-norm residual of a candidate quasienergy excitation.

    Returns ``max |U G U^dag - sigma G|`` with sigma = +1 for target
    "zero" (the operator should commute with U) and sigma = -1 for
    target "pi" (it should anticommute).  Zero certifies an exact mode.
    U is assembled by ``op.apply`` on the identity, whose rows are the
    columns of U, so a matrix-free operator serves; U and G are dense,
    hence the DENSE_SITE_CAP refusal.
    """
    if target not in ("zero", "pi"):
        raise ValueError(f"target must be 'zero' or 'pi', got {target!r}")
    check_site_cap(op.lattice.n_sites, DENSE_SITE_CAP, "mode_residual")
    if isinstance(mode, PauliString):
        g = mode.to_matrix()
    else:
        g = np.asarray(mode)
        if g.shape != (op.lattice.dim, op.lattice.dim):
            raise ValueError("mode matrix has wrong shape for this lattice")
    u = op.apply(np.eye(op.lattice.dim, dtype=complex)).T
    conj = u @ g @ u.conj().T
    sigma = 1.0 if target == "zero" else -1.0
    return float(np.max(np.abs(conj - sigma * g)))


@dataclass(frozen=True)
class SpectralFunctionConfig:
    """Sampling parameters for the corner spectral functions.

    ``chi`` eigenstates are sampled with a deterministic uniform stride
    over the quasienergy-sorted spectrum (indices floor(k * D / chi));
    ``window`` is the half-width of the quasienergy windows around 0 and
    +-pi/T over which spectral mass is accumulated.
    """

    chi: int
    window: float

    def __post_init__(self) -> None:
        if isinstance(self.chi, bool) or not isinstance(self.chi, numbers.Integral) or self.chi < 1:
            raise ValueError(f"chi must be a positive integer, got {self.chi!r}")
        if not self.window > 0:  # NaN fails too
            raise ValueError(f"window must be positive, got {self.window!r}")

    def check(self, dim: int, period: float) -> None:
        """Reject sampling that a spectrum of ``dim`` levels and drive
        ``period`` cannot serve: more samples than levels, or windows
        around 0 and pi/T that overlap."""
        if self.chi > dim:
            raise ValueError(f"chi = {self.chi} exceeds spectrum size {dim}")
        w = np.pi / period
        if self.window >= 0.5 * w:
            raise ValueError(
                f"window {self.window} too wide for zone half-width {w:.4f}; "
                "the 0 and pi/T windows would overlap"
            )


@dataclass(frozen=True)
class SpectralFunctions:
    """Windowed corner-mode spectral masses; operator 1 is the A corner
    at (1, 1), operator 2 the B corner at (n_x, n_y)."""

    s0_1: float
    s0_2: float
    spi_1: float
    spi_2: float


def corner_spectral_functions(
    spectrum: QuasienergySpectrum,
    lattice: Lattice,
    config: SpectralFunctionConfig,
) -> SpectralFunctions:
    """Spectral weight of the corner operators near 0 and pi/T gaps.

    For each sampled eigenstate n, the masses |<n|gamma|m>|^2 are summed
    over partner states m whose wrapped quasienergy gap lies within
    ``window`` of 0 (s0) or of +-pi/T (spi); the +pi/T and -pi/T windows
    coincide on the quasienergy circle and are counted once.  Each
    operator's normalization makes its total sampled mass over the full
    zone equal 1, so with a unitary corner operator the normalizer is
    1/chi up to rounding noise.

    The sampled states are taken by rank in the sorted spectrum, and a
    rank gets the mean mass over its cluster C of levels that the
    eigenpair guard cannot tell apart (_level_clusters),

        mass_n(m) = sum_{c in C} |<v_m|gamma v_c>|^2 / |C|,

    with the windows taken from the sampled level eps_n.  Summed over a
    window W this is tr(P_W gamma P_C gamma^dagger) / |C|, the same for
    every orthonormal basis of C and of the clusters in W, so the
    weights do not depend on which vectors of a degenerate cluster the
    eigensolver returned.

    Only the members of the sampled ranks' clusters are embedded in the
    full basis (spectrum.vectors); each corner string acts on that
    D x c block in one call, and spectrum.overlaps projects the images
    onto every sector basis, which gives <v_m|gamma v_c> for all m.
    overlaps gives each column the same bits whatever is projected
    beside it, so a cluster's masses do not depend on which other
    clusters are sampled.  No D x D matrix is built.  The overlaps are
    the only BLAS products here, and they run on one thread, so the
    weights do not depend on the thread count.
    """
    dim = spectrum.dim
    config.check(dim, spectrum.period)
    w = np.pi / spectrum.period
    sampled = (np.arange(config.chi) * dim) // config.chi
    eps = spectrum.quasienergies
    cluster = _level_clusters(eps, spectrum.period)
    # the sampled ranks' clusters, and their members grouped by cluster
    picked, row = np.unique(cluster[sampled], return_inverse=True)
    members = np.flatnonzero(np.isin(cluster, picked))
    members = members[np.argsort(cluster[members], kind="stable")]
    starts = np.searchsorted(cluster[members], picked)
    sizes = np.diff(np.append(starts, members.size))[:, np.newaxis]

    # wrapped gap eps_n - eps_m for sampled n against every m
    gaps = fold_quasienergy(eps[sampled, None] - eps[None, :], spectrum.period)
    in_zero = np.abs(gaps) <= config.window
    in_pi = (w - np.abs(gaps)) <= config.window

    vecs = spectrum.vectors(members)
    out = []
    for mode in corner_modes(lattice):
        # row c for each member c, column m for every rank m
        member_masses = np.abs(spectrum.overlaps(mode.apply(vecs)).T) ** 2
        # (chi, dim): row n, column m, each row the mean over its cluster
        masses = (np.add.reduceat(member_masses, starts) / sizes)[row]
        total = masses.sum()
        s0 = masses[in_zero].sum() / total
        spi = masses[in_pi].sum() / total
        out.append((s0, spi))
    return SpectralFunctions(
        s0_1=float(out[0][0]),
        s0_2=float(out[1][0]),
        spi_1=float(out[0][1]),
        spi_2=float(out[1][1]),
    )


def _level_clusters(quasienergies: np.ndarray, period: float) -> np.ndarray:
    """Cluster number of every level of an ascending spectrum.

    A cluster is a run of levels with adjacent gaps of at most
    2 RESIDUAL_TOL / T: each level is within RESIDUAL_TOL / T of a true
    one, so levels that close are not certified distinct.  The levels on
    both sides of the zone edge +-pi/T are adjacent too, so a run
    through the edge is one cluster, numbered 0.
    """
    tol = 2.0 * RESIDUAL_TOL / period
    eps = np.asarray(quasienergies)
    cluster = np.concatenate([[0], np.cumsum(np.diff(eps) > tol)])
    if cluster[-1] > 0 and eps[0] + 2.0 * np.pi / period - eps[-1] <= tol:
        cluster[cluster == cluster[-1]] = 0
    return cluster
