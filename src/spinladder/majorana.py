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

from dataclasses import dataclass

import numpy as np

from .floquet import FloquetOperator, QuasienergySpectrum, fold_quasienergy
from .lattice import Lattice, SizeCapError
from .pauli import PauliString

#: dense dictionary/anticommutator verification refuses above this size
DICTIONARY_DENSE_CAP = 8


@dataclass(frozen=True)
class MajoranaMode:
    """A single Majorana operator: kind 'A' or 'B' at 1-based site (i, j)."""

    kind: str
    site: tuple[int, int]
    string: PauliString


def majorana(lattice: Lattice, kind: str, i: int, j: int) -> MajoranaMode:
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
        string = PauliString(n, x_mask=prefix, z_mask=bit)
    else:
        # Y terminal: i * X Z at the site
        string = PauliString(n, x_mask=prefix | bit, z_mask=bit, phase=1j)
    return MajoranaMode(kind=kind, site=(i, j), string=string)


def corner_modes(lattice: Lattice) -> tuple[MajoranaMode, MajoranaMode]:
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
    out = majorana(lattice, "B", 1, 1).string
    for j in range(2, n):
        out = out * majorana(lattice, "A", 1, j).string
        out = out * majorana(lattice, "B", 1, j).string
    return out * majorana(lattice, "A", 1, n).string


@dataclass(frozen=True)
class DictionaryReport:
    """Outcome of the spin-to-Majorana dictionary verification."""

    identities_checked: int
    max_deviation: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _dense_gap(left: PauliString, right_dense: np.ndarray) -> float:
    return float(np.max(np.abs(left.to_matrix() - right_dense)))


def verify_dictionary(lattice: Lattice, tol: float = 1e-13) -> DictionaryReport:
    """Check the spin-to-Majorana operator identities on every site and bond.

    Site identity: sigma_x = i gamma_A gamma_B.  Rung pairs:
    sigma_z(i,j+1) sigma_z(i,j) = i gamma_B(i,j) gamma_A(i,j+1).  Leg
    pairs couple through the nonlocal string

        sigma_z(i+1,j) sigma_z(i,j) = [i gamma_B(i,j) gamma_A(i+1,j)]
            * prod_{j<n<=N_y} [i gamma_A(i,n) gamma_B(i,n)]
            * prod_{m<j}      [i gamma_A(i+1,m) gamma_B(i+1,m)]

    where every Majorana pair carries the factor i that makes it a spin
    operator (each string factor is a sigma_x).  All identities are
    evaluated both in exact string arithmetic and densely.
    """
    if lattice.n_sites > DICTIONARY_DENSE_CAP:
        raise SizeCapError(
            f"dense dictionary check refused for {lattice.n_sites} sites "
            f"(cap {DICTIONARY_DENSE_CAP})"
        )
    n = lattice.n_sites
    checked = 0
    worst = 0.0
    failures: list[str] = []

    def record(name: str, lhs: PauliString, rhs: PauliString) -> None:
        nonlocal checked, worst
        checked += 1
        dev = _dense_gap(lhs, rhs.to_matrix())
        worst = max(worst, dev)
        exact = (
            lhs.x_mask == rhs.x_mask
            and lhs.z_mask == rhs.z_mask
            and lhs.phase == rhs.phase
        )
        if not exact or dev > tol:
            failures.append(f"{name}: string mismatch, dense deviation {dev:.3e}")

    def ij_pair(kind1, s1, kind2, s2, scale=1j):
        g1 = majorana(lattice, kind1, *s1).string
        g2 = majorana(lattice, kind2, *s2).string
        prod = g1 * g2
        return PauliString(n, prod.x_mask, prod.z_mask, scale * prod.phase)

    for i in range(1, lattice.n_x + 1):
        for j in range(1, lattice.n_y + 1):
            lhs = PauliString.single(n, lattice.site_index(i, j), "x")
            record(f"sigma_x({i},{j})", lhs, ij_pair("A", (i, j), "B", (i, j)))

    for i in range(1, lattice.n_x + 1):
        for j in range(1, lattice.n_y):
            za = PauliString.single(n, lattice.site_index(i, j + 1), "z")
            zb = PauliString.single(n, lattice.site_index(i, j), "z")
            record(f"rung({i},{j})", za * zb, ij_pair("B", (i, j), "A", (i, j + 1)))

    for i in range(1, lattice.n_x):
        for j in range(1, lattice.n_y + 1):
            za = PauliString.single(n, lattice.site_index(i + 1, j), "z")
            zb = PauliString.single(n, lattice.site_index(i, j), "z")
            rhs = ij_pair("B", (i, j), "A", (i + 1, j))
            for m in range(j + 1, lattice.n_y + 1):
                rhs = rhs * ij_pair("A", (i, m), "B", (i, m))
            for m in range(1, j):
                rhs = rhs * ij_pair("A", (i + 1, m), "B", (i + 1, m))
            record(f"leg({i},{j})", za * zb, rhs)

    return DictionaryReport(
        identities_checked=checked,
        max_deviation=worst,
        failures=tuple(failures),
    )


def mode_residual(
    op: FloquetOperator, mode: MajoranaMode | PauliString | np.ndarray, target: str
) -> float:
    """Max-norm residual of a candidate quasienergy excitation.

    Returns ``max |U G U^dag - sigma G|`` with sigma = +1 for target
    "zero" (the operator should commute with U) and sigma = -1 for
    target "pi" (it should anticommute).  Zero certifies an exact mode.
    """
    if target not in ("zero", "pi"):
        raise ValueError(f"target must be 'zero' or 'pi', got {target!r}")
    if op.dense is None:
        raise ValueError("mode_residual needs a dense propagator")
    if isinstance(mode, MajoranaMode):
        mode = mode.string
    if isinstance(mode, PauliString):
        g = mode.to_matrix()
    else:
        g = np.asarray(mode)
        if g.shape != (op.lattice.dim, op.lattice.dim):
            raise ValueError("mode matrix has wrong shape for this lattice")
    u = np.asarray(op.dense)
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
        if self.chi < 1:
            raise ValueError("chi must be a positive integer")
        if self.window <= 0:
            raise ValueError("window must be positive")


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
    """
    dim = spectrum.dim
    if config.chi > dim:
        raise ValueError(f"chi = {config.chi} exceeds spectrum size {dim}")
    w = np.pi / spectrum.period
    if config.window >= 0.5 * w:
        raise ValueError(
            f"window {config.window} too wide for zone half-width {w:.4f}; "
            "the 0 and pi/T windows would overlap"
        )

    sampled = (np.arange(config.chi) * dim) // config.chi
    eps = spectrum.quasienergies
    vecs = spectrum.eigenvectors

    # wrapped gap eps_n - eps_m for sampled n against every m
    gaps = fold_quasienergy(eps[sampled, None] - eps[None, :], spectrum.period)
    in_zero = np.abs(gaps) <= config.window
    in_pi = (w - np.abs(gaps)) <= config.window

    out = []
    for mode in corner_modes(lattice):
        gv = np.column_stack([mode.string.apply(vecs[:, m]) for m in sampled])
        masses = np.abs(gv.conj().T @ vecs) ** 2  # (chi, dim): row n, column m
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
