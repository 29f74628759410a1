"""Closed-form edge-mode analysis of the kicked Ising chain (T = 2 units).

All formulas below work in the convention where the kick and bond angles
equal the couplings themselves (period T = 2, so h T / 2 = h), and the
propagator enters through cos/sin of the doubled angles 2h and 2J.

The candidate pi-mode localized at the left end of an open chain,

    gamma = gamma_A(1) + sum_{j >= 1} [ a_j gamma_A(j+1) + b_j gamma_B(j) ],

has coefficients generated by a 2x2 transfer matrix: (a_j, b_j) =
E_minus^{j-1} (a_1, b_1).  The mode is normalizable iff |E_minus| < 1,
which happens exactly for h + J > pi/2; a zero mode exists for J > h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import Lattice
from .majorana import majorana

#: |sin 2h| or |sin 2J| below this counts as a singular parameter line
SINGULAR_TOL = 1e-12

#: equality tolerance for phase boundaries and the J = pi/2 line's pi-mode test
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class TransferMatrix:
    """Transfer matrix of the edge-mode recursion at couplings (h, j).

    On the singular parameter lines (sin 2h sin 2J = 0) the matrix and
    eigenvalues are tagged rather than divided out; the eigenvectors
    only involve J and stay valid.
    """

    singular: bool
    matrix: np.ndarray
    e_plus: float
    e_minus: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray


def transfer_matrix(h: float, j: float) -> TransferMatrix:
    """Edge-mode transfer matrix, its eigenvalues E_+- and eigenvectors.

    Closed forms: E_+- = -[1 + cos2h cos2J -+ (cos2h + cos2J)] / (sin2h sin2J),
    with eigenvectors (sin J, cos J) and (cos J, -sin J) independent of h.
    """
    c = math.cos(2.0 * h)
    s = math.sin(2.0 * h)
    cj = math.cos(2.0 * j)
    sj = math.sin(2.0 * j)
    psi_plus = np.array([math.sin(j), math.cos(j)])
    psi_minus = np.array([math.cos(j), -math.sin(j)])
    for arr in (psi_plus, psi_minus):
        arr.setflags(write=False)

    singular = abs(s) < SINGULAR_TOL or abs(sj) < SINGULAR_TOL
    if singular:
        mat = np.full((2, 2), np.nan)
        e_plus = e_minus = math.nan
    else:
        den = s * sj
        mat = np.array(
            [
                [-(1.0 + 2.0 * c * cj + cj * cj) / den, sj * (c + cj) / den],
                [sj * (c + cj) / den, -sj * sj / den],
            ]
        )
        e_plus = -(1.0 + c * cj - (c + cj)) / den
        e_minus = -(1.0 + c * cj + (c + cj)) / den
    mat.setflags(write=False)
    return TransferMatrix(
        singular=singular,
        matrix=mat,
        e_plus=e_plus,
        e_minus=e_minus,
        psi_plus=psi_plus,
        psi_minus=psi_minus,
    )


@dataclass(frozen=True)
class MpmSolution:
    """Unnormalized edge-mode coefficients a_j, b_j for j = 1..length.

    The leading gamma_A(1) coefficient is fixed at 1 and not stored.
    ``norm`` is the Majorana-orthonormal norm sqrt(1 + sum(a^2 + b^2))
    of the truncated mode; ``normalizable`` reflects |decay| < 1.
    """

    h: float
    j: float
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    seed: tuple[float, float]
    decay: float
    normalizable: bool
    norm: float


def mpm_solution(h: float, j: float, length: int) -> MpmSolution:
    """Closed-form pi-mode coefficients on an open chain.

    The seed is (a_1, b_1) = -cos(h)/(sin h sin J) * (cos J, -sin J) and
    each subsequent pair picks up one factor of E_minus.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if abs(math.sin(h)) < SINGULAR_TOL or abs(math.sin(j)) < SINGULAR_TOL:
        raise ValueError(
            f"singular parameters (h={h}, j={j}); the seed divides by "
            "sin h and sin J"
        )
    if abs(math.cos(h)) <= SINGULAR_TOL:
        # kick angle pi/2: the seed vanishes and the mode is gamma_A(1) alone
        seed = (0.0, 0.0)
        a = np.zeros(length)
        b = np.zeros(length)
        decay = 0.0
    else:
        tm = transfer_matrix(h, j)
        if tm.singular:
            raise ValueError(
                f"singular parameters (h={h}, j={j}); the transfer matrix "
                "divides by sin 2J"
            )
        prefactor = -math.cos(h) / (math.sin(h) * math.sin(j))
        seed = (prefactor * tm.psi_minus[0], prefactor * tm.psi_minus[1])
        powers = tm.e_minus ** np.arange(length)
        a = seed[0] * powers
        b = seed[1] * powers
        decay = tm.e_minus
    for arr in (a, b):
        arr.setflags(write=False)
    norm = math.sqrt(1.0 + float(np.sum(a * a + b * b)))
    return MpmSolution(
        h=h,
        j=j,
        a_coeffs=a,
        b_coeffs=b,
        seed=seed,
        decay=decay,
        normalizable=abs(decay) < 1.0,
        norm=norm,
    )


def mpm_ansatz_operator(lattice: Lattice, solution: MpmSolution) -> np.ndarray:
    """Dense realization of the truncated edge-mode ansatz on a chain.

    Builds gamma_A(1) + sum_{j=1}^{N-1} [(-1)^j a_j gamma_A(j+1)
    + (-1)^(j-1) b_j gamma_B(j)] on a 1 x N lattice, using the first N-1
    coefficient pairs, divided by its Majorana norm.  The coefficient
    recursion is stated in a frame whose propagator carries the opposite
    interaction sign; for the ordering of build_floquet, U = U_kick U_zz
    with the interaction half acting first, that frame maps onto ours
    under J -> -J, which leaves (h, |E_minus|, b_1) fixed and alternates
    the signs of successive coefficient pairs.  Dense conjugation of the
    Majorana basis confirms the alternating assembly: its leading B/A
    weight cot(h) is the eigenvector ratio of the conjugation map
    restricted to one cell.
    """
    if lattice.n_x != 1:
        raise ValueError("ansatz operator is defined for 1 x N chains")
    n = lattice.n_y
    if solution.a_coeffs.size < n - 1:
        raise ValueError(
            f"solution holds {solution.a_coeffs.size} pairs, need {n - 1}"
        )
    total = majorana(lattice, "A", 1, 1).to_matrix()
    for jj in range(1, n):
        flip = -1.0 if jj % 2 else 1.0
        total += flip * solution.a_coeffs[jj - 1] * majorana(lattice, "A", 1, jj + 1).to_matrix()
        total -= flip * solution.b_coeffs[jj - 1] * majorana(lattice, "B", 1, jj).to_matrix()
    used = slice(0, n - 1)
    scale = math.sqrt(
        1.0
        + float(np.sum(solution.a_coeffs[used] ** 2))
        + float(np.sum(solution.b_coeffs[used] ** 2))
    )
    total /= scale
    return total


class PhaseLabel(Enum):
    """Phases of the open kicked chain by edge-mode content."""

    PM = "PM"
    ZERO_SG = "0-SG"
    PI_SG = "pi-SG"
    ZERO_PI_PM = "0pi-PM"
    BOUNDARY = "boundary"


def classify_phase(h: float, j: float) -> PhaseLabel:
    """Phase of the open chain at couplings (h, j), both in (0, pi/2).

    A pi mode exists for h + J > pi/2 and a zero mode for J > h; the four
    combinations give the four phases.  Points within BOUNDARY_TOL of either
    boundary line return the explicit boundary tag instead of a side.
    """
    half_pi = 0.5 * math.pi
    if not (0.0 < h < half_pi and 0.0 < j < half_pi):
        raise ValueError(
            f"(h, j) = ({h}, {j}) outside the open square (0, pi/2)^2"
        )
    on_antidiag = abs(h + j - half_pi) <= BOUNDARY_TOL
    on_diag = abs(j - h) <= BOUNDARY_TOL
    if on_antidiag or on_diag:
        return PhaseLabel.BOUNDARY
    has_pi = h + j > half_pi
    has_zero = j > h
    if has_pi and has_zero:
        return PhaseLabel.ZERO_PI_PM
    if has_pi:
        return PhaseLabel.PI_SG
    if has_zero:
        return PhaseLabel.ZERO_SG
    return PhaseLabel.PM


@dataclass(frozen=True)
class PbcLineCheck:
    """Rotation eigenvalues on the J = pi/2 periodic-chain line."""

    h: float
    eigenvalues: tuple[complex, complex]
    mpm_possible: bool


def pbc_line_check(h: float) -> PbcLineCheck:
    """Edge-mode obstruction on the J = pi/2 line of the periodic chain.

    There the bulk recursion degenerates to a rotation with eigenvalues
    cos 2h +- i sin 2h; a pi mode would need an eigenvalue -1, which only
    happens at h = pi/2 (to within BOUNDARY_TOL).
    """
    lam = complex(math.cos(2.0 * h), math.sin(2.0 * h))
    eig = (lam, lam.conjugate())
    possible = min(abs(eig[0] + 1.0), abs(eig[1] + 1.0)) < BOUNDARY_TOL
    return PbcLineCheck(h=h, eigenvalues=eig, mpm_possible=possible)
