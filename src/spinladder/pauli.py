"""Exact Pauli-string algebra on bit masks.

A string is stored as ``phase * prod_k X_k^{x_k} Z_k^{z_k}`` with the site
exponents packed into two integer masks and the phase restricted to the
exact set {1, i, -1, -i}.  A site present in both masks carries the product
X Z = -i Y, so every n-site Pauli operator (up to one of the four phases)
has a unique representation, and products are computed exactly in integer
arithmetic.  Strings act on states matrix-free (``apply``) or as dense
matrices (``to_matrix``, small systems only).

Bit/basis convention (see lattice.py): bit k of a basis index corresponds
to site k, bit value 0 means sigma_z = +1, and bit 0 is the last tensor
factor in any dense realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import DENSE_SITE_CAP, check_site_cap

_ALLOWED_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_SINGLE_SITE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    # X Z (apply Z, then X)
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}


def _bit_parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.int64)


@dataclass(frozen=True)
class PauliString:
    """phase * prod_k X_k^{x_k} Z_k^{z_k} on ``n_sites`` spins."""

    n_sites: int
    x_mask: int = 0
    z_mask: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        full = (1 << self.n_sites) - 1
        if not (0 <= self.x_mask <= full and 0 <= self.z_mask <= full):
            raise ValueError("mask has bits outside the lattice")
        phase = complex(self.phase)
        if phase not in _ALLOWED_PHASES:
            raise ValueError(f"phase must be one of {{1, i, -1, -i}}, got {phase!r}")
        object.__setattr__(self, "phase", phase)

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, n_sites: int, site: int, axis: str) -> "PauliString":
        """Single-site X, Y or Z."""
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} out of range")
        bit = 1 << site
        if axis == "x":
            return cls(n_sites, x_mask=bit)
        if axis == "y":
            # Y = i X Z
            return cls(n_sites, x_mask=bit, z_mask=bit, phase=1j)
        if axis == "z":
            return cls(n_sites, z_mask=bit)
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n_sites != self.n_sites:
            raise ValueError("cannot multiply strings on different lattices")
        # reorder Z_self past X_other: one minus sign per overlapping site
        sign = -1 if ((self.z_mask & other.x_mask).bit_count() & 1) else 1
        return PauliString(
            self.n_sites,
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            self.phase * other.phase * sign,
        )

    # -- realization ----------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2**n x 2**n realization (small systems only)."""
        check_site_cap(self.n_sites, DENSE_SITE_CAP, "dense realization")
        mat = np.ones((1, 1), dtype=complex)
        for k in reversed(range(self.n_sites)):
            xk = (self.x_mask >> k) & 1
            zk = (self.z_mask >> k) & 1
            mat = np.kron(mat, _SINGLE_SITE[(xk, zk)])
        return self.phase * mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Matrix-free action on a state vector (2**n,) or on each column
        of a block (2**n, m), O(2**n) time per column.  Each column of a
        block gets exactly the single-vector result."""
        state = np.asarray(state)
        dim = 1 << self.n_sites
        if state.ndim not in (1, 2) or state.shape[0] != dim:
            raise ValueError(f"state must have shape ({dim},) or ({dim}, m), got {state.shape}")
        idx = np.arange(dim)
        signed = np.where(_bit_parity(idx & self.z_mask), -self.phase, self.phase)
        signed = signed.reshape((dim,) + (1,) * (state.ndim - 1)) * state
        return signed[idx ^ self.x_mask]
