"""Ladder geometry: site indexing, bond enumeration, size caps.

Sites of an ``n_x x n_y`` rectangular lattice are numbered column-major,

    idx(i, j) = (i - 1) * n_y + (j - 1),

with 1-based column index ``i`` (leg direction) and row index ``j`` (rung
direction).  Walking idx = 0, 1, 2, ... therefore runs up each rung before
moving to the next column, so the string of all sites preceding a given one
is a contiguous index prefix.  The Majorana constructors rely on exactly
this property.

Basis convention used throughout the package: computational basis state
``n`` assigns site ``k`` the value ``sigma_z = +1`` when bit ``k`` of ``n``
is 0 (spin up) and ``-1`` when it is 1.  Bit 0 is the fastest-varying
(last) tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

DEFAULT_SITE_CAP = 20

#: dense 2**N x 2**N realizations (propagators, Pauli matrices) are refused
#: above this many sites; one complex matrix at 14 sites already needs 4 GiB
DENSE_SITE_CAP = 13

_BC_VALUES = ("open", "periodic")


class SizeCapError(ValueError):
    """Requested system size exceeds a configured hard cap."""


class Bond(NamedTuple):
    """Ordered pair of site indices coupled by an Ising term.

    ``axis`` is ``"y"`` for rung bonds (within a column) and ``"x"`` for
    leg bonds (between neighbouring columns).
    """

    a: int
    b: int
    axis: str


class Translation(NamedTuple):
    """One-site lattice translation as a site permutation.

    ``sites[k]`` is the image of site ``k``; applying the translation
    ``order`` times gives the identity.
    """

    sites: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class Lattice:
    """Immutable description of the ladder geometry.

    Periodic wrap bonds that would coincide with an existing bond (a
    2-site ring in either direction) are dropped once when
    ``dedup_coincident_bonds`` is true; set it to false to keep the
    doubled bond, which simply doubles that coupling's phase angle.
    Wrap bonds on a single-site direction (self loops) are always
    dropped.
    """

    n_x: int
    n_y: int
    bc_x: str = "open"
    bc_y: str = "open"
    dedup_coincident_bonds: bool = True
    site_cap: int = DEFAULT_SITE_CAP
    bonds: tuple[Bond, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.n_x}x{self.n_y}")
        if self.bc_x not in _BC_VALUES or self.bc_y not in _BC_VALUES:
            raise ValueError(f"boundary conditions must be one of {_BC_VALUES}")
        if self.n_sites > self.site_cap:
            raise SizeCapError(
                f"{self.n_x}x{self.n_y} lattice has {self.n_sites} sites, "
                f"exceeding the cap of {self.site_cap}"
            )
        object.__setattr__(self, "bonds", tuple(self._build_bonds()))

    @property
    def n_sites(self) -> int:
        return self.n_x * self.n_y

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2**n_sites."""
        return 1 << self.n_sites

    def site_index(self, i: int, j: int) -> int:
        """Flat index of site (i, j), both coordinates 1-based."""
        if not (1 <= i <= self.n_x and 1 <= j <= self.n_y):
            raise ValueError(
                f"site ({i}, {j}) outside {self.n_x}x{self.n_y} lattice"
            )
        return (i - 1) * self.n_y + (j - 1)

    def site_coords(self, idx: int) -> tuple[int, int]:
        """Inverse of site_index."""
        if not 0 <= idx < self.n_sites:
            raise ValueError(f"site index {idx} out of range")
        return idx // self.n_y + 1, idx % self.n_y + 1

    def _build_bonds(self) -> list[Bond]:
        bonds = []
        # rung (y) bonds, column by column
        for i in range(1, self.n_x + 1):
            for j in range(1, self.n_y):
                bonds.append(Bond(self.site_index(i, j), self.site_index(i, j + 1), "y"))
            if self.bc_y == "periodic" and self.n_y >= 2:
                if self.n_y > 2 or not self.dedup_coincident_bonds:
                    bonds.append(Bond(self.site_index(i, self.n_y), self.site_index(i, 1), "y"))
        # leg (x) bonds, interior columns first, then the wrap
        for i in range(1, self.n_x):
            for j in range(1, self.n_y + 1):
                bonds.append(Bond(self.site_index(i, j), self.site_index(i + 1, j), "x"))
        if self.bc_x == "periodic" and self.n_x >= 2:
            if self.n_x > 2 or not self.dedup_coincident_bonds:
                for j in range(1, self.n_y + 1):
                    bonds.append(Bond(self.site_index(self.n_x, j), self.site_index(1, j), "x"))
        return bonds

    def translations(self) -> tuple[Translation, ...]:
        """One-site translations that map the bond set onto itself.

        Each periodic direction with more than one site contributes its
        translation (x first), provided it maps the multiset of bonds,
        each with its axis, onto itself.  The comparison runs on
        unordered bonds, so doubled wrap bonds (``dedup=False``) and
        2-site rings are covered by the same test.
        """

        def key(bonds):
            return sorted((min(a, b), max(a, b), axis) for a, b, axis in bonds)

        n, n_y = self.n_sites, self.n_y
        candidates = []
        if self.bc_x == "periodic" and self.n_x > 1:
            # column i -> i + 1 is a shift of the flat index by one column
            candidates.append((self.n_x, tuple((k + n_y) % n for k in range(n))))
        if self.bc_y == "periodic" and n_y > 1:
            candidates.append((n_y, tuple(k - k % n_y + (k + 1) % n_y for k in range(n))))
        reference = key(self.bonds)
        out = []
        for order, sites in candidates:
            moved = [(sites[a], sites[b], axis) for a, b, axis in self.bonds]
            if key(moved) == reference:
                out.append(Translation(sites=sites, order=order))
        return tuple(out)


def make_lattice(
    n_x: int,
    n_y: int,
    bc_x: str = "open",
    bc_y: str = "open",
    dedup_coincident_bonds: bool = True,
    site_cap: int = DEFAULT_SITE_CAP,
) -> Lattice:
    """Build a validated Lattice; see the Lattice docstring for conventions."""
    return Lattice(
        n_x=n_x,
        n_y=n_y,
        bc_x=bc_x,
        bc_y=bc_y,
        dedup_coincident_bonds=dedup_coincident_bonds,
        site_cap=site_cap,
    )
