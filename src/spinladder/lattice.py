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

#: lattices of more sites are refused; a state vector at 20 sites is 16 MiB
DEFAULT_SITE_CAP = 20

#: dense 2**N x 2**N realizations (propagators, Pauli matrices, the
#: eigenvector matrix of diagonalize) are refused above this many sites;
#: one complex matrix at 14 sites already needs 4 GiB
DENSE_SITE_CAP = 13

_BC_VALUES = ("open", "periodic")


class SizeCapError(ValueError):
    """Requested system size exceeds a configured hard cap."""


def check_site_cap(n_sites: int, cap: int, what: str) -> None:
    """Refuse ``what`` with a SizeCapError when ``n_sites`` exceeds ``cap``."""
    if n_sites > cap:
        raise SizeCapError(f"{what} refused for {n_sites} sites (cap {cap})")


class Bond(NamedTuple):
    """Ordered pair of site indices coupled by an Ising term.

    ``axis`` is ``"y"`` for rung bonds (within a column) and ``"x"`` for
    leg bonds (between neighbouring columns).
    """

    a: int
    b: int
    axis: str


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
    bonds: tuple[Bond, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.n_x}x{self.n_y}")
        if self.bc_x not in _BC_VALUES or self.bc_y not in _BC_VALUES:
            raise ValueError(f"boundary conditions must be one of {_BC_VALUES}")
        check_site_cap(self.n_sites, DEFAULT_SITE_CAP, f"{self.n_x}x{self.n_y} lattice")
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

    def symmetries(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Site permutations that map the bond set onto itself, as
        ``(sites, order)`` pairs: ``sites[k]`` is the image of site ``k``.

        Each direction with more than one site (x first) offers its
        one-site translation (order n) when periodic and its reflection
        x -> n + 1 - x (order 2) when open.  Both hold by construction:
        every column gets the same rungs, every row gets the same legs,
        and a periodic direction gives each of them its wrap bond or its
        doubled copy, so no bond needs to be compared.  Permutations of
        different directions move different coordinates, so they commute.
        """

        def step(x, n, bc):
            return (x + 1) % n if bc == "periodic" else n - 1 - x

        n_x, n_y, bc_x, bc_y = self.n_x, self.n_y, self.bc_x, self.bc_y
        coords = [divmod(k, n_y) for k in range(self.n_sites)]
        candidates = [
            (n_x, bc_x, tuple(step(i, n_x, bc_x) * n_y + j for i, j in coords)),
            (n_y, bc_y, tuple(i * n_y + step(j, n_y, bc_y) for i, j in coords)),
        ]
        return tuple(
            (sites, n if bc == "periodic" else 2) for n, bc, sites in candidates if n > 1
        )


def make_lattice(
    n_x: int,
    n_y: int,
    bc_x: str = "open",
    bc_y: str = "open",
    dedup_coincident_bonds: bool = True,
) -> Lattice:
    """Build a validated Lattice; see the Lattice docstring for conventions."""
    return Lattice(
        n_x=n_x,
        n_y=n_y,
        bc_x=bc_x,
        bc_y=bc_y,
        dedup_coincident_bonds=dedup_coincident_bonds,
    )
