"""Geometry layer: site indexing, bond construction, size caps."""

import itertools

import pytest
from hypothesis import given, strategies as st

from spinladder.lattice import DEFAULT_SITE_CAP, Bond, SizeCapError, make_lattice


def bond_multiset(lattice):
    return sorted((min(b.a, b.b), max(b.a, b.b), b.axis) for b in lattice.bonds)


def test_column_major_indexing():
    lat = make_lattice(3, 2)
    assert [lat.site_index(i, j) for i in (1, 2, 3) for j in (1, 2)] == list(range(6))


def test_open_bond_counts():
    lat = make_lattice(4, 2)
    rungs = [b for b in lat.bonds if b.axis == "y"]
    legs = [b for b in lat.bonds if b.axis == "x"]
    assert len(rungs) == 4  # one per column
    assert len(legs) == 6  # two legs, three bonds each


def test_periodic_wrap_bonds_added():
    lat = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    rungs = [b for b in lat.bonds if b.axis == "y"]
    legs = [b for b in lat.bonds if b.axis == "x"]
    # every column gets its rung twice (wrap coincides and is kept)
    assert len(rungs) == 8
    assert len(legs) == 8
    # the doubled rung appears as an exact pair
    multiset = bond_multiset(lat)
    assert multiset.count((0, 1, "y")) == 2


def test_dedup_drops_coincident_wrap():
    kept = make_lattice(4, 2, bc_y="periodic", dedup_coincident_bonds=False)
    dropped = make_lattice(4, 2, bc_y="periodic", dedup_coincident_bonds=True)
    assert len(kept.bonds) == len(dropped.bonds) + 4
    # in a 3-row column the wrap bond is genuinely new and always kept
    tall = make_lattice(1, 3, bc_y="periodic")
    assert (2, 0, "y") in [(b.a, b.b, b.axis) for b in tall.bonds]


def test_single_site_direction_never_self_loops():
    chain = make_lattice(1, 6, bc_x="periodic", bc_y="periodic")
    assert all(b.a != b.b for b in chain.bonds)
    assert all(b.axis == "y" for b in chain.bonds)


def test_symmetries_map_bonds_onto_bonds():
    """On every lattice the class can build, each symmetry is a site
    permutation of its stated order that maps the bonds, each with its
    axis, onto themselves, and each direction of more than one site
    offers exactly one."""
    built = 0
    for n_x in range(1, DEFAULT_SITE_CAP + 1):
        for n_y in range(1, DEFAULT_SITE_CAP // n_x + 1):
            for bc_x, bc_y, dedup in itertools.product(
                ("open", "periodic"), ("open", "periodic"), (True, False)
            ):
                lat = make_lattice(n_x, n_y, bc_x, bc_y, dedup_coincident_bonds=dedup)
                symmetries = lat.symmetries()
                assert len(symmetries) == (n_x > 1) + (n_y > 1)
                identity = tuple(range(lat.n_sites))
                for sites, order in symmetries:
                    moved = [b._replace(a=sites[b.a], b=sites[b.b]) for b in lat.bonds]
                    assert bond_multiset(lat) == sorted(
                        (min(b.a, b.b), max(b.a, b.b), b.axis) for b in moved
                    )
                    power = identity
                    for step in range(1, order + 1):
                        power = tuple(sites[k] for k in power)
                        assert (power == identity) == (step == order)
                built += 1
    assert built == 528


def test_site_cap_enforced():
    with pytest.raises(SizeCapError):
        make_lattice(3, 7)
    assert make_lattice(2, 10).n_sites == DEFAULT_SITE_CAP


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        make_lattice(0, 4)
    with pytest.raises(ValueError):
        make_lattice(2, 2, bc_x="twisted")
    lat = make_lattice(2, 2)
    with pytest.raises(ValueError):
        lat.site_index(3, 1)


def test_lattice_is_immutable():
    lat = make_lattice(2, 2)
    with pytest.raises(AttributeError):
        lat.n_x = 5


@given(
    n_x=st.integers(min_value=1, max_value=5),
    n_y=st.integers(min_value=1, max_value=4),
    bc_x=st.sampled_from(["open", "periodic"]),
    bc_y=st.sampled_from(["open", "periodic"]),
    dedup=st.booleans(),
)
def test_bond_count_formula(n_x, n_y, bc_x, bc_y, dedup):
    lat = make_lattice(n_x, n_y, bc_x=bc_x, bc_y=bc_y, dedup_coincident_bonds=dedup)

    def direction_count(n, bc):
        base = n - 1
        if bc == "periodic" and n >= 2:
            if n > 2 or not dedup:
                base += 1
        return base

    expected = n_x * direction_count(n_y, bc_y) + n_y * direction_count(n_x, bc_x)
    assert len(lat.bonds) == expected
    assert all(isinstance(b, Bond) for b in lat.bonds)
    assert all(0 <= b.a < lat.n_sites and 0 <= b.b < lat.n_sites for b in lat.bonds)
