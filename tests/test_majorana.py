"""Jordan-Wigner operators, the spin dictionary, and corner diagnostics."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from spinladder.floquet import (
    RESIDUAL_TOL,
    DriveParams,
    SymmetryGroup,
    build_floquet,
    diagonalize,
)
from spinladder.lattice import make_lattice
from spinladder.majorana import (
    SpectralFunctionConfig,
    _level_clusters,
    corner_modes,
    corner_spectral_functions,
    gamma_pbc,
    majorana,
    mode_residual,
    verify_dictionary,
)
from spinladder.pauli import PauliString

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# regression constant: max-norm pi-flip residual of the corner operators
# on the open 4x2 ladder at h = 0.8 pi/T, J_x = 0.05 pi/T, J_y = 0.6 pi/T,
# T = 2; equals sin(0.2 pi), the kick-angle shortfall from the exact point
GOLDEN_CORNER_RESIDUAL_4X2 = 0.5877852522924732


def kron_chain(mats):
    return functools.reduce(np.kron, reversed(list(mats)))


def all_modes(lattice):
    return [
        majorana(lattice, kind, i, j)
        for i in range(1, lattice.n_x + 1)
        for j in range(1, lattice.n_y + 1)
        for kind in ("A", "B")
    ]


def test_string_structure_small_chain():
    lat = make_lattice(1, 2)
    ga1 = majorana(lat, "A", 1, 1)
    gb1 = majorana(lat, "B", 1, 1)
    ga2 = majorana(lat, "A", 1, 2)
    np.testing.assert_allclose(ga1.to_matrix(), kron_chain([Z, I2]), atol=0)
    np.testing.assert_allclose(gb1.to_matrix(), kron_chain([Y, I2]), atol=0)
    np.testing.assert_allclose(ga2.to_matrix(), kron_chain([X, Z]), atol=0)


def test_modes_square_to_identity_and_are_hermitian():
    lat = make_lattice(3, 2)
    identity = PauliString(lat.n_sites)
    for mode in all_modes(lat):
        # a Pauli string is unitary, so squaring to +1 makes it Hermitian
        assert mode * mode == identity


def test_pairwise_anticommutation_exact():
    lat = make_lattice(3, 2)
    modes = all_modes(lat)
    for i, left in enumerate(modes):
        for right in modes[i + 1:]:
            assert left * right == dataclasses.replace(right * left, phase=-(right * left).phase)


def test_dictionary_exact_on_small_lattices():
    for shape in ((1, 2), (2, 2), (3, 2)):
        report = verify_dictionary(make_lattice(*shape))
        assert report.failures == ()
        assert report.max_deviation < 1e-13
        assert report.identities_checked > 0


def test_corner_residual_ideal_point():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.4, j_y=1.0, h=math.pi / 2, period=2.0)
    op = build_floquet(lat, params)
    for mode in corner_modes(lat):
        assert mode_residual(op, mode, "pi") < 1e-12


def test_corner_residual_golden_value():
    lat = make_lattice(4, 2)
    params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.8, period=2.0)
    op = build_floquet(lat, params)
    g_a, g_b = corner_modes(lat)
    assert mode_residual(op, g_a, "pi") == pytest.approx(
        GOLDEN_CORNER_RESIDUAL_4X2, abs=1e-12
    )
    assert mode_residual(op, g_b, "pi") == pytest.approx(
        GOLDEN_CORNER_RESIDUAL_4X2, abs=1e-12
    )


def test_pbc_chain_still_flips_end_mode_at_ideal_point():
    lat = make_lattice(1, 6, bc_y="periodic")
    params = DriveParams(j_x=0.0, j_y=0.8, h=math.pi / 2, period=2.0)
    op = build_floquet(lat, params)
    ga = majorana(lat, "A", 1, 1)
    assert mode_residual(op, ga, "pi") < 1e-12


def test_mode_residual_argument_errors():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.1, j_y=0.2, h=0.3, period=2.0)
    dense_op = build_floquet(lat, params, materialize_dense=True)
    lazy_op = build_floquet(lat, params)
    mode = corner_modes(lat)[0]
    with pytest.raises(ValueError):
        mode_residual(dense_op, mode, "half")
    assert mode_residual(lazy_op, mode, "pi") == mode_residual(dense_op, mode, "pi")


def test_gamma_pbc_algebra():
    for n in (3, 4, 5):
        lat = make_lattice(1, n, bc_y="periodic")
        gp = gamma_pbc(lat)
        sign = (-1) ** (n - 1)
        assert gp * gp == PauliString(n, phase=sign)
        # commutes with both end modes even though it overlaps them
        for end in (majorana(lat, "A", 1, 1), majorana(lat, "B", 1, n)):
            assert gp * end == end * gp
        # the wrap bond operator Z_N Z_1 is i^(n-1) times gamma_pbc
        zz = PauliString.single(n, n - 1, "z") * PauliString.single(n, 0, "z")
        assert zz == dataclasses.replace(gp, phase=1j ** (n - 1) * gp.phase)


def test_gamma_pbc_rejects_ladders():
    with pytest.raises(ValueError):
        gamma_pbc(make_lattice(2, 3))


def ideal_point_spectrum(lattice):
    params = DriveParams(j_x=0.07, j_y=0.9, h=math.pi / 2, period=2.0)
    return diagonalize(build_floquet(lattice, params))


def test_spectral_functions_ideal_point():
    lat = make_lattice(3, 2)
    spec = ideal_point_spectrum(lat)
    s = corner_spectral_functions(
        spec, lat, SpectralFunctionConfig(chi=8, window=0.01)
    )
    assert s.spi_1 == pytest.approx(1.0, abs=1e-12)
    assert s.spi_2 == pytest.approx(1.0, abs=1e-12)
    assert s.s0_1 == pytest.approx(0.0, abs=1e-12)
    assert s.s0_2 == pytest.approx(0.0, abs=1e-12)


def brute_force_spectral(spec, lattice, chi, window):
    """Full eigenbasis matrix of each corner operator, then windowed sums
    of each sampled rank's mean mass over its cluster: the levels joined
    to it by steps of at most 2 RESIDUAL_TOL / T, across the zone edge
    too."""
    w = math.pi / spec.period
    eps = spec.quasienergies
    tol = 2 * RESIDUAL_TOL / spec.period
    sampled = [(k * spec.dim) // chi for k in range(chi)]
    # neighbours on the circle: the first and last levels are adjacent
    def step(a, b):
        gap = abs(eps[a] - eps[b])
        return min(gap, 2 * w - gap) <= tol

    clusters = {}
    for n in sampled:
        members = {n}
        for direction in (1, -1):
            m = n
            while len(members) < spec.dim and step(m, (m + direction) % spec.dim):
                m = (m + direction) % spec.dim
                members.add(m)
        clusters[n] = sorted(members)
    out = []
    for mode in corner_modes(lattice):
        g_eig = (
            spec.eigenvectors.conj().T
            @ mode.to_matrix()
            @ spec.eigenvectors
        )
        total = 0.0
        near_zero = 0.0
        near_pi = 0.0
        for n in sampled:
            for m in range(spec.dim):
                mass = sum(abs(g_eig[m, c]) ** 2 for c in clusters[n]) / len(clusters[n])
                gap = eps[n] - eps[m]
                gap -= 2 * w * math.floor((gap + w) / (2 * w))
                total += mass
                if abs(gap) <= window:
                    near_zero += mass
                if w - abs(gap) <= window:
                    near_pi += mass
        out.append((near_zero / total, near_pi / total))
    return out


def assert_matches_brute_force(spec, lattice, config):
    s = corner_spectral_functions(spec, lattice, config)
    (bz1, bp1), (bz2, bp2) = brute_force_spectral(spec, lattice, config.chi, config.window)
    for got, want in ((s.s0_1, bz1), (s.spi_1, bp1), (s.s0_2, bz2), (s.spi_2, bp2)):
        assert got == pytest.approx(want, abs=1e-12)


def test_spectral_functions_match_brute_force():
    lat = make_lattice(2, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    params = DriveParams(j_x=0.23, j_y=0.71, h=0.64, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    assert_matches_brute_force(spec, lat, SpectralFunctionConfig(chi=6, window=0.05))


@pytest.mark.parametrize("n_x,n_y", [(2, 3), (1, 8)])
def test_spectral_functions_every_state_match_brute_force(n_x, n_y):
    """Open lattices (spin-flip sectors only), every state sampled."""
    lat = make_lattice(n_x, n_y)
    spec = diagonalize(build_floquet(lat, DriveParams(j_x=0.23, j_y=0.71, h=0.64, period=2.0)))
    assert_matches_brute_force(spec, lat, SpectralFunctionConfig(chi=lat.dim, window=0.05))


def tied_spectrum(h):
    """The 4x2 torus, where many levels tie exactly with their
    time-reversed copies (h in pi/T units)."""
    lat = make_lattice(4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    return lat, diagonalize(build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0)))


def test_spectral_functions_tied_ranks_match_brute_force():
    """At h = 0.2 pi/T several sampled ranks sit in clusters of tied
    levels; both paths give them the cluster's mean mass."""
    lat, spec = tied_spectrum(0.2)
    config = SpectralFunctionConfig(chi=16, window=0.01)
    sampled = np.arange(config.chi) * spec.dim // config.chi
    eps = spec.quasienergies
    assert np.count_nonzero(eps[sampled] == eps[sampled + 1]) >= 3
    assert_matches_brute_force(spec, lat, config)


def rotate_clusters(spec, seed):
    """The spectrum with every cluster's eigenvectors replaced by a
    random orthonormal basis of their span.  The rotation acts on the
    full-basis eigenvectors, so clusters that span several sectors mix
    too, and the one sector of the trivial group then holds every
    level."""
    rng = np.random.default_rng(seed)
    vecs = spec.eigenvectors.copy()
    clusters = _level_clusters(spec.quasienergies, spec.period)
    for cluster in np.unique(clusters):
        members = np.flatnonzero(clusters == cluster)
        size = members.size
        q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        vecs[:, members] = vecs[:, members] @ q
    dim = spec.dim
    return dataclasses.replace(
        spec,
        group=SymmetryGroup(orders=(1,), images=np.arange(dim)[np.newaxis, :]),
        labels=np.zeros(dim, dtype=np.intp),
        sector_vectors=vecs,
    )


@pytest.mark.parametrize("h", [0.2, 0.8])
def test_spectral_functions_independent_of_cluster_basis(h):
    """Any orthonormal basis of each cluster gives the same weights, to
    rounding: at h = 0.2 and 0.8 pi/T the sampled ranks sit in clusters
    of up to 24 tied levels that mix several sectors."""
    lat, spec = tied_spectrum(h)
    config = SpectralFunctionConfig(chi=16, window=0.01)
    labels = _level_clusters(spec.quasienergies, spec.period)
    sampled = np.arange(config.chi) * spec.dim // config.chi
    assert max(np.count_nonzero(labels == labels[n]) for n in sampled) >= 8
    s = corner_spectral_functions(spec, lat, config)
    for seed in (0, 1):
        t = corner_spectral_functions(rotate_clusters(spec, seed), lat, config)
        for name in ("s0_1", "s0_2", "spi_1", "spi_2"):
            assert getattr(t, name) == pytest.approx(getattr(s, name), abs=1e-12)


def test_level_clusters_join_across_zone_edge():
    w = math.pi / 2.0
    eps = np.array([-w + 5e-11, -0.3, -0.3 + 1e-11, 0.2, w - 2e-11, w])
    labels = _level_clusters(eps, 2.0)
    assert labels.tolist() == [0, 1, 1, 2, 0, 0]
    # a spectrum that is one run keeps one cluster
    assert _level_clusters(np.zeros(4), 2.0).tolist() == [0, 0, 0, 0]


def test_spectral_functions_bounded_and_phase_invariant():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.31, j_y=0.52, h=0.87, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    config = SpectralFunctionConfig(chi=5, window=0.1)
    s = corner_spectral_functions(spec, lat, config)
    for value in (s.s0_1, s.s0_2, s.spi_1, s.spi_2):
        assert -1e-12 <= value <= 1 + 1e-12

    rng = np.random.default_rng(3)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=spec.dim))
    # eigenvector n times phases[n]
    twisted = dataclasses.replace(spec, sector_vectors=spec.sector_vectors * phases)
    t = corner_spectral_functions(twisted, lat, config)
    assert t.s0_1 == pytest.approx(s.s0_1, abs=1e-12)
    assert t.spi_1 == pytest.approx(s.spi_1, abs=1e-12)
    assert t.s0_2 == pytest.approx(s.s0_2, abs=1e-12)
    assert t.spi_2 == pytest.approx(s.spi_2, abs=1e-12)


def test_spectral_function_config_errors():
    lat = make_lattice(2, 2)
    spec = ideal_point_spectrum(lat)
    with pytest.raises(ValueError):
        corner_spectral_functions(spec, lat, SpectralFunctionConfig(chi=17, window=0.01))
    with pytest.raises(ValueError):
        corner_spectral_functions(
            spec, lat, SpectralFunctionConfig(chi=4, window=math.pi / 4)
        )
    for chi, window in ((0, 0.01), (1, 0.0), (1, -0.01), (1, math.nan)):
        with pytest.raises(ValueError):
            SpectralFunctionConfig(chi=chi, window=window)
