"""Propagator construction and diagnostics against small dense oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinladder.floquet import (
    DriveParams,
    NumericalToleranceError,
    QuasienergySpectrum,
    build_floquet,
    diagonalize,
    fold_quasienergy,
    rotate_x_all_sites,
    solvable_point_spectrum_1x4,
    solvable_point_spectrum_2x2,
    spacing_stats,
    symmetry_group,
)
from spinladder.lattice import SizeCapError, make_lattice
from spinladder.majorana import corner_modes, mode_residual

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pi_over_t_units_convert_once():
    params = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.8, period=2.0)
    assert params.j_x == pytest.approx(0.05 * math.pi / 2)
    # kick angles in these units are u * pi / 2 regardless of the period
    assert params.theta_h == pytest.approx(0.8 * math.pi / 2)
    other = DriveParams.from_pi_over_t(j_x=0.05, j_y=0.6, h=0.8, period=7.3)
    assert other.theta_h == pytest.approx(params.theta_h)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(j_x=0.1, j_y=0.1, h=math.inf, period=2.0)
    with pytest.raises(ValueError):
        DriveParams(j_x=0.1, j_y=0.1, h=0.1, period=0.0)


def test_rotate_x_single_site_matrix():
    theta = 0.37
    for basis_index in (0, 1):
        v = np.zeros(2, dtype=complex)
        v[basis_index] = 1.0
        rotate_x_all_sites(v, 1, theta)
        expected_mat = np.array(
            [
                [math.cos(theta), -1j * math.sin(theta)],
                [-1j * math.sin(theta), math.cos(theta)],
            ]
        )
        np.testing.assert_allclose(v, expected_mat[:, basis_index], atol=1e-15)


def test_rotate_x_matches_expm():
    """One kron block, a narrower last block, and two or three blocks;
    the result lands in the caller's array whether the last product
    was written to it or to the second buffer."""
    theta = 0.81
    rng = np.random.default_rng(7)
    for n in (1, 3, 4, 5, 8, 9):
        generator = sum(
            np.kron(np.kron(np.eye(2**(n - 1 - k)), X), np.eye(2**k)) for k in range(n)
        )
        expected = scipy.linalg.expm(-1j * theta * generator)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        w = v.copy()
        assert rotate_x_all_sites(w, n, theta) is w
        np.testing.assert_allclose(w, expected @ v, atol=1e-13)


def test_two_site_propagator_matches_expm():
    """One rung: kick half after the interaction half, both via expm."""
    lat = make_lattice(1, 2)
    params = DriveParams(j_x=0.9, j_y=0.31, h=0.57, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    kick_gen = np.kron(np.eye(2), X) + np.kron(X, np.eye(2))
    u_kick = scipy.linalg.expm(-1j * params.theta_h * kick_gen)
    u_zz = scipy.linalg.expm(1j * params.theta_y * np.kron(Z, Z))
    np.testing.assert_allclose(np.asarray(op.dense), u_kick @ u_zz, atol=1e-13)


def test_matrix_free_matches_dense():
    """op.apply against the kron-built U, on a periodic ladder and on
    chains of one to thirteen sites: one to four kron blocks, with and
    without a narrower last one, at kick angles pi/2, a generic value
    and multiples of pi (h = 0 takes the s == 0 branch).  Chains of 15
    and 16 sites split the lowest block into two and four gemms.  Past
    ten sites U (1 GiB at 13) is read only on sampled rows, through
    entries(), which equals the kron-built matrix bit for bit.  apply()
    must also equal the zz multiply followed by rotate_x_all_sites
    exactly, the split that the benchmark's traced period rebuilds."""
    rng = np.random.default_rng(11)
    cases = [(make_lattice(2, 3, bc_y="periodic"), 1.1)]
    cases += [
        (make_lattice(1, n), h)
        for n in range(1, 14)
        for h in (0.0, math.pi / 2, 0.83, math.pi, 2 * math.pi)
    ]
    cases += [(make_lattice(1, n), 0.83) for n in (15, 16)]
    for lat, h in cases:
        params = DriveParams(j_x=0.4, j_y=0.7, h=h, period=2.0)
        op = build_floquet(lat, params, materialize_dense=lat.n_sites <= 10)
        rows = np.arange(lat.dim)
        if op.dense is None:
            rows = np.sort(rng.choice(lat.dim, size=32, replace=False))
            u_rows = op.entries(rows[:, np.newaxis], np.arange(lat.dim))
        else:
            u_rows = np.asarray(op.dense)
        for _ in range(20):
            v = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
            v /= np.linalg.norm(v)
            got = op.apply(v)
            np.testing.assert_allclose(got[rows], u_rows @ v, atol=1e-13)
            split = rotate_x_all_sites(op.zz_phase * v, lat.n_sites, params.theta_h)
            assert np.array_equal(got, split)


def test_dense_cap_enforced():
    lat = make_lattice(1, 14)
    params = DriveParams(j_x=0.1, j_y=0.2, h=0.3, period=2.0)
    with pytest.raises(SizeCapError):
        build_floquet(lat, params, materialize_dense=True)
    # the matrix-free operator builds, but its dense products are refused
    op = build_floquet(lat, params)
    with pytest.raises(SizeCapError):
        diagonalize(op)
    with pytest.raises(SizeCapError):
        mode_residual(op, corner_modes(lat)[0], "pi")


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("n_x,n_y", [(1, 3), (2, 2), (3, 2), (1, 7)])
@pytest.mark.parametrize("h", [0.0, 0.45, 1.3, math.pi / 2, 2.9])
def test_entries_match_dense_bitwise(n_x, n_y, bc, h):
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc)
    params = DriveParams(j_x=0.35, j_y=0.8, h=h, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    rng = np.random.default_rng(n_x * 100 + n_y)
    rows = rng.integers(lat.dim, size=(5, 1, 3))
    cols = rng.integers(lat.dim, size=(4, 1))
    got = op.entries(rows, cols)
    assert got.shape == (5, 4, 3)
    assert np.array_equal(got, op.dense[rows, cols])
    idx = np.arange(lat.dim)
    assert np.array_equal(op.entries(idx[:, np.newaxis], idx), op.dense)


def test_diagonalize_eigenrelation():
    lat = make_lattice(3, 2)
    params = DriveParams(j_x=0.35, j_y=0.8, h=0.95, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    spec = diagonalize(op)
    u = np.asarray(op.dense)
    w = math.pi / params.period
    assert np.all(np.diff(spec.quasienergies) >= 0)
    assert np.all(spec.quasienergies > -w) and np.all(spec.quasienergies <= w)
    np.testing.assert_allclose(np.abs(spec.eigenvalues), 1.0, atol=1e-12)
    # direct residual check, independent of the Schur bookkeeping
    direct = np.linalg.norm(
        u @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0
    )
    assert direct.max() < 1e-10
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(lat.dim), atol=1e-12)


def dense_schur_quasienergies(op):
    """Reference spectrum: one complex Schur of the full dense propagator."""
    t_mat, _ = scipy.linalg.schur(np.asarray(op.dense), output="complex")
    period = op.params.period
    return np.sort(fold_quasienergy(-np.angle(np.diag(t_mat)) / period, period))


@pytest.mark.parametrize(
    "bc,dedup", [("open", True), ("periodic", True), ("periodic", False)]
)
@pytest.mark.parametrize(
    "n_x,n_y", [(2, 2), (3, 2), (4, 2), (5, 2), (1, 4), (1, 6), (1, 8), (1, 10)]
)
def test_sector_spectrum_matches_dense_schur(n_x, n_y, bc, dedup):
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc, dedup_coincident_bonds=dedup)
    params = DriveParams(j_x=0.35, j_y=0.8, h=0.95, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    spec = diagonalize(op)
    # the dense matrix is not read: a matrix-free operator gives the same arrays
    lazy = diagonalize(build_floquet(lat, params))
    for field in ("quasienergies", "eigenvectors", "eigenvalues", "residuals"):
        assert np.array_equal(getattr(lazy, field), getattr(spec, field))

    # spin flip only on open lattices; one translation per periodic site
    expected_order = 2 * (lat.n_sites if bc == "periodic" else 1)
    assert symmetry_group(lat).order == expected_order
    np.testing.assert_allclose(
        spec.quasienergies, dense_schur_quasienergies(op), rtol=0, atol=1e-12
    )
    u = np.asarray(op.dense)
    vecs = spec.eigenvectors
    assert np.linalg.norm(u @ vecs - vecs * spec.eigenvalues) <= 1e-10
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(lat.dim)) <= 1e-10


def test_identity_drive_spectrum_is_zero():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.0, j_y=0.0, h=0.0, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    np.testing.assert_allclose(spec.quasienergies, 0.0, atol=1e-14)


@given(
    st.floats(-40.0, 40.0, allow_nan=False),
    st.integers(-5, 5),
    st.floats(0.5, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_fold_quasienergy_properties(value, shift, period):
    w = math.pi / period
    folded = float(fold_quasienergy(value, period))
    assert -w < folded <= w + 1e-15
    again = float(fold_quasienergy(value + shift * 2 * w, period))
    assert math.isclose(folded, again, abs_tol=1e-10) or math.isclose(
        abs(folded - again), 2 * w, abs_tol=1e-10
    )


def _fake_spectrum(values, period):
    eps = np.sort(np.asarray(values, dtype=float))
    dim = eps.size
    return QuasienergySpectrum(
        quasienergies=eps,
        eigenvectors=np.eye(dim, dtype=complex),
        eigenvalues=np.exp(-1j * eps * period),
        residuals=np.zeros(dim),
        period=period,
    )


@given(
    st.lists(st.floats(-1.57, 1.57), min_size=2, max_size=24).filter(
        lambda v: len(v) % 2 == 0
    ),
    st.floats(1.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_spacing_stats_matches_rank_pairing_loop(values, period):
    spec = _fake_spectrum([fold_quasienergy(v, period) for v in values], period)
    stats = spacing_stats(spec)

    levels = sorted(float(e) for e in spec.quasienergies)
    half = len(levels) // 2
    devs = [abs(levels[n + half] - levels[n] - math.pi / period) for n in range(half)]
    assert stats.min_dev == min(devs)
    assert stats.max_dev == max(devs)


@given(
    st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=12),
    st.floats(-4.0, 4.0),
    st.floats(1.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_spacing_stats_recovers_planted_pair_offsets(fractions, rotation, period):
    """Base levels w/m apart and partners at base + pi/T + delta_i with
    |delta_i| <= 0.4 w/m: the pairing is the planted one, also where the
    zone edge cuts through the spectrum."""
    w = math.pi / period
    m = len(fractions)
    deltas = [f * w / m for f in fractions]
    bases = [rotation + i * w / m for i in range(m)]
    levels = bases + [b + w + d for b, d in zip(bases, deltas)]
    spec = _fake_spectrum([fold_quasienergy(v, period) for v in levels], period)
    stats = spacing_stats(spec)
    assert stats.min_dev == pytest.approx(min(abs(d) for d in deltas), abs=1e-12)
    assert stats.max_dev == pytest.approx(max(abs(d) for d in deltas), abs=1e-12)


def test_spacing_stats_pairs_each_level_once():
    """Two levels close to the same pi/T partner: a nearest-partner search
    would pair both with it; the rank pairing gives 0.003 and 0.012."""
    period = 2.0
    w = math.pi / period
    levels = [0.0, 0.01, w + 0.012, w + 0.013]
    spec = _fake_spectrum([fold_quasienergy(v, period) for v in levels], period)
    stats = spacing_stats(spec)
    assert stats.min_dev == pytest.approx(0.003, abs=1e-12)
    assert stats.max_dev == pytest.approx(0.012, abs=1e-12)


@pytest.mark.parametrize("values", [[], [0.1], [0.1, 0.2, -1.0]])
def test_spacing_stats_rejects_empty_or_odd_spectra(values):
    with pytest.raises(ValueError):
        spacing_stats(_fake_spectrum(values, 2.0))


def test_solvable_point_1x4_closed_form():
    lat = make_lattice(1, 4)
    params = DriveParams(j_x=0.0, j_y=1.0, h=math.pi / 2, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    levels = solvable_point_spectrum_1x4(params.j_y, params.period)
    expanded = np.sort(np.repeat([v for v, _ in levels], [m for _, m in levels]))
    np.testing.assert_allclose(spec.quasienergies, expanded, atol=1e-10)


def test_solvable_point_2x2_closed_form():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.05 * math.pi / 2, j_y=1.0, h=math.pi / 2, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    levels = solvable_point_spectrum_2x2(params.j_y, params.j_x, params.period)
    expanded = np.sort(np.repeat([v for v, _ in levels], [m for _, m in levels]))
    np.testing.assert_allclose(spec.quasienergies, expanded, atol=1e-10)


def test_spectrum_arrays_are_readonly():
    lat = make_lattice(1, 3)
    params = DriveParams(j_x=0.0, j_y=0.5, h=0.4, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    with pytest.raises(ValueError):
        spec.quasienergies[0] = 0.0
