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
    theta = 0.81
    n = 3
    generator = sum(
        np.kron(np.kron(np.eye(2**(n - 1 - k)), X), np.eye(2**k)) for k in range(n)
    )
    expected = scipy.linalg.expm(-1j * theta * generator)
    rng = np.random.default_rng(7)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    w = v.copy()
    rotate_x_all_sites(w, n, theta)
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
    lat = make_lattice(2, 3, bc_y="periodic")
    params = DriveParams(j_x=0.4, j_y=0.7, h=1.1, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    dense = np.asarray(op.dense)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-13)


def test_dense_cap_enforced():
    lat = make_lattice(1, 14)
    params = DriveParams(j_x=0.1, j_y=0.2, h=0.3, period=2.0)
    with pytest.raises(SizeCapError):
        build_floquet(lat, params, materialize_dense=True)


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
    spec = diagonalize(build_floquet(lat, params, materialize_dense=True))
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
    st.lists(st.floats(-1.57, 1.57), min_size=2, max_size=24),
    st.floats(1.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_spacing_stats_matches_brute_force(values, period):
    w = math.pi / period
    eps = [fold_quasienergy(v, period) for v in values]
    spec = _fake_spectrum(eps, period)
    stats = spacing_stats(spec)

    def wrap(x):
        return x - 2 * w * math.floor((x + w) / (2 * w) - 1e-18)

    devs = []
    for en in spec.quasienergies:
        best = min(
            abs(wrap(em - en - w)) for em in spec.quasienergies
        )
        devs.append(best)
    assert stats.min_dev == pytest.approx(min(devs), abs=1e-12)
    assert stats.max_dev == pytest.approx(max(devs), abs=1e-12)
    assert stats.deviations.shape == spec.quasienergies.shape


def test_solvable_point_1x4_closed_form():
    lat = make_lattice(1, 4)
    params = DriveParams(j_x=0.0, j_y=1.0, h=math.pi / 2, period=2.0)
    spec = diagonalize(build_floquet(lat, params, materialize_dense=True))
    levels = solvable_point_spectrum_1x4(params.j_y, params.period)
    expanded = np.sort(np.repeat([v for v, _ in levels], [m for _, m in levels]))
    np.testing.assert_allclose(spec.quasienergies, expanded, atol=1e-10)


def test_solvable_point_2x2_closed_form():
    lat = make_lattice(2, 2)
    params = DriveParams(j_x=0.05 * math.pi / 2, j_y=1.0, h=math.pi / 2, period=2.0)
    spec = diagonalize(build_floquet(lat, params, materialize_dense=True))
    levels = solvable_point_spectrum_2x2(params.j_y, params.j_x, params.period)
    expanded = np.sort(np.repeat([v for v, _ in levels], [m for _, m in levels]))
    np.testing.assert_allclose(spec.quasienergies, expanded, atol=1e-10)


def test_spectrum_arrays_are_readonly():
    lat = make_lattice(1, 3)
    params = DriveParams(j_x=0.0, j_y=0.5, h=0.4, period=2.0)
    spec = diagonalize(build_floquet(lat, params, materialize_dense=True))
    with pytest.raises(ValueError):
        spec.quasienergies[0] = 0.0
