"""Closed-form single-chain analysis: transfer matrix, edge mode, phases."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinladder.floquet import DriveParams, build_floquet, diagonalize, spacing_stats
from spinladder.lattice import make_lattice
from spinladder.majorana import (
    SpectralFunctionConfig,
    corner_spectral_functions,
    mode_residual,
)
from spinladder.transfer1d import (
    PhaseLabel,
    classify_phase,
    mpm_ansatz_operator,
    mpm_solution,
    pbc_line_check,
    transfer_matrix,
)

ANGLES = st.floats(0.02, math.pi / 2 - 0.02)


def test_transfer_matrix_worked_example():
    tm = transfer_matrix(3 * math.pi / 8, math.pi / 4)
    root2 = math.sqrt(2.0)
    assert tm.e_minus == pytest.approx(-(root2 - 1), abs=1e-14)
    assert tm.e_plus == pytest.approx(-(root2 + 1), abs=1e-14)
    assert not tm.singular


@given(h=ANGLES, j=ANGLES)
@settings(max_examples=120, deadline=None)
def test_eigen_decomposition_consistent(h, j):
    tm = transfer_matrix(h, j)
    assume(not tm.singular)
    # entries grow like 1/(sin2h sin2J) near the singular lines, so cancel
    # errors scale with the matrix magnitude
    scale = max(1.0, float(np.max(np.abs(tm.matrix))))
    assert tm.e_plus * tm.e_minus == pytest.approx(1.0, abs=1e-12 * scale)
    det = float(np.linalg.det(tm.matrix))
    assert det == pytest.approx(1.0, abs=1e-12 * scale**2)
    for eig, vec in ((tm.e_plus, tm.psi_plus), (tm.e_minus, tm.psi_minus)):
        residual = tm.matrix @ np.asarray(vec) - eig * np.asarray(vec)
        assert float(np.max(np.abs(residual))) < 1e-12 * scale * max(1.0, abs(eig))


def test_eigenvectors_are_trig_pairs():
    h, j = 0.9, 0.5
    tm = transfer_matrix(h, j)
    np.testing.assert_allclose(tm.psi_plus, [math.sin(j), math.cos(j)], atol=1e-14)
    np.testing.assert_allclose(tm.psi_minus, [math.cos(j), -math.sin(j)], atol=1e-14)


def test_singular_angles_flagged():
    tm = transfer_matrix(math.pi / 2, 0.4)
    assert tm.singular
    assert math.isnan(tm.e_minus)
    # eigenvectors depend only on j and stay defined
    np.testing.assert_allclose(tm.psi_minus, [math.cos(0.4), -math.sin(0.4)], atol=1e-14)


def test_boundary_line_unimodular():
    for j in np.linspace(0.01, math.pi / 2 - 0.01, 100):
        tm = transfer_matrix(math.pi / 2 - j, j)
        assert abs(abs(tm.e_plus) - 1.0) < 1e-12
        assert abs(abs(tm.e_minus) - 1.0) < 1e-12


def test_mpm_seed_vanishes_at_exact_kick():
    sol = mpm_solution(math.pi / 2, 0.7, length=6)
    assert sol.seed == (0.0, 0.0)
    assert np.all(sol.a_coeffs == 0.0) and np.all(sol.b_coeffs == 0.0)
    assert sol.norm == 1.0
    assert sol.normalizable


@given(h=ANGLES, j=ANGLES)
@settings(max_examples=120, deadline=None)
def test_mpm_solution_satisfies_recursion_stepwise(h, j):
    assume(abs(math.cos(h)) > 1e-6)
    tm = transfer_matrix(h, j)
    assume(not tm.singular)
    sol = mpm_solution(h, j, length=12)
    vectors = np.column_stack([sol.a_coeffs, sol.b_coeffs])
    for step in range(vectors.shape[0] - 1):
        propagated = tm.matrix @ vectors[step]
        scale = max(1.0, float(np.max(np.abs(vectors[step]))))
        assert float(np.max(np.abs(propagated - vectors[step + 1]))) < 1e-12 * scale
    # seed itself solves the boundary equation: M v1 = E- v1
    v1 = np.array(sol.seed)
    assert float(np.max(np.abs(tm.matrix @ v1 - tm.e_minus * v1))) < 1e-10 * max(
        1.0, float(np.max(np.abs(v1)))
    )


@given(h=ANGLES, j=ANGLES)
@settings(max_examples=120, deadline=None)
def test_normalizable_region_is_above_antidiagonal(h, j):
    assume(abs(math.cos(h)) > 1e-6)
    assume(abs(h + j - math.pi / 2) > 1e-3)
    sol = mpm_solution(h, j, length=4)
    assert sol.normalizable == (h + j > math.pi / 2)
    assert sol.decay == pytest.approx(transfer_matrix(h, j).e_minus)


def test_classify_phase_representatives():
    assert classify_phase(0.35 * math.pi, 0.10 * math.pi) is PhaseLabel.PM
    assert classify_phase(0.10 * math.pi, 0.35 * math.pi) is PhaseLabel.ZERO_SG
    assert classify_phase(0.40 * math.pi, 0.30 * math.pi) is PhaseLabel.PI_SG
    assert classify_phase(0.30 * math.pi, 0.45 * math.pi) is PhaseLabel.ZERO_PI_PM


def test_classify_phase_boundaries_tagged():
    assert classify_phase(0.2 * math.pi, 0.2 * math.pi) is PhaseLabel.BOUNDARY
    assert classify_phase(0.3 * math.pi, 0.2 * math.pi) is PhaseLabel.BOUNDARY
    with pytest.raises(ValueError):
        classify_phase(0.0, 0.3)
    with pytest.raises(ValueError):
        classify_phase(0.3, math.pi / 2)


def chain_operator(h, j, n):
    lattice = make_lattice(1, n)
    params = DriveParams(j_x=0.0, j_y=j, h=h, period=2.0)
    return build_floquet(lattice, params), lattice


def test_ansatz_residual_tracks_phase_diagram():
    """The truncated edge mode nearly anticommutes with U only where the
    classifier says a pi mode exists."""
    n = 10
    cases = [
        (0.40 * math.pi, 0.30 * math.pi, True),
        (0.30 * math.pi, 0.45 * math.pi, True),
        (0.35 * math.pi, 0.10 * math.pi, False),
        (0.10 * math.pi, 0.35 * math.pi, False),
    ]
    for h, j, topological in cases:
        op, lattice = chain_operator(h, j, n)
        mode = mpm_ansatz_operator(lattice, mpm_solution(h, j, length=n - 1))
        residual = mode_residual(op, mode, "pi")
        if topological:
            assert residual < 1e-3, (h, j, residual)
        else:
            assert residual > 0.05, (h, j, residual)


def test_ansatz_exact_at_ideal_kick():
    n = 8
    op, lattice = chain_operator(math.pi / 2, 0.8, n)
    mode = mpm_ansatz_operator(lattice, mpm_solution(math.pi / 2, 0.8, length=n - 1))
    assert mode_residual(op, mode, "pi") < 1e-12


@pytest.mark.parametrize(
    "h, j_y", [(0.8, 0.6), (0.9, 0.6), (0.7, 0.6), (0.6, 0.8)]
)
def test_corner_pi_weight_matches_closed_form_mode(h, j_y):
    """Chain limit of the many-body corner diagnostics: on the open 1x8
    chain with every state sampled, the pi weight of each bare corner
    operator equals 1 / norm**2 of the closed-form pi mode, the squared
    weight of the end Majorana in the normalized mode.  (h, j_y) are in pi/T units; (0.6, 0.8) lies in the
    0pi-PM phase, the rest in the pi-SG phase.

    At h = 0.8 the weight is 0.854 < 0.9: in the chain limit the bare
    corner operator's pi weight is below the threshold of acceptance
    criterion 4.  (0.8, 0.3) is left out: its mode decays slowly and
    the 1x8 weight is off by 3.1e-3.
    """
    n = 8
    lattice = make_lattice(1, n)
    params = DriveParams.from_pi_over_t(j_x=0.0, j_y=j_y, h=h, period=2.0)
    spectrum = diagonalize(build_floquet(lattice, params))
    weights = corner_spectral_functions(
        spectrum, lattice, SpectralFunctionConfig(chi=lattice.dim, window=0.01)
    )
    expected = 1.0 / mpm_solution(h * math.pi / 2, j_y * math.pi / 2, n).norm ** 2
    assert weights.spi_1 == pytest.approx(expected, abs=1e-5)
    assert weights.spi_2 == pytest.approx(expected, abs=1e-5)


def test_pi_pair_splitting_falls_by_transfer_eigenvalue():
    """On open chains at the drive of acceptance criterion 1 the pi
    Majorana pair splits the pi pairing by an amount that decays like the
    closed-form mode, by 1/|E_minus| per added site: the ratio of
    min_dev on the 1x5 to 1x9 chains from one length to the next is
    1/|E_minus| to 1e-6 relative (1x4 misses by 3.6e-6)."""
    params = DriveParams(j_x=0.05 * math.pi / 2, j_y=1.0, h=0.85 * math.pi / 2, period=2.0)
    e_minus = transfer_matrix(params.theta_h, params.theta_y).e_minus
    devs = np.array([
        spacing_stats(diagonalize(build_floquet(make_lattice(1, n), params))).min_dev
        for n in range(5, 10)
    ])
    np.testing.assert_allclose(devs[:-1] / devs[1:], 1.0 / abs(e_minus), rtol=1e-6, atol=0)


def test_pbc_line_check_examples():
    at_ideal = pbc_line_check(math.pi / 2)
    assert at_ideal.mpm_possible
    assert at_ideal.eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)

    away = pbc_line_check(0.3)
    assert not away.mpm_possible
    expected = complex(math.cos(0.6), math.sin(0.6))
    assert away.eigenvalues[0] == pytest.approx(expected, abs=1e-14)
    assert away.eigenvalues[1] == pytest.approx(expected.conjugate(), abs=1e-14)


def test_mpm_solution_argument_errors():
    with pytest.raises(ValueError):
        mpm_solution(0.5, 0.5, length=0)
    with pytest.raises(ValueError):
        mpm_solution(1e-15, 0.5, length=3)
    with pytest.raises(ValueError):
        mpm_solution(0.5, 1e-15, length=3)


def test_ansatz_operator_requires_chain():
    sol = mpm_solution(1.2, 0.8, length=5)
    with pytest.raises(ValueError):
        mpm_ansatz_operator(make_lattice(2, 3), sol)
    with pytest.raises(ValueError):
        mpm_ansatz_operator(make_lattice(1, 8), sol)
