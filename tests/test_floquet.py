"""Propagator construction and diagnostics against small dense oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st

from spinladder.floquet import (
    MIRROR_ANGLE,
    RESIDUAL_TOL,
    DriveParams,
    NumericalToleranceError,
    QuasienergySpectrum,
    SymmetryGroup,
    build_floquet,
    diagonalize,
    fold_quasienergy,
    rotate_x_all_sites,
    solvable_point_spectrum_1x4,
    solvable_point_spectrum_2x2,
    spacing_stats,
    symmetry_group,
)
from spinladder.floquet import KICK_BLOCK_SITES, _kick_blocks, _quarter_turns, _unitary_eig
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


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_real_block_conjugates_to_complex_kick(width):
    """S R^w S^dagger, S = prod_k diag(1, i), is the kron power of
    exp(-i theta X); the lowest block's float64 form multiplies by R^w."""
    theta = 0.81
    c, s = math.cos(theta), math.sin(theta)
    complex_block = np.ones((1, 1), dtype=complex)
    for _ in range(width):
        complex_block = np.kron(complex_block, [[c, -1j * s], [-1j * s, c]])
    # an upper group of ``width`` sites takes R^w itself
    real = _kick_blocks(theta, KICK_BLOCK_SITES + width)[1]
    assert real.dtype == np.float64
    phase = _quarter_turns(width)
    conjugated = phase[:, np.newaxis] * real * phase.conj()[np.newaxis, :]
    np.testing.assert_allclose(conjugated, complex_block, rtol=0, atol=1e-15)

    rng = np.random.default_rng(width)
    v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    (interleaved,) = _kick_blocks(theta, width)
    assert interleaved.shape == (2 << width, 2 << width)
    got = (interleaved @ v.view(np.float64)).view(complex)
    np.testing.assert_allclose(got, real @ v, rtol=0, atol=1e-15)


def test_rotate_x_matches_expm():
    """One kron block, a narrower last block, and two or three blocks;
    the result lands in the caller's array whether the last product
    was written to it or to the second buffer."""
    theta = 0.81
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5, 8, 9):
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


def kron_rows(op, rows):
    """Rows of the kron-built U.  Row r of a kron product is the kron
    product of the factors' rows, so each row is built from the
    single-site kick rows for the bits of r, site N-1 first, in the
    factor order of build_floquet(materialize_dense=True)."""
    c, s = math.cos(op.params.theta_h), math.sin(op.params.theta_h)
    site = np.array([[c, -1j * s], [-1j * s, c]])
    out = np.empty((len(rows), op.lattice.dim), dtype=complex)
    for i, r in enumerate(rows):
        row = np.ones(1, dtype=complex)
        for k in reversed(range(op.lattice.n_sites)):
            row = np.kron(row, site[(r >> k) & 1])
        out[i] = row * op.zz_phase
    return out


def test_matrix_free_matches_dense():
    """op.apply against the kron-built U, on a periodic ladder and on
    chains of one to thirteen sites: one to four kron blocks, with and
    without a narrower last one, at kick angles pi/2, a generic value
    and multiples of pi (h = 0 takes the early return).  From 12 sites
    the lowest group is a stack of gemms over rows (two at 12, eight at
    14); at 15 and 16 sites the upper group also splits its columns into
    four and sixteen gemms.  Past ten sites U (1 GiB at 13) is read only
    on sampled rows, from kron_rows, which equal the rows of the
    kron-built matrix bit for bit where it exists.  apply() must also
    equal the zz multiply followed by rotate_x_all_sites exactly, the
    split that the benchmark's traced period rebuilds."""
    rng = np.random.default_rng(11)
    cases = [(make_lattice(2, 3, bc_y="periodic"), 1.1)]
    cases += [
        (make_lattice(1, n), h)
        for n in range(1, 14)
        for h in (0.0, math.pi / 2, 0.83, math.pi, 2 * math.pi)
    ]
    cases += [(make_lattice(1, n), 0.83) for n in (14, 15, 16)]
    for lat, h in cases:
        params = DriveParams(j_x=0.4, j_y=0.7, h=h, period=2.0)
        op = build_floquet(lat, params, materialize_dense=lat.n_sites <= 10)
        rows = np.sort(rng.choice(lat.dim, size=min(lat.dim, 32), replace=False))
        u_rows = kron_rows(op, rows)
        if op.dense is not None:
            assert np.array_equal(u_rows, op.dense[rows])
            rows, u_rows = np.arange(lat.dim), np.asarray(op.dense)
        for _ in range(20):
            v = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
            v /= np.linalg.norm(v)
            got = op.apply(v)
            np.testing.assert_allclose(got[rows], u_rows @ v, atol=1e-13)
            split = rotate_x_all_sites(op.zz_phase * v, lat.n_sites, params.theta_h)
            assert np.array_equal(got, split)


@pytest.mark.parametrize(
    "n_sites,h", [(3, 0.83), (6, 0.83), (10, 0.83), (10, 0.0), (11, 0.83), (12, 0.83), (13, 0.83)]
)
def test_stacked_apply_rows_match_single_applies(n_sites, h):
    """Every row of an (m, D) stack comes out of apply() bit for bit as
    it does alone: below D = 2048 the lowest group's gemm covers a whole
    vector, above it the vector is cut into several gemms, and an odd m
    must cut neither across vectors.  A Fortran-ordered stack gives the
    same rows.  At h = 0 only the zz multiply runs."""
    lat = make_lattice(1, n_sites)
    op = build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=h, period=2.0))
    rng = np.random.default_rng(n_sites)
    for m in (1, 3, 7):
        stack = rng.normal(size=(m, lat.dim)) + 1j * rng.normal(size=(m, lat.dim))
        before = stack.copy()
        got = op.apply(stack)
        assert got.shape == stack.shape
        assert np.array_equal(stack, before)
        for row, state in zip(got, stack):
            assert np.array_equal(row, op.apply(state))
        # a Fortran-ordered stack, the transpose of a (D, m) array
        assert np.array_equal(op.apply(np.ascontiguousarray(stack.T).T), got)


def test_apply_rejects_misshaped_states():
    lat = make_lattice(1, 4)
    op = build_floquet(lat, DriveParams(j_x=0.4, j_y=0.7, h=0.83, period=2.0))
    for shape in [(lat.dim, 1), (2, 3, lat.dim), (3, lat.dim + 1), (lat.dim - 1,)]:
        with pytest.raises(ValueError):
            op.apply(np.zeros(shape, dtype=complex))


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
    """Matrix elements U[rows, cols] read the way diagonalize reads them:
    one stacked apply on the basis rows of cols gives the columns U|c>,
    and the elements are gathered from those at broadcast indices.  Each
    row of the stack equals its single apply bit for bit, the kron_rows
    oracle equals the dense matrix bit for bit at the sampled rows, and
    the gathered elements, like apply(eye).T of mode_residual, agree with
    both to 1e-13 (the blocked kick rounds differently from the kron
    product past KICK_BLOCK_SITES sites)."""
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc)
    params = DriveParams(j_x=0.35, j_y=0.8, h=h, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    rng = np.random.default_rng(n_x * 100 + n_y)
    rows = rng.integers(lat.dim, size=(5, 1, 3))
    cols = rng.integers(lat.dim, size=(4, 1))
    basis = np.zeros((cols.size, lat.dim), dtype=complex)
    basis[np.arange(cols.size), cols[:, 0]] = 1.0
    columns = op.apply(basis)
    for column, state in zip(columns, basis):
        assert np.array_equal(column, op.apply(state))
    got = columns.T[rows, np.arange(cols.size)[:, np.newaxis]]
    assert got.shape == (5, 4, 3)
    want = op.dense[rows, cols]
    assert np.array_equal(kron_rows(op, rows.ravel()), op.dense[rows.ravel()])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    u = op.apply(np.eye(lat.dim, dtype=complex)).T
    np.testing.assert_allclose(u, op.dense, rtol=0, atol=1e-13)
    if h == 0.0:
        # no kick: U is the zz diagonal, exact on both paths
        assert np.array_equal(got, want)
        assert np.array_equal(u, op.dense)


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
    # direct residual check, independent of the residuals diagonalize reports
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


@pytest.mark.parametrize("n_x,n_y", [(5, 2), (1, 10)])
def test_diagonalize_holds_no_dense_matrix(n_x, n_y):
    """On a torus the blocks come from U applied to about D/|G| orbit
    representatives, so diagonalize never holds a D x D array: its
    traced peak stays below a quarter of one complex D x D matrix."""
    lat = make_lattice(n_x, n_y, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    op = build_floquet(lat, DriveParams(j_x=0.35, j_y=0.8, h=0.95, period=2.0))
    # the first call binds LAPACK and fills the kick caches
    diagonalize(op)
    tracemalloc.start()
    try:
        diagonalize(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * lat.dim**2


def planted_unitary(alpha, seed=0):
    """V diag(exp(i alpha)) V^H for a random unitary V."""
    rng = np.random.default_rng(seed)
    n = len(alpha)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (v * np.exp(1j * np.asarray(alpha))) @ v.conj().T


PHI = MIRROR_ANGLE


@pytest.mark.parametrize(
    "alpha",
    [
        # exact multiplicity-3 clusters, -1 among them
        [0.1] * 3 + [1.2] * 3 + [np.pi] * 3 + [-2.0] * 3 + [0.7],
        # mirror pairs about the mirror angle: equal Hermitian parts
        [PHI + 0.4, PHI - 0.4, PHI + 1.3, PHI - 1.3, PHI + 2.9, PHI - 2.9, 0.2],
        # within 1e-9 of phi and phi + pi, where cos(x) turns
        [PHI, PHI + 1e-9, PHI - 7e-10, PHI + np.pi, PHI + np.pi + 1e-9, PHI + np.pi - 4e-10, 1.0],
        # mirror pairs about phi +- pi/2, where sin(x) turns
        [PHI + np.pi / 2 + 1e-5, PHI + np.pi / 2 - 1e-5, PHI - np.pi / 2 + 3e-5, PHI - np.pi / 2 - 3e-5, 0.3],
        # at -1 and 1e-13 to either side, across the zone edge
        [np.pi, np.pi + 1e-13, np.pi - 1e-13, np.pi, 0.5, -0.5],
    ],
    ids=["triples", "mirror-pairs", "near-turns-of-cos", "near-turns-of-sin", "minus-one"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitary_eig_on_planted_spectra(alpha, seed):
    """The two Hermitian passes on unitaries with planted levels:
    orthonormal vectors, residuals a hundred times below the guard, and
    the planted levels, also in clusters and at the turning points."""
    u = planted_unitary(alpha, seed)
    lam, vecs, residuals = _unitary_eig(u)
    n = len(alpha)
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() <= 1e-13
    assert residuals.max() <= RESIDUAL_TOL / 100
    np.testing.assert_allclose(residuals, np.linalg.norm(u @ vecs - vecs * lam, axis=0), atol=1e-15)
    # match on the circle, so levels at -1 compare across the zone edge
    planted = np.exp(1j * np.asarray(alpha))
    cost = np.abs(lam[:, np.newaxis] - planted)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12


@pytest.mark.parametrize(
    "n_x,n_y,bc,h",
    [
        (5, 2, "open", 0.3),
        (5, 2, "open", 0.8),
        (1, 10, "open", 0.3),
        (1, 10, "open", 0.8),
        (6, 2, "periodic", 0.8),
    ],
)
def test_residuals_keep_margin_to_guard(n_x, n_y, bc, h):
    """The cluster gap keeps every residual well inside the guard on
    the largest blocks: a gap set too small would show here before it
    trips the guard."""
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc, dedup_coincident_bonds=False)
    spec = diagonalize(build_floquet(lat, DriveParams.from_pi_over_t(0.05, 0.6, h, 2.0)))
    assert spec.residuals.max() <= RESIDUAL_TOL / 10


@pytest.mark.parametrize(
    "n_x,n_y,bc,dedup",
    [(4, 2, "periodic", False), (3, 2, "periodic", True), (1, 8, "periodic", True), (3, 2, "open", True)],
)
def test_symmetry_group_tables_match_brute_force(n_x, n_y, bc, dedup):
    """The tables a SymmetryGroup derives at construction, against
    per-index loops over the images; every table is read-only, since one
    group serves every spectrum built from it."""
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc, dedup_coincident_bonds=dedup)
    group = symmetry_group(lat)
    images = group.images
    for b in range(lat.dim):
        assert images[group.carrier[b], group.reps[group.orbit[b]]] == b
    for a, rep in enumerate(group.reps):
        members = {int(b) for b in images[:, rep]}
        assert rep == min(members)
        assert {int(b) for b in np.flatnonzero(group.orbit == a)} == members
        assert group.stab_sums[0, a] == sum(images[e, rep] == rep for e in range(group.order))
    chars = group.characters
    np.testing.assert_allclose(chars[group.partners], chars.conj(), rtol=0, atol=1e-14)
    for name in ("characters", "partners", "reps", "orbit", "carrier", "stab_sums"):
        table = getattr(group, name)
        with pytest.raises(ValueError):
            table[0] = table[0]


def _sector_basis(group, label):
    """Columns sum_g conj(chi(g)) |g r> / norm for every representative r
    whose state exists in sector ``label``, built from the group alone."""
    reps = group.reps
    basis = np.zeros((group.images.shape[1], reps.size), dtype=complex)
    weights = np.broadcast_to(group.characters[label].conj()[:, np.newaxis], (group.order, reps.size))
    np.add.at(basis, (group.images[:, reps], np.arange(reps.size)), weights)
    norms = np.linalg.norm(basis, axis=0)
    keep = norms > 1e-6
    return basis[:, keep] / norms[keep], keep


@pytest.mark.parametrize("n_x,n_y", [(3, 2), (4, 2), (1, 8)])
@pytest.mark.parametrize("h", [0.95, 0.4 * math.pi])
def test_copied_sectors_match_their_own_schur(n_x, n_y, h):
    """Sector -k is not factorized but copied from sector k; a Schur of
    its own block, projected from the dense U, gives the same levels."""
    lat = make_lattice(n_x, n_y, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False)
    params = DriveParams(j_x=0.35, j_y=0.8, h=h, period=2.0)
    op = build_floquet(lat, params, materialize_dense=True)
    spec = diagonalize(op)
    partners = spec.group.partners
    copied = [k for k in np.unique(spec.labels) if k > partners[k]]
    assert copied
    for label in copied:
        basis, keep = _sector_basis(spec.group, label)
        ranks = np.flatnonzero(spec.labels == label)
        assert np.array_equal(keep, spec.group.stab_sums[label] > 0)
        assert keep.sum() == ranks.size
        t_mat, _ = scipy.linalg.schur(basis.conj().T @ op.dense @ basis, output="complex")
        own = np.diag(t_mat)
        got = spec.eigenvalues[ranks]
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, np.newaxis] - own))
        assert np.abs(got[rows] - own[cols]).max() <= 1e-12


def test_eigenvectors_built_once_and_readonly():
    lat = make_lattice(3, 2, bc_x="periodic", bc_y="periodic")
    params = DriveParams(j_x=0.35, j_y=0.8, h=0.95, period=2.0)
    spec = diagonalize(build_floquet(lat, params))
    assert "eigenvectors" not in vars(spec)
    vecs = spec.eigenvectors
    assert spec.eigenvectors is vecs
    with pytest.raises(ValueError):
        vecs[0, 0] = 1.0


@pytest.mark.parametrize(
    "n_x,n_y,bc", [(3, 2, "open"), (1, 8, "open"), (4, 2, "periodic"), (1, 8, "periodic")]
)
def test_vectors_and_overlaps_match_eigenvectors(n_x, n_y, bc):
    """vectors() embeds columns of ``eigenvectors`` bit for bit, and
    overlaps() is V^H x, on ranks of copied partner sectors too.  Each
    embedded vector transforms under the group with its sector's
    characters, and its sector vector vanishes on the representatives
    whose state does not exist in that sector."""
    lat = make_lattice(n_x, n_y, bc_x=bc, bc_y=bc, dedup_coincident_bonds=False)
    spec = diagonalize(build_floquet(lat, DriveParams(j_x=0.35, j_y=0.8, h=0.95, period=2.0)))
    rng = np.random.default_rng(5)
    group = spec.group
    copied = spec.labels > group.partners[spec.labels]
    assert copied.any() == (bc == "periodic")
    firsts = [np.flatnonzero(spec.labels == k)[0] for k in np.unique(spec.labels[copied])]
    ranks = np.concatenate([rng.choice(spec.dim, 6, replace=False), firsts]).astype(np.intp)
    block = spec.vectors(ranks)
    states = rng.normal(size=(lat.dim, 3)) + 1j * rng.normal(size=(lat.dim, 3))
    got = spec.overlaps(states)
    single = spec.overlaps(states[:, 0])

    vecs = spec.eigenvectors
    assert np.array_equal(block, vecs[:, ranks])
    np.testing.assert_allclose(got, vecs.conj().T @ states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(single, got[:, 0], rtol=0, atol=1e-12)
    # adjoint pair: the overlaps of an embedded eigenvector pick out its rank
    np.testing.assert_allclose(
        spec.overlaps(block), np.eye(spec.dim)[:, ranks], rtol=0, atol=1e-12
    )
    with pytest.raises(ValueError):
        spec.overlaps(states[1:])

    # (rank, representative) pairs whose state does not exist in the rank's
    # sector; the spin flip alone fixes no basis state
    absent = group.stab_sums[spec.labels] == 0
    assert absent.any() == (bc == "periodic")
    assert np.all(spec.sector_vectors.T[absent] == 0)
    for n in ranks:
        vec = spec.vectors([n])[:, 0]
        for g in range(group.order):
            moved = np.empty_like(vec)
            moved[group.images[g]] = vec
            np.testing.assert_allclose(
                moved, group.characters[spec.labels[n], g] * vec, rtol=0, atol=1e-12
            )


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
    """Given levels with identity eigenvectors, all in the one sector of
    the trivial group."""
    eps = np.sort(np.asarray(values, dtype=float))
    dim = eps.size
    return QuasienergySpectrum(
        quasienergies=eps,
        eigenvalues=np.exp(-1j * eps * period),
        residuals=np.zeros(dim),
        period=period,
        group=SymmetryGroup(orders=(1,), images=np.arange(dim)[np.newaxis, :]),
        labels=np.zeros(dim, dtype=np.intp),
        sector_vectors=np.eye(dim, dtype=complex),
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
