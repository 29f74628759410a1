"""Bit-mask Pauli algebra against a dense Kronecker-product oracle."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinladder.pauli import DENSE_SITE_CAP, PauliString

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_oracle(p: PauliString) -> np.ndarray:
    """Independent dense form: phase times site-local X^x Z^z factors."""
    factors = []
    for k in range(p.n_sites):
        x = bool(p.x_mask >> k & 1)
        z = bool(p.z_mask >> k & 1)
        factors.append((X if x else I2) @ (Z if z else I2))
    # site 0 is the least significant bit, so it sits rightmost in the kron
    full = functools.reduce(np.kron, reversed(factors)) if factors else I2
    return p.phase * full


def strings(max_sites=5):
    def build(n, x, z, phase_index):
        return PauliString(
            n, x_mask=x % (1 << n), z_mask=z % (1 << n), phase=1j**phase_index
        )

    return st.builds(
        build,
        st.integers(1, max_sites),
        st.integers(0, (1 << max_sites) - 1),
        st.integers(0, (1 << max_sites) - 1),
        st.integers(0, 3),
    )


def pairs(max_sites=5):
    def build(n, x1, z1, p1, x2, z2, p2):
        mask = (1 << n) - 1
        return (
            PauliString(n, x_mask=x1 & mask, z_mask=z1 & mask, phase=1j**p1),
            PauliString(n, x_mask=x2 & mask, z_mask=z2 & mask, phase=1j**p2),
        )

    big = st.integers(0, (1 << max_sites) - 1)
    return st.builds(
        build, st.integers(1, max_sites), big, big, st.integers(0, 3),
        big, big, st.integers(0, 3),
    )


@given(strings())
@settings(max_examples=60, deadline=None)
def test_to_matrix_matches_oracle(p):
    np.testing.assert_allclose(p.to_matrix(), dense_oracle(p), atol=0)


@given(pairs())
@settings(max_examples=60, deadline=None)
def test_product_matches_dense(pair):
    left, right = pair
    product = left * right
    expected = dense_oracle(left) @ dense_oracle(right)
    np.testing.assert_allclose(product.to_matrix(), expected, atol=0)


@given(strings(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_apply_matches_matvec(p, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**p.n_sites) + 1j * rng.normal(size=2**p.n_sites)
    np.testing.assert_allclose(p.apply(v), dense_oracle(p) @ v, atol=1e-15)


@given(strings(), st.integers(0, 1000), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_apply_block_matches_columns(p, seed, width):
    """A (D, m) block gives, column by column, exactly the vector result."""
    rng = np.random.default_rng(seed)
    shape = (2**p.n_sites, width)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = p.apply(block)
    assert got.shape == shape
    for j in range(width):
        assert np.array_equal(got[:, j], p.apply(block[:, j]))


def test_apply_rejects_wrong_shapes():
    p = PauliString.single(3, 1, "y")
    for shape in ((4,), (9,), (4, 2), (8, 2, 2), ()):
        with pytest.raises(ValueError):
            p.apply(np.zeros(shape, dtype=complex))


def test_single_site_factories():
    n = 3
    for kind, mat in (("x", X), ("y", Y), ("z", Z)):
        p = PauliString.single(n, 1, kind)
        expected = functools.reduce(np.kron, [I2, mat, I2])
        np.testing.assert_allclose(p.to_matrix(), expected, atol=0)


def test_identity_and_squares():
    ident = PauliString(4, x_mask=0, z_mask=0)
    y = PauliString.single(4, 2, "y")
    assert ident * y == y == y * ident
    assert y * y == ident


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        PauliString.single(2, 0, "x") * PauliString.single(3, 0, "x")


def test_phase_validation():
    with pytest.raises(ValueError):
        PauliString(2, x_mask=1, z_mask=0, phase=0.5)


def test_dense_cap():
    big = PauliString(DENSE_SITE_CAP + 1, x_mask=1, z_mask=0)
    with pytest.raises(Exception):
        big.to_matrix()
