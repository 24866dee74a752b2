"""Tests for periodic grids, fields, derivatives, and coefficients."""

import csv

import numpy as np
import pytest

from halfspace.algebra import m_matrix, mask_label
from halfspace.grid import (Field, Torus, d_op, d_star_columns, field_to_csv,
                            identity_coefficients, inner_product, norm,
                            partial_columns, vector_block_coefficients)


def _fourier_forward(f: Field) -> Field:
    """Componentwise forward DFT over the grid axes (numpy convention)."""
    return Field(f.torus, np.fft.fftn(f.values,
                                      axes=tuple(range(f.torus.dim_n))))


def _fourier_inverse(f: Field) -> Field:
    return Field(f.torus, np.fft.ifftn(f.values,
                                       axes=tuple(range(f.torus.dim_n))))


def _d_star(f: Field) -> Field:
    """Interior derivative d* f = -sum_j e_j _| (d/dx_j f), j = 1..n."""
    return Field(f.torus, d_star_columns(f.torus, f.values[..., None])[..., 0])


def _underline_d(f: Field) -> Field:
    """The rotated nilpotent derivative i m (d f)."""
    return Field(f.torus, 1j * (d_op(f).values @ m_matrix(f.torus.dim_n).T))


def _underline_d_star_B(f: Field, B) -> Field:
    """B^{-1} (i m d*) B f, the coefficient-twisted interior counterpart."""
    Bf = Field(f.torus, np.einsum("...ij,...j->...i", B.maps, f.values))
    mid = 1j * (_d_star(Bf).values @ m_matrix(f.torus.dim_n).T)
    return Field(f.torus, np.einsum("...ij,...j->...i",
                                    np.linalg.inv(B.maps), mid))


def _field_from_function(torus: Torus, fn) -> Field:
    """Sample fn(x) -> coefficient array on the grid, point by point."""
    values = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    coords = torus.coordinates()
    for idx in np.ndindex(*torus.shape):
        values[idx] = fn(np.array([c[idx] for c in coords]))
    return Field(torus, values)


def _field_from_csv(torus: Torus, path) -> Field:
    """Read a field written by ``field_to_csv`` (the CLI's ``trace.csv``);
    the grid must match."""
    n, d = torus.dim_n, torus.lambda_dim
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [f"x{j}" for j in range(n)]
        for mask in range(d):
            bits = mask_label(n, mask)
            expected += [f"re_{bits}", f"im_{bits}"]
        assert header == expected
        rows = list(reader)
    assert len(rows) == torus.num_points
    nums = np.array(rows, dtype=float)[:, n:]
    return Field(torus, (nums[:, 0::2] + 1j * nums[:, 1::2]).reshape(
        torus.shape + (d,)))


def _random_field(torus, seed=0):
    rng = np.random.default_rng(seed)
    shape = torus.shape + (torus.lambda_dim,)
    return Field(torus, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_torus_validation():
    with pytest.raises(ValueError):
        Torus(3, 1.0, 32)
    with pytest.raises(ValueError):
        Torus(1, 1.0, 33)
    with pytest.raises(ValueError):
        Torus(1, -1.0, 32)


@pytest.mark.parametrize("length", [np.nan, np.inf, -np.inf])
def test_torus_rejects_non_finite_length(length):
    with pytest.raises(ValueError, match="finite"):
        Torus(1, length, 32)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_fourier_roundtrip(dim_n):
    torus = Torus(dim_n, 2 * np.pi, 16)
    f = _random_field(torus)
    g = _fourier_inverse(_fourier_forward(f))
    assert np.allclose(g.values, f.values, atol=1e-13)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_d_squared_zero(dim_n):
    torus = Torus(dim_n, 5.0, 16)
    f = _random_field(torus)
    assert norm(d_op(d_op(f))) <= 1e-10 * max(norm(f), 1.0)
    assert norm(_d_star(_d_star(f))) <= 1e-10 * max(norm(f), 1.0)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_d_star_adjoint_of_d(dim_n):
    torus = Torus(dim_n, 3.0, 16)
    f, g = _random_field(torus, 1), _random_field(torus, 2)
    lhs = inner_product(d_op(f), g)
    rhs = inner_product(f, _d_star(g))
    assert abs(lhs - rhs) <= 1e-10 * max(norm(f) * norm(g), 1.0)


def test_derivative_of_plane_wave():
    torus = Torus(1, 2 * np.pi, 32)
    x = torus.axis_coordinates()
    vals = np.zeros(torus.shape + (4,), dtype=complex)
    vals[:, 0] = np.exp(3j * x)  # scalar e_emptyset component
    f = Field(torus, vals)
    df = d_op(f)
    # d of a scalar is its tangential gradient along e_1 (mask 2)
    assert np.allclose(df.component(2), 3j * np.exp(3j * x), atol=1e-12)
    assert np.allclose(df.component(1), 0.0)


def test_partial_columns_of_plane_waves():
    torus = Torus(2, 2 * np.pi, 16)
    x, y = torus.coordinates()
    cols = np.stack([np.exp(1j * (2 * x - 3 * y)), np.cos(x) * np.sin(4 * y)],
                    axis=-1)
    dx = partial_columns(torus, cols, 0)
    dy = partial_columns(torus, cols, 1)
    assert np.allclose(dx[..., 0], 2j * cols[..., 0], atol=1e-12)
    assert np.allclose(dy[..., 0], -3j * cols[..., 0], atol=1e-12)
    assert np.allclose(dx[..., 1], -np.sin(x) * np.sin(4 * y), atol=1e-12)
    assert np.allclose(dy[..., 1], 4 * np.cos(x) * np.cos(4 * y), atol=1e-12)


def test_underline_operators_nilpotent():
    torus = Torus(1, 2 * np.pi, 16)
    f = _random_field(torus)
    B = identity_coefficients(torus)
    assert norm(_underline_d(_underline_d(f))) <= 1e-10 * max(norm(f), 1.0)
    g = _underline_d_star_B(_underline_d_star_B(f, B), B)
    assert norm(g) <= 1e-10 * max(norm(f), 1.0)


def test_parseval_norm():
    torus = Torus(1, 4.0, 32)
    f = _random_field(torus)
    hat = _fourier_forward(f)
    # DFT convention: ||f||^2 * N = weight * sum |hat|^2 / N * N
    lhs = norm(f) ** 2
    rhs = torus.weight * np.sum(np.abs(hat.values) ** 2) / torus.num_points
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)


def test_coefficient_apply_and_accretivity():
    torus = Torus(1, 2 * np.pi, 16)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = vector_block_coefficients(torus, A)
    assert B.kappa > 0
    assert B.sup_norm >= 1.0
    assert B.is_accretive()
    # A on the 1-vectors (masks 1 and 2), the identity on degrees 0 and 2
    assert np.array_equal(B.vector_block(), np.broadcast_to(A, (16, 2, 2)))
    off = [0, 3]
    assert np.array_equal(B.maps[:, off][:, :, off],
                          np.broadcast_to(np.eye(2), (16, 2, 2)))
    assert np.array_equal(identity_coefficients(torus).maps,
                          np.broadcast_to(np.eye(4), (16, 4, 4)))


def test_field_csv_roundtrip(tmp_path):
    torus = Torus(1, 2 * np.pi, 16)
    f = _random_field(torus, 7)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    g = _field_from_csv(torus, path)
    assert np.allclose(g.values, f.values, rtol=0, atol=1e-15)


def test_field_shape_and_finite_validation():
    torus = Torus(1, 2 * np.pi, 16)
    with pytest.raises(ValueError):
        Field(torus, np.zeros((16, 3)))
    bad = np.zeros((16, 4))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Field(torus, bad)


def test_field_from_function():
    torus = Torus(1, 2 * np.pi, 32)
    f = _field_from_function(torus, lambda x: np.stack(
        [np.sin(x), np.cos(x), 0 * x, 0 * x], axis=-1))
    assert np.allclose(f.component(0), np.sin(torus.axis_coordinates()))
