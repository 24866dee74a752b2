"""Tests for periodic grids, fields, derivatives, and coefficients."""

import numpy as np
import pytest

from halfspace.grid import (Field, Torus, apply_coeff,
                            d_op, d_star_op, field_from_csv,
                            field_from_function, field_to_csv,
                            fourier_forward, fourier_inverse,
                            identity_coefficients, inner_product, norm,
                            partial_columns,
                            underline_d, underline_d_star_B,
                            vector_block_coefficients)


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
    g = fourier_inverse(fourier_forward(f))
    assert np.allclose(g.values, f.values, atol=1e-13)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_d_squared_zero(dim_n):
    torus = Torus(dim_n, 5.0, 16)
    f = _random_field(torus)
    assert norm(d_op(d_op(f))) <= 1e-10 * max(norm(f), 1.0)
    assert norm(d_star_op(d_star_op(f))) <= 1e-10 * max(norm(f), 1.0)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_d_star_adjoint_of_d(dim_n):
    torus = Torus(dim_n, 3.0, 16)
    f, g = _random_field(torus, 1), _random_field(torus, 2)
    lhs = inner_product(d_op(f), g)
    rhs = inner_product(f, d_star_op(g))
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
    assert norm(underline_d(underline_d(f))) <= 1e-10 * max(norm(f), 1.0)
    g = underline_d_star_B(underline_d_star_B(f, B), B)
    assert norm(g) <= 1e-10 * max(norm(f), 1.0)


def test_parseval_norm():
    torus = Torus(1, 4.0, 32)
    f = _random_field(torus)
    hat = fourier_forward(f)
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
    f = _random_field(torus)
    g = apply_coeff(B, f)
    assert np.allclose(
        g.values, np.einsum("...ij,...j->...i", B.maps, f.values))
    I = identity_coefficients(torus)
    h = apply_coeff(I, f)
    assert np.allclose(h.values, f.values)


def test_field_csv_roundtrip(tmp_path):
    torus = Torus(1, 2 * np.pi, 16)
    f = _random_field(torus, 7)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    g = field_from_csv(torus, path)
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
    f = field_from_function(torus, lambda x: np.stack(
        [np.sin(x), np.cos(x), 0 * x, 0 * x], axis=-1))
    assert np.allclose(f.component(0), np.sin(torus.axis_coordinates()))
