"""Property tests for the exterior algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.algebra import (MultiVector, basis_element, degree_part, dot,
                               hook, lambda_dim, left_hook_matrix,
                               left_wedge_matrix, m_matrix, m_op, mu,
                               mu_matrix, mu_star, mu_star_matrix,
                               normal_proj_matrix, reflection_matrix, scalar,
                               sigma_count, tangential_proj_matrix, wedge)

DIMS = st.sampled_from([1, 2])


def _mv_strategy(dim_n):
    d = lambda_dim(dim_n)
    comp = st.floats(-10, 10, allow_nan=False)
    return st.lists(st.tuples(comp, comp), min_size=d, max_size=d).map(
        lambda pairs: MultiVector(
            dim_n, np.array([complex(a, b) for a, b in pairs])))


@st.composite
def mv_pair(draw):
    n = draw(DIMS)
    return draw(_mv_strategy(n)), draw(_mv_strategy(n))


@st.composite
def mv_triple(draw):
    n = draw(DIMS)
    s = _mv_strategy(n)
    return draw(s), draw(s), draw(s)


def _inner(f: MultiVector, g: MultiVector) -> complex:
    """Sesquilinear scalar product, conjugate-linear in the second slot."""
    return complex(np.vdot(g.coeffs, f.coeffs))


def _close(f: MultiVector, g: MultiVector, tol=1e-12):
    scale = max(f.norm(), g.norm(), 1.0)
    assert (f - g).norm() <= tol * scale


@settings(max_examples=200, deadline=None)
@given(mv_pair())
def test_wedge_vectors_anticommute(pair):
    f, g = pair
    u, v = degree_part(f, 1), degree_part(g, 1)
    _close(wedge(u, v), -1.0 * wedge(v, u))


@settings(max_examples=200, deadline=None)
@given(mv_triple())
def test_wedge_associative(triple):
    f, g, h = triple
    _close(wedge(wedge(f, g), h), wedge(f, wedge(g, h)))


@settings(max_examples=200, deadline=None)
@given(mv_pair(), st.integers(0, 2))
def test_hook_is_antiderivation_on_vectors(pair, idx):
    # e_i hook (f ^ g) = (e_i hook f) ^ g + (-1)^deg f ^ (e_i hook g)
    f, g = pair
    n = f.dim_n
    idx = idx % (n + 1)
    e = basis_element(n, 1 << idx)
    for k in range(n + 2):
        fk = degree_part(f, k)
        lhs = hook(e, wedge(fk, g))
        rhs = wedge(hook(e, fk), g) + ((-1.0) ** k) * wedge(fk, hook(e, g))
        _close(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_m_squared_is_identity(f):
    _close(m_op(m_op(f)), f)


@settings(max_examples=200, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_mu_nilpotent_and_anticommutator(f):
    zero = MultiVector(f.dim_n, np.zeros(lambda_dim(f.dim_n)))
    _close(mu(mu(f)), zero)
    _close(mu_star(mu_star(f)), zero)
    _close(mu(mu_star(f)) + mu_star(mu(f)), f)


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_normal_tangential_split(f):
    n = f.dim_n
    nor = MultiVector(n, normal_proj_matrix(n) @ f.coeffs)
    tan = MultiVector(n, tangential_proj_matrix(n) @ f.coeffs)
    _close(nor + tan, f)
    _close(tan - nor, MultiVector(n, reflection_matrix(n) @ f.coeffs))
    # the normal part is mu mu* f: e_0 taken out and wedged back in
    _close(mu(mu_star(f)), nor)


@settings(max_examples=100, deadline=None)
@given(mv_pair())
def test_mu_and_mu_star_adjoint(pair):
    f, g = pair
    assert abs(_inner(mu(f), g) - _inner(f, mu_star(g))) <= 1e-10 * max(
        f.norm() * g.norm(), 1.0)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_matrix_forms_match_operations(dim_n):
    rng = np.random.default_rng(0)
    d = lambda_dim(dim_n)
    for s in range(d):
        e = basis_element(dim_n, s)
        for _ in range(5):
            f = MultiVector(dim_n, rng.normal(size=d) + 1j * rng.normal(size=d))
            assert np.allclose(left_wedge_matrix(dim_n, s) @ f.coeffs,
                               wedge(e, f).coeffs)
            assert np.allclose(left_hook_matrix(dim_n, s) @ f.coeffs,
                               hook(e, f).coeffs)
    f = MultiVector(dim_n, rng.normal(size=d) + 1j * rng.normal(size=d))
    assert np.allclose(mu_matrix(dim_n) @ f.coeffs, mu(f).coeffs)
    assert np.allclose(mu_star_matrix(dim_n) @ f.coeffs, mu_star(f).coeffs)
    assert np.allclose(m_matrix(dim_n) @ f.coeffs, m_op(f).coeffs)


def test_sigma_count_examples():
    assert sigma_count(0b10, 0b01) == 1
    assert sigma_count(0b01, 0b10) == 0
    assert sigma_count(0b110, 0b001) == 2


def test_degree_parts_sum_to_identity():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        f = MultiVector(n, rng.normal(size=lambda_dim(n)))
        total = scalar(n, 0.0)
        for k in range(n + 2):
            total = total + degree_part(f, k)
        _close(total, f)


def test_inner_vs_bilinear_dot():
    # 1-vectors at n = 1: e_0 and e_1 are masks 1 and 2
    f = MultiVector(1, np.array([0.0, 1.0 + 2j, 3.0, 0.0]))
    g = MultiVector(1, np.array([0.0, 1.0 - 1j, 2.0, 0.0]))
    assert abs(_inner(f, g) - ((1 + 2j) * np.conj(1 - 1j) + 3 * 2)) < 1e-14
    assert abs(dot(f, g) - ((1 + 2j) * (1 - 1j) + 3 * 2)) < 1e-14


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        wedge(scalar(1), scalar(2))
    with pytest.raises(ValueError):
        basis_element(1, 4)
