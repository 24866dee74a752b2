"""Property tests for the exterior algebra's operator tables.

Multivectors are coefficient arrays; f ^ g is the contraction of f with the
stacked ``left_wedge_matrix`` tables, and the hook by a basis vector is its
``left_hook_matrix`` table.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.algebra import (lambda_dim, left_hook_matrix, left_wedge_matrix,
                               m_matrix, mask_degrees, mu_matrix,
                               mu_star_matrix, normal_proj_matrix,
                               reflection_matrix, sigma_count,
                               tangential_proj_matrix)

DIMS = st.sampled_from([1, 2])


def _mv_strategy(dim_n):
    # one integer seed per multivector, so that a failing example shrinks
    # in a few steps (element-wise float draws shrink for minutes)
    d = lambda_dim(dim_n)
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(-10, 10, 2 * d)
        .view(complex))


@st.composite
def mv_pair(draw):
    n = draw(DIMS)
    return draw(_mv_strategy(n)), draw(_mv_strategy(n))


@st.composite
def mv_triple(draw):
    n = draw(DIMS)
    s = _mv_strategy(n)
    return draw(s), draw(s), draw(s)


def _dim(f):
    """n for a coefficient array of length 2^(n+1)."""
    return f.size.bit_length() - 2


@lru_cache(maxsize=None)
def _wedge_tables(dim_n):
    return np.stack([left_wedge_matrix(dim_n, s)
                     for s in range(lambda_dim(dim_n))])


def _wedge(f, g):
    return np.einsum("s,sij,j->i", f, _wedge_tables(_dim(f)), g)


def _part(f, k):
    """The k-vector part of f."""
    return np.where(mask_degrees(_dim(f)) == k, f, 0.0)


def _mu(f):
    return mu_matrix(_dim(f)) @ f


def _mu_star(f):
    return mu_star_matrix(_dim(f)) @ f


def _inner(f, g) -> complex:
    """Sesquilinear scalar product, conjugate-linear in the second slot."""
    return complex(np.vdot(g, f))


def _close(f, g, tol=1e-12):
    scale = max(np.linalg.norm(f), np.linalg.norm(g), 1.0)
    assert np.linalg.norm(f - g) <= tol * scale


@settings(max_examples=200, deadline=None)
@given(mv_pair())
def test_wedge_vectors_anticommute(pair):
    f, g = pair
    u, v = _part(f, 1), _part(g, 1)
    _close(_wedge(u, v), -1.0 * _wedge(v, u))


@settings(max_examples=200, deadline=None)
@given(mv_triple())
def test_wedge_associative(triple):
    f, g, h = triple
    _close(_wedge(_wedge(f, g), h), _wedge(f, _wedge(g, h)))


@settings(max_examples=200, deadline=None)
@given(mv_pair(), st.integers(0, 2))
def test_hook_is_antiderivation_on_vectors(pair, idx):
    # e_i hook (f ^ g) = (e_i hook f) ^ g + (-1)^deg f ^ (e_i hook g)
    f, g = pair
    n = _dim(f)
    hook = left_hook_matrix(n, 1 << (idx % (n + 1)))
    for k in range(n + 2):
        fk = _part(f, k)
        lhs = hook @ _wedge(fk, g)
        rhs = _wedge(hook @ fk, g) + ((-1.0) ** k) * _wedge(fk, hook @ g)
        _close(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_m_squared_is_identity(f):
    m = m_matrix(_dim(f))
    _close(m @ (m @ f), f)


@settings(max_examples=200, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_mu_nilpotent_and_anticommutator(f):
    zero = np.zeros_like(f)
    _close(_mu(_mu(f)), zero)
    _close(_mu_star(_mu_star(f)), zero)
    _close(_mu(_mu_star(f)) + _mu_star(_mu(f)), f)


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(_mv_strategy))
def test_normal_tangential_split(f):
    n = _dim(f)
    nor = normal_proj_matrix(n) @ f
    tan = tangential_proj_matrix(n) @ f
    _close(nor + tan, f)
    _close(tan - nor, reflection_matrix(n) @ f)
    # the normal part is mu mu* f: e_0 taken out and wedged back in
    _close(_mu(_mu_star(f)), nor)


@settings(max_examples=100, deadline=None)
@given(mv_pair())
def test_mu_and_mu_star_adjoint(pair):
    f, g = pair
    assert abs(_inner(_mu(f), g) - _inner(f, _mu_star(g))) <= 1e-10 * max(
        np.linalg.norm(f) * np.linalg.norm(g), 1.0)


def _indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _permutation_sign(seq):
    """(-1)^(number of inversions): the sign of the sort of ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return (-1.0) ** inversions


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("dim_n", [1, 2])
def test_tables_match_permutation_parity(dim_n):
    # e_s ^ e_t is e_{s + t} times the sign that sorts the concatenated
    # index lists, zero when they share an index; e_s _| e_t, for s inside
    # t, is e_{t - s} times the sign that sorts s followed by t - s (so that
    # e_s ^ e_{t - s} = e_t), and zero otherwise
    d = lambda_dim(dim_n)
    for s in range(d):
        wedge, hook = left_wedge_matrix(dim_n, s), left_hook_matrix(dim_n, s)
        S = _indices(s)
        for t in range(d):
            T = _indices(t)
            expected = np.zeros(d)
            if not set(S) & set(T):
                expected[_mask(S + T)] = _permutation_sign(S + T)
            assert np.array_equal(wedge[:, t], expected), (s, t)
            expected = np.zeros(d)
            if set(S) <= set(T):
                rest = [i for i in T if i not in S]
                expected[_mask(rest)] = _permutation_sign(S + rest)
            assert np.array_equal(hook[:, t], expected), (s, t)


def test_sigma_count_examples():
    assert sigma_count(0b10, 0b01) == 1
    assert sigma_count(0b01, 0b10) == 0
    assert sigma_count(0b110, 0b001) == 2


def test_degree_parts_sum_to_identity():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        f = rng.normal(size=lambda_dim(n)).astype(complex)
        _close(sum(_part(f, k) for k in range(n + 2)), f)
