"""Tests for operator assembly (dense and matrix free), subspace restriction,
and duality."""

import numpy as np
import pytest

from halfspace import assembly
from halfspace.assembly import (NB_operator, PointwiseInversionError,
                                SubspaceInvarianceError, TB_operator,
                                adjoint_in_duality, assemble_MB, assemble_NB,
                                assemble_TB, d_matrix, d_star_matrix,
                                derivative_matrix, duality_pairing,
                                hat_h1_basis, hat_hk_basis, hodge_split,
                                m_full_matrix, matrix_from_csv, matrix_to_csv,
                                reflection_full_matrix, reflection_operator,
                                restrict)
from halfspace.diagnostics import (block_coefficients,
                                   random_accretive_constant,
                                   skew_coefficients, smooth_real_symmetric)
from halfspace.grid import (CoefficientField, Field, Torus,
                            identity_coefficients, inner_product,
                            vector_block_coefficients)


def _smooth_A(torus, seed=3):
    from halfspace.diagnostics import smooth_real_symmetric
    return smooth_real_symmetric(torus, seed)


def _rand_field(torus, seed=0):
    rng = np.random.default_rng(seed)
    shape = torus.shape + (torus.lambda_dim,)
    return Field(torus, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_derivative_matrix_matches_fft():
    torus = Torus(1, 2 * np.pi, 16)
    D = derivative_matrix(torus, 0)
    x = torus.axis_coordinates()
    u = np.exp(2j * x)
    assert np.allclose(D @ u, 2j * u, atol=1e-12)


def test_d_matrices_nilpotent_and_adjoint():
    torus = Torus(1, 2 * np.pi, 16)
    d = d_matrix(torus)
    ds = d_star_matrix(torus)
    assert np.linalg.norm(d @ d, 2) <= 1e-10 * np.linalg.norm(d, 2)
    assert np.linalg.norm(ds @ ds, 2) <= 1e-10 * np.linalg.norm(ds, 2)
    # d* is the L2 adjoint of d (uniform quadrature weight cancels)
    assert np.linalg.norm(ds - d.conj().T, 2) <= 1e-10 * np.linalg.norm(d, 2)


def test_m_full_matrix_involution():
    torus = Torus(1, 2 * np.pi, 16)
    m = m_full_matrix(torus)
    assert np.allclose(m @ m, np.eye(m.shape[0]))


def test_TB_identity_coefficients_structure():
    torus = Torus(1, 2 * np.pi, 16)
    T = assemble_TB(identity_coefficients(torus))
    mat = T.entries
    # T is hermitian for B = I
    assert np.linalg.norm(mat - mat.conj().T, 2) <= 1e-10 * np.linalg.norm(mat, 2)


def test_TB_singular_coefficients_rejected():
    torus = Torus(1, 2 * np.pi, 16)
    d = torus.lambda_dim
    maps = np.broadcast_to(np.eye(d, dtype=complex),
                           torus.shape + (d, d)).copy()
    maps[0] = 0.0  # singular at one point
    B = CoefficientField(torus, maps)
    with pytest.raises(PointwiseInversionError):
        assemble_MB(B)


def test_hat_h1_basis_invariance_under_TB():
    torus = Torus(1, 2 * np.pi, 32)
    B = _smooth_A(torus)
    basis = hat_h1_basis(torus)
    T = restrict(assemble_TB(B), basis, 1e-8)
    assert T.invariance_defect <= 1e-10
    assert T.entries.shape == (basis.columns.shape[1],) * 2


def test_restrict_rejects_noninvariant_subspace():
    torus = Torus(1, 2 * np.pi, 16)
    B = _smooth_A(torus)
    full_dim = torus.num_points * torus.lambda_dim
    rng = np.random.default_rng(0)
    cols = np.linalg.qr(rng.normal(size=(full_dim, 5)))[0]
    bad = assembly.SubspaceBasis(cols, "random")
    with pytest.raises(SubspaceInvarianceError):
        restrict(assemble_TB(B), bad, 1e-8)


def test_hat_NB_equals_reflection_for_block():
    torus = Torus(1, 2 * np.pi, 32)
    x = torus.axis_coordinates()
    A = np.zeros(torus.shape + (2, 2))
    A[:, 0, 0] = 1.0 + 0.4 * np.cos(2 * np.pi * x / torus.length)
    A[:, 1, 1] = 1.0 + 0.3 * np.sin(2 * np.pi * x / torus.length)
    from halfspace.diagnostics import block_coefficients
    B = block_coefficients(torus, seed=1)
    _, _, NB = assemble_NB(B, variant="hat")
    N = reflection_full_matrix(torus)
    basis = hat_h1_basis(torus)
    P = basis.projector()
    defect = np.linalg.norm(P @ (NB.entries - N) @ P, 2)
    assert defect <= 1e-9


def test_duality_adjoint_of_dirac():
    torus = Torus(1, 2 * np.pi, 16)
    B = _smooth_A(torus)
    T = assemble_TB(B)
    Tdual = adjoint_in_duality(T, B)
    Tstar = assemble_TB(B.adjoint())
    assert np.linalg.norm(Tdual.entries + Tstar.entries, 2) <= \
        1e-9 * np.linalg.norm(Tstar.entries, 2)


def test_duality_pairing_vs_matrix():
    torus = Torus(1, 2 * np.pi, 16)
    B = identity_coefficients(torus)
    f, g = _rand_field(torus, 1), _rand_field(torus, 2)
    # for B = I the pairing is the sesquilinear L2 product twisted by the
    # boundary reflection N = N^+ - N^-
    from halfspace.algebra import reflection_matrix
    val = duality_pairing(f, g, B)
    Nf = Field(torus, f.values @ reflection_matrix(torus.dim_n).T)
    ref = inner_product(Nf, g)
    assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_hodge_split_recomposes():
    torus = Torus(1, 2 * np.pi, 32)
    B = _smooth_A(torus)
    f = _rand_field(torus, 5)
    f1, f2, const, split_constant = hodge_split(B, f)
    total = f1.values + f2.values + const.values
    assert np.linalg.norm(total - f.values) <= 1e-8 * np.linalg.norm(f.values)
    assert split_constant >= 1.0 - 1e-9


def test_matrix_csv_roundtrip(tmp_path):
    torus = Torus(1, 2 * np.pi, 8)
    T = assemble_TB(identity_coefficients(torus))
    path = tmp_path / "op.csv"
    matrix_to_csv(T, path)
    T2 = matrix_from_csv(path, basis_tag=T.basis_tag)
    assert np.allclose(T2.entries, T.entries, atol=1e-15)


def test_hat_hk_basis_dimensions():
    torus = Torus(1, 2 * np.pi, 16)
    B = identity_coefficients(torus)
    b1 = hat_hk_basis(B, 1)
    assert b1.columns.shape[1] > 0
    # columns orthonormal
    G = b1.columns.conj().T @ b1.columns
    assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)


# -- matrix-free operators against the dense oracle ---------------------------

FAMILIES = ("identity", "constant", "block", "smooth_symmetric", "skew_k4")
SIZES = ((1, 32), (2, 8))


def _family(torus, name):
    if name == "identity":
        return identity_coefficients(torus)
    if name == "constant":
        return vector_block_coefficients(
            torus, random_accretive_constant(1, torus.dim_n))
    if name == "block":
        return block_coefficients(torus, 3)
    if name == "smooth_symmetric":
        return smooth_real_symmetric(torus, 3)
    return skew_coefficients(torus, 4.0)


def _cases():
    return [(n, N, name) for n, N in SIZES for name in FAMILIES
            if not (name == "skew_k4" and n != 1)]


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("n,N,name", _cases())
def test_structured_restrictions_match_dense(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    T_dense = assemble_TB(B)
    N_dense = assembly.OperatorMatrix(reflection_full_matrix(torus))
    NA_dense = assemble_NB(B, "hat")[2]
    bases = [hat_h1_basis(torus), hat_hk_basis(B, 1), hat_hk_basis(B, 2)]
    for basis in bases:
        pairs = {"T": (TB_operator(B), T_dense),
                 "N": (reflection_operator(torus), N_dense),
                 "N_A": (NB_operator(B), NA_dense)}
        for label, (structured, dense) in pairs.items():
            got = restrict(structured, basis).entries
            ref = restrict(dense, basis).entries
            assert _rel(got, ref) <= 1e-13, (basis.label, label)


@pytest.mark.parametrize("n,N,name", _cases())
def test_TB_operator_adjoint_matches_dense(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    op = TB_operator(B)
    T = assemble_TB(B).entries
    rng = np.random.default_rng(0)
    X = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    assert _rel(op.matmat(X), T @ X) <= 1e-13
    assert _rel(op.rmatmat(X), T.conj().T @ X) <= 1e-13


def _noninvariant_bases(torus):
    """A random 5-column subspace and the hat-H1 basis with a few random
    columns appended: both leak at order one."""
    full_dim = torus.num_points * torus.lambda_dim
    rng = np.random.default_rng(0)
    rand5 = np.linalg.qr(rng.normal(size=(full_dim, 5)))[0]
    h1 = hat_h1_basis(torus).columns
    extra = rng.normal(size=(full_dim, 3)) + 1j * rng.normal(size=(full_dim, 3))
    extra -= h1 @ (h1.conj().T @ extra)
    mixed = np.hstack([h1, np.linalg.qr(extra)[0]])
    return [assembly.SubspaceBasis(rand5, "random"),
            assembly.SubspaceBasis(mixed, "hat_h1+random")]


@pytest.mark.parametrize("n,N,name", [(1, 64, f) for f in FAMILIES]
                         + [(2, 8, f) for f in FAMILIES[:4]])
def test_structured_defect_bounds_dense(n, N, name):
    # the Krylov estimate of ||T_B||_2 is a lower bound, so the structured
    # defect is never below the dense one, and it is within 10% of it
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    op = TB_operator(B)
    T_dense = assemble_TB(B)
    exact = np.linalg.norm(T_dense.entries, 2)
    assert 0.9 * exact <= op.norm_estimate() <= exact * (1 + 1e-12)
    for basis in _noninvariant_bases(torus):
        with pytest.raises(SubspaceInvarianceError) as dense:
            restrict(T_dense, basis, 1e-8)
        with pytest.raises(SubspaceInvarianceError) as structured:
            restrict(op, basis, 1e-8)
        d, s = dense.value.defect, structured.value.defect
        assert d * (1 - 1e-12) <= s <= 1.1 * d, basis.label


def test_structured_restrict_rejects_random_subspace():
    torus = Torus(1, 2 * np.pi, 16)
    B = _smooth_A(torus)
    full_dim = torus.num_points * torus.lambda_dim
    rng = np.random.default_rng(0)
    cols = np.linalg.qr(rng.normal(size=(full_dim, 5)))[0]
    bad = assembly.SubspaceBasis(cols, "random")
    with pytest.raises(SubspaceInvarianceError):
        restrict(TB_operator(B), bad, 1e-8)


@pytest.mark.parametrize("name", ["identity", "block", "smooth_symmetric"])
def test_kernel_only_subspace_accepted(name):
    # at n = 1 the constrained degree-2 space is the one field e01 / b(x),
    # which T_B annihilates: its defect is rounding, not a leak
    torus = Torus(1, 2 * np.pi, 32)
    B = _family(torus, name)
    basis = hat_hk_basis(B, 2)
    assert basis.dim == 1
    T = restrict(TB_operator(B), basis, 1e-8)
    assert T.invariance_defect <= 1e-12
