"""Tests for operator assembly (dense and matrix free), subspace restriction,
and duality."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from halfspace import algebra, assembly
from halfspace.assembly import (FieldOperator, NB_operator,
                                PointwiseInversionError,
                                SubspaceInvarianceError, TB_operator,
                                adjoint_in_duality, assemble_MB, assemble_NB,
                                assemble_TB, d_matrix, d_star_matrix,
                                derivative_matrix, duality_gram,
                                hat_h1_basis, hat_hk_basis, hodge_split,
                                m_full_matrix, reflection_full_matrix,
                                reflection_operator, restrict)
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
    U = hat_h1_basis(torus).columns
    P = U @ U.conj().T
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
    val = torus.weight * np.vdot(g.flatten(), duality_gram(B) @ f.flatten())
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


# -- constrained subspaces against the dense null-space oracle ----------------

def _dense_hk_basis(B, k, rtol=1e-10):
    """The constrained degree-k space as the SVD null space of the stacked
    full-space constraints [d N^+ ; d* N^- B] on degree-k fields."""
    torus = B.torus
    n, P = torus.dim_n, torus.num_points
    lift = lambda M: np.kron(np.eye(P), M)
    embed = lift(np.eye(torus.lambda_dim)[:, algebra.mask_degrees(n) == k])
    C = np.vstack([
        d_matrix(torus) @ lift(algebra.tangential_proj_matrix(n)) @ embed,
        d_star_matrix(torus) @ lift(algebra.normal_proj_matrix(n))
        @ assembly.coefficient_matrix(B) @ embed])
    return assembly.SubspaceBasis(
        embed @ scipy.linalg.null_space(C, rcond=rtol), f"dense_hk(k={k})")


def _dense_hodge_split(B, f, rtol=1e-9):
    """hodge_split through full-space null spaces of i m d and
    B^{-1} i m d* B, with the same least squares: the constants are taken
    out of null(i m d) only, and null(B^{-1} i m d* B) is kept whole."""
    torus = B.torus
    P, d = torus.num_points, torus.lambda_dim
    vec = f.flatten()
    const_vec = np.tile(vec.reshape(P, d).mean(axis=0), P)
    v = vec - const_vec
    m = m_full_matrix(torus)
    Bm = assembly.coefficient_matrix(B)
    n1 = scipy.linalg.null_space(1j * m @ d_matrix(torus), rcond=rtol)
    n2 = scipy.linalg.null_space(
        np.linalg.solve(Bm, 1j * m @ d_star_matrix(torus) @ Bm), rcond=rtol)
    consts = np.kron(np.ones((P, 1)), np.eye(d)) / np.sqrt(P)

    u, s, _ = np.linalg.svd(n1 - consts @ (consts.T @ n1),
                            full_matrices=False)
    U1 = u[:, s > 1e-10]
    U2 = n2
    coef = np.linalg.lstsq(np.hstack([U1, U2]), v, rcond=None)[0]
    v1, v2 = U1 @ coef[:U1.shape[1]], U2 @ coef[U1.shape[1]:]
    split = (np.linalg.norm(v1) + np.linalg.norm(v2)) / np.linalg.norm(v)
    return v1, v2, const_vec, split


@pytest.mark.parametrize("n,N,name", _cases())
def test_hat_hk_basis_matches_dense_null_space(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    for k in range(n + 2):
        got = hat_hk_basis(B, k)
        ref = _dense_hk_basis(B, k)
        assert got.dim == ref.dim, k
        cosines = np.linalg.svd(ref.columns.conj().T @ got.columns,
                                compute_uv=False)
        assert 1.0 - cosines.min() <= 1e-12, k


@pytest.mark.parametrize("n,N,name", _cases())
def test_hodge_split_matches_dense_null_spaces(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    f = _rand_field(torus, 5)
    f1, f2, const, split = hodge_split(B, f)
    v1, v2, const_vec, ref_split = _dense_hodge_split(B, f)
    assert _rel(f1.flatten(), v1) <= 1e-10
    assert _rel(f2.flatten(), v2) <= 1e-10
    assert _rel(const.flatten(), const_vec) <= 1e-10
    assert abs(split - ref_split) <= 1e-10 * ref_split
    # each part lies in its null space (of i m d and of B^{-1} i m d* B),
    # and both are mean free
    m = m_full_matrix(torus)
    Bm = assembly.coefficient_matrix(B)
    assert np.linalg.norm(m @ d_matrix(torus) @ f1.flatten()) <= \
        1e-12 * np.linalg.norm(f1.values)
    assert np.linalg.norm(np.linalg.solve(
        Bm, m @ d_star_matrix(torus) @ Bm @ f2.flatten())) <= \
        1e-12 * np.linalg.norm(f2.values)
    for part in (f1, f2):
        mean = part.values.reshape(-1, torus.lambda_dim).mean(axis=0)
        assert np.linalg.norm(mean) * np.sqrt(torus.num_points) <= \
            1e-12 * np.linalg.norm(part.values)


@pytest.mark.parametrize("n,N", SIZES)
@pytest.mark.parametrize("name", ["smooth_symmetric", "block"])
def test_degree2_transmission_matches_dense_basis(n, N, name, monkeypatch):
    from halfspace import bvp
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    frame = bvp.BoundaryFrame(B, degree=2)
    with monkeypatch.context() as patch:
        patch.setattr(bvp, "hat_hk_basis", _dense_hk_basis)
        dense = bvp.BoundaryFrame(B, degree=2)
    rng = np.random.default_rng(n + N)
    g = frame.to_field(rng.normal(size=frame.dec.dim)
                       + 1j * rng.normal(size=frame.dec.dim))
    (sol_p, sol_m), report = bvp.solve_transmission(B, 2, 2.0, 1.0, g,
                                                    frame=frame)
    (ref_p, ref_m), _ = bvp.solve_transmission(B, 2, 2.0, 1.0, g,
                                               frame=dense)
    assert report.boundary_residual <= 1e-10
    assert report.invariance_defect <= 1e-10
    for got, ref in ((sol_p, ref_p), (sol_m, ref_m)):
        assert _rel(got.trace_field().values, ref.trace_field().values) \
            <= 1e-10


def test_constrained_subspaces_need_no_dense_operator(monkeypatch):
    # the degree-2 frame and the Hodge split use per-mode null spaces and
    # pointwise maps only
    def refuse(*args, **kwargs):
        raise AssertionError("dense full-space route taken")

    for name in ("d_matrix", "d_star_matrix", "pointwise_operator"):
        monkeypatch.setattr(assembly, name, refuse)
    monkeypatch.setattr(scipy.linalg, "null_space", refuse)
    from halfspace.bvp import BoundaryFrame
    torus = Torus(2, 2 * np.pi, 8)
    B = _family(torus, "smooth_symmetric")
    frame = BoundaryFrame(B, degree=2)
    # per mode e_12 and one normal 2-vector with d* = 0; all three at xi = 0
    assert frame.basis.dim == 2 * torus.num_points + 1
    f1, f2, const, _ = hodge_split(B, _rand_field(torus, 5))
    assert np.all(np.isfinite(f1.values + f2.values + const.values))


# -- the implicit plane-wave basis ---------------------------------------------

@lru_cache(maxsize=None)
def _dense_plane_waves(torus):
    """The hat-H1 columns e^{i xi.x} v / sqrt(P) from their formula, one
    mode at a time in FFT order: e_0 and xi/|xi| (every vector at xi = 0)."""
    n, d, N = torus.dim_n, torus.lambda_dim, torus.points_per_axis
    ks = np.fft.fftfreq(N, d=1.0 / N)
    x = torus.coordinates()
    cols = []
    for kidx in np.ndindex(*torus.shape):
        k = np.array([ks[i] for i in kidx])
        phase = np.exp(2j * np.pi * sum(kj * xj for kj, xj in zip(k, x))
                       / torus.length) / np.sqrt(torus.num_points)
        vecs = [np.eye(d)[1]]
        if n == 1 or not np.any(k):
            vecs += [np.eye(d)[1 << (j + 1)] for j in range(n)]
        else:
            vecs.append(sum(k[j] * np.eye(d)[1 << (j + 1)] for j in range(n))
                        / np.linalg.norm(k))
        cols += [(phase[..., None] * v).reshape(-1) for v in vecs]
    return np.array(cols).T


PLANE_WAVE_SIZES = ((1, 64), (2, 8), (2, 16))


@pytest.mark.parametrize("n,N", PLANE_WAVE_SIZES)
def test_plane_wave_products_match_dense_columns(n, N):
    torus = Torus(n, 2 * np.pi, N)
    basis = hat_h1_basis(torus)
    U = _dense_plane_waves(torus)
    assert U.shape == (basis.ambient_dim, basis.dim)
    assert _rel(basis.columns, U) <= 1e-14
    rng = np.random.default_rng(n + N)
    X = rng.normal(size=(basis.ambient_dim, 3)) \
        + 1j * rng.normal(size=(basis.ambient_dim, 3))
    C = rng.normal(size=(basis.dim, 3)) + 1j * rng.normal(size=(basis.dim, 3))
    assert _rel(basis.to_coords(X), U.conj().T @ X) <= 1e-14
    assert _rel(basis.to_coords(X[:, 0]), U.conj().T @ X[:, 0]) <= 1e-14
    assert _rel(basis.from_coords(C), U @ C) <= 1e-14
    assert _rel(basis.from_coords(C[:, 0]), U @ C[:, 0]) <= 1e-14
    coords, leak = basis.split(X)
    dense_leak = X - U @ (U.conj().T @ X)
    assert _rel(coords, U.conj().T @ X) <= 1e-14
    assert _rel(np.linalg.svd(leak, compute_uv=False),
                np.linalg.svd(dense_leak, compute_uv=False)) <= 1e-14


@pytest.mark.parametrize("n,N", PLANE_WAVE_SIZES[:2])
def test_frame_lifts_match_dense_columns(n, N):
    from halfspace.bvp import BoundaryFrame
    torus = Torus(n, 2 * np.pi, N)
    frame = BoundaryFrame(vector_block_coefficients(
        torus, random_accretive_constant(1, n)))
    U = _dense_plane_waves(torus)
    f = _rand_field(torus, 7)
    coords, loss = frame.to_coords(f)
    vec = f.flatten()
    ref = U.conj().T @ vec
    assert _rel(coords, ref) <= 1e-14
    dense_loss = np.linalg.norm(vec - U @ ref) / np.linalg.norm(vec)
    assert abs(loss - dense_loss) <= 1e-14 * dense_loss
    assert _rel(frame.to_field(ref).flatten(), U @ ref) <= 1e-14
    C = np.stack([ref, 2j * ref], axis=1)
    assert _rel(frame.field_values(C).reshape(-1, 2), U @ C) <= 1e-14


@lru_cache(maxsize=None)
def _dense_basis(torus):
    return assembly.SubspaceBasis(_dense_plane_waves(torus), "dense")


def _restriction_cases():
    return [(1, 64, f) for f in FAMILIES] + [
        (2, N, f) for N in (8, 16) for f in FAMILIES[:4]]


@pytest.mark.parametrize("n,N,name", _restriction_cases())
def test_plane_wave_restrict_matches_dense_basis(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    basis = hat_h1_basis(torus)
    dense = _dense_basis(torus)
    # the frames measure the invariance defect of T only
    got = restrict(TB_operator(B), basis, 1e-8)
    ref = restrict(TB_operator(B), dense, 1e-8)
    assert _rel(got.entries, ref.entries) <= 1e-13
    # both leaks are rounding
    assert got.invariance_defect <= 1e-12
    assert ref.invariance_defect <= 1e-12
    for label, op in (("N", reflection_operator(torus)),
                      ("N_A", NB_operator(B))):
        got = restrict(op, basis).entries
        ref = restrict(op, dense).entries
        assert _rel(got, ref) <= 1e-13, label


def _mode_blocks(basis, M):
    """Per-mode diagonal blocks of an m x m matrix in the plane-wave
    coordinates, and the largest entry outside them."""
    index = np.full(basis.present.shape, -1)
    index[basis.present] = np.arange(basis.dim)
    blocks, inside = [], np.zeros(M.shape, dtype=bool)
    for p in range(basis.present.shape[0]):
        idx = index[p][basis.present[p]]
        blocks.append(M[np.ix_(idx, idx)])
        inside[np.ix_(idx, idx)] = True
    return blocks, float(np.max(np.abs(M[~inside]), initial=0.0))


@pytest.mark.parametrize("n,N", [(1, 64), (2, 8)])
def test_constant_coefficient_restrictions_are_per_mode_symbols(n, N):
    from halfspace.oracles import (_mode_basis_columns,
                                   perturbed_reflection_2x2, reflection_2x2,
                                   symbol_matrix)
    torus = Torus(n, 2 * np.pi, N)
    A = random_accretive_constant(1, n)
    B = vector_block_coefficients(torus, A)
    basis = hat_h1_basis(torus)
    T = restrict(TB_operator(B), basis).entries
    Nr = restrict(reflection_operator(torus), basis).entries
    NA = restrict(NB_operator(B), basis).entries
    T_blocks, T_off = _mode_blocks(basis, T)
    N_blocks, N_off = _mode_blocks(basis, Nr)
    NA_blocks, NA_off = _mode_blocks(basis, NA)
    scale = np.max(np.abs(T))
    assert T_off <= 1e-13 * scale
    assert N_off == 0.0
    assert NA_off <= 1e-13
    ks = np.fft.fftfreq(N, d=1.0 / N)
    for p, kidx in enumerate(np.ndindex(*torus.shape)):
        if p == 0:
            # the constants span the kernel; N is -1 on e_0, +1 on e_j
            assert np.max(np.abs(T_blocks[0])) <= 1e-13 * scale
            assert np.array_equal(N_blocks[0], np.diag([-1.0] + [1.0] * n))
            continue
        xi = 2 * np.pi * np.array([ks[i] for i in kidx]) / torus.length
        # change of frame to the oracle's (e_0, xi_hat) columns
        G = basis.frames[p][:, basis.present[p]].conj().T @ \
            _mode_basis_columns(n, xi)
        ref = symbol_matrix(A, xi).entries
        got = G.conj().T @ T_blocks[p] @ G
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), p
        assert np.allclose(G.conj().T @ N_blocks[p] @ G, reflection_2x2(),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(G.conj().T @ NA_blocks[p] @ G,
                           perturbed_reflection_2x2(A, n, xi),
                           rtol=0.0, atol=1e-13)


MULTIPLIER_SIZES = ((1, 64), (2, 8), (2, 16))


@pytest.mark.parametrize("n,N", MULTIPLIER_SIZES)
@pytest.mark.parametrize("name", ["identity", "constant"])
def test_multiplier_restrictions_match_chunked_route(n, N, name):
    # constant coefficients make T, N and N_A Fourier multipliers; their
    # exact per-mode compression equals the chunked FFT route of the same
    # operator without its symbols
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    basis = hat_h1_basis(torus)
    for label, op in (("T", TB_operator(B)), ("N", reflection_operator(torus)),
                      ("N_A", NB_operator(B))):
        assert op.mode_symbols is not None, label
        plain = FieldOperator(torus, op.apply, op.adjoint)
        got = restrict(op, basis, 1e-8)
        ref = restrict(plain, basis, 1e-8)
        assert _rel(got.entries, ref.entries) <= 1e-13, label
        assert got.invariance_defect <= 1e-13, label


@pytest.mark.parametrize("n,N", MULTIPLIER_SIZES[:2])
@pytest.mark.parametrize("name", ["identity", "constant"])
def test_multiplier_norm_is_exact(n, N, name):
    torus = Torus(n, 2 * np.pi, N)
    B = _family(torus, name)
    exact = np.linalg.norm(assemble_TB(B).entries, 2)
    assert abs(TB_operator(B).norm() - exact) <= 1e-13 * exact


def test_variable_coefficients_are_not_multipliers():
    torus = Torus(1, 2 * np.pi, 32)
    B = _smooth_A(torus)
    assert TB_operator(B).mode_symbols is None
    assert NB_operator(B).mode_symbols is None


def test_plane_wave_basis_n2_N32_is_small_and_certified_per_mode():
    import tracemalloc
    torus = Torus(2, 2 * np.pi, 32)
    # one dense basis would be 8192 x 2049 complex entries, 268 MB
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        basis = hat_h1_basis(torus)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert basis.dim == 2 * torus.num_points + 1
    assert basis.gram_defect <= 1e-15
    # a frame whose columns are not orthonormal in one mode is refused
    bad = basis.frames.copy()
    bad[5, :, 1] = bad[5, :, 0]
    with pytest.raises(ValueError, match="not orthonormal"):
        assembly.PlaneWaveBasis(torus, bad, basis.present)
    # and so is padding that is not zero
    bad = basis.frames.copy()
    bad[7, 0, 2] = 1.0
    with pytest.raises(ValueError, match="not orthonormal"):
        assembly.PlaneWaveBasis(torus, bad, basis.present)
