"""Tests for the dense holomorphic functional calculus."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from halfspace import calculus
from halfspace.bvp import BoundaryInverse
from halfspace.calculus import (BlockDiagonal, FunctionDescriptor,
                                IllConditionedEigenbasisError,
                                SectorViolationError, _is_hermitian,
                                apply_function, apply_to_vector,
                                block_partition, decompose,
                                exp_minus_t_abs, psi_abs_exp, psi_exp, q_t,
                                quadratic_constants, sgn,
                                square_function, svdvals)
from halfspace.oracles import brute_resolvent, selfadjoint_qe_value


def _hermitian_with_kernel(seed=0, dim=12, kernel_dim=2):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    lam = np.concatenate([np.zeros(kernel_dim),
                          rng.uniform(0.5, 4.0, dim - kernel_dim)
                          * rng.choice([-1.0, 1.0], dim - kernel_dim)])
    return Q @ np.diag(lam) @ Q.conj().T, lam


def _nonnormal_bisectorial(seed=1, dim=10):
    rng = np.random.default_rng(seed)
    V = np.eye(dim) + 0.3 * (rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))
    lam = rng.uniform(0.5, 3.0, dim) * rng.choice([-1.0, 1.0], dim)
    lam = lam * np.exp(1j * rng.uniform(-0.2, 0.2, dim))
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _chi(sign: float) -> FunctionDescriptor:
    """The spectral projection chi_+ (sign = 1) or chi_- (sign = -1)."""
    return FunctionDescriptor("chi", lambda z: (1.0 + sign * sgn()(z)) / 2.0,
                              kernel_value=0.0, sign_sensitive=True)


def test_sign_function_idempotent_projections():
    mat, _ = _hermitian_with_kernel()
    dec = decompose(mat)
    E = apply_function(dec, sgn()).dense()
    Pp = apply_function(dec, _chi(1.0)).dense()
    Pm = apply_function(dec, _chi(-1.0)).dense()
    Pnk = dec.nonkernel_projector().dense()
    assert np.allclose(Pp @ Pp, Pp, atol=1e-10)
    assert np.allclose(Pm @ Pm, Pm, atol=1e-10)
    assert np.allclose(Pp + Pm, Pnk, atol=1e-10)
    assert np.allclose(Pp - Pm, E, atol=1e-10)
    assert np.allclose(E @ E, Pnk, atol=1e-10)


def test_kernel_projector_and_dimensions():
    mat, lam = _hermitian_with_kernel(kernel_dim=3)
    dec = decompose(mat)
    PK = dec.kernel_projector().dense()
    assert int(round(np.real(np.trace(PK)))) == 3
    assert np.allclose(mat @ PK, 0.0, atol=1e-10)


def test_resolvent_against_direct_and_brute():
    mat = _nonnormal_bisectorial()
    lam0 = 0.7j
    dec = decompose(mat)
    resolvent = FunctionDescriptor("resolvent", lambda z: 1.0 / (lam0 - z),
                                   kernel_value=1.0 / lam0)
    R_spec = apply_function(dec, resolvent).dense()
    R_dir = brute_resolvent(mat, lam0, np.eye(mat.shape[0]))
    assert np.allclose(R_spec, R_dir, atol=1e-9 * np.linalg.norm(R_dir, 2))
    v = np.arange(mat.shape[0], dtype=complex)
    assert np.allclose(brute_resolvent(mat, lam0, v), R_spec @ v, atol=1e-9)


def test_semigroup_composition():
    mat, _ = _hermitian_with_kernel(seed=3)
    dec = decompose(mat)
    rng = np.random.default_rng(4)
    v = rng.normal(size=mat.shape[0]) + 1j * rng.normal(size=mat.shape[0])
    s, t = 0.3, 1.1
    c = dec.coordinates(v)
    one = apply_to_vector(dec, exp_minus_t_abs(s + t), c)
    half = apply_to_vector(dec, exp_minus_t_abs(s), c)
    two = apply_to_vector(dec, exp_minus_t_abs(t), dec.coordinates(half))
    assert np.linalg.norm(one - two) <= 1e-9 * np.linalg.norm(v)


def test_exp_abs_fixes_kernel():
    mat, _ = _hermitian_with_kernel(seed=5, kernel_dim=2)
    dec = decompose(mat)
    PK = dec.kernel_projector().dense()
    v = PK @ (np.ones(mat.shape[0]) + 0.5j)
    out = apply_to_vector(dec, exp_minus_t_abs(2.0), dec.coordinates(v))
    assert np.allclose(out, v, atol=1e-10)


def test_q_t_and_p_t_algebra():
    # q_t = tT(1+t^2 T^2)^{-1}, p_t = (1+t^2 T^2)^{-1}; p + (tT) q = identity
    mat = _nonnormal_bisectorial(seed=6)
    dec = decompose(mat)
    t = 0.8
    q = apply_function(dec, q_t(t)).dense()
    eye = np.eye(mat.shape[0])
    p = np.linalg.inv(eye + t ** 2 * (mat @ mat))
    Pnk = dec.nonkernel_projector().dense()
    lhs = p + t * (mat @ q)
    # on the kernel p_t acts as the identity
    assert np.allclose(lhs, Pnk + (eye - Pnk) @ p, atol=1e-8)


def test_sector_violation_detected():
    # the sign function is undefined on (near-)imaginary eigenvalues
    mat = np.diag([1.0, -1.0, 1.0j])
    dec = decompose(mat)
    with pytest.raises(SectorViolationError):
        apply_function(dec, sgn())
    with pytest.raises(SectorViolationError):
        apply_to_vector(dec, exp_minus_t_abs(1.0),
                        dec.coordinates(np.ones(3)))


def test_ill_conditioned_eigenbasis_rejected():
    # a nearly defective matrix has an exploding eigenbasis condition number:
    # about 1e9 here, above the cap of 1e8
    eps = 1e-18
    mat = np.array([[1.0, 1.0], [eps, 1.0]])
    with pytest.raises(IllConditionedEigenbasisError,
                       match=r"^calculus\.decompose: cond\(V\) = .* > cap"):
        decompose(mat)


def test_selfadjoint_quadratic_value():
    mat, _ = _hermitian_with_kernel(seed=7, kernel_dim=0)
    dec = decompose(mat)
    rng = np.random.default_rng(8)
    v = rng.normal(size=mat.shape[0]) + 1j * rng.normal(size=mat.shape[0])
    val = square_function(dec, q_t, dec.coordinates(v))
    ref = 0.5 * np.linalg.norm(v) ** 2
    assert abs(val - ref) <= 1e-13 * ref
    # independent quadrature route
    val2 = selfadjoint_qe_value(mat, v)
    assert abs(val2 - ref) <= 1e-6 * ref


def test_quadratic_constants_selfadjoint():
    mat, _ = _hermitian_with_kernel(seed=9, kernel_dim=1)
    dec = decompose(mat)
    c_low, c_high = quadratic_constants(dec)
    assert abs(c_low - 1 / np.sqrt(2)) <= 1e-13
    assert abs(c_high - 1 / np.sqrt(2)) <= 1e-13


@pytest.mark.parametrize("dim", [40, 200])
def test_square_function_closed_forms(dim):
    # Hermitian injective T with |spectrum| spanning 1e-2 .. 1e2, both signs:
    # int (s/(1+s^2))^2 ds/s = 1/2 and int (s e^{-s})^2 ds/s = 1/4
    rng = np.random.default_rng(dim)
    Q = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    lam = np.geomspace(1e-2, 1e2, dim) * rng.choice([-1.0, 1.0], dim)
    dec = decompose(Q @ np.diag(lam) @ Q.conj().T)
    assert dec.hermitian and not np.any(dec.kernel_indices)
    f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    norm2 = np.linalg.norm(f) ** 2
    for family, exact in ((q_t, 0.5), (psi_exp, 0.25), (psi_abs_exp, 0.25)):
        got = square_function(dec, family, dec.coordinates(f))
        assert abs(got - exact * norm2) <= 1e-13 * exact * norm2, family


def _quad_gram(family, mu, nu):
    """int_0^inf conj(psi_t(mu)) psi_t(nu) dt/t by adaptive quadrature in
    u = log t, split at the two scales -log|mu| and -log|nu|; beyond them
    the integrand decays at least like e^{-2|u|}, below 1e-17 of its peak
    20 units out."""
    def integrand(u, part):
        t = np.exp(u)
        val = np.conj(family(t)(mu)) * family(t)(nu)
        return val.real if part == 0 else val.imag
    cuts = sorted([-np.log(abs(mu)), -np.log(abs(nu))])
    edges = [cuts[0] - 20.0] + cuts + [cuts[1] + 20.0]
    return sum(quad(integrand, a, b, args=(part,), epsabs=0.0, epsrel=1e-13,
                    limit=400)[0] * (1j if part else 1.0)
               for a, b in zip(edges[:-1], edges[1:]) for part in (0, 1))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("family", [q_t, psi_abs_exp, psi_exp],
                         ids=["q_t", "psi_abs_exp", "psi_exp"])
def test_gram_kernels_match_adaptive_quadrature(family):
    # pairs in sectors up to 1.5 rad from the real axis (the first five at
    # 1.5 rad), both signs, magnitudes over four decades: random, equal,
    # with p = conj|mu| equal to q = |nu| (nu = conj mu), and with p near q
    # (nu = +-conj(mu)(1 + delta))
    rng = np.random.default_rng(21)
    pairs = []
    for i in range(15):
        ang = rng.uniform(-1.5, 1.5, 2)
        if i < 5:
            ang[0] = np.copysign(1.5, ang[0])
        mu, nu = (rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-4.6, 4.6, 2))
                  * np.exp(1j * ang))
        near = np.conj(mu) * (1.0 + 10.0 ** rng.uniform(-12, -1)
                              * np.exp(1j * rng.uniform(0, 6.3)))
        pairs.append((mu, (nu, mu, np.conj(mu), near, -near)[i % 5]))
    gram = family(1.0).gram
    for mu, nu in pairs:
        ref = _quad_gram(family, mu, nu)
        got = gram(np.array(mu), np.array(nu))
        assert abs(got - ref) <= 1e-12 * abs(ref), (mu, nu)


def test_square_functions_never_evaluate_the_symbols(monkeypatch):
    def refuse(z):
        raise AssertionError("symbol evaluated")

    def guarded(family):
        return lambda t: dataclasses.replace(family(t), fn=refuse)

    monkeypatch.setattr(calculus, "q_t", guarded(q_t))
    dec = decompose(_nonnormal_bisectorial())
    v = np.ones(dec.dim, dtype=complex)
    for family in (q_t, psi_abs_exp, psi_exp):
        assert square_function(dec, guarded(family), dec.coordinates(v)) > 0
    assert quadratic_constants(dec)[0] > 0


def test_square_functions_reject_an_imaginary_spectrum():
    # the q_t Gram kernel has a pole at t = 1/|lambda| on the imaginary axis
    dec = decompose(np.diag([3j, -2j, 0.7j, 0.0]))
    for family in (q_t, psi_abs_exp, psi_exp):
        with pytest.raises(SectorViolationError):
            square_function(dec, family, dec.coordinates(np.ones(4)))
    with pytest.raises(SectorViolationError):
        quadratic_constants(dec)


def test_quadrature_rejects_an_empty_non_kernel_spectrum():
    dec = decompose(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="empty non-kernel spectrum"):
        square_function(dec, q_t, dec.coordinates(np.ones(3)))
    with pytest.raises(ValueError, match="empty non-kernel spectrum"):
        quadratic_constants(dec)


def test_hermitian_verdict_matches_exact_two_norms():
    # the Frobenius bracket must reproduce the exact 2-norm rule
    # ||T - T^*||_2 <= 1e-10 ||T||_2, also where it cannot decide alone
    rng = np.random.default_rng(12)
    decided = set()
    for dim in (6, 48):
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = X + X.conj().T
        spread = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u = rng.normal(size=dim)
        for D in (spread, np.outer(u, u) * 1j):
            D = D / np.linalg.norm(D - D.conj().T, 2)
            for eps in np.logspace(-12, -8, 41):
                mat = H + eps * np.linalg.norm(H, 2) * D
                exact = (np.linalg.norm(mat - mat.conj().T, 2)
                         <= 1e-10 * np.linalg.norm(mat, 2))
                verdict = _is_hermitian(BlockDiagonal.of(mat))
                assert verdict == exact, (dim, eps)
                decided.add(bool(exact))
    assert decided == {True, False}
    assert _is_hermitian(BlockDiagonal.of(np.zeros((3, 3))))


def _permuted_block_diagonal(seed=13, hermitian=False):
    """A randomly permuted block-diagonal matrix with blocks of sizes 1 to
    4 (several of each size), one block of which is zero, and its
    permutation and block sizes."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 2, 4, 3, 1, 3, 2]
    m = sum(sizes)
    D = np.zeros((m, m), dtype=complex)
    start = 0
    for b, size in enumerate(sizes):
        if b != 3:
            X = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            X = X + X.conj().T if hermitian else X + 2 * np.eye(size)
            D[start:start + size, start:start + size] = X
        start += size
    perm = rng.permutation(m)
    return D[np.ix_(perm, perm)], perm, sizes


def test_block_partition_finds_permuted_blocks():
    mat, perm, sizes = _permuted_block_diagonal()
    groups = block_partition(mat)
    found = sorted(tuple(row) for idx in groups for row in idx)
    # the zero block of size 2 is two isolated indices
    inv = np.argsort(perm)
    expected, start = [], 0
    for b, size in enumerate(sizes):
        members = sorted(inv[start:start + size])
        expected += ([(i,) for i in members] if b == 3
                     else [tuple(members)])
        start += size
    assert found == sorted(expected)
    assert [idx.shape[1] for idx in groups] == sorted(
        {idx.shape[1] for idx in groups})
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(30, 30))
    assert [idx.shape for idx in block_partition(dense)] == [(1, 30)]


@pytest.mark.parametrize("hermitian", [False, True])
def test_block_decompose_matches_dense_lapack(hermitian):
    mat, _, _ = _permuted_block_diagonal(hermitian=hermitian)
    dec = decompose(mat)
    assert dec.hermitian == hermitian
    ref = np.linalg.eigvals(mat)
    scale = np.max(np.abs(ref))
    # every eigenvalue of the dense route is matched by one of the blocks
    got = list(dec.eigenvalues)
    for lam in ref:
        j = int(np.argmin(np.abs(np.array(got) - lam)))
        assert abs(got.pop(j) - lam) <= 1e-12 * scale
    V, Vinv = dec.V_blocks.dense(), dec.Vinv_blocks.dense()
    assert np.linalg.norm((V * dec.eigenvalues) @ Vinv - mat) <= \
        1e-12 * np.linalg.norm(mat)
    assert np.linalg.norm(V @ Vinv - np.eye(mat.shape[0])) <= 1e-12
    assert abs(dec.cond_V - np.linalg.cond(V)) <= 1e-12 * dec.cond_V
    expected_kernel = np.abs(ref) <= calculus.DEFAULT_KERNEL_TOL * scale
    assert np.sum(dec.kernel_indices) == np.sum(expected_kernel) == 2
    assert np.all(dec.eigenvalues[dec.kernel_indices] == 0.0)
    assert np.linalg.norm(mat @ V[:, dec.kernel_indices]) == 0.0


def test_block_boundary_inverse_matches_dense_svd():
    mat, _, _ = _permuted_block_diagonal()
    inv = BoundaryInverse(BlockDiagonal.of(mat), "test", kernel_dim=2)
    s = np.linalg.svd(mat, compute_uv=False)
    keep = s > 1e-12 * s[0]
    assert inv.null_dim == mat.shape[0] - np.sum(keep) == 2
    assert np.linalg.norm(inv.singular_values - s[keep]) <= 1e-12 * s[0]
    assert abs(inv.cond - s[0] / s[keep][-1]) <= 1e-12 * inv.cond
    rng = np.random.default_rng(14)
    rhs = rng.normal(size=(mat.shape[0], 2)) + 1j * rng.normal(
        size=(mat.shape[0], 2))
    ref = np.linalg.pinv(mat, rcond=1e-12) @ rhs
    assert np.linalg.norm(inv.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(inv.solve(rhs[:, 0]) - ref[:, 0]) <= \
        1e-12 * np.linalg.norm(ref[:, 0])


def test_svdvals_falls_back_when_numpy_fails_to_converge(monkeypatch):
    rng = np.random.default_rng(7)
    blocks = (rng.normal(size=(3, 40, 40))
              + 1j * rng.normal(size=(3, 40, 40)))
    expected = np.linalg.svd(blocks, compute_uv=False)
    numpy_svd = calculus.np.linalg.svd

    def stacked_values_fail(a, *args, **kwargs):
        if np.ndim(a) == 3 and kwargs.get("compute_uv") is False:
            raise np.linalg.LinAlgError("SVD did not converge")
        return numpy_svd(a, *args, **kwargs)

    monkeypatch.setattr(calculus.np.linalg, "svd", stacked_values_fail)
    with pytest.raises(np.linalg.LinAlgError):
        calculus.np.linalg.svd(blocks, compute_uv=False)
    s = svdvals(blocks)
    assert s.shape == (3, 40)
    assert np.max(np.abs(s - expected) / expected) <= 1e-13
