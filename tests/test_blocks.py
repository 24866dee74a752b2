"""Block-diagonal frame matrices against the dense route.

For constant coefficients every frame matrix is block diagonal per Fourier
mode and is kept as its blocks (``calculus.BlockDiagonal``).  These tests
rebuild each quantity densely from the dense views of V and V^{-1} and
compare, and check that a constant frame builds, solves and evaluates its
interior without ever forming a dense frame matrix.  For variable
coefficients (T one block, or a few) the boundary inverses are pinned
against a dense pseudo-inverse and the polished kernel against the null
space of a dense SVD.
"""

import numpy as np
import pytest

from halfspace import bvp, calculus
from halfspace.bvp import (BoundaryFrame, BoundaryInverse,
                           dirichlet_second_order_residual, nontangential_max,
                           norm_sup_t, norm_triplebar_dt,
                           reflection_conditions, solve_kind)
from halfspace.calculus import (BlockDiagonal, Partition, apply_to_vector,
                                block_partition, exp_minus_t_abs,
                                psi_abs_exp, psi_exp, quadratic_constants,
                                q_t, sgn, square_function)
from halfspace.diagnostics import (block_coefficients, gaussian_data,
                                   random_accretive_constant,
                                   skew_coefficients, smooth_real_symmetric)
from halfspace.grid import (Torus, identity_coefficients,
                            vector_block_coefficients)

RTOL = 1e-13
CASES = [(1, 64, "identity"), (1, 64, "constant"), (2, 8, "identity"),
         (2, 8, "constant")]
_FRAMES = {}


def _coefficients(torus, family):
    if family == "identity":
        return identity_coefficients(torus)
    return vector_block_coefficients(
        torus, random_accretive_constant(1, torus.dim_n))


def _frame(case):
    if case not in _FRAMES:
        n, N, family = case
        _FRAMES[case] = BoundaryFrame(_coefficients(Torus(n, 2 * np.pi, N),
                                                    family))
    return _FRAMES[case]


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


def _dense_V(dec):
    """The dense V and V^{-1}."""
    return dec.V_blocks.dense(), dec.Vinv_blocks.dense()


def _dense_function(dec, b):
    """b(T) as the dense product V diag(b(lambda)) V^{-1}."""
    V, Vinv = _dense_V(dec)
    return (V * calculus._symbol_values(dec, b)) @ Vinv


def _dense_frame(frame):
    """E, P_nk, P_K and E_solve from the dense V and V^{-1}."""
    dec = frame.dec
    V, Vinv = _dense_V(dec)
    E = _dense_function(dec, sgn())
    K = dec.kernel_indices
    PK = V[:, K] @ Vinv[K]
    Pnk = (V * dec.nonkernel) @ Vinv
    return E, Pnk, PK, E + PK


def _dense_pinv(op):
    """The minimum-norm inverse with the global cutoff rule, densely."""
    u, s, vh = np.linalg.svd(op)
    keep = s > 1e-12 * s[0]
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    return pinv, s[0] / s[keep][-1], int(np.sum(~keep))


@pytest.fixture(params=CASES, ids=["-".join(map(str, c)) for c in CASES])
def frame(request):
    return _frame(request.param)


def test_frame_matrices_are_per_mode_blocks(frame):
    for mat in (frame.E_blocks, frame.Pnk_blocks, frame.PK_blocks,
                frame.N_blocks, frame.NA_blocks, frame.dec.V_blocks):
        assert sum(idx.shape[0] for idx in mat.groups) > 1  # not one block
        assert max(idx.shape[1] for idx in mat.groups) <= 3
    E, Pnk, PK, E_solve = _dense_frame(frame)
    for got, ref in ((frame.E, E), (frame.Pnk, Pnk),
                     (frame.PK_blocks.dense(), PK),
                     (frame.E_solve_blocks.dense(), E_solve)):
        assert isinstance(got, np.ndarray)
        assert _rel(got, ref) <= RTOL
    rng = np.random.default_rng(3)
    v = rng.standard_normal(frame.dec.dim) + 1j * rng.standard_normal(
        frame.dec.dim)
    assert _rel(frame.E_blocks @ v, E @ v) <= RTOL
    assert _rel(frame.Pnk_blocks @ v, Pnk @ v) <= RTOL
    assert _rel(frame.dec.coordinates(v), _dense_V(frame.dec)[1] @ v) <= RTOL


def test_t_family_matches_dense_product(frame):
    dec = frame.dec
    rng = np.random.default_rng(4)
    v = rng.standard_normal(dec.dim) + 1j * rng.standard_normal(dec.dim)
    ts = np.geomspace(1e-3 / dec.spectral_radius(), 1e3 / dec.min_nonkernel(),
                      40)
    S = calculus._symbol_values(dec, exp_minus_t_abs(ts))
    V, Vinv = _dense_V(dec)
    ref = V @ (S * (Vinv @ v)[:, None])
    got = apply_to_vector(dec, exp_minus_t_abs(ts), dec.coordinates(v))
    assert _rel(got, ref) <= RTOL


def test_solves_match_dense_pseudo_inverse(frame, monkeypatch):
    E, Pnk, PK, E_solve = _dense_frame(frame)
    ops = {"E - N_A": E_solve - frame.NA, "E + N": E_solve + frame.N,
           "E - N": E_solve - frame.N}
    solved = []
    real_solve = BoundaryInverse.solve

    def recording(self, rhs):
        out = real_solve(self, rhs)
        solved.append((self, rhs, out))
        return out

    monkeypatch.setattr(BoundaryInverse, "solve", recording)
    scalar = gaussian_data(frame.torus)
    for kind in bvp.SCALAR_KINDS:
        solved.clear()
        sol, report = solve_kind(kind, frame, scalar)
        (inv, rhs, coords), = solved
        pinv, cond, null_dim = _dense_pinv(ops[inv.label])
        assert _rel(coords, pinv @ rhs) <= RTOL, kind
        assert np.array_equal(sol.coords, coords)
        assert abs(inv.cond - cond) <= RTOL * cond, kind
        assert inv.null_dim == null_dim == report.extra["null_dim"], kind
        hardy = np.linalg.norm(0.5 * (Pnk @ sol.coords - E @ sol.coords)) \
            / np.linalg.norm(sol.coords)
        assert abs(sol.hardy_defect() - hardy) <= RTOL, kind
        kernel = np.linalg.norm(PK @ sol.coords) / np.linalg.norm(sol.coords)
        assert abs(report.trace_kernel_fraction - kernel) <= RTOL, kind


def test_reflection_conditions_match_dense_svd(frame):
    E = _dense_frame(frame)[0]
    eye = np.eye(frame.dec.dim)
    got = reflection_conditions(frame)
    for label, refl in (("EN_A", frame.NA), ("EN", frame.N)):
        for sign in "-+":
            s = np.linalg.svd(eye + (1 if sign == "+" else -1) * (E @ refl),
                              compute_uv=False)
            ref = s[0] / s[-1]
            assert abs(got[f"I{sign}{label}"] - ref) <= RTOL * ref


def _dense_hadamard(dec, family):
    """(V^* V) o K densely, K the family's Gram kernel on the non-kernel
    eigenvalues and zero in the kernel rows and columns."""
    lam = np.where(dec.kernel_indices, 1.0, dec.eigenvalues)
    nk = dec.nonkernel
    K = family(1.0).gram(lam[:, None], lam[None, :]) * np.outer(nk, nk)
    V = dec.V_blocks.dense()
    return (V.conj().T @ V) * K


def test_square_functions_match_dense_hadamard_form(frame):
    dec = frame.dec
    rng = np.random.default_rng(4)
    v = rng.standard_normal(dec.dim) + 1j * rng.standard_normal(dec.dim)
    c = dec.Vinv_blocks.dense() @ v
    for family in (q_t, psi_abs_exp, psi_exp):
        ref = np.vdot(c, _dense_hadamard(dec, family) @ c).real
        got = square_function(dec, family, dec.coordinates(v))
        assert abs(got - ref) <= RTOL * ref


def test_quadratic_constants_match_dense_gram(frame):
    dec = frame.dec
    Vinv = dec.Vinv_blocks.dense()
    G = Vinv.conj().T @ _dense_hadamard(dec, q_t) @ Vinv
    u, s, _ = np.linalg.svd(_dense_frame(frame)[1])
    U = u[:, s > 0.5]
    Gr = U.conj().T @ G @ U
    ev = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (Gr + Gr.conj().T)), 0,
                         None))
    c_low, c_high = quadratic_constants(dec)
    assert abs(c_low - ev[0]) <= RTOL * ev[0]
    assert abs(c_high - ev[-1]) <= RTOL * ev[-1]


def test_constant_frame_never_forms_a_dense_frame_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense frame matrix formed")

    monkeypatch.setattr(calculus, "_scatter_blocks", refuse)
    monkeypatch.setattr(BlockDiagonal, "dense", refuse)
    torus = Torus(2, 2 * np.pi, 8)
    frame = BoundaryFrame(_coefficients(torus, "constant"))
    scalar = gaussian_data(torus)
    for kind in bvp.SCALAR_KINDS:
        sol, report = solve_kind(kind, frame, scalar)
        assert report.boundary_residual <= 1e-10, kind
        ts = sol.default_t_samples()
        assert np.all(np.isfinite(sol.at_t(0.5).values))
        assert norm_sup_t(sol, ts) > 0
        assert norm_triplebar_dt(sol) > 0
        assert nontangential_max(sol, t_samples=ts) > 0
        assert np.isfinite(dirichlet_second_order_residual(sol, ts[:10]))
    reflection_conditions(frame)
    quadratic_constants(frame.dec)


def test_boundary_operators_factor_on_their_own_partition():
    # skew_k4 has an exactly decoupled zero-mode coordinate in T and N
    # but not in N_A: E -+ N split into 1 + (m - 1), E - N_A does not
    torus = Torus(1, 2 * np.pi, 32)
    frame = BoundaryFrame(skew_coefficients(torus, 4.0))
    assert [g.shape for g in frame.dec.V_blocks.groups] == [(1, 1), (1, 63)]
    for kind, sizes in (("neumann", [64]), ("regularity", [1, 63]),
                        ("neu_perp", [1, 63])):
        op, _ = frame.boundary_operator(kind)
        assert [g.shape[1] for g in op.groups] == sizes, kind
        own = block_partition(op.dense())
        assert [g.tolist() for g in op.groups] == \
            [g.tolist() for g in own], kind


def _permuted_blocks(seed, sizes=(1, 2, 2, 3, 3)):
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    D = np.zeros((m, m), dtype=complex)
    start = 0
    for k in sizes:
        D[start:start + k, start:start + k] = rng.normal(size=(k, k)) \
            + 1j * rng.normal(size=(k, k))
        start += k
    perm = np.random.default_rng(0).permutation(m)
    return D[np.ix_(perm, perm)]


def test_block_diagonal_algebra_matches_dense():
    A, B = _permuted_blocks(1), _permuted_blocks(2)
    a = BlockDiagonal.of(A)
    b = BlockDiagonal.gather(B, a.groups)
    assert len(a.groups) == 3
    rng = np.random.default_rng(5)
    v = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    X = rng.normal(size=(A.shape[0], 4))
    for got, ref in (((a @ b).dense(), A @ B), ((a + b).dense(), A + B),
                     ((a - b).dense(), A - B), ((a * b).dense(), A * B),
                     ((a * v).dense(), A * v), ((a * 2j).dense(), 2j * A),
                     (a.H.dense(), A.conj().T), (a @ v, A @ v),
                     (a @ X, A @ X), (np.asarray(a), A),
                     (BlockDiagonal.eye(a.groups).dense(), np.eye(len(A)))):
        assert _rel(got, ref) <= 1e-15
    assert np.allclose(np.sort(a.svdvals()),
                       np.sort(np.linalg.svd(A, compute_uv=False)))
    # a coarser partition holds the same matrix
    coarse = block_partition(A, np.diag(np.ones(len(A) - 1), 1))
    assert len(coarse) == 1 and coarse[0].shape == (1, len(A))
    assert _rel(a.regroup(coarse).dense(), A) == 0.0
    assert a.regroup(a.groups) is a
    with pytest.raises(ValueError, match="partitions"):
        a @ a.regroup(coarse)


def test_rowwise_with_the_partition_plan_matches_fancy_indexing():
    # per-mode (contiguous ranges: slices), whole, and permuted indices
    # (the flat-index rows)
    rng = np.random.default_rng(3)
    perm = rng.permutation(12)
    partitions = {
        "per-mode": [np.arange(2).reshape(2, 1),
                     np.arange(2, 12).reshape(5, 2)],
        "whole": [np.arange(12)[None]],
        "non-contiguous": [perm[:8].reshape(4, 2), perm[8:].reshape(2, 2)],
    }
    x = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    for name, groups in partitions.items():
        blocks = [rng.standard_normal(idx.shape + idx.shape[1:])
                  for idx in groups]
        part = Partition.of(groups)
        assert Partition.of(part) is part and part.rows is part.rows
        if name == "non-contiguous":
            assert not any(isinstance(r, slice) for r in part.rows)
        elif name == "per-mode":
            assert all(isinstance(r, slice) for r in part.rows)

        def fn(g, rows):
            return blocks[g] @ rows

        ref = np.empty_like(x)
        for g, idx in enumerate(groups):
            ref[idx.ravel()] = fn(g, x[idx]).reshape(-1, 3)
        for _ in range(2):  # the plan is built on the first call
            got = BlockDiagonal.rowwise(part, fn, x, out=True)
            assert np.array_equal(got, ref), name
            parts = BlockDiagonal.rowwise(part, fn, x)
            for g, idx in enumerate(groups):
                assert np.array_equal(parts[g].reshape(idx.shape + (3,)),
                                      fn(g, x[idx])), name
        op = BlockDiagonal(groups, blocks)
        assert op.groups.rows is (op @ op).groups.rows
        assert np.array_equal(op @ x, ref), name


# -- variable coefficients: boundary inverses and the kernel polish ------------

VARIABLE_CASES = [(1, 64, "block"), (1, 64, "skew_k4"),
                  (1, 64, "smooth_symmetric"), (2, 8, "block"),
                  (2, 8, "smooth_symmetric")]


def _variable_frame(case):
    if case not in _FRAMES:
        n, N, family = case
        torus = Torus(n, 2 * np.pi, N)
        B = {"block": lambda: block_coefficients(torus, 3),
             "skew_k4": lambda: skew_coefficients(torus, 4.0),
             "smooth_symmetric": lambda: smooth_real_symmetric(torus, 3),
             }[family]()
        _FRAMES[case] = BoundaryFrame(B)
    return _FRAMES[case]


@pytest.fixture(params=VARIABLE_CASES,
                ids=["-".join(map(str, c)) for c in VARIABLE_CASES])
def variable_frame(request):
    return _variable_frame(request.param)


def test_variable_boundary_inverses_match_dense_pseudo_inverse(
        variable_frame):
    frame = variable_frame
    m = frame.dec.dim
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    for kind in ("neumann", "regularity", "neu_perp"):
        op, _ = frame.boundary_operator(kind)
        got, inv = frame.invert(kind, rhs)
        pinv, cond, null_dim = _dense_pinv(op.dense())
        assert inv.null_dim == null_dim, kind
        assert abs(inv.cond - cond) <= 1e-12 * cond, kind
        assert _rel(got, pinv @ rhs) <= 1e-12, kind
        assert _rel(frame.invert(kind, rhs[:, 0])[0],
                    pinv @ rhs[:, 0]) <= 1e-12, kind


def test_stacked_group_with_mixed_null_counts_matches_dense_pseudo_inverse():
    # one group of four 2 x 2 blocks (zero, rank one, two invertible) and one
    # of two 3 x 3 blocks (rank two, invertible), on permuted indices
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    twos = np.stack([np.zeros((2, 2)), np.outer(cplx(2), cplx(2)),
                     cplx(2, 2), cplx(2, 2)])
    threes = np.stack([cplx(3, 2) @ cplx(2, 3), cplx(3, 3)])
    perm = rng.permutation(14)
    groups = [perm[:8].reshape(4, 2), perm[8:].reshape(2, 3)]
    op = BlockDiagonal(groups, [twos, threes])
    inv = BoundaryInverse(op, "test", kernel_dim=4)
    pinv, cond, null_dim = _dense_pinv(op.dense())
    assert inv.null_dim == null_dim == 4
    assert abs(inv.cond - cond) <= 1e-12 * cond
    s = np.linalg.svd(op.dense(), compute_uv=False)
    # the inverse takes the singular values of each size group alone
    got = -np.sort(-np.concatenate([calculus.svdvals(b).ravel()
                                    for b in op.blocks]))
    assert _rel(got[:14 - null_dim], s[:14 - null_dim]) <= 1e-14
    rhs = cplx(14, 3)
    assert _rel(inv.solve(rhs), pinv @ rhs) <= 1e-12
    with pytest.raises(bvp.WellPosednessError, match="null directions"):
        BoundaryInverse(op, "test", kernel_dim=3)


# skew_k4 gives a Hermitian T, whose unitary eigenbasis is not polished
@pytest.mark.parametrize("case", [c for c in VARIABLE_CASES
                                  if c[2] != "skew_k4"],
                         ids=lambda c: "-".join(map(str, c)))
def test_polished_kernel_spans_the_singular_null_space(case):
    frame = _variable_frame(case)
    dec = frame.dec
    assert not dec.hermitian
    T = frame.T.entries
    K = dec.kernel_indices
    k = int(np.sum(K))
    assert k == frame.torus.dim_n + 1
    _, _, vh = np.linalg.svd(T)
    null = vh[-k:].conj().T
    V = dec.V_blocks.dense()
    VK = V[:, K]
    assert _rel(VK.conj().T @ VK, np.eye(k)) <= 1e-14
    # sines of the principal angles between the two k-dimensional spaces
    sines = np.linalg.svd(VK - null @ (null.conj().T @ VK), compute_uv=False)
    assert np.max(sines) <= 1e-12
    assert np.all(dec.eigenvalues[K] == 0.0)
    # the singular null basis in place of the polished one is V times a
    # unitary: the singular values of V agree to rounding (Weyl), and so
    # does cond(V), to 1e-12 relative up to cond(V) = 1e4; past that the
    # rounding of the smallest singular value is amplified by cond(V)
    V_svd = V.copy()
    V_svd[:, K] = null
    s = np.linalg.svd(V, compute_uv=False)
    s_svd = np.linalg.svd(V_svd, compute_uv=False)
    assert np.max(np.abs(s_svd - s)) <= 1e-13 * s[0]
    assert abs(s_svd[0] / s_svd[-1] - dec.cond_V) <= \
        1e-12 * dec.cond_V * max(1.0, 1e-4 * dec.cond_V)


def _spy_graded(monkeypatch):
    """Record the calls of the graded route of ``calculus.decompose``."""
    calls = []
    real = calculus._graded_eig
    monkeypatch.setattr(calculus, "_graded_eig",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def _spectra_distance(a, b):
    """The Hausdorff distance of two finite point sets in the plane."""
    d = np.abs(a[:, None] - b[None, :])
    return max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0)))


@pytest.mark.parametrize("n, N", [(1, 64), (2, 8)])
def test_graded_block_frame_matches_the_eig_route(monkeypatch, n, N):
    # block coefficients: T anticommutes with the diagonal N, and the frame
    # factors T through the half-size eigenproblem of XY; the plain eig
    # route (with its kernel polish) is the reference
    graded = _spy_graded(monkeypatch)
    torus = Torus(n, 2 * np.pi, N)
    B = block_coefficients(torus, 3)
    frame = BoundaryFrame(B)
    assert graded == [1]
    monkeypatch.setattr(bvp, "_grading", lambda refl: None)
    plain = BoundaryFrame(B)
    assert graded == [1]
    dec, ref = frame.dec, plain.dec
    lam_max = ref.spectral_radius()
    assert _spectra_distance(dec.eigenvalues, ref.eigenvalues) \
        <= 1e-11 * lam_max
    assert _rel(frame.E, plain.E) <= 1e-11
    # a generic f: at t = 10 its kernel part, which the semigroup keeps,
    # is most of e^{-t|T|} f
    f = np.random.default_rng(4).standard_normal(dec.dim) + 0j
    for t in (0.1, 1.0, 10.0):
        got = apply_to_vector(dec, exp_minus_t_abs(t), dec.coordinates(f))
        want = apply_to_vector(ref, exp_minus_t_abs(t), ref.coordinates(f))
        assert _rel(got, want) <= 1e-11, t
    scalar = gaussian_data(torus)
    for kind in bvp.SCALAR_KINDS:
        got, _ = solve_kind(kind, frame, scalar)
        want, _ = solve_kind(kind, plain, scalar)
        assert _rel(got.coords, want.coords) <= 1e-11, kind
    T = frame.T.entries
    E = frame.E
    assert np.linalg.norm(E @ E - frame.Pnk, 2) <= 1e-12
    assert np.linalg.norm(E @ T - T @ E, 2) <= 1e-12 * np.linalg.norm(T, 2)
    assert frame.kernel_dim == n + 1
    assert np.all(dec.eigenvalues[dec.kernel_indices] == 0.0)
    assert dec.cond_V <= 10.0
    s = np.linalg.svd(dec.V_blocks.dense(), compute_uv=False)
    assert abs(s[0] / s[-1] - dec.cond_V) <= 1e-12 * dec.cond_V
    V, Vinv = _dense_V(dec)
    assert _rel(V @ Vinv, np.eye(dec.dim)) <= 1e-14


def test_graded_decompose_of_unbalanced_rank_deficient_blocks(monkeypatch):
    # graded blocks [[0, X], [Y, 0]] of unequal halves on permuted indices,
    # with rank-deficient X and Y of equal rank: the padded and the QR-
    # squared null bases, stacks of several sign patterns, and the kernel
    # dimensions p + q - 2 rank
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def graded_block(p, q, rank):
        X = cplx(p, rank) @ cplx(rank, q)
        Y = cplx(q, rank) @ cplx(rank, p)
        return np.block([[np.zeros((p, p)), X], [Y, np.zeros((q, q))]])

    shapes = [(2, 3, 2), (3, 2, 2), (2, 3, 2), (3, 4, 2), (1, 4, 1), (0, 1, 0)]
    m = sum(p + q for p, q, _ in shapes)
    perm = rng.permutation(m)
    mat = np.zeros((m, m), dtype=complex)
    grading = np.empty(m)
    start = 0
    for p, q, rank in shapes:
        idx = perm[start:start + p + q]
        mat[np.ix_(idx, idx)] = graded_block(p, q, rank)
        grading[idx] = np.r_[np.ones(p), -np.ones(q)]
        start += p + q
    calls = _spy_graded(monkeypatch)
    dec = calculus.decompose(mat, grading=grading)
    assert calls == [1]
    kernel_dim = sum(p + q - 2 * rank for p, q, rank in shapes)
    assert int(np.sum(dec.kernel_indices)) == kernel_dim
    assert np.all(dec.eigenvalues[dec.kernel_indices] == 0.0)
    V, Vinv = _dense_V(dec)
    assert _rel(V @ Vinv, np.eye(m)) <= 1e-13
    assert _rel(mat @ V, V * dec.eigenvalues) <= 1e-13
    VK = V[:, dec.kernel_indices]
    assert _rel(VK.conj().T @ VK, np.eye(kernel_dim)) <= 1e-14
    ref = calculus.decompose(mat)
    assert _spectra_distance(dec.eigenvalues, ref.eigenvalues) \
        <= 1e-12 * ref.spectral_radius()
    assert _rel(calculus.apply_function(dec, sgn()).dense(),
                calculus.apply_function(ref, sgn()).dense()) <= 1e-12
    s = np.linalg.svd(V, compute_uv=False)
    assert abs(s[0] / s[-1] - dec.cond_V) <= 1e-12 * dec.cond_V


@pytest.mark.parametrize("exact", [True, False])
def test_graded_decompose_with_a_double_eigenvalue(monkeypatch, exact):
    # XY = diag(1, 1, 4, 9) in one connected block, exactly (X unit upper
    # bidiagonal, Y = X^{-1} D in integers) or up to rounding (X = I, Y a
    # random similarity of D): the refinement leaves the coupling inside
    # the cluster, whose gap is zero or rounding, alone
    D = np.diag([1.0, 1.0, 4.0, 9.0])
    if exact:
        X = np.eye(4) + np.eye(4, k=1)
        Y = np.triu((-1.0) ** (np.arange(4)[None, :] - np.arange(4)[:, None])
                    ) @ D
    else:
        rng = np.random.default_rng(3)
        S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        X, Y = np.eye(4), S @ D @ np.linalg.inv(S)
    assert not exact or np.array_equal(X @ Y, D)
    mat = np.block([[np.zeros((4, 4)), X], [Y, np.zeros((4, 4))]])
    assert [idx.shape for idx in block_partition(mat)] == [(1, 8)]
    grading = np.r_[np.ones(4), -np.ones(4)]
    calls = _spy_graded(monkeypatch)
    dec = calculus.decompose(mat, grading=grading)
    assert calls == [1]
    assert not np.any(dec.kernel_indices)
    assert _spectra_distance(dec.eigenvalues, np.array(
        [1, 1, -1, -1, 2, -2, 3, -3])) <= 1e-13
    V, Vinv = _dense_V(dec)
    assert _rel(V @ Vinv, np.eye(8)) <= 1e-13
    assert _rel(mat @ V, V * dec.eigenvalues) <= 1e-13
    ref = calculus.decompose(mat)
    assert _rel(calculus.apply_function(dec, sgn()).dense(),
                calculus.apply_function(ref, sgn()).dense()) <= 1e-12


def test_graded_decompose_rejects_unequal_ranks():
    # X invertible and Y of rank one: 0 is an eigenvalue of algebraic
    # multiplicity 2 with one eigenvector, and T has no eigenbasis
    X = np.array([[1.0, 2.0], [0.5, 1j]])
    Y = np.outer([1.0, 2.0j], [0.5, 1.0])
    mat = np.block([[np.zeros((2, 2)), X], [Y, np.zeros((2, 2))]])
    with pytest.raises(calculus.IllConditionedEigenbasisError,
                       match="not diagonalizable"):
        calculus.decompose(mat, grading=np.r_[1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("n, N, family", [
    (1, 32, "constant"), (2, 8, "constant"), (1, 32, "skew_k4"),
    (1, 32, "smooth_symmetric"), (2, 8, "smooth_symmetric")])
def test_other_families_never_take_the_graded_route(monkeypatch, n, N,
                                                    family):
    # only block coefficients anticommute with N; every other family keeps
    # eig (or eigh), bit for bit the same as without a grading
    graded = _spy_graded(monkeypatch)
    torus = Torus(n, 2 * np.pi, N)
    B = {"constant": lambda: vector_block_coefficients(
             torus, random_accretive_constant(1, n)),
         "skew_k4": lambda: skew_coefficients(torus, 4.0),
         "smooth_symmetric": lambda: smooth_real_symmetric(torus, 3)}[family]()
    frame = BoundaryFrame(B)
    assert graded == []
    ref = calculus.decompose(frame.T.entries)
    assert np.array_equal(frame.dec.eigenvalues, ref.eigenvalues)
    assert np.array_equal(frame.dec.V_blocks.dense(), ref.V_blocks.dense())
    assert frame.dec.cond_V == ref.cond_V


def test_non_graded_matrix_ignores_the_grading(monkeypatch):
    # a non-Hermitian matrix whose N-diagonal sub-blocks do not vanish
    graded = _spy_graded(monkeypatch)
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    grading = np.r_[np.ones(6), -np.ones(6)]
    dec = calculus.decompose(mat, grading=grading)
    ref = calculus.decompose(mat)
    assert graded == []
    assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
    assert np.array_equal(dec.V_blocks.dense(), ref.V_blocks.dense())
    # a rounding-level same-sign part is still graded, a larger one is not
    pos = grading > 0
    odd = np.where(pos[:, None] != pos[None, :], mat, 0.0)
    calculus.decompose(odd + 1e-15 * np.where(pos[:, None] == pos[None, :],
                                              mat, 0.0), grading=grading)
    assert graded == [1]
    calculus.decompose(odd + 1e-9 * np.where(pos[:, None] == pos[None, :],
                                             mat, 0.0), grading=grading)
    assert graded == [1]
