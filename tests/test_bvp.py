"""Tests for the boundary value problem solves and solution norms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from halfspace import calculus
from halfspace.bvp import (SCALAR_KINDS, BoundaryFrame, SolutionField,
                           WellPosednessError,
                           dirichlet_second_order_residual,
                           nontangential_max, norm_sup_t, norm_triplebar_dt,
                           solve_dirichlet, solve_kind, solve_neumann,
                           solve_neu_perp, solve_regularity,
                           solve_transmission)
from halfspace.calculus import apply_to_vector, semigroup_dt
from halfspace.diagnostics import (_solution_operators, block_coefficients,
                                   gaussian_data, mode_data,
                                   random_accretive_constant,
                                   smooth_real_symmetric)
from halfspace.grid import (Field, Torus, d_op, identity_coefficients,
                            vector_block_coefficients)
from halfspace.oracles import constant_deviations


def _torus():
    return Torus(1, 2 * np.pi, 64)


def _gradient_data(torus, scalar):
    vals = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    vals[..., 0] = scalar
    return d_op(Field(torus, vals))


@pytest.fixture(scope="module")
def identity_frame():
    return BoundaryFrame(identity_coefficients(_torus()))


@pytest.fixture(scope="module")
def smooth_frame():
    return BoundaryFrame(smooth_real_symmetric(_torus(), seed=3))


@pytest.mark.parametrize("frame_name", ["identity_frame", "smooth_frame"])
def test_neumann_solve_residuals(frame_name, request):
    frame = request.getfixturevalue(frame_name)
    phi = gaussian_data(frame.torus)
    sol, report = solve_neumann(None, phi, frame=frame)
    assert report.boundary_residual <= 1e-8
    assert report.hardy_defect <= 1e-8
    assert report.data_projection_loss <= 1e-8


@pytest.mark.parametrize("frame_name", ["identity_frame", "smooth_frame"])
def test_regularity_solve_residuals(frame_name, request):
    frame = request.getfixturevalue(frame_name)
    data = _gradient_data(frame.torus, gaussian_data(frame.torus))
    sol, report = solve_regularity(None, data, frame=frame)
    assert report.boundary_residual <= 1e-8
    assert report.hardy_defect <= 1e-8


@pytest.mark.parametrize("frame_name", ["identity_frame", "smooth_frame"])
def test_neu_perp_solve_residuals(frame_name, request):
    frame = request.getfixturevalue(frame_name)
    phi = mode_data(frame.torus, 2)
    sol, report = solve_neu_perp(None, phi, frame=frame)
    assert report.boundary_residual <= 1e-8
    assert report.hardy_defect <= 1e-8


def test_first_order_equation_inside(smooth_frame):
    # the interior field satisfies d/dt F_t = -T F_t exactly through the
    # semigroup generator
    frame = smooth_frame
    sol, _ = solve_neumann(None, gaussian_data(frame.torus), frame=frame)
    for t in (0.1, 0.5, 2.0):
        lhs = apply_to_vector(frame.dec, semigroup_dt(t, 1), sol.eig_coords)
        rhs = -frame.T.entries @ sol.coords_at_t(t)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
            np.linalg.norm(rhs), 1e-30)


def test_semigroup_reproduction(smooth_frame):
    # F_{s+t} equals the evolution of F_s by t
    frame = smooth_frame
    sol, _ = solve_regularity(
        None, _gradient_data(frame.torus, gaussian_data(frame.torus)),
        frame=frame)
    s, t = 0.4, 0.9
    direct = sol.coords_at_t(s + t)
    via = SolutionField(frame, sol.coords_at_t(s)).coords_at_t(t)
    assert np.linalg.norm(direct - via) <= 1e-9 * np.linalg.norm(sol.coords)


def test_interior_norms_comparable(smooth_frame):
    frame = smooth_frame
    sol, _ = solve_neumann(None, gaussian_data(frame.torus), frame=frame)
    trace = frame.phys_norm(sol.coords)
    for value in (norm_sup_t(sol), norm_triplebar_dt(sol),
                  nontangential_max(sol)):
        assert trace / 50 <= value <= 50 * trace


def test_dirichlet_interior_residual(smooth_frame):
    frame = smooth_frame
    sol, report = solve_dirichlet(None, gaussian_data(frame.torus),
                                  frame=frame)
    assert report.second_order_residual <= 1e-6
    u0 = sol.at_t(1e-9).component(1)
    trace = sol.trace_field().component(1)
    assert np.allclose(u0, trace, atol=1e-6 * max(np.max(np.abs(trace)), 1))


def test_dirichlet_identity_matches_poisson(identity_frame):
    frame = identity_frame
    torus = frame.torus
    x = torus.axis_coordinates()
    u = np.cos(3 * x)
    sol, report = solve_dirichlet(None, u, frame=frame)
    t = 0.6
    ref = np.exp(-3 * t) * u
    got = sol.at_t(t).component(1).real
    assert np.allclose(got, ref, atol=1e-9)


@pytest.mark.parametrize("n,N,name", [
    (1, 64, "smooth_symmetric"), (1, 64, "identity"), (1, 64, "block"),
    (2, 8, "identity"), (2, 8, "block")])
def test_transmission_jump_conditions(n, N, name):
    # for identity and block B the normal part of B g is exactly zero on a
    # gradient datum g, so the second jump has no scale of its own
    torus = Torus(n, 2 * np.pi, N)
    B = {"smooth_symmetric": lambda: smooth_real_symmetric(torus, seed=3),
         "identity": lambda: identity_coefficients(torus),
         "block": lambda: block_coefficients(torus, 3)}[name]()
    frame = BoundaryFrame(B, degree=1)
    g_coords, _ = frame.to_coords(_gradient_data(torus, gaussian_data(torus)))
    g_field = frame.to_field(g_coords)
    (sol_p, sol_m), report = solve_transmission(
        B, 1, 2.0, 1.0, g_field, frame=frame)
    assert report.boundary_residual <= 1e-8
    assert report.hardy_defect <= 1e-7


def test_transmission_degenerate_lambda_rejected(smooth_frame):
    B = smooth_frame.B
    torus = smooth_frame.torus
    frame = BoundaryFrame(B, degree=1)
    g = frame.to_field(frame.to_coords(
        _gradient_data(torus, gaussian_data(torus)))[0])
    # alpha ratio giving lambda = i is spectrally degenerate
    a_plus = 1.0j + 1.0
    a_minus = 1.0j - 1.0
    with pytest.raises(WellPosednessError):
        solve_transmission(B, 1, a_plus, a_minus, g, frame=frame)
    with pytest.raises(ValueError):
        solve_transmission(B, 1, 1.0, 1.0, g, frame=frame)


def test_report_serialization(smooth_frame):
    frame = smooth_frame
    _, report = solve_neumann(None, gaussian_data(frame.torus), frame=frame)
    text = report.to_text()
    assert "boundary_residual" in text
    keys = [k for k, _ in report.items()]
    assert "formula" in keys
    assert any(k.startswith("cond.") for k in keys)


def test_solution_rejects_negative_t(smooth_frame):
    sol, _ = solve_neumann(None, gaussian_data(smooth_frame.torus),
                           frame=smooth_frame)
    with pytest.raises(ValueError):
        sol.coords_at_t(-0.1)


def test_dt_coords_rejects_negative_t(smooth_frame):
    # a negative height would select the growing branch e^{+|t||T|} of the
    # time derivatives the Dirichlet residual evaluates
    sol, _ = solve_neumann(None, gaussian_data(smooth_frame.torus),
                           frame=smooth_frame)
    with pytest.raises(ValueError, match="t >= 0"):
        dirichlet_second_order_residual(sol, [-0.1])
    assert np.isfinite(dirichlet_second_order_residual(sol, [0.0]))


def test_n2_scalar_kinds_match_constant_oracle():
    # n = 2 frames against the per-mode constant-coefficient oracle
    torus = Torus(2, 2 * np.pi, 8)
    A = random_accretive_constant(1, 2)
    frame = BoundaryFrame(vector_block_coefficients(torus, A))
    scalar = gaussian_data(torus)
    for kind in SCALAR_KINDS:
        sol, _ = solve_kind(kind, frame, scalar)
        devs = constant_deviations(sol, A, kind, scalar, (0.05, 0.3, 1.0))
        assert max(dev for _, dev in devs) <= 1e-9, kind
    with pytest.raises(ValueError, match="valid kinds"):
        solve_kind("transmission", frame, scalar)


@pytest.fixture(scope="module")
def n2_frame():
    """n = 2, N = 16 constant-coefficient frame (full dim 2048, m = 513),
    built under tracemalloc; returns (frame, A, traced peak in bytes)."""
    torus = Torus(2, 2 * np.pi, 16)
    A = random_accretive_constant(1, 2)
    B = vector_block_coefficients(torus, A)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        frame = BoundaryFrame(B)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return frame, A, peak


def test_n2_N16_scalar_kinds_match_constant_oracle(n2_frame):
    frame, A, _ = n2_frame
    scalar = gaussian_data(frame.torus)
    for kind in SCALAR_KINDS:
        sol, _ = solve_kind(kind, frame, scalar)
        devs = constant_deviations(sol, A, kind, scalar, (0.05, 0.3, 1.0))
        assert max(dev for _, dev in devs) <= 1e-9, kind


def test_n2_N16_frame_build_never_holds_a_full_space_matrix(n2_frame):
    # one dense complex (N^n 2^(n+1))^2 matrix is 2048^2 * 16 B = 64 MiB; the
    # whole traced peak of the build stays below it, so no single block
    # that large was ever allocated
    frame, _, peak = n2_frame
    full_dim = frame.torus.num_points * frame.torus.lambda_dim
    assert full_dim == 2048
    assert peak < full_dim ** 2 * 16


def test_boundary_factorization_cached_per_kind(monkeypatch):
    torus = Torus(1, 2 * np.pi, 32)
    B = smooth_real_symmetric(torus, seed=3)
    frame = BoundaryFrame(B)
    fresh = BoundaryFrame(B)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    formed = []
    real_operator = frame.boundary_operator

    def counting_operator(*args, **kwargs):
        formed.append(1)
        return real_operator(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(frame, "boundary_operator", counting_operator)
    first, _ = solve_neumann(None, gaussian_data(torus), frame=frame)
    assert len(calls) == 1 and len(formed) == 1
    phi = mode_data(torus, 3)
    second, report = solve_neumann(None, phi, frame=frame)
    # a cached factorization neither refactors nor forms the m x m operator
    assert len(calls) == 1 and len(formed) == 1
    # neu_perp and dirichlet share the operator E - N
    solve_neu_perp(None, phi, frame=frame)
    solve_dirichlet(None, phi, frame=frame)
    assert len(calls) == 2 and len(formed) == 2
    solve_regularity(None, _gradient_data(torus, phi), frame=frame)
    assert len(calls) == 3 and len(formed) == 3
    ref, ref_report = solve_neumann(None, phi, frame=fresh)
    assert len(calls) == 4
    assert np.linalg.norm(second.coords - ref.coords) <= 1e-12 * np.linalg.norm(
        ref.coords)
    assert report.condition_numbers == ref_report.condition_numbers
    # the campaigns' solution operators reuse the solves' factorizations
    _solution_operators(frame)
    assert len(calls) == 4 and len(formed) == 3
    # transmission factors lambda - E N_B once per lambda
    g = frame.to_field(frame.to_coords(_gradient_data(torus, phi))[0])
    _, once = solve_transmission(B, 1, 2.0, 1.0, g, frame=frame)
    _, twice = solve_transmission(B, 1, 2.0, 1.0, g, frame=frame)
    assert len(calls) == 5 and len(formed) == 4
    assert twice.to_text() == once.to_text()
    solve_transmission(B, 1, 3.0, 1.0, g, frame=frame)
    assert len(calls) == 6 and len(formed) == 5


def test_constant_frame_factors_one_stacked_svd_per_block_size(monkeypatch):
    # constant coefficients make every boundary operator block diagonal
    # per mode: each is factored with one stacked SVD per block size
    from halfspace.calculus import block_partition
    torus = Torus(1, 2 * np.pi, 64)
    frame = BoundaryFrame(vector_block_coefficients(
        torus, random_accretive_constant(1, 1)))
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for kind in ("neumann", "regularity", "neu_perp"):
        op, _ = frame.boundary_operator(kind)
        sizes = [idx.shape[1] for idx in block_partition(op)]
        assert max(sizes) <= 2, kind
        calls.clear()
        _, inv = frame.invert(kind, np.zeros(op.dim))
        assert len(calls) <= len(sizes), kind
        assert all(len(shape) == 3 for shape in calls), kind
        dense = real_svd(op, compute_uv=False)
        keep = dense > 1e-12 * dense[0]
        assert inv.null_dim == op.shape[0] - np.sum(keep)
        assert abs(inv.cond - dense[0] / dense[keep][-1]) <= 1e-12 * inv.cond


def test_variable_frame_and_solves_call_no_scipy_lapack(monkeypatch):
    # numpy and scipy each load their own OpenBLAS, and the idle threads of
    # one pool spin against the other's calls: the frame build (with the
    # kernel polish, or the graded half-size route of block coefficients)
    # and the boundary factorizations stay on numpy
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg routine called")

    for name in scipy.linalg.__all__:
        obj = getattr(scipy.linalg, name)
        if callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", refuse)
    graded = []
    monkeypatch.setattr(calculus, "_graded_eig", lambda *a, _f=(
        calculus._graded_eig): graded.append(1) or _f(*a))
    torus = Torus(1, 2 * np.pi, 32)
    scalar = gaussian_data(torus)
    for B in (smooth_real_symmetric(torus, seed=3),
              block_coefficients(torus, 3)):
        frame = BoundaryFrame(B)
        assert not frame.dec.hermitian and frame.kernel_dim == 2
        for kind in SCALAR_KINDS:
            _, report = solve_kind(kind, frame, scalar)
            assert report.boundary_residual <= 1e-8, kind
    assert graded == [1]  # the block frame took the graded route
