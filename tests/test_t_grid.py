"""Block evaluation over t-grids against the per-height reference routes.

Each reference below is the one-height-at-a-time loop the block products
replaced: one symbol, one matrix-vector product and one lifted field per t,
dense derivative matrices and roll sums for the box filter.  Block and loop
do the same arithmetic in another order, so they agree to rounding.  The
square functions, exact Hermitian forms in the eigen-coordinates, are
checked against the same form built one eigenpair at a time.
"""

import numpy as np
import pytest

from halfspace import bvp, calculus
from halfspace.assembly import derivative_matrix
from halfspace.bvp import (BoundaryFrame, SolutionField,
                           dirichlet_second_order_residual, nontangential_max,
                           norm_sup_t, norm_triplebar_dt, solve_neumann)
from halfspace.calculus import (apply_to_vector, exp_minus_t_abs,
                                psi_abs_exp, psi_exp, q_t,
                                quadratic_constants, semigroup_dt,
                                square_function)
from halfspace.diagnostics import (gaussian_data, random_accretive_constant,
                                   smooth_real_symmetric)
from halfspace.grid import Torus, vector_block_coefficients

RTOL = 1e-13


# ---------------------------------------------------------------------------
# per-height reference routes
# ---------------------------------------------------------------------------

def _roll_box_mean(a, win, axis):
    kernel_idx = np.arange(win) - win // 2
    return sum(np.roll(a, shift, axis=axis) for shift in kernel_idx) / win


def _nontangential_loop(sol, t_samples, c0=0.5, c1=1.0):
    torus = sol.frame.torus
    t_samples = np.asarray(sorted(t_samples))
    sq = np.array([np.sum(np.abs(sol.at_t(t).values) ** 2, axis=-1)
                   for t in t_samples])
    dx = torus.length / torus.points_per_axis
    best = np.zeros(torus.shape)
    wins = set()
    for i, t in enumerate(t_samples):
        in_s = np.abs(t_samples - t) < c0 * t
        if not np.any(in_s):
            in_s[i] = True
        avg = sq[in_s].mean(axis=0)
        half_w = max(int(np.floor(c1 * t / dx)), 0)
        win = min(2 * half_w + 1, torus.points_per_axis)
        wins.add(win)
        for ax in range(torus.dim_n):
            avg = _roll_box_mean(avg, win, ax)
        best = np.maximum(best, avg)
    return float(np.sqrt(torus.weight * np.sum(best))), wins


def _gram_loop(dec, family):
    """(V^* V) o K on the non-kernel indices, zero elsewhere, one eigenpair
    (i, j) at a time: K_ij from the family's Gram kernel at the pair of
    eigenvalues, (V^* V)_ij from the dense columns of V."""
    gram = family(1.0).gram
    V, lam, nk = dec.V, dec.eigenvalues, np.flatnonzero(dec.nonkernel)
    H = np.zeros((dec.dim, dec.dim), dtype=complex)
    for i in nk:
        for j in nk:
            H[i, j] = np.vdot(V[:, i], V[:, j]) * gram(lam[i], lam[j])
    return H


def _square_function_loop(dec, family, coeffs):
    c = dec.Vinv @ coeffs
    return float(np.vdot(c, _gram_loop(dec, family) @ c).real)


def _dirichlet_residual_loop(sol, t_samples):
    frame = sol.frame
    torus = frame.torus
    n = torus.dim_n
    A = frame.B.vector_block().reshape(-1, n + 1, n + 1)
    Dx = [derivative_matrix(torus, j) for j in range(n)]
    worst = 0.0
    for t in t_samples:
        U = sol.at_t(t).component(1).reshape(-1)
        Ut, Utt = (frame.to_field(apply_to_vector(
            frame.dec, semigroup_dt(t, k), sol.coords)).component(1)
            .reshape(-1) for k in (1, 2))
        dt_g0 = A[:, 0, 0] * Utt + sum(A[:, 0, j + 1] * (Dx[j] @ Ut)
                                      for j in range(n))
        terms = [dt_g0]
        for i in range(n):
            g_i = A[:, i + 1, 0] * Ut + sum(A[:, i + 1, j + 1] * (Dx[j] @ U)
                                           for j in range(n))
            terms.append(Dx[i] @ g_i)
        resid = np.linalg.norm(sum(terms))
        worst = max(worst, resid / max(np.linalg.norm(x) for x in terms))
    return worst


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frame_n1():
    """Variable, non-Hermitian n = 1 frame (cond(V) about 360)."""
    torus = Torus(1, 2 * np.pi, 32)
    return BoundaryFrame(smooth_real_symmetric(torus, seed=3))


@pytest.fixture(scope="module")
def frame_n2():
    torus = Torus(2, 2 * np.pi, 8)
    return BoundaryFrame(vector_block_coefficients(
        torus, random_accretive_constant(1, 2)))


def _solution(frame):
    sol, _ = solve_neumann(None, gaussian_data(frame.torus), frame=frame)
    return sol


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("n", [1, 2])
def test_box_mean_matches_roll_sum(n, N):
    rng = np.random.default_rng(N + n)
    a = rng.uniform(0.0, 2.0, (N,) * n)
    for win in (1, 2, 3, 5, N - 1, N):
        for axis in range(n):
            got = bvp._periodic_box_mean(a, win, axis)
            ref = _roll_box_mean(a, win, axis)
            assert np.allclose(got, ref, rtol=RTOL, atol=0.0), (win, axis)


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_nontangential_max_matches_roll_sum_loop(name, request):
    frame = request.getfixturevalue(name)
    sol = _solution(frame)
    ts = sol.default_t_samples()
    ref, wins = _nontangential_loop(sol, ts)
    # the default samples reach windows as wide as the (even) grid
    assert frame.torus.points_per_axis in wins and 1 in wins
    assert _rel(nontangential_max(sol, t_samples=ts), ref) <= RTOL


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_norms_match_per_height_loops(name, request):
    frame = request.getfixturevalue(name)
    sol = _solution(frame)
    ts = sol.default_t_samples()
    ref_sup = max(frame.phys_norm(apply_to_vector(
        frame.dec, exp_minus_t_abs(t), sol.coords)) for t in ts)
    assert _rel(norm_sup_t(sol, ts), ref_sup) <= RTOL
    refs = {}
    for family in (q_t, psi_abs_exp, psi_exp):
        refs[family] = _square_function_loop(frame.dec, family, sol.coords)
        got = square_function(frame.dec, family, sol.coords)
        assert _rel(got, refs[family]) <= RTOL
    assert _rel(norm_triplebar_dt(sol),
                np.sqrt(frame.torus.weight * refs[psi_abs_exp])) <= RTOL


def test_block_apply_to_vector_matches_per_symbol(frame_n1):
    dec = frame_n1.dec
    v = _solution(frame_n1).coords
    symbols = [exp_minus_t_abs(0.3), semigroup_dt(0.7, 2), q_t(1.5),
               calculus.sgn()]
    block = apply_to_vector(dec, symbols, v)
    assert block.shape == (dec.dim, len(symbols))
    for j, b in enumerate(symbols):
        col = apply_to_vector(dec, b, v)
        assert np.linalg.norm(block[:, j] - col) <= RTOL * np.linalg.norm(col)
    assert apply_to_vector(dec, [], v).shape == (dec.dim, 0)


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_quadratic_constants_match_gram_loop(name, request):
    dec = request.getfixturevalue(name).dec
    assert not dec.hermitian
    U = np.linalg.svd(dec.nonkernel_projector().dense())[0][:, :int(
        np.sum(dec.nonkernel))]
    G = dec.Vinv.conj().T @ _gram_loop(dec, q_t) @ dec.Vinv
    Gr = U.conj().T @ G @ U
    ev = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (Gr + Gr.conj().T)),
                         0.0, None))
    got = quadratic_constants(dec)
    assert _rel(got[0], ev[0]) <= RTOL
    assert _rel(got[1], ev[-1]) <= RTOL


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_dirichlet_residual_matches_dense_derivative_loop(name, request):
    # random coordinates are no Hardy field, so the residual is O(1) and
    # the two routes can be compared to rounding
    frame = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    sol = SolutionField(frame, frame.Pnk @ (rng.standard_normal(frame.dec.dim)
                                            + 0j))
    ts = np.exp(np.linspace(np.log(0.05), np.log(2.0), 6))
    ref = _dirichlet_residual_loop(sol, ts)
    assert ref > 1e-3
    assert _rel(dirichlet_second_order_residual(sol, ts), ref) <= 1e-12


def test_block_path_rejects_negative_t(frame_n1):
    sol = _solution(frame_n1)
    ts = np.array([0.5, -0.1, 1.0])
    with pytest.raises(ValueError):
        sol.coords_at_ts(ts)
    with pytest.raises(ValueError):
        norm_sup_t(sol, ts)
    with pytest.raises(ValueError):
        nontangential_max(sol, t_samples=ts)
    with pytest.raises(ValueError):
        dirichlet_second_order_residual(sol, ts)
    # t = 0 is the trace itself
    block = sol.coords_at_ts([0.0, 0.5])
    assert np.array_equal(block[:, 0], sol.coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_path_rejects_non_finite_t(frame_n1, bad):
    sol = _solution(frame_n1)
    ts = np.array([bad, 1.0])
    for evaluate in (sol.coords_at_ts, sol.norms_at_ts,
                     lambda ts: norm_sup_t(sol, ts),
                     lambda ts: nontangential_max(sol, t_samples=ts),
                     lambda ts: dirichlet_second_order_residual(sol, ts),
                     lambda ts: sol.dt_coords_at_t(ts[0])):
        with pytest.raises(ValueError, match="finite"):
            evaluate(ts)


def test_norms_reject_an_empty_grid(frame_n1):
    sol = _solution(frame_n1)
    for norm in (norm_sup_t, lambda sol, ts: nontangential_max(
            sol, t_samples=ts), dirichlet_second_order_residual):
        with pytest.raises(ValueError, match="empty sample grid"):
            norm(sol, [])


def test_norms_call_apply_to_vector_once_per_block(frame_n1, monkeypatch):
    sol = _solution(frame_n1)
    calls = []
    real = calculus.apply_to_vector

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calculus, "apply_to_vector", counting)
    monkeypatch.setattr(bvp, "apply_to_vector", counting)
    ts = sol.default_t_samples()
    assert len(ts) >= 50
    for norm, count in ((lambda: norm_sup_t(sol, ts), 1),
                        (lambda: nontangential_max(sol, t_samples=ts), 1),
                        # a closed-form Hermitian form, no symbol block
                        (lambda: norm_triplebar_dt(sol), 0)):
        calls.clear()
        norm()
        assert len(calls) == count


T_FAMILIES = {
    "exp_minus_t_abs": exp_minus_t_abs, "psi_abs_exp": psi_abs_exp,
    "psi_exp": psi_exp, "q_t": q_t,
    "semigroup_dt_1": lambda t: semigroup_dt(t, 1),
    "semigroup_dt_2": lambda t: semigroup_dt(t, 2),
}


@pytest.mark.parametrize("name", sorted(T_FAMILIES))
def test_t_family_block_matches_per_height_closures(name, frame_n1):
    family = T_FAMILIES[name]
    dec = frame_n1.dec
    ts = np.geomspace(1e-3 / dec.spectral_radius(), 1e3 / dec.min_nonkernel(),
                      320)
    block = family(ts)
    assert block.kernel_value == family(ts[0]).kernel_value
    assert block.sign_sensitive == family(ts[0]).sign_sensitive
    lam = dec.eigenvalues
    ref = np.column_stack([family(t)(lam) for t in ts])
    got = block(lam)
    assert got.shape == (dec.dim, len(ts))
    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
    # the kernel substitution and sign check happen once for the block
    ref_vals = calculus._symbol_values(dec, [family(t) for t in ts])
    got_vals = calculus._symbol_values(dec, block)
    assert np.linalg.norm(got_vals - ref_vals) <= \
        1e-15 * np.linalg.norm(ref_vals)


def test_t_family_sign_check_once_per_block():
    # a skew-Hermitian T has its whole spectrum on the imaginary axis
    dec = calculus.decompose(np.diag([3j, -2j, 0.7j, 0.0]))
    with pytest.raises(calculus.SectorViolationError):
        calculus._symbol_values(dec, exp_minus_t_abs(np.array([0.1, 1.0])))
    # q_t is holomorphic across the axis and is evaluated
    assert calculus._symbol_values(dec, q_t(np.array([0.1, 1.0]))).shape == \
        (4, 2)


def test_at_t_loop_forms_eigen_coordinates_once(frame_n1, monkeypatch):
    coords = _solution(frame_n1).coords
    sol = SolutionField(frame_n1, coords)
    calls = []
    real = calculus.SpectralDecomposition.coordinates

    def counting(self, vec):
        calls.append(1)
        return real(self, vec)

    monkeypatch.setattr(calculus.SpectralDecomposition, "coordinates",
                        counting)
    ts = np.exp(np.linspace(np.log(0.01), np.log(10.0), 60))
    fields = [sol.at_t(t) for t in ts]
    sol.dt_coords_at_t(0.5)
    sol.coords_at_ts(ts)
    assert len(calls) == 1
    for t, field in zip(ts[::7], fields[::7]):
        ref = frame_n1.to_field(apply_to_vector(frame_n1.dec,
                                                exp_minus_t_abs(t), coords))
        assert np.linalg.norm(field.values - ref.values) <= \
            RTOL * np.linalg.norm(ref.values)
