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
from halfspace.assembly import PlaneWaveBasis, derivative_matrix
from halfspace.bvp import (BoundaryFrame, SolutionField,
                           dirichlet_second_order_residual, nontangential_max,
                           norm_sup_t, norm_triplebar_dt, solve_kind,
                           solve_neumann, solve_transmission)
from halfspace.calculus import (apply_to_vector, exp_minus_t_abs,
                                psi_abs_exp, psi_exp, q_t,
                                quadratic_constants, semigroup_dt,
                                square_function)
from halfspace.diagnostics import (block_coefficients, gaussian_data,
                                   mode_data, random_accretive_constant,
                                   skew_coefficients, smooth_real_symmetric)
from halfspace.grid import (Torus, gradient_of, identity_coefficients,
                            vector_block_coefficients)

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
    V, lam = dec.V_blocks.dense(), dec.eigenvalues
    nk = np.flatnonzero(dec.nonkernel)
    H = np.zeros((dec.dim, dec.dim), dtype=complex)
    for i in nk:
        for j in nk:
            H[i, j] = np.vdot(V[:, i], V[:, j]) * gram(lam[i], lam[j])
    return H


def _square_function_loop(dec, family, coeffs):
    c = dec.Vinv_blocks.dense() @ coeffs
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
            frame.dec, semigroup_dt(t, k), frame.dec.coordinates(sol.coords)))
            .component(1)
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


@pytest.fixture(scope="module")
def per_mode_frames():
    """Identity and constant coefficients at n = 1, N = 64 and at n = 2,
    N = 8, where the zero mode has three frame columns: frames whose
    eigenvectors never couple two Fourier modes."""
    frames = {}
    for n, N in ((1, 64), (2, 8)):
        torus = Torus(n, 2 * np.pi, N)
        frames["identity", n] = BoundaryFrame(identity_coefficients(torus))
        frames["constant", n] = BoundaryFrame(vector_block_coefficients(
            torus, random_accretive_constant(1, n)))
    return frames


def _solution(frame):
    sol, _ = solve_neumann(None, gaussian_data(frame.torus), frame=frame)
    return sol


def _all_kinds(frame):
    """The solutions of the four scalar kinds on one datum and the lower
    side of a transmission solve with its gradient."""
    torus = frame.torus
    scalar = gaussian_data(torus)
    sols = [solve_kind(kind, frame, scalar)[0] for kind in bvp.SCALAR_KINDS]
    g = frame.to_field(frame.to_coords(gradient_of(torus, scalar))[0])
    (_, lower), _ = solve_transmission(frame.B, 1, 2.0, 1.0, g, frame=frame)
    return sols + [lower]


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
    wins = np.array([1, 2, 3, 5, N - 1, N])
    # one slice per window, all windows in one call
    stack = np.broadcast_to(a, wins.shape + a.shape)
    for axis in range(n):
        got = bvp._box_means(stack, wins, axis + 1)
        for w, win in enumerate(wins):
            ref = _roll_box_mean(a, win, axis)
            assert np.allclose(got[w], ref, rtol=RTOL, atol=0.0), (win, axis)


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
def test_nontangential_max_on_unsorted_grid_matches_loop(name, request):
    frame = request.getfixturevalue(name)
    sol = _solution(frame)
    ts = sol.default_t_samples()
    # every third default height, reversed, with two zeros, a repeated
    # height and one whose x-window is the whole grid, shuffled
    grid = np.concatenate([ts[::3][::-1], [0.0, ts[7], ts[7], 0.0,
                                           frame.torus.length]])
    np.random.default_rng(11).shuffle(grid)
    ref, wins = _nontangential_loop(sol, grid)
    assert frame.torus.points_per_axis in wins and 1 in wins
    assert _rel(nontangential_max(sol, t_samples=grid), ref) <= RTOL


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_norms_match_per_height_loops(name, request):
    frame = request.getfixturevalue(name)
    sol = _solution(frame)
    ts = sol.default_t_samples()
    c = frame.dec.coordinates(sol.coords)
    ref_sup = max(frame.phys_norm(apply_to_vector(
        frame.dec, exp_minus_t_abs(t), c)) for t in ts)
    assert _rel(norm_sup_t(sol, ts), ref_sup) <= RTOL
    refs = {}
    for family in (q_t, psi_abs_exp, psi_exp):
        refs[family] = _square_function_loop(frame.dec, family, sol.coords)
        got = square_function(frame.dec, family, sol.eig_coords)
        assert _rel(got, refs[family]) <= RTOL
    assert _rel(norm_triplebar_dt(sol),
                np.sqrt(frame.torus.weight * refs[psi_abs_exp])) <= RTOL


def test_block_apply_to_vector_matches_per_symbol(frame_n1):
    dec = frame_n1.dec
    c = dec.coordinates(_solution(frame_n1).coords)
    symbols = [exp_minus_t_abs(0.3), semigroup_dt(0.7, 2), q_t(1.5),
               calculus.sgn()]
    block = apply_to_vector(dec, symbols, c)
    assert block.shape == (dec.dim, len(symbols))
    for j, b in enumerate(symbols):
        col = apply_to_vector(dec, b, c)
        assert np.linalg.norm(block[:, j] - col) <= RTOL * np.linalg.norm(col)
    assert apply_to_vector(dec, [], c).shape == (dec.dim, 0)


@pytest.mark.parametrize("name", ["frame_n1", "frame_n2"])
def test_quadratic_constants_match_gram_loop(name, request):
    dec = request.getfixturevalue(name).dec
    assert not dec.hermitian
    U = np.linalg.svd(dec.nonkernel_projector().dense())[0][:, :int(
        np.sum(dec.nonkernel))]
    Vinv = dec.Vinv_blocks.dense()
    G = Vinv.conj().T @ _gram_loop(dec, q_t) @ Vinv
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


def test_block_path_rejects_negative_t(frame_n1, per_mode_frames):
    sol = _solution(frame_n1)
    for field in (sol, _solution(per_mode_frames["constant", 1])):
        with pytest.raises(ValueError, match="t >= 0"):
            field.at_t(-0.1)
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
def test_block_path_rejects_non_finite_t(frame_n1, per_mode_frames, bad):
    sol = _solution(frame_n1)
    per_mode = _solution(per_mode_frames["constant", 1])
    ts = np.array([bad, 1.0])
    for evaluate in (sol.coords_at_ts, sol.norms_at_ts,
                     lambda ts: sol.at_t(ts[0]),
                     lambda ts: per_mode.at_t(ts[0]),
                     lambda ts: norm_sup_t(sol, ts),
                     lambda ts: nontangential_max(sol, t_samples=ts),
                     lambda ts: dirichlet_second_order_residual(sol, ts)):
        with pytest.raises(ValueError, match="finite"):
            evaluate(ts)


def test_all_kernel_frame_raises_a_typed_error():
    # degree-2 fields at n = 1 are the constants: m = 1 and T = 0
    frame = BoundaryFrame(identity_coefficients(Torus(1, 2 * np.pi, 16)),
                          degree=2)
    assert frame.dec.dim == frame.kernel_dim == 1
    # a dense degree-k basis: heights are lifted through coords_at_t
    assert frame._mode_lift is None
    sol = SolutionField(frame, np.ones(1, dtype=complex))
    for call in (sol.default_t_samples, lambda: norm_sup_t(sol),
                 lambda: nontangential_max(sol)):
        with pytest.raises(ValueError, match="empty non-kernel spectrum"):
            call()


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

    def all_norms(sol, ts):
        norm_sup_t(sol, ts)
        nontangential_max(sol, t_samples=ts)
        # a closed-form Hermitian form, no symbol block
        norm_triplebar_dt(sol)
        sol.norms_at_ts(ts)

    # the three norms and norms_at_ts on one grid share one block
    all_norms(sol, ts)
    all_norms(sol, list(ts))
    assert len(calls) == 1
    # a new grid is evaluated once more, and so is a new SolutionField
    all_norms(sol, ts[::2])
    assert len(calls) == 2
    all_norms(SolutionField(frame_n1, sol.coords), ts[::2])
    assert len(calls) == 3


def test_height_block_is_read_only_and_keyed_by_values(frame_n1):
    sol = _solution(frame_n1)
    ts = np.array([0.0, 0.1, 0.5, 2.0])
    block = sol.coords_at_ts(ts)
    ref = block.copy()
    with pytest.raises(ValueError, match="read-only"):
        block[:, 1] = 0.0
    assert np.array_equal(sol.coords_at_ts(ts), ref)
    assert np.array_equal(block[:, 0], sol.coords)
    # a single height is evaluated afresh and is the caller's to change
    col = sol.coords_at_t(0.5)
    col[:] = 0.0
    assert np.array_equal(sol.coords_at_ts(ts), ref)
    # changing the caller's grid array in place changes the key
    ts[1] = 0.3
    fresh = SolutionField(frame_n1, sol.coords).coords_at_ts(ts)
    assert np.array_equal(sol.coords_at_ts(ts), fresh)
    assert not np.array_equal(fresh, ref)


def test_V_gram_is_formed_once_and_matches_a_fresh_product(frame_n1):
    dec = frame_n1.dec
    gram = dec.V_gram
    assert dec.V_gram is gram
    V = dec.V_blocks.dense()
    fresh = V.conj().T @ V
    assert np.linalg.norm(gram.dense() - fresh) <= \
        1e-14 * np.linalg.norm(fresh)


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
    # the per-mode height route makes the same check, at t = 0 as well
    frame = BoundaryFrame(identity_coefficients(Torus(1, 2 * np.pi, 16)))
    assert frame._mode_lift is not None
    frame.dec.__dict__["near_imaginary"] = np.array([1j])
    sol = SolutionField(frame, frame.Pnk @ np.ones(frame.dec.dim))
    for t in (0.5, 0.0):
        with pytest.raises(calculus.SectorViolationError):
            sol.at_t(t)
    # q_t is holomorphic across the axis and is evaluated
    assert calculus._symbol_values(dec, q_t(np.array([0.1, 1.0]))).shape == \
        (4, 2)


def _underflow_height(frame):
    """A height at which e^{-t|lambda|} is exactly 0 at every non-kernel
    eigenvalue."""
    dec = frame.dec
    t = 1e3 / np.min(np.abs(dec.eigenvalues[dec.nonkernel].real))
    assert not np.any(calculus._symbol_values(
        dec, exp_minus_t_abs(t))[dec.nonkernel])
    return t


def test_at_t_loop_forms_eigen_coordinates_once(frame_n1, per_mode_frames,
                                                monkeypatch):
    # the variable and block frames lift coords_at_t, bitwise as before;
    # the per-mode frames take each height in Fourier space, on every kind
    # of solution, with no apply_to_vector and no basis lift
    block = BoundaryFrame(block_coefficients(Torus(1, 2 * np.pi, 32), 3))
    coupled = [(frame, [_solution(frame)]) for frame in (frame_n1, block)]
    per_mode = [(frame, _all_kinds(frame))
                for frame in per_mode_frames.values()]
    assert all(f._mode_lift is None for f, _ in coupled)
    assert all(f._mode_lift is not None for f, _ in per_mode)
    calls = {"coordinates": 0, "apply_to_vector": 0, "from_coords": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in ((calculus.SpectralDecomposition, "coordinates"),
                        (calculus, "apply_to_vector"),
                        (PlaneWaveBasis, "from_coords")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    monkeypatch.setattr(bvp, "apply_to_vector", calculus.apply_to_vector)
    ts = np.exp(np.linspace(np.log(0.01), np.log(10.0), 60))
    for frame, solutions in coupled + per_mode:
        heights = np.concatenate([ts, [1e-3, 0.3, 5.0,
                                       _underflow_height(frame)]])
        lifted = frame._mode_lift is None
        for coords in (s.coords for s in solutions):
            sol = SolutionField(frame, coords)
            calls.update(dict.fromkeys(calls, 0))
            fields = [sol.at_t(t) for t in heights]
            per_height = len(heights) if lifted else 0
            assert calls == {"coordinates": 1, "apply_to_vector": per_height,
                             "from_coords": per_height}
            assert np.array_equal(sol.at_t(0.0).values,
                                  sol.trace_field().values)
            dirichlet_second_order_residual(sol, [0.5])
            sol.coords_at_ts(ts)
            assert calls["coordinates"] == 1
            c = frame.dec.coordinates(coords)
            for t, field in zip(heights, fields):
                ref = frame.to_field(apply_to_vector(frame.dec,
                                                     exp_minus_t_abs(t), c))
                if lifted:
                    assert np.array_equal(field.values, ref.values)
                else:
                    assert np.linalg.norm(field.values - ref.values) <= \
                        RTOL * np.linalg.norm(ref.values)


# ---------------------------------------------------------------------------
# the decomposition's symbol memo
# ---------------------------------------------------------------------------

MEMO_FRAMES = {
    "constant": lambda: vector_block_coefficients(
        Torus(1, 2 * np.pi, 32), random_accretive_constant(1, 1)),
    "block": lambda: block_coefficients(Torus(1, 2 * np.pi, 32), 3),
    "skew_k4": lambda: skew_coefficients(Torus(1, 2 * np.pi, 32), 4.0),
    "smooth_symmetric_n2": lambda: smooth_real_symmetric(
        Torus(2, 2 * np.pi, 8), seed=3),
}


def _memo_outputs(frame, index):
    """The Dirichlet solve of the index-th datum on ``frame`` and what the
    memo serves it: fields at single heights, the grid block, the three
    norms and both Dirichlet residuals."""
    sol, report = solve_kind("dirichlet", frame,
                             mode_data(frame.torus, index + 1))
    ts = sol.default_t_samples()
    return ([sol.at_t(float(t)).values for t in (0.0, *ts[::9])]
            + [sol.coords_at_ts(ts), norm_sup_t(sol, ts),
               norm_triplebar_dt(sol), nontangential_max(sol, t_samples=ts),
               report.second_order_residual,
               dirichlet_second_order_residual(sol, ts[::6])])


@pytest.mark.parametrize("name", sorted(MEMO_FRAMES))
def test_later_solves_on_a_frame_match_a_fresh_frame_bitwise(name):
    # the first solve on the shared frame is a solve on a fresh frame
    shared = BoundaryFrame(MEMO_FRAMES[name]())
    _memo_outputs(shared, 0)
    memo = shared.dec._symbol_memo
    held = (len(memo), memo.columns)
    assert held[0] > 0
    for index in (1, 2):
        got = _memo_outputs(shared, index)
        # every block of the later solves is served from the memo
        assert (len(memo), memo.columns) == held
        ref = _memo_outputs(BoundaryFrame(MEMO_FRAMES[name]()), index)
        for a, b in zip(got, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_memo_holds_at_most_its_column_bound():
    frame = BoundaryFrame(identity_coefficients(Torus(1, 2 * np.pi, 16)))
    memo = frame.dec._symbol_memo
    bound = calculus._SYMBOL_MEMO_COLUMNS
    sol = SolutionField(frame, frame.Pnk @ np.ones(frame.dec.dim))
    heights = np.linspace(0.0, 10.0, 2000)
    for t in heights:
        sol.at_t(t)
        assert memo.columns <= bound
    assert memo.columns == bound == len(memo)
    # the newest heights are kept, the oldest evicted
    assert exp_minus_t_abs(heights[-1]).key in memo
    assert exp_minus_t_abs(heights[0]).key not in memo
    # a grid wider than the bound is evaluated but not kept
    wide = exp_minus_t_abs(heights[:bound + 1])
    assert calculus._symbol_values(frame.dec, wide).shape[1] == bound + 1
    assert wide.key not in memo and memo.columns == bound
    # a grid of 100 heights evicts 100 single heights
    grid = exp_minus_t_abs(heights[:100])
    calculus._symbol_values(frame.dec, grid)
    assert grid.key in memo and memo.columns == bound
    assert len(memo) == bound - 100 + 1
    assert memo.columns == sum(np.prod(v.shape[1:]) for v in memo.values())


def test_sector_check_runs_again_after_a_memo_hit():
    frame = BoundaryFrame(identity_coefficients(Torus(1, 2 * np.pi, 16)))
    assert frame._mode_lift is not None
    sol = SolutionField(frame, frame.Pnk @ np.ones(frame.dec.dim))
    ts = np.array([0.5, 1.0])
    for _ in range(2):
        sol.at_t(0.5)
        sol.at_t(0.0)
        sol.coords_at_ts(ts)
    assert exp_minus_t_abs(0.5).key in frame.dec._symbol_memo
    assert exp_minus_t_abs(ts).key in frame.dec._symbol_memo
    frame.dec.__dict__["near_imaginary"] = np.array([1j])
    for t in (0.5, 0.0):
        with pytest.raises(calculus.SectorViolationError):
            sol.at_t(t)
    with pytest.raises(calculus.SectorViolationError):
        SolutionField(frame, sol.coords).coords_at_ts(ts)


def test_memo_blocks_are_read_only_and_shared(frame_n1):
    dec = frame_n1.dec
    ts = np.array([0.1, 0.5, 2.0])
    family = exp_minus_t_abs(ts)
    block = calculus._symbol_values(dec, family)
    # the key is that of the heights' values, taken when the family is made
    ts[0] = 0.2
    assert calculus._symbol_values(dec, exp_minus_t_abs([0.1, 0.5, 2.0])) \
        is block
    assert calculus._symbol_values(dec, exp_minus_t_abs(ts)) is not block
    for vals in (block, calculus._symbol_values(dec, exp_minus_t_abs(0.3))):
        assert not vals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 0.0
    # symbols without a key are evaluated afresh and are the caller's
    fresh = calculus._symbol_values(dec, calculus.sgn())
    assert fresh.flags.writeable
    assert calculus._symbol_values(dec, calculus.sgn()) is not fresh
