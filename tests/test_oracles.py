"""Tests for the closed-form oracle routes."""

import numpy as np
import pytest

from halfspace import oracles
from halfspace.diagnostics import (gaussian_data, mode_data,
                                   random_accretive_constant)
from halfspace.grid import Field, Torus, norm as field_norm
from halfspace.oracles import (_mode_basis_columns, cauchy_extension_line,
                               constant_solver, hat_h1_mode_count,
                               skew_block_constants,
                               perturbed_reflection_2x2, poisson_factor,
                               reflection_2x2, symbol_hardy, symbol_matrix,
                               symbol_sign, transversality_discriminant)


def test_symbol_eigenvalues_diagonal_coefficients():
    # for A = diag(a00, a11) the per-mode matrix has eigenvalues
    # +-|xi| sqrt(a11/a00)
    a00, a11 = 2.0, 0.5
    A = np.diag([a00, a11])
    xi = 1.7
    M = symbol_matrix(A, np.array([xi]))
    lam = np.sort(np.linalg.eigvals(M.entries).real)
    ref = abs(xi) * np.sqrt(a11 / a00)
    assert np.allclose(lam, [-ref, ref], atol=1e-12)


def test_identity_hardy_projection_closed_form():
    # for A = I and xi = 1 the positive Hardy projection is
    # 1/2 [[1, i], [-i, 1]]
    chp, chm = symbol_hardy(np.eye(2), np.array([1.0]))
    ref = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    assert np.allclose(chp, ref, atol=1e-12)
    assert np.allclose(chp + chm, np.eye(2), atol=1e-12)
    assert np.allclose(chp @ chp, chp, atol=1e-12)
    assert np.allclose(chp @ chm, 0.0, atol=1e-12)


def test_symbol_sign_squares_to_identity():
    rng = np.random.default_rng(0)
    A = np.eye(2) + 0.3 * (rng.normal(size=(2, 2))
                           + 1j * rng.normal(size=(2, 2)))
    M = symbol_matrix(A, np.array([2.0]))
    E = symbol_sign(M)
    assert np.allclose(E @ E, np.eye(2), atol=1e-10)


def test_reflection_matrices():
    N = reflection_2x2()
    assert np.allclose(N @ N, np.eye(2))
    # the perturbed reflection coincides with N for A = I
    NA = perturbed_reflection_2x2(np.eye(2), 1, np.array([1.0]))
    assert np.allclose(NA, N, atol=1e-12)


def test_transversality_discriminant_identity():
    disc = transversality_discriminant(np.eye(2), np.array([1.0]))
    assert abs(disc) > 1e-8  # transversal: Hardy and constraint spaces split


def test_poisson_factor():
    assert abs(poisson_factor(3.0, 0.5) - np.exp(-1.5)) < 1e-15
    assert poisson_factor(-3.0, 0.5) == poisson_factor(3.0, 0.5)
    assert poisson_factor(2.0, 0.0) == 1.0


def test_constant_solver_neumann_mode_data():
    torus = Torus(1, 2 * np.pi, 64)
    x = torus.axis_coordinates()
    phi = np.cos(3 * x)
    sol = constant_solver(np.eye(2), torus, "neumann", phi)
    trace = sol.trace()
    # the conormal reading of the trace reproduces the datum
    assert np.allclose(trace.component(1).real, phi, atol=1e-10)
    # interior decay at height t follows the Poisson factor for A = I
    t = 0.4
    ft = sol.at_t(t)
    assert np.allclose(ft.component(1).real, np.exp(-3 * t) * phi, atol=1e-10)


def test_constant_solver_dirichlet_poisson_semigroup():
    torus = Torus(1, 2 * np.pi, 64)
    x = torus.axis_coordinates()
    u = np.sin(2 * x) + 0.3 * np.cos(5 * x)
    sol = constant_solver(np.eye(2), torus, "dirichlet", u)
    t = 0.7
    ref = np.exp(-2 * t) * np.sin(2 * x) + 0.3 * np.exp(-5 * t) * np.cos(5 * x)
    assert np.allclose(sol.scalar_at_t(t).real, ref, atol=1e-10)


HEIGHTS = (0.05, 0.3, 2.0)


def _per_mode_loop(A, torus, kind, data):
    """The trace and the fields at ``HEIGHTS`` of the constant-coefficient
    solve written one Fourier mode at a time: per mode one 2x2 symbol, its
    Hardy projections from ``eigvals``, one reflection, one 2x2 solve and
    one ``eig`` for the semigroup."""
    n = torus.dim_n
    spec = np.fft.fftn(np.asarray(data, dtype=complex), axes=tuple(range(n)))
    ks = np.fft.fftfreq(torus.points_per_axis, d=1.0 / torus.points_per_axis)
    eye = np.eye(2)
    out = np.zeros((1 + len(HEIGHTS),) + torus.shape + (torus.lambda_dim,),
                   dtype=complex)
    for kidx in np.ndindex(*torus.shape):
        xi = 2.0 * np.pi * ks[list(kidx)] / torus.length
        coeff = spec[kidx]
        if not np.any(xi) or coeff == 0:
            continue
        M = symbol_matrix(A, xi).entries
        lam = np.linalg.eigvals(M)
        lp, lm = lam[np.argsort(-lam.real)]
        E = (M - lm * eye) / (lp - lm) - (M - lp * eye) / (lm - lp)
        if kind == "neumann":
            lhs = E - perturbed_reflection_2x2(A, n, xi)
            rhs = [coeff / A[0, 0], 0.0]
        elif kind == "regularity":
            lhs = E + reflection_2x2()
            rhs = [0.0, 1j * np.linalg.norm(xi) * coeff]
        else:
            lhs, rhs = E - reflection_2x2(), [coeff, 0.0]
        fh = 2.0 * np.linalg.solve(lhs, np.array(rhs, dtype=complex))
        cols = _mode_basis_columns(n, xi)
        out[(0,) + kidx] = cols @ fh
        lam, V = np.linalg.eig(M)
        for i, t in enumerate(HEIGHTS, 1):
            E_t = (V * np.exp(-t * lam * np.sign(lam.real))) @ np.linalg.inv(V)
            out[(i,) + kidx] = cols @ (E_t @ fh)
    return [Field(torus, np.fft.ifftn(f, axes=tuple(range(n)))) for f in out]


@pytest.mark.parametrize("kind", ["neumann", "regularity", "neu_perp",
                                  "dirichlet"])
@pytest.mark.parametrize("coefficients", ["identity", "random"])
@pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
def test_stacked_constant_solver_matches_per_mode_loop(n, N, coefficients,
                                                       kind):
    torus = Torus(n, 2 * np.pi, N)
    A = (np.eye(n + 1) if coefficients == "identity"
         else random_accretive_constant(1, n))
    data = gaussian_data(torus) + 0.5 * mode_data(torus, 2)
    sol = constant_solver(A, torus, kind, data)
    got = [sol.trace()] + [sol.at_t(t) for t in HEIGHTS]
    for g, ref in zip(got, _per_mode_loop(A, torus, kind, data)):
        assert field_norm(g - ref) <= 1e-13 * field_norm(ref)


@pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
def test_constant_solution_takes_one_eigensolve_per_mode(monkeypatch, n, N):
    # at_t evaluates the stored stacked eigen pairs of the mode symbols: no
    # eig, inv or eigvals per height, and the values of the per-mode route
    # to 1e-13 relative (stacked products round differently from per-mode
    # ones in the last bit)
    torus = Torus(n, 2 * np.pi, N)
    A = random_accretive_constant(1, n)
    data = gaussian_data(torus)
    sol = constant_solver(A, torus, "neumann", data)
    expected = _per_mode_loop(A, torus, "neumann", data)[1:]
    calls = []
    for name in ("eig", "inv", "eigvals"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=routine, _n=name,
                            **k: calls.append(_n) or _f(*a, **k))
    got = [sol.at_t(t) for t in HEIGHTS]
    assert calls == []
    for g, e in zip(got, expected):
        assert field_norm(g - e) <= 1e-13 * field_norm(e)


def test_constant_solver_rejects_bad_input():
    torus = Torus(1, 2 * np.pi, 32)
    with pytest.raises(ValueError):
        constant_solver(np.eye(2), torus, "neumann", np.zeros(16))
    x = torus.axis_coordinates()
    with pytest.raises(ValueError):
        constant_solver(np.eye(2), torus, "unknown", np.cos(x))


def test_constant_solver_rejects_non_accretive_coefficients():
    torus = Torus(1, 2 * np.pi, 16)
    phi = np.cos(torus.axis_coordinates())
    # a11 < 0: the symbol's eigenvalues +-i|xi| lie on the imaginary axis
    with pytest.raises(ValueError, match="do not straddle"):
        constant_solver(np.diag([1.0, -1.0]), torus, "neumann", phi)
    # a11 = 0: the symbol is nilpotent
    with pytest.raises(ValueError, match="defective"):
        constant_solver(np.diag([1.0, 0.0]), torus, "dirichlet", phi)


def test_cauchy_extension_harmonic_conjugate_pair():
    # for g1 a narrow bump the extension at large distance decays like 1/r
    g1 = lambda y: np.exp(-(y ** 2))
    near = cauchy_extension_line(g1, 1.0, 0.0, support=(-30.0, 30.0))
    far = cauchy_extension_line(g1, 10.0, 0.0, support=(-30.0, 30.0))
    assert np.linalg.norm(far) < np.linalg.norm(near)
    # e1 component at x = 0 is even in x, e0 component odd
    plus = cauchy_extension_line(g1, 1.0, 2.0, support=(-30.0, 30.0))
    minus = cauchy_extension_line(g1, 1.0, -2.0, support=(-30.0, 30.0))
    assert abs(plus[1] - minus[1]) < 1e-6
    assert abs(plus[0] + minus[0]) < 1e-6


def _periodised_bump(y):
    # verify.check_example_kernel's datum: the mean-free Gaussian of its
    # 512-point grid on L = 16, periodised over the whole line
    length, width = 16.0, 16.0 / 24
    grid = Torus(1, length, 512).axis_coordinates()
    mean = np.mean(np.exp(-((grid - length / 2) ** 2) / (2 * width ** 2)))
    dy = np.remainder(y, length) - length / 2
    return np.exp(-(dy ** 2) / (2 * width ** 2)) - mean


CAUCHY_DATA = {"gaussian": lambda y: np.exp(-(y ** 2)),
               "lorentzian": lambda y: 1.0 / (1.0 + y * y),
               "periodised_bump": _periodised_bump}


@pytest.mark.parametrize("name", CAUCHY_DATA)
def test_cauchy_extension_matches_quadpack(name):
    from scipy.integrate import quad
    g1 = CAUCHY_DATA[name]
    for t in (0.05, 0.3, 1.5, 10.0):
        for x, support in ((0.0, (-8.0, 8.0)), (8.3, (-55.7, 72.3))):
            got = cauchy_extension_line(g1, t, x, support=support)
            kernels = (lambda y: -(x - y) * g1(y) / (t * t + (x - y) ** 2),
                       lambda y: t * g1(y) / (t * t + (x - y) ** 2))
            ref = [quad(k, *support, points=[x], epsabs=1e-13, epsrel=1e-13,
                        limit=2000)[0] / np.pi for k in kernels]
            assert np.max(np.abs(got - ref)) <= 1e-10, (t, x)


def test_cauchy_extension_raises_when_it_cannot_converge(monkeypatch):
    with pytest.raises(RuntimeError, match="failed to converge"):
        # a datum that is not integrable at y = 0
        cauchy_extension_line(lambda y: 1.0 / np.abs(y), 1.0, 0.0)
    # a tolerance below rounding: the panels bisect until the cap
    monkeypatch.setattr(oracles, "CAUCHY_TOL", 1e-300)
    with pytest.raises(RuntimeError, match="failed to converge"):
        cauchy_extension_line(CAUCHY_DATA["gaussian"], 1.0, 0.0)


def test_hat_h1_mode_count():
    torus = Torus(1, 2 * np.pi, 32)
    from halfspace.assembly import hat_h1_basis
    assert hat_h1_basis(torus).dim == hat_h1_mode_count(torus)


def test_skew_block_constants():
    c0 = skew_block_constants(0.0)
    assert np.isfinite(np.max(np.abs(np.asarray(c0, dtype=float))))
    c4 = skew_block_constants(4.0)
    assert np.max(np.abs(np.asarray(c4, dtype=float))) >= \
        np.max(np.abs(np.asarray(c0, dtype=float)))
