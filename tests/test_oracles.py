"""Tests for the closed-form oracle routes."""

import numpy as np
import pytest

from halfspace.diagnostics import gaussian_data, random_accretive_constant
from halfspace.grid import Field, Torus
from halfspace.oracles import (cauchy_extension_line, constant_solver,
                               hat_h1_mode_count, skew_block_constants,
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


@pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
def test_constant_solution_takes_one_eigensolve_per_mode(monkeypatch, n, N):
    # at_t evaluates the stored eigen pairs of each mode's symbol: no eig or
    # inv per height, and the values of the per-height route bit for bit
    torus = Torus(n, 2 * np.pi, N)
    A = random_accretive_constant(1, n)
    sol = constant_solver(A, torus, "neumann", gaussian_data(torus))
    ks = np.fft.fftfreq(N, d=1.0 / N)
    ts = (0.0, 0.3, 2.0)
    expected = []
    for t in ts:
        spec = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
        for kidx, (_, fh, cols) in sol.mode_data.items():
            xi = 2.0 * np.pi * ks[list(kidx)] / torus.length
            lam, V = np.linalg.eig(symbol_matrix(A, xi).entries)
            E_t = (V * np.exp(-t * lam * np.sign(lam.real))) @ np.linalg.inv(V)
            spec[kidx] += cols @ (E_t @ fh)
        expected.append(Field(torus, np.fft.ifftn(spec, axes=tuple(range(n)))))
    calls = []
    for name in ("eig", "inv", "eigvals"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=routine, _n=name,
                            **k: calls.append(_n) or _f(*a, **k))
    got = [sol.at_t(t) for t in ts]
    assert calls == []
    for g, e in zip(got, expected):
        assert np.array_equal(g.values, e.values)


def test_constant_solver_rejects_bad_input():
    torus = Torus(1, 2 * np.pi, 32)
    with pytest.raises(ValueError):
        constant_solver(np.eye(2), torus, "neumann", np.zeros(16))
    x = torus.axis_coordinates()
    with pytest.raises(ValueError):
        constant_solver(np.eye(2), torus, "unknown", np.cos(x))


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
