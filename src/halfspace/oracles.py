"""Independent closed-form and brute-force reference computations.

Everything in this module deliberately avoids the dense grid assembly and
eigendecomposition paths so that agreement between the two routes is
evidence, not tautology:

* constant-coefficient problems are conjugated to per-Fourier-mode 2x2
  matrix algebra on span{e_0, xi/|xi|},
* the explicit half-plane Cauchy kernel gives an adaptive-quadrature
  extension for identity coefficients on the line (QUADPACK ``quad``, the
  module's one scipy use, imported on the first call),
* the classical Poisson factor e^{-|xi| t} checks the Dirichlet solve,
* the closed integral int_0^inf (s/(1+s^2))^2 ds/s = 1/2 pins the
  self-adjoint quadratic-estimate value, and
* resolvents are recomputed by direct dense solves.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .calculus import DEFAULT_KERNEL_TOL
from .grid import Field, Torus, norm as field_norm

__all__ = [
    "SymbolMatrix",
    "symbol_matrix",
    "symbol_hardy",
    "symbol_sign",
    "transversality_discriminant",
    "perturbed_reflection_2x2",
    "reflection_2x2",
    "constant_solver",
    "ConstantSolution",
    "constant_deviations",
    "cauchy_extension_line",
    "poisson_factor",
    "brute_resolvent",
    "selfadjoint_qe_value",
    "hat_h1_mode_count",
    "skew_block_constants",
]


class SymbolMatrix:
    """2x2 matrix of the constant-coefficient Dirac symbol on one mode.

    Acts on coordinates (f . e_0, f . xi_hat) of the mode subspace
    span{e_0, xi/|xi|}; scales linearly in |xi| from the unit-sphere
    formula.
    """

    def __init__(self, xi: np.ndarray, entries: np.ndarray):
        xi = np.asarray(xi, dtype=float)
        if np.allclose(xi, 0.0):
            raise ValueError("xi must be nonzero")
        self.xi = xi
        self.entries = np.asarray(entries, dtype=complex)
        if self.entries.shape != (2, 2):
            raise ValueError("symbol must be 2x2")

    def eig(self):
        """Eigenvalues ordered (positive real part first) and eigenvectors."""
        lam, V = np.linalg.eig(self.entries)
        order = np.argsort(-lam.real)
        return lam[order], V[:, order]


def _split_blocks(A: np.ndarray):
    A = np.asarray(A, dtype=complex)
    a00 = A[0, 0]
    a0p = A[0, 1:]
    ap0 = A[1:, 0]
    app = A[1:, 1:]
    return a00, a0p, ap0, app


def symbol_matrix(A_const: np.ndarray, xi) -> SymbolMatrix:
    """The per-mode matrix |xi| [[(i/a00)(a_0par + a_par0, xi_hat),
    (i/a00)(a_parpar xi_hat, xi_hat)], [-i, 0]]."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r = np.linalg.norm(xi)
    if r == 0:
        raise ValueError("xi must be nonzero")
    xh = xi / r
    a00, a0p, ap0, app = _split_blocks(A_const)
    top_left = (1j / a00) * np.dot(a0p + ap0, xh)
    top_right = (1j / a00) * np.dot(app @ xh, xh)
    M = r * np.array([[top_left, top_right], [-1j, 0.0]], dtype=complex)
    return SymbolMatrix(xi, M)


def symbol_sign(M: SymbolMatrix) -> np.ndarray:
    """sgn of the 2x2 symbol via its spectral projections."""
    chp, chm = symbol_hardy_from_matrix(M.entries)
    return chp - chm


def symbol_hardy(A_const: np.ndarray, xi):
    """Spectral projections chi_+ and chi_- of the mode symbol."""
    return symbol_hardy_from_matrix(symbol_matrix(A_const, xi).entries)


def symbol_hardy_from_matrix(M: np.ndarray):
    lam = np.linalg.eigvals(M)
    order = np.argsort(-lam.real)
    lam = lam[order]
    lp, lm = lam
    if abs(lp - lm) <= 1e-13 * max(abs(lp), abs(lm), 1e-300):
        raise ValueError("defective 2x2 symbol: coincident eigenvalues")
    if lp.real <= 0 or lm.real >= 0:
        raise ValueError(
            f"symbol eigenvalues {lp!r}, {lm!r} do not straddle the "
            "imaginary axis (coefficients not accretive?)")
    eye = np.eye(2)
    chi_p = (M - lm * eye) / (lp - lm)
    chi_m = (M - lp * eye) / (lm - lp)
    return chi_p, chi_m


def _eigen_symbol(M: np.ndarray):
    """The eigen pairs of a diagonalizable 2x2 matrix as (lambda, V, V^{-1}),
    from which fn(M) = (V * fn(lambda)) @ V^{-1}."""
    lam, V = np.linalg.eig(M)
    return lam, V, np.linalg.inv(V)


def transversality_discriminant(A_const: np.ndarray, xi) -> complex:
    """(a_par0, xi)(a_0par, xi) - a00 (a_parpar xi, xi); nonzero for
    accretive coefficients."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    a00, a0p, ap0, app = _split_blocks(A_const)
    return complex(np.dot(ap0, xi) * np.dot(a0p, xi) - a00 * np.dot(app @ xi, xi))


# ---------------------------------------------------------------------------
# per-mode reflections
# ---------------------------------------------------------------------------

def _mode_basis_columns(dim_n: int, xi) -> np.ndarray:
    """Coordinates of e_0 and xi_hat (as a 1-vector) in the Lambda basis."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = algebra.lambda_dim(dim_n)
    xh = xi / np.linalg.norm(xi)
    cols = np.zeros((d, 2), dtype=complex)
    cols[1, 0] = 1.0
    for j in range(dim_n):
        cols[1 << (j + 1), 1] = xh[j]
    return cols


def reflection_2x2() -> np.ndarray:
    """N on the mode subspace: e_0 is normal, xi_hat tangential."""
    return np.diag([-1.0, 1.0]).astype(complex)


def perturbed_reflection_2x2(A_const: np.ndarray, dim_n: int, xi) -> np.ndarray:
    """The coefficient-twisted reflection on span{e_0, xi_hat}, computed
    from the pointwise formula (mu*_B - mu)(mu + mu*_B)^{-1} with
    B = I + A + I acting degree-by-degree."""
    d = algebra.lambda_dim(dim_n)
    B = np.eye(d, dtype=complex)
    idx = [1 << i for i in range(dim_n + 1)]
    for a, ma in enumerate(idx):
        for b, mb in enumerate(idx):
            B[ma, mb] = A_const[a, b]
    mu = algebra.mu_matrix(dim_n)
    mu_s = algebra.mu_star_matrix(dim_n)
    mu_sB = np.linalg.inv(B) @ mu_s @ B
    NB = (mu_sB - mu) @ np.linalg.inv(mu + mu_sB)
    cols = _mode_basis_columns(dim_n, xi)
    return cols.conj().T @ NB @ cols


# ---------------------------------------------------------------------------
# full constant-coefficient solver
# ---------------------------------------------------------------------------

class ConstantSolution:
    """Per-mode solution of a constant-coefficient boundary value problem.

    Holds the mode coordinates of the boundary trace and each mode's symbol
    as its eigen pairs (lambda, V, V^{-1}), taken once by
    ``constant_solver``, and evaluates the interior field by the per-mode
    semigroup factor (V * e^{-t|lambda|}) @ V^{-1}, with no eigensolve per
    height.
    """

    def __init__(self, torus: Torus, mode_data: dict, scalar: bool = False):
        self.torus = torus
        # mode index tuple -> ((lambda, V, V^{-1}), f_hat coords, columns)
        self.mode_data = mode_data
        self.scalar = scalar

    def _mode_field(self, coords_fn) -> Field:
        torus = self.torus
        d = torus.lambda_dim
        spec = np.zeros(torus.shape + (d,), dtype=complex)
        for kidx, (symbol, fh, cols) in self.mode_data.items():
            spec[kidx] += cols @ coords_fn(symbol, fh)
        vals = np.fft.ifftn(spec, axes=tuple(range(torus.dim_n)))
        return Field(torus, vals)

    def trace(self) -> Field:
        return self._mode_field(lambda symbol, fh: fh)

    def at_t(self, t: float) -> Field:
        def evolve(symbol, fh):
            lam, V, V_inv = symbol
            E_t = (V * np.exp(-t * lam * np.sign(lam.real))) @ V_inv
            return E_t @ fh
        return self._mode_field(evolve)

    def scalar_at_t(self, t: float) -> np.ndarray:
        """The e_0 component (Dirichlet reading) of the interior field."""
        return self.at_t(t).component(1)


def constant_solver(A_const: np.ndarray, torus: Torus, kind: str,
                    data: np.ndarray) -> ConstantSolution:
    """Solve a boundary value problem with constant coefficients mode by mode.

    kind: 'neumann' | 'regularity' | 'neu_perp' | 'dirichlet'.
    data: scalar grid array (phi, psi or u).  For 'regularity' the datum is
    the scalar potential psi; the tangential gradient is formed per mode.

    The zero mode is dropped (kernel policy: no L2 constants on R^n).
    """
    A_const = np.asarray(A_const, dtype=complex)
    n = torus.dim_n
    data = np.asarray(data, dtype=complex)
    if data.shape != torus.shape:
        raise ValueError("data must be a scalar grid array")
    spec = np.fft.fftn(data, axes=tuple(range(n)))
    ks = np.fft.fftfreq(torus.points_per_axis,
                        d=1.0 / torus.points_per_axis).astype(int)
    a00 = A_const[0, 0]
    mode_data = {}
    for kidx in np.ndindex(*torus.shape):
        kvec = np.array([ks[i] for i in kidx], dtype=float)
        if np.all(kvec == 0):
            continue
        xi = 2.0 * np.pi * kvec / torus.length
        coeff = spec[kidx]
        if coeff == 0:
            continue
        M = symbol_matrix(A_const, xi)
        chp, chm = symbol_hardy_from_matrix(M.entries)
        E = chp - chm
        if kind == "neumann":
            NA = perturbed_reflection_2x2(A_const, n, xi)
            rhs = np.array([coeff / a00, 0.0])
            fh = 2.0 * np.linalg.solve(E - NA, rhs)
        elif kind == "regularity":
            # datum is grad psi: coordinate along xi_hat is i|xi| psi_hat
            rhs = np.array([0.0, 1j * np.linalg.norm(xi) * coeff])
            fh = 2.0 * np.linalg.solve(E + reflection_2x2(), rhs)
        elif kind in ("neu_perp", "dirichlet"):
            rhs = np.array([coeff, 0.0])
            fh = 2.0 * np.linalg.solve(E - reflection_2x2(), rhs)
        else:
            raise ValueError(f"unknown problem kind {kind!r}")
        cols = _mode_basis_columns(n, xi)
        mode_data[kidx] = (_eigen_symbol(M.entries), fh, cols)
    return ConstantSolution(torus, mode_data, scalar=(kind == "dirichlet"))


def constant_deviations(sol, A_const: np.ndarray, kind: str,
                        data: np.ndarray, t_list) -> list:
    """Relative deviations of a grid solution from ``constant_solver``.

    ``sol`` is a grid solution (``frame.torus``, ``trace_field()``,
    ``at_t(t)``).  Returns (t, deviation) pairs: t = 0 for the trace, then
    one per height in ``t_list``, each relative to the reference at that
    height.
    """
    oracle = constant_solver(A_const, sol.frame.torus, kind, data)
    ref = oracle.trace()
    out = [(0.0, field_norm(sol.trace_field() - ref)
            / max(field_norm(ref), 1e-300))]
    for t in t_list:
        ref_t = oracle.at_t(float(t))
        out.append((float(t), field_norm(sol.at_t(float(t)) - ref_t)
                    / max(field_norm(ref_t), 1e-300)))
    return out


# ---------------------------------------------------------------------------
# explicit kernels
# ---------------------------------------------------------------------------

def cauchy_extension_line(g1, t: float, x: float,
                          support: tuple = (-8.0, 8.0)) -> np.ndarray:
    """Explicit upper half-plane extension of tangential data g = g1 e1 for
    identity coefficients on the line:

        F(t, x) = (1/pi) int (-(x - y) e_0 + t e_1) g1(y) / (t^2 + (x-y)^2) dy.

    Returns the pair (component along e_0, component along e_1).
    """
    from scipy.integrate import quad

    if t <= 0:
        raise ValueError("t must be positive")
    lo, hi = support
    abs_tol = 1e-8

    def kern_e0(y):
        return -(x - y) * g1(y) / (t ** 2 + (x - y) ** 2)

    def kern_e1(y):
        return t * g1(y) / (t ** 2 + (x - y) ** 2)

    v0, err0 = quad(kern_e0, lo, hi, epsabs=abs_tol, limit=400)
    v1, err1 = quad(kern_e1, lo, hi, epsabs=abs_tol, limit=400)
    if max(err0, err1) > 100 * abs_tol:
        raise RuntimeError("quadrature failed to converge")
    return np.array([v0 / np.pi, v1 / np.pi])


def poisson_factor(xi: float, t: float) -> float:
    """Classical per-mode Poisson damping e^{-|xi| t} for the Laplacian."""
    return float(np.exp(-abs(xi) * t))


# ---------------------------------------------------------------------------
# brute-force cross checks
# ---------------------------------------------------------------------------

def brute_resolvent(T: np.ndarray, lam0: complex, vec: np.ndarray) -> np.ndarray:
    """(lam0 - T)^{-1} vec by a direct dense linear solve."""
    T = np.asarray(T, dtype=complex)
    return np.linalg.solve(lam0 * np.eye(T.shape[0]) - T, vec)


def selfadjoint_qe_value(T: np.ndarray, vec: np.ndarray) -> float:
    """Exact quadratic-estimate value ||f_nonkernel||^2 / 2 for self-adjoint T,
    from int_0^inf (s/(1+s^2))^2 ds/s = 1/2. The kernel is the eigenvalues
    at most ``DEFAULT_KERNEL_TOL`` times the largest in modulus."""
    T = np.asarray(T, dtype=complex)
    herm_defect = np.linalg.norm(T - T.conj().T, 2)
    if herm_defect > 1e-8 * max(np.linalg.norm(T, 2), 1e-300):
        raise ValueError("operator is not self-adjoint")
    lam, V = np.linalg.eigh(0.5 * (T + T.conj().T))
    coeffs = V.conj().T @ vec
    keep = np.abs(lam) > DEFAULT_KERNEL_TOL * max(np.max(np.abs(lam)), 1e-300)
    return 0.5 * float(np.sum(np.abs(coeffs[keep]) ** 2))


def hat_h1_mode_count(torus: Torus) -> int:
    """Expected dimension of the curl-free vector fields: two directions per
    nonzero mode (e_0 and xi_hat) plus all n+1 constants at the zero mode."""
    P = torus.num_points
    return 2 * (P - 1) + (torus.dim_n + 1)


def skew_block_constants(k: float):
    """Accretivity constant and operator norm of [[1, k s], [-k s, 1]],
    s = +-1: the hermitian part is the identity and the singular values are
    sqrt(1 + k^2)."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    M = np.eye(2) + k * J
    herm = 0.5 * (M + M.T)
    kappa = float(np.min(np.linalg.eigvalsh(herm)))
    sup = float(np.max(np.linalg.svd(M, compute_uv=False)))
    return kappa, sup
