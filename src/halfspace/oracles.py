"""Independent closed-form and brute-force reference computations.

Everything in this module deliberately avoids the dense grid assembly and
eigendecomposition paths so that agreement between the two routes is
evidence, not tautology:

* constant-coefficient problems are conjugated to per-Fourier-mode 2x2
  matrix algebra on span{e_0, xi/|xi|}, taken for all modes at once as
  (P, 2, 2) stacks,
* the explicit half-plane Cauchy kernel gives an adaptive-quadrature
  extension for identity coefficients on the line (composite Gauss-Legendre
  panels in numpy, bisected level by level),
* the classical Poisson factor e^{-|xi| t} checks the Dirichlet solve,
* the closed integral int_0^inf (s/(1+s^2))^2 ds/s = 1/2 pins the
  self-adjoint quadratic-estimate value, and
* resolvents are recomputed by direct dense solves.

The module loads numpy only.
"""

from __future__ import annotations

import functools

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


def _split_blocks(A: np.ndarray):
    A = np.asarray(A, dtype=complex)
    a00 = A[0, 0]
    a0p = A[0, 1:]
    ap0 = A[1:, 0]
    app = A[1:, 1:]
    return a00, a0p, ap0, app


def _symbol_entries(A_const: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The mode matrices of a stack of nonzero wave vectors xi (..., n) as
    a (..., 2, 2) stack."""
    r = np.linalg.norm(xi, axis=-1)
    xh = xi / r[..., None]
    a00, a0p, ap0, app = _split_blocks(A_const)
    app_xh = np.sum(app * xh[..., None, :], axis=-1)
    M = np.zeros(xi.shape[:-1] + (2, 2), dtype=complex)
    M[..., 0, 0] = r * ((1j / a00) * np.sum((a0p + ap0) * xh, axis=-1))
    M[..., 0, 1] = r * ((1j / a00) * np.sum(app_xh * xh, axis=-1))
    M[..., 1, 0] = r * -1j
    return M


def _symbol_eigen(M: np.ndarray):
    """Eigenvalues (P, 2) and eigenvectors (P, 2, 2) of a stack of mode
    matrices [[a, b], [c, 0]] in closed form: the roots of
    lambda^2 - a lambda - bc, the larger one by the quadratic formula and
    the other as their product -bc over it, with eigenvectors (lambda, c).
    """
    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0]
    root = np.sqrt(a * a + 4.0 * b * c)
    root = np.where((a.conj() * root).real >= 0, root, -root)
    lam1 = 0.5 * (a + root)
    lam2 = np.divide(-b * c, lam1, out=np.zeros_like(lam1), where=lam1 != 0)
    lam = np.stack([lam1, lam2], axis=-1)
    return lam, np.stack([lam, np.stack([c, c], axis=-1)], axis=-2)


def symbol_matrix(A_const: np.ndarray, xi) -> SymbolMatrix:
    """The per-mode matrix |xi| [[(i/a00)(a_0par + a_par0, xi_hat),
    (i/a00)(a_parpar xi_hat, xi_hat)], [-i, 0]]."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.linalg.norm(xi) == 0:
        raise ValueError("xi must be nonzero")
    return SymbolMatrix(xi, _symbol_entries(A_const, xi))


def symbol_sign(M: SymbolMatrix) -> np.ndarray:
    """sgn of the 2x2 symbol via its spectral projections."""
    chp, chm = symbol_hardy_from_matrix(M.entries)
    return chp - chm


def symbol_hardy(A_const: np.ndarray, xi):
    """Spectral projections chi_+ and chi_- of the mode symbol."""
    return symbol_hardy_from_matrix(symbol_matrix(A_const, xi).entries)


def symbol_hardy_from_matrix(M: np.ndarray):
    stack = M[None]
    chp, chm = _hardy(stack, _symbol_eigen(stack)[0])
    return chp[0], chm[0]


def _hardy(M: np.ndarray, lam: np.ndarray):
    """chi_+ and chi_- of a (P, 2, 2) symbol stack from its eigenvalues
    (P, 2): chi_+- = (M - lambda_-+) / (lambda_+- - lambda_-+), lambda_+
    the eigenvalue of larger real part.  The first mode that is defective
    or whose eigenvalues do not straddle the imaginary axis raises."""
    order = np.argsort(-lam.real, axis=-1)
    lp, lm = np.moveaxis(np.take_along_axis(lam, order, axis=-1), -1, 0)
    defective = np.abs(lp - lm) <= 1e-13 * np.maximum(
        np.maximum(np.abs(lp), np.abs(lm)), 1e-300)
    bad = np.flatnonzero(defective | (lp.real <= 0) | (lm.real >= 0))
    if bad.size:
        p = bad[0]
        if defective[p]:
            raise ValueError("defective 2x2 symbol: coincident eigenvalues")
        raise ValueError(
            f"symbol eigenvalues {lp[p]!r}, {lm[p]!r} do not straddle the "
            "imaginary axis (coefficients not accretive?)")
    eye = np.eye(2)
    lp, lm = lp[:, None, None], lm[:, None, None]
    return (M - lm * eye) / (lp - lm), (M - lp * eye) / (lm - lp)


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
    """Coordinates of e_0 and xi_hat (as a 1-vector) in the Lambda basis:
    (d, 2) for one wave vector xi, (..., d, 2) for a stack (..., n)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xh = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    cols = np.zeros(xi.shape[:-1] + (algebra.lambda_dim(dim_n), 2),
                    dtype=complex)
    cols[..., 1, 0] = 1.0
    for j in range(dim_n):
        cols[..., 1 << (j + 1), 1] = xh[..., j]
    return cols


def reflection_2x2() -> np.ndarray:
    """N on the mode subspace: e_0 is normal, xi_hat tangential."""
    return np.diag([-1.0, 1.0]).astype(complex)


def perturbed_reflection_2x2(A_const: np.ndarray, dim_n: int, xi) -> np.ndarray:
    """The coefficient-twisted reflection on span{e_0, xi_hat}, computed
    from the pointwise formula N_B = (mu*_B - mu)(mu + mu*_B)^{-1} with
    B = I + A + I acting degree-by-degree: cols^H N_B cols, one constant
    Lambda map compressed to each mode of xi ((n,) or a stack (..., n))."""
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
    return np.swapaxes(cols.conj(), -1, -2) @ NB @ cols


# ---------------------------------------------------------------------------
# full constant-coefficient solver
# ---------------------------------------------------------------------------

class ConstantSolution:
    """Per-mode solution of a constant-coefficient boundary value problem.

    Holds, as stacks over the P kept Fourier modes, the modes' flat indices
    in the spectrum and each mode symbol's eigen pairs, taken once by
    ``constant_solver``: the decay rates lambda sgn(Re lambda) (P, 2), the
    eigenvectors as Lambda-valued columns cols @ V (P, d, 2) and the
    trace's eigen coordinates V^{-1} f_hat (P, 2).  A height is one
    broadcast product of the rates' semigroup factors e^{-t|lambda|} with
    those coordinates and the columns, one scatter into the spectrum and
    one inverse FFT, with no eigensolve.
    """

    def __init__(self, torus: Torus, modes: np.ndarray, rates: np.ndarray,
                 columns: np.ndarray, coords: np.ndarray):
        self.torus = torus
        self.modes = modes
        self.rates = rates
        self.columns = columns
        self.coords = coords

    def _mode_field(self, coords: np.ndarray) -> Field:
        torus = self.torus
        d = torus.lambda_dim
        spec = np.zeros((torus.num_points, d), dtype=complex)
        spec[self.modes] = np.einsum("pdk,pk->pd", self.columns, coords)
        vals = np.fft.ifftn(spec.reshape(torus.shape + (d,)),
                            axes=tuple(range(torus.dim_n)))
        return Field(torus, vals)

    def trace(self) -> Field:
        return self._mode_field(self.coords)

    def at_t(self, t: float) -> Field:
        return self._mode_field(np.exp(-t * self.rates) * self.coords)

    def scalar_at_t(self, t: float) -> np.ndarray:
        """The e_0 component (Dirichlet reading) of the interior field."""
        return self.at_t(t).component(1)


def constant_solver(A_const: np.ndarray, torus: Torus, kind: str,
                    data: np.ndarray) -> ConstantSolution:
    """Solve a boundary value problem with constant coefficients mode by mode.

    kind: 'neumann' | 'regularity' | 'neu_perp' | 'dirichlet'.
    data: scalar grid array (phi, psi or u).  For 'regularity' the datum is
    the scalar potential psi; the tangential gradient is formed per mode.

    The zero mode is dropped (kernel policy: no L2 constants on R^n), and
    so are the modes where the datum's Fourier coefficient is zero.  The
    kept modes are solved together: one stacked eigensolve of their
    symbols, stacked Hardy projections and one stacked 2x2 solve.
    """
    A_const = np.asarray(A_const, dtype=complex)
    n = torus.dim_n
    data = np.asarray(data, dtype=complex)
    if data.shape != torus.shape:
        raise ValueError("data must be a scalar grid array")
    coeff = np.fft.fftn(data, axes=tuple(range(n))).reshape(-1)
    ks = np.fft.fftfreq(torus.points_per_axis,
                        d=1.0 / torus.points_per_axis).astype(int)
    kvec = np.stack(np.meshgrid(*[ks] * n, indexing="ij"),
                    axis=-1).reshape(-1, n).astype(float)
    modes = np.flatnonzero(np.any(kvec != 0, axis=1) & (coeff != 0))
    xi = 2.0 * np.pi * kvec[modes] / torus.length
    coeff = coeff[modes]
    M = _symbol_entries(A_const, xi)
    lam, V = _symbol_eigen(M)
    chp, chm = _hardy(M, lam)
    E = chp - chm
    zero = np.zeros_like(coeff)
    if kind == "neumann":
        lhs = E - perturbed_reflection_2x2(A_const, n, xi)
        rhs = (coeff / A_const[0, 0], zero)
    elif kind == "regularity":
        # datum is grad psi: coordinate along xi_hat is i|xi| psi_hat
        lhs = E + reflection_2x2()
        rhs = (zero, 1j * np.linalg.norm(xi, axis=-1) * coeff)
    elif kind in ("neu_perp", "dirichlet"):
        lhs = E - reflection_2x2()
        rhs = (coeff, zero)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    fh = 2.0 * np.linalg.solve(lhs, np.stack(rhs, axis=-1)[..., None])
    return ConstantSolution(torus, modes, lam * np.sign(lam.real),
                            _mode_basis_columns(n, xi) @ V,
                            np.linalg.solve(V, fh)[..., 0])


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

# Absolute tolerance of each Cauchy-kernel integral; bisection levels, and
# panels alive on one level, before the quadrature is declared not
# convergent.
CAUCHY_TOL = 1e-8
_MAX_LEVELS = 50
_MAX_PANELS = 4096


@functools.cache
def _gauss_rules():
    """The 10- and 20-point Gauss-Legendre rules on [-1, 1], whose
    difference on a panel estimates the 10-point rule's error there; formed
    on first use, so only the Cauchy oracle loads ``numpy.polynomial``."""
    return (np.polynomial.legendre.leggauss(10),
            np.polynomial.legendre.leggauss(20))


def cauchy_extension_line(g1, t: float, x: float,
                          support: tuple = (-8.0, 8.0)) -> np.ndarray:
    """Explicit upper half-plane extension of tangential data g = g1 e1 for
    identity coefficients on the line:

        F(t, x) = (1/pi) int (-(x - y) e_0 + t e_1) g1(y) / (t^2 + (x-y)^2) dy.

    Returns the pair (component along e_0, component along e_1).

    ``g1`` is called on arrays of nodes.  The integral is a composite
    Gauss-Legendre rule, adapted level by level: every panel is integrated
    with a 10- and a 20-point rule, a panel whose two values differ by at
    most its share (by width) of ``CAUCHY_TOL`` is kept with the 20-point
    value, and every other panel is bisected, all panels of a level at
    once.  The quadrature stops when the kept and pending differences sum
    to at most ``CAUCHY_TOL``; past ``_MAX_LEVELS`` levels or
    ``_MAX_PANELS`` pending panels it raises ``RuntimeError``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    lo, hi = support
    (x_low, w_low), (x_high, w_high) = _gauss_rules()
    nodes = np.concatenate([x_low, x_high])
    split = x_low.size
    a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    value, error = np.zeros(2), 0.0
    for _ in range(_MAX_LEVELS):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        y = mid[:, None] + half[:, None] * nodes
        g = np.reshape(g1(y.ravel()), y.shape)
        d = x - y
        kern = np.stack([-d * g, t * g]) / (t * t + d * d)
        low = half * (kern[..., :split] @ w_low)
        high = half * (kern[..., split:] @ w_high)
        est = np.max(np.abs(high - low), axis=0)
        done = est <= CAUCHY_TOL * (b - a) / (hi - lo)
        value += np.sum(high[:, done], axis=1)
        error += np.sum(est[done])
        if error + np.sum(est[~done]) <= CAUCHY_TOL:
            return (value + np.sum(high[:, ~done], axis=1)) / np.pi
        a, b, mid = a[~done], b[~done], mid[~done]
        if 2 * a.size > _MAX_PANELS:
            break
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    raise RuntimeError("quadrature failed to converge")


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
