"""Holomorphic functional calculus of the discrete Dirac-type operator.

At desk scale the Dunford contour integral is redundant: the assembled
operator is a finite matrix, so every sectorial symbol b is evaluated
through a dense eigendecomposition T = V diag(lambda) V^{-1} as
b(T) = V diag(b(lambda)) V^{-1}.  There is no second evaluation route: an
eigenbasis whose condition number exceeds the cap raises
IllConditionedEigenbasisError, naming the stage and the measured cond(V).

``decompose`` factors T one connected block at a time (``block_partition``:
the connected components of the exact nonzero pattern, grouped by size, one
stacked LAPACK call per size).  Constant coefficients give one 2 x 2 block
per Fourier mode (3 x 3 at the n = 2 zero mode, or smaller where a block has
exact zeros).  Smooth variable coefficients couple every mode and give one
block, the plain dense factorization; coefficients that vary along one axis
only leave the modes of the other axis uncoupled.  V and V^{-1} are dense
m x m arrays either way, and the kernel, polish and conditioning rules are
the global ones.

Eigenvalues close to zero (relative threshold ``kernel_tol``) form the
discrete kernel, the stand-in for the missing constants of the continuum
problem.  Each symbol declares its kernel value explicitly: sgn and the
spectral projections vanish there, the semigroup and resolvent-type
symbols are one.  Symbols built on the holomorphic sgn are undefined on the
imaginary axis and say so through ``sign_sensitive``.

A whole grid of heights is evaluated in eigen-coordinates as one block
product: with c = V^{-1} f computed once and S the m x T matrix of symbol
values S_ij = b_j(lambda_i), the columns b_j(T) f are V (S o c)
(``apply_to_vector`` with a t-family or a sequence of symbols).  The
t-families (``exp_minus_t_abs``, ``semigroup_dt``, ``psi_abs_exp``,
``psi_exp``, ``q_t``, ``p_t``) take a whole array of heights and evaluate S
as one outer-product block, with one sign-sensitivity check and one kernel
substitution per block.  A caller that applies many blocks to the same f
(``bvp.SolutionField``) keeps c = ``dec.coordinates(f)`` and passes it as
``eig_coords``, so each block costs the one product V (S o c).

Square-function norms int ||psi_t(T) f||^2 dt/t are summed by one midpoint
rule over a log-spaced grid (40 points per decade), one block product for
the whole grid; each caller adds its own analytic tail corrections from the
spectral extremes.  For psi_t = q_t and self-adjoint injective T the exact
value is ||f||^2 / 2, from the closed integral
int_0^inf (s/(1+s^2))^2 ds/s = 1/2.  The Gram matrix of the quadratic
estimate, G = sum_j h Q_j^* Q_j with Q_j = V diag(s_j) V^{-1}, is formed in
its Hadamard form G = V^{-*} [(V^* V) o W] V^{-1}, W = h conj(S) S^T: one
m x T x m product instead of two m^3 products per height.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import OperatorMatrix

__all__ = [
    "block_partition",
    "gather_blocks",
    "SpectralDecomposition",
    "FunctionDescriptor",
    "IllConditionedEigenbasisError",
    "SectorViolationError",
    "decompose",
    "sector_half_angle",
    "sector_margin",
    "apply_function",
    "resolvent",
    "q_t",
    "p_t",
    "chi_plus",
    "chi_minus",
    "sgn",
    "exp_minus_t_abs",
    "abs_power",
    "semigroup_dt",
    "psi_abs_exp",
    "psi_exp",
    "default_t_grid",
    "square_function",
    "quadratic_norm",
    "quadratic_constants",
]

POINTS_PER_DECADE = 40
DEFAULT_KERNEL_TOL = 1e-10
COND_V_CAP = 1e8
# entries per row chunk of ``block_partition``'s label sweep (1 MB of labels)
_PARTITION_CHUNK = 1 << 18


class IllConditionedEigenbasisError(np.linalg.LinAlgError):
    def __init__(self, message: str, cond_V: float):
        super().__init__(message)
        self.cond_V = cond_V


class SectorViolationError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionDescriptor:
    """A holomorphic symbol on the double sector with a declared kernel value.

    ``sign_sensitive`` marks symbols built on the holomorphic sgn, which are
    undefined on the imaginary axis.
    """

    name: str
    fn: object  # callable complex array -> complex array
    kernel_value: complex
    sign_sensitive: bool = False

    def __call__(self, lam):
        return self.fn(np.asarray(lam, dtype=complex))


def _holo_sign(lam: np.ndarray) -> np.ndarray:
    """sgn on the double sector: +1 on Re > 0, -1 on Re < 0."""
    return np.where(lam.real > 0, 1.0, -1.0).astype(complex)


def _holo_abs(lam: np.ndarray) -> np.ndarray:
    """|z| := z sgn(z), the holomorphic branch of sqrt(z^2)."""
    return lam * _holo_sign(lam)


def resolvent(lam0: complex) -> FunctionDescriptor:
    return FunctionDescriptor(
        f"resolvent({lam0!r})",
        lambda z: 1.0 / (lam0 - z),
        kernel_value=1.0 / lam0)


def _t_family(name: str, t, fn, kernel_value: complex,
              sign_sensitive: bool, params: str = "") -> FunctionDescriptor:
    """The symbol z -> fn(z, t) at one height t, or, for a 1-D array of
    heights, the family whose value at an array z is the block
    fn(z[..., None], t) = [b_{t_j}(z_i)], one column per height."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return FunctionDescriptor(f"{name}(t={t!r}{params})",
                                  lambda z: fn(z, t), kernel_value,
                                  sign_sensitive)
    if ts.ndim != 1:
        raise ValueError("heights must be a scalar or a 1-D array")
    return FunctionDescriptor(f"{name}(t=<{ts.size} heights>{params})",
                              lambda z: fn(z[..., None], ts), kernel_value,
                              sign_sensitive)


def q_t(t) -> FunctionDescriptor:
    return _t_family("q_t", t, lambda z, t: t * z / (1.0 + (t * z) ** 2),
                     kernel_value=0.0, sign_sensitive=False)


def p_t(t) -> FunctionDescriptor:
    return _t_family("p_t", t, lambda z, t: 1.0 / (1.0 + (t * z) ** 2),
                     kernel_value=1.0, sign_sensitive=False)


def chi_plus() -> FunctionDescriptor:
    return FunctionDescriptor(
        "chi_plus", lambda z: (1.0 + _holo_sign(z)) / 2.0, kernel_value=0.0,
        sign_sensitive=True)


def chi_minus() -> FunctionDescriptor:
    return FunctionDescriptor(
        "chi_minus", lambda z: (1.0 - _holo_sign(z)) / 2.0, kernel_value=0.0,
        sign_sensitive=True)


def sgn() -> FunctionDescriptor:
    return FunctionDescriptor("sgn", _holo_sign, kernel_value=0.0,
                              sign_sensitive=True)


def exp_minus_t_abs(t) -> FunctionDescriptor:
    return _t_family("exp_minus_t_abs", t,
                     lambda z, t: np.exp(-t * _holo_abs(z)),
                     kernel_value=1.0, sign_sensitive=True)


def abs_power(s: float) -> FunctionDescriptor:
    return FunctionDescriptor(
        f"abs_power(s={s!r})",
        lambda z: _holo_abs(z) ** s,
        kernel_value=0.0, sign_sensitive=True)


def semigroup_dt(t, order: int) -> FunctionDescriptor:
    """(d/dt)^order e^{-t|z|} = (-|z|)^order e^{-t|z|}, order >= 1."""
    def fn(z, t):
        a = _holo_abs(z)
        return (-a) ** order * np.exp(-t * a)
    return _t_family("semigroup_dt", t, fn, kernel_value=0.0,
                     sign_sensitive=True, params=f", order={order!r}")


def psi_abs_exp(t) -> FunctionDescriptor:
    """t|z| e^{-t|z|}, the symbol of -t d/dt e^{-t|T|}."""
    def fn(z, t):
        ta = t * _holo_abs(z)
        return ta * np.exp(-ta)
    return _t_family("psi_abs_exp", t, fn, kernel_value=0.0,
                     sign_sensitive=True)


def psi_exp(t) -> FunctionDescriptor:
    """psi(tz) with psi(z) = z e^{-|z|}, an alternative quadratic-estimate
    symbol."""
    return _t_family("psi_exp", t,
                     lambda z, t: t * z * np.exp(-t * _holo_abs(z)),
                     kernel_value=0.0, sign_sensitive=True)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Dense eigendecomposition of a bisectorial operator matrix."""

    eigenvalues: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    cond_V: float
    kernel_indices: np.ndarray  # boolean mask over eigenvalue positions
    omega: float
    kernel_tol: float
    hermitian: bool
    basis_tag: str = "full"

    @property
    def dim(self) -> int:
        return self.V.shape[0]

    @property
    def nonkernel(self) -> np.ndarray:
        return ~self.kernel_indices

    @cached_property
    def near_imaginary(self) -> np.ndarray:
        """Non-kernel eigenvalues on the imaginary axis up to rounding,
        where symbols built on sgn are undefined."""
        lam = self.eigenvalues
        return lam[self.nonkernel & (np.abs(lam.real) <= 1e-14 * np.abs(lam))]

    def coordinates(self, vec: np.ndarray) -> np.ndarray:
        """Eigen-coordinates V^{-1} vec."""
        return self.Vinv @ vec

    def matrix(self) -> np.ndarray:
        return (self.V * self.eigenvalues) @ self.Vinv

    def kernel_projector(self) -> np.ndarray:
        K = self.kernel_indices
        return self.V[:, K] @ self.Vinv[K]

    def nonkernel_projector(self) -> np.ndarray:
        sel = self.nonkernel.astype(complex)
        return (self.V * sel) @ self.Vinv

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    def min_nonkernel(self) -> float:
        lam = self.eigenvalues[self.nonkernel]
        if lam.size == 0:
            raise ValueError("empty non-kernel spectrum")
        return float(np.min(np.abs(lam)))


def block_partition(mat: np.ndarray) -> list:
    """The connected blocks of the exact nonzero pattern of a square matrix
    (mat != 0 or mat^T != 0), grouped by size: a list of (count, size) index
    arrays, one row per block, ascending indices, sizes ascending.

    Found by min-label propagation on the dense boolean pattern: every
    index takes the smallest label among its neighbours (a bounded number
    of rows at a time) and then the label of that label, until nothing
    changes or one label is left.  A dense matrix settles in one sweep and
    per-mode blocks in two.
    """
    pattern = np.asarray(mat) != 0
    pattern |= pattern.T
    m = pattern.shape[0]
    rows = max(1, _PARTITION_CHUNK // max(m, 1))
    label = np.arange(m, dtype=np.int32)
    while True:
        new = label.copy()
        for a in range(0, m, rows):
            np.minimum(new[a:a + rows], np.where(
                pattern[a:a + rows], label, m).min(axis=1, initial=m),
                out=new[a:a + rows])
        new = new[new]
        # labels never leave their block, so one label means one block
        if np.array_equal(new, label) or np.all(new == new[0]):
            label = new
            break
        label = new
    # indices ordered by block size, then block, then index
    block = np.unique(label, return_inverse=True)[1]
    size = np.bincount(block)[block]
    order = np.lexsort((block, size))
    groups, start = [], 0
    for s, n in zip(*np.unique(size, return_counts=True)):
        groups.append(order[start:start + n].reshape(-1, s))
        start += n
    return groups


def gather_blocks(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The diagonal blocks mat[b, b] for the rows b of ``idx``, stacked as
    (count, size, size); the whole matrix as a (1, m, m) view."""
    if idx.shape == (1, mat.shape[0]):
        return mat[None]
    return mat[idx[:, :, None], idx[:, None, :]]


def _scatter_blocks(groups: list, blocks: list, m: int) -> np.ndarray:
    """The dense m x m block-diagonal matrix with the stacked ``blocks`` of
    each size group at the indices of ``groups``."""
    if len(groups) == 1 and groups[0].shape == (1, m):
        return blocks[0][0]
    out = np.zeros((m, m), dtype=complex)
    for idx, block in zip(groups, blocks):
        out[idx[:, :, None], idx[:, None, :]] = block
    return out


def decompose(T: OperatorMatrix | np.ndarray,
              B_constants: tuple | None = None,
              kernel_tol: float = DEFAULT_KERNEL_TOL,
              cond_cap: float = COND_V_CAP,
              basis_tag: str | None = None) -> SpectralDecomposition:
    """Eigendecomposition with kernel and sector classification, one
    connected block of T at a time (``block_partition``).

    ``B_constants`` is the pair (kappa, sup_norm) of the coefficients that
    built T; it sets the sector half-angle omega = arccos(kappa/(2 sup_norm)).
    Hermitian matrices (relative defect <= 1e-10) get a unitary eigenbasis.
    The rules are those of the dense factorization: the kernel threshold is
    relative to the largest |lambda|, the kernel polish compares with
    ||T||_2, and cond(V) is the largest singular value of any block over
    the smallest, the 2-norm condition number of the block-diagonal V.
    """
    if isinstance(T, OperatorMatrix):
        mat = T.entries
        tag = T.basis_tag if basis_tag is None else basis_tag
    else:
        mat = np.asarray(T, dtype=complex)
        tag = basis_tag or "full"
    m = mat.shape[0]
    groups = block_partition(mat)
    hermitian = _is_hermitian(mat)
    lam = np.empty(m, dtype=complex)
    subs = [gather_blocks(mat, idx) for idx in groups]
    vecs = []
    for idx, sub in zip(groups, subs):
        if hermitian:
            lam_b, V_b = np.linalg.eigh(
                0.5 * (sub + np.conj(np.swapaxes(sub, 1, 2))))
        else:
            lam_b, V_b = np.linalg.eig(sub)
        lam[idx] = lam_b
        vecs.append(V_b)
    max_abs = np.max(np.abs(lam), initial=0.0)
    kernel = np.abs(lam) <= kernel_tol * max_abs if max_abs > 0 else np.ones(
        lam.shape, dtype=bool)
    if hermitian:
        V = _scatter_blocks(groups, vecs, m)
        Vinv = V.conj().T
        cond_V = 1.0
    else:
        if np.any(kernel):
            _polish_kernel(groups, subs, vecs, lam, kernel, kernel_tol)
        # The conditioning verdict is taken on the polished basis: a
        # near-degenerate zero cluster can make eig's raw basis look
        # arbitrarily ill conditioned even when the polished basis is fine.
        sv = [np.linalg.svd(V_b, compute_uv=False) for V_b in vecs]
        s_max = max(float(np.max(s)) for s in sv)
        s_min = min(float(np.min(s)) for s in sv)
        cond_V = s_max / s_min if s_min > 0 else np.inf
        if not cond_V <= cond_cap:
            raise IllConditionedEigenbasisError(
                f"calculus.decompose: cond(V) = {cond_V:.3e} > cap "
                f"{cond_cap:.1e}", cond_V)
        Vinv = _scatter_blocks(groups, [np.linalg.inv(V_b) for V_b in vecs],
                               m)
        V = _scatter_blocks(groups, vecs, m)
    if B_constants is not None:
        omega = sector_half_angle(*B_constants)
    else:
        omega = np.pi / 2
    return SpectralDecomposition(
        eigenvalues=lam, V=V, Vinv=Vinv, cond_V=cond_V,
        kernel_indices=kernel, omega=omega, kernel_tol=kernel_tol,
        hermitian=hermitian, basis_tag=tag)


def _polish_kernel(groups, subs, vecs, lam, kernel, kernel_tol) -> None:
    """Replace eig's kernel eigenvectors by exact null vectors, in place
    (``subs`` and ``vecs`` are the stacked blocks of T and of V).

    eig's eigenvectors for the (near-degenerate) zero cluster are only
    accurate to the cluster's residual, which would leave a t-independent
    defect in every semigroup evaluation.  Each block with k kernel
    eigenvalues whose k-th smallest singular value is at most
    kernel_tol ||T||_2 gets its last k right singular vectors instead.
    """
    norms, nulls = [], []
    for g, (idx, sub) in enumerate(zip(groups, subs)):
        counts = np.sum(kernel[idx], axis=1)
        if np.any(counts == 0):
            norms.append(np.max(np.linalg.norm(sub[counts == 0], ord=2,
                                               axis=(1, 2))))
        for b in np.flatnonzero(counts):
            _, s, vh = np.linalg.svd(sub[b])
            norms.append(s[0])
            nulls.append((g, b, int(counts[b]), s, vh))
    norm_T = max(norms)
    for g, b, k, s, vh in nulls:
        if s[-k] <= kernel_tol * norm_T:
            in_kernel = kernel[groups[g][b]]
            vecs[g][b][:, in_kernel] = vh[-k:].conj().T
            lam[groups[g][b][in_kernel]] = 0.0


def _is_hermitian(mat: np.ndarray) -> bool:
    """||mat - mat^*||_2 <= 1e-10 ||mat||_2, decided from Frobenius norms
    through ||X||_F / sqrt(m) <= ||X||_2 <= ||X||_F wherever that bracket
    settles it; the two exact 2-norms are taken only when it does not."""
    rtol = 1e-10
    defect = mat - mat.conj().T
    root_m = np.sqrt(mat.shape[0])
    d_fro = np.linalg.norm(defect)
    s_fro = np.linalg.norm(mat)
    if d_fro <= rtol * max(s_fro / root_m, 1e-300):
        return True
    if d_fro / root_m > rtol * max(s_fro, 1e-300):
        return False
    scale = max(np.linalg.norm(mat, 2), 1e-300)
    return bool(np.linalg.norm(defect, 2) <= rtol * scale)


def sector_half_angle(kappa: float, sup_norm: float) -> float:
    """Half-angle omega = arccos(kappa / (2 ||B||_inf)) of the double sector
    that holds the spectrum of T_B."""
    return float(np.arccos(np.clip(kappa / (2.0 * sup_norm), -1.0, 1.0)))


def sector_margin(eigenvalues: np.ndarray, omega: float) -> float:
    """max over ``eigenvalues`` of (angle to the real axis) - omega.

    Negative means every eigenvalue lies strictly inside the double sector
    of half-angle omega; pass the non-kernel eigenvalues only.
    """
    if eigenvalues.size == 0:
        return -omega
    ang = np.abs(np.angle(eigenvalues))
    ang = np.minimum(ang, np.pi - ang)
    return float(np.max(ang) - omega)


def _symbol_values(dec: SpectralDecomposition, b) -> np.ndarray:
    """b(lambda) with kernel eigenvalues sent to b's kernel value: shape (m,)
    for one symbol, the m x T block S_ij = b_{t_j}(lambda_i) for a t-family,
    and the blocks of a sequence of symbols side by side.

    A sign-sensitive symbol at a (near-)imaginary non-kernel eigenvalue
    raises SectorViolationError; the check is made once per symbol or
    family.
    """
    if not isinstance(b, FunctionDescriptor):
        blocks = [_symbol_values(dec, s) for s in b]
        return (np.column_stack(blocks) if blocks
                else np.empty((dec.dim, 0), dtype=complex))
    if b.sign_sensitive and dec.near_imaginary.size:
        raise SectorViolationError(
            f"symbol {b.name!r} undefined at (near-)imaginary eigenvalue "
            f"{dec.near_imaginary[0]!r}")
    vals = b(dec.eigenvalues)
    kernel = dec.kernel_indices.reshape((-1,) + (1,) * (vals.ndim - 1))
    return np.where(kernel, complex(b.kernel_value), vals)


def apply_function(dec: SpectralDecomposition,
                   b: FunctionDescriptor) -> OperatorMatrix:
    """b(T) = V diag(b(lambda)) V^{-1}, kernel eigenvalues -> kernel value."""
    vals = _symbol_values(dec, b)
    return OperatorMatrix((dec.V * vals) @ dec.Vinv, basis_tag=dec.basis_tag)


def apply_to_vector(dec: SpectralDecomposition, b, vec: np.ndarray | None = None,
                    *, eig_coords: np.ndarray | None = None) -> np.ndarray:
    """b(T) vec without forming the full matrix.

    ``b`` may also be a t-family or a sequence of symbols b_1 .. b_T: the
    result is then the m x T block whose column j is b_j(T) vec, formed as
    one product V (S o c) with c = V^{-1} vec and S_ij = b_j(lambda_i).
    ``eig_coords`` passes c when the caller already holds it, in place of
    ``vec``.
    """
    c = dec.coordinates(vec) if eig_coords is None else eig_coords
    S = _symbol_values(dec, b)
    return dec.V @ _flush_subnormals(S * c if S.ndim == 1 else S * c[:, None])


def _flush_subnormals(X: np.ndarray) -> np.ndarray:
    """Set the real and imaginary parts of X below the smallest normal
    double to zero, in place.  A semigroup block reaches e^{-t|lambda|}
    below 1e-308 at its largest heights, and subnormal operands make the
    BLAS product that follows several times slower; the product changes by
    less than that smallest normal number."""
    parts = X.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return X


# ---------------------------------------------------------------------------
# quadratic estimates
# ---------------------------------------------------------------------------

def default_t_grid(dec: SpectralDecomposition,
                   c_lo: float = 1e-3, c_hi: float = 1e3,
                   points_per_decade: int = POINTS_PER_DECADE):
    """Log-spaced midpoint grid covering the spectral window.

    Returns (t values, log-spacing h) with t from c_lo/max|lambda| to
    c_hi/min nonkernel |lambda|.
    """
    t_min = c_lo / dec.spectral_radius()
    t_max = c_hi / dec.min_nonkernel()
    n_dec = np.log10(t_max / t_min)
    m = max(int(np.ceil(n_dec * points_per_decade)), 2)
    h = np.log(t_max / t_min) / m
    u = np.log(t_min) + (np.arange(m) + 0.5) * h
    return np.exp(u), h


def square_function(dec: SpectralDecomposition, symbol, coeffs: np.ndarray,
                    ts: np.ndarray, h: float) -> float:
    """Midpoint rule sum_j h ||psi_{t_j}(T) f||^2 for int ||psi_t(T) f||^2 dt/t
    on the log grid ``ts`` with log-spacing ``h``; no tail terms.

    ``symbol`` maps the array of heights to the t-family of psi_t (any
    t-family of this module), as in ``quadratic_constants``.
    """
    Y = apply_to_vector(dec, symbol(np.asarray(ts, dtype=float)), coeffs)
    return h * float(np.vdot(Y, Y).real)


def quadratic_norm(dec: SpectralDecomposition, coeffs: np.ndarray,
                   t_grid=None) -> float:
    """sqrt of int ||Q_t f||^2 dt/t, Q_t = tT(1 + t^2 T^2)^{-1}.

    Midpoint quadrature in log t plus analytic small-t and large-t tails
    (||Q_t f|| ~ t||Tf|| and ||Q_t f|| ~ ||T^{-1}f||/t respectively).
    Norms are plain coefficient-vector norms; ratios against ||f|| are
    scale free.
    """
    if not np.any(dec.nonkernel):
        raise ValueError("empty non-kernel spectrum")
    if t_grid is None:
        ts, h = default_t_grid(dec)
    else:
        ts = np.asarray(t_grid)
        h = np.log(ts[1] / ts[0]) if len(ts) > 1 else 1.0
    total = square_function(dec, q_t, coeffs, ts, h)
    # tails
    c = dec.coordinates(coeffs)
    lam = dec.eigenvalues
    lam_nk = np.where(dec.kernel_indices, 0.0, lam)
    Tf = dec.V @ (lam_nk * c)
    inv_vals = np.where(dec.kernel_indices, 0.0,
                        1.0 / np.where(dec.kernel_indices, 1.0, lam))
    Tinv_f = dec.V @ (inv_vals * c)
    t_lo, t_hi = ts[0] * np.exp(-h / 2), ts[-1] * np.exp(h / 2)
    total += (t_lo ** 2 / 2.0) * float(np.vdot(Tf, Tf).real)
    total += (1.0 / (2.0 * t_hi ** 2)) * float(np.vdot(Tinv_f, Tinv_f).real)
    return float(np.sqrt(total))


def quadratic_constants(dec: SpectralDecomposition, t_grid=None,
                        symbol=None):
    """Best discrete constants (c_low, c_high) in
    c_low ||f|| <= (int ||Q_t f||^2 dt/t)^{1/2} <= c_high ||f||
    over the non-kernel subspace, via the extreme eigenvalues of the Gram
    matrix G = sum_j w_j Q_{t_j}^* Q_{t_j} (plus analytic tails for the
    default symbol), formed in its Hadamard form (module docstring).

    ``symbol``: optional map from the array of heights to a t-family,
    replacing q_t.
    """
    if not np.any(dec.nonkernel):
        raise ValueError("empty non-kernel spectrum")
    if t_grid is None:
        ts, h = default_t_grid(dec)
    else:
        ts = np.asarray(t_grid)
        h = np.log(ts[1] / ts[0]) if len(ts) > 1 else 1.0
    use_default = symbol is None
    if use_default:
        symbol = q_t
    # G = sum_j h Q_j^* Q_j with Q_j = V diag(s_j) V^{-1} is
    # V^{-*} [(V^* V) o W] V^{-1}, W_ik = h sum_j conj(s_j(lam_i)) s_j(lam_k)
    S = _symbol_values(dec, symbol(np.asarray(ts, dtype=float)))
    W = h * (S.conj() @ S.T)
    if use_default:
        # tails: T restricted to the non-kernel part and its inverse there
        lam_nk = np.where(dec.kernel_indices, 0.0, dec.eigenvalues)
        lam = np.where(dec.kernel_indices, 1.0, dec.eigenvalues)
        inv_vals = np.where(dec.kernel_indices, 0.0, 1.0 / lam)
        t_lo, t_hi = ts[0] * np.exp(-h / 2), ts[-1] * np.exp(h / 2)
        W += (t_lo ** 2 / 2.0) * np.outer(lam_nk.conj(), lam_nk)
        W += (1.0 / (2.0 * t_hi ** 2)) * np.outer(inv_vals.conj(), inv_vals)
    G = dec.Vinv.conj().T @ (((dec.V.conj().T @ dec.V) * W) @ dec.Vinv)
    # orthonormal basis of the non-kernel subspace
    Pnk = dec.nonkernel_projector()
    u, s, _ = np.linalg.svd(Pnk)
    U = u[:, s > 0.5]
    Gr = U.conj().T @ G @ U
    ev = np.linalg.eigvalsh(0.5 * (Gr + Gr.conj().T))
    ev = np.clip(ev, 0.0, None)
    return float(np.sqrt(ev[0])), float(np.sqrt(ev[-1]))
