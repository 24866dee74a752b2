"""Assembly of the boundary Dirac-type operator and its companions.

Fields are flattened point-major (coefficient index fastest), so pointwise
coefficient multiplication is block diagonal and Fourier multipliers act
per mode on the exterior algebra.

The central objects are

* ``M_B = N^+ - B^{-1} N^- B`` (pointwise, invertible for accretive B),
* ``T_B = M_B^{-1} (m d + B^{-1} m d* B)``,
* the perturbed reflections built from mu and mu*_B = B^{-1} mu* B
  for the splittings B^{-1}N^+H + N^-H ("hat") and N^+H + B^{-1}N^-H
  ("hut"),
* orthonormal bases of the constrained subspaces (curl-free vector fields,
  and the k-vector spaces cut out by d(f_tan) = 0 = d*((B f)_nor)),
* restriction of operators to such subspaces with an invariance-defect
  check, and
* the coefficient duality <f, g>_B = ((B N^+ - N^- B) f, g) with its
  operator adjoint.

Every operator is a pointwise map composed with Fourier multipliers, and
the frames use that: ``TB_operator``, ``NB_operator`` and
``reflection_operator`` are matrix free (batched FFT derivatives from
``grid`` and per-point Lambda-maps applied to column blocks), and
``restrict`` compresses them by applying them to the basis columns, so a
frame never forms a (N^n 2^(n+1))^2 matrix.  The dense full-space matrices
(``assemble_TB``, ``assemble_NB``, ``d_matrix``, ...) remain as test
oracles and for the duality and off-diagonal campaigns, which need the
whole operator; the constrained degree-k bases (``hat_hk_basis``) and
``hodge_split`` still take dense null spaces.

All matrices act on plain coefficient vectors; because the grid quadrature
weight is a scalar multiple of the identity metric, operator norms, condition
numbers, and conjugate-transpose adjoints agree with their weighted
counterparts.  Physical field norms carry the weight explicitly via
``grid.norm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import algebra
from .grid import (CoefficientField, Field, Torus, d_columns,
                   d_star_columns, partial_columns)

__all__ = [
    "OperatorMatrix",
    "SubspaceBasis",
    "PointwiseInversionError",
    "SubspaceInvarianceError",
    "derivative_matrix",
    "pointwise_operator",
    "d_matrix",
    "d_star_matrix",
    "m_full_matrix",
    "reflection_full_matrix",
    "normal_proj_full",
    "tangential_proj_full",
    "underline_d_matrix",
    "underline_d_star_B_matrix",
    "assemble_MB",
    "assemble_TB",
    "assemble_NB",
    "FieldOperator",
    "TB_operator",
    "NB_operator",
    "reflection_operator",
    "coefficient_matrix",
    "hat_h1_basis",
    "hat_hk_basis",
    "restrict",
    "duality_pairing",
    "duality_gram",
    "adjoint_in_duality",
    "hodge_split",
    "matrix_to_csv",
    "matrix_from_csv",
]


# entries per column chunk in ``restrict`` (2 MB of complex values)
_RESTRICT_CHUNK = 1 << 17


class PointwiseInversionError(np.linalg.LinAlgError):
    """A pointwise Lambda-map inversion failed; carries the grid location."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class SubspaceInvarianceError(ValueError):
    """An operator failed to preserve a subspace it should leave invariant."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on a (possibly restricted) discrete field space.

    ``invariance_defect`` is set by ``restrict`` when it measured one.
    """

    entries: np.ndarray
    basis_tag: str = "full"
    invariance_defect: float | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(e)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", e)
        self.entries.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.entries @ other.entries, self.basis_tag)
        return self.entries @ other


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of the flattened field space."""

    columns: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=complex)
        if c.ndim != 2 or c.shape[1] > c.shape[0]:
            raise ValueError("basis must be a tall matrix")
        gram_defect = np.linalg.norm(c.conj().T @ c - np.eye(c.shape[1]))
        if gram_defect > 1e-12 * max(1, c.shape[1]):
            raise ValueError(f"basis columns not orthonormal (defect {gram_defect:.2e})")
        object.__setattr__(self, "columns", c)
        self.columns.flags.writeable = False

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def to_coords(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection of ``vec``."""
        return self.columns.conj().T @ vec

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.columns @ coords

    def projector(self) -> np.ndarray:
        return self.columns @ self.columns.conj().T


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axis_derivative(N: int, L: float) -> np.ndarray:
    """Dense 1-D spectral derivative matrix on N periodic samples."""
    D = partial_columns(Torus(1, L, N), np.eye(N), 0)
    D.flags.writeable = False
    return D


def derivative_matrix(torus: Torus, axis: int) -> np.ndarray:
    """Scalar derivative d/dx_axis on the flattened grid (no Lambda factor)."""
    N = torus.points_per_axis
    D1 = _axis_derivative(N, torus.length)
    if torus.dim_n == 1:
        return D1
    eye = np.eye(N)
    if axis == 0:
        return np.kron(D1, eye)
    return np.kron(eye, D1)


def pointwise_operator(torus: Torus, maps: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix applying one Lambda-map per grid point."""
    d = torus.lambda_dim
    P = torus.num_points
    flat = np.asarray(maps, dtype=complex).reshape(P, d, d)
    out = np.zeros((P * d, P * d), dtype=complex)
    rows = np.arange(P) * d
    for p in range(P):
        out[rows[p]:rows[p] + d, rows[p]:rows[p] + d] = flat[p]
    return out


def _lift(torus: Torus, lam_matrix: np.ndarray) -> np.ndarray:
    """Kronecker lift of a constant Lambda-map to the full field space."""
    return np.kron(np.eye(torus.num_points), lam_matrix)


def d_matrix(torus: Torus) -> np.ndarray:
    n = torus.dim_n
    out = np.zeros((torus.num_points * torus.lambda_dim,) * 2, dtype=complex)
    for j in range(1, n + 1):
        W = algebra.left_wedge_matrix(n, 1 << j)
        out += np.kron(derivative_matrix(torus, j - 1), W)
    return out


def d_star_matrix(torus: Torus) -> np.ndarray:
    n = torus.dim_n
    out = np.zeros((torus.num_points * torus.lambda_dim,) * 2, dtype=complex)
    for j in range(1, n + 1):
        H = algebra.left_hook_matrix(n, 1 << j)
        out -= np.kron(derivative_matrix(torus, j - 1), H)
    return out


def m_full_matrix(torus: Torus) -> np.ndarray:
    return _lift(torus, algebra.m_matrix(torus.dim_n))


def reflection_full_matrix(torus: Torus) -> np.ndarray:
    return _lift(torus, algebra.reflection_matrix(torus.dim_n))


def normal_proj_full(torus: Torus) -> np.ndarray:
    return _lift(torus, algebra.normal_proj_matrix(torus.dim_n))


def tangential_proj_full(torus: Torus) -> np.ndarray:
    return _lift(torus, algebra.tangential_proj_matrix(torus.dim_n))


def coefficient_matrix(B: CoefficientField) -> np.ndarray:
    """Dense matrix of pointwise multiplication by B."""
    return pointwise_operator(B.torus, B.maps)


def underline_d_matrix(torus: Torus) -> np.ndarray:
    return 1j * m_full_matrix(torus) @ d_matrix(torus)


def underline_d_star_B_matrix(B: CoefficientField) -> np.ndarray:
    torus = B.torus
    Bm = coefficient_matrix(B)
    Binv = pointwise_operator(torus, np.linalg.inv(B.maps))
    return Binv @ (1j * m_full_matrix(torus) @ d_star_matrix(torus)) @ Bm


# ---------------------------------------------------------------------------
# the Dirac-type operator and perturbed reflections
# ---------------------------------------------------------------------------

def _pointwise_inverse(torus: Torus, maps: np.ndarray, what: str) -> np.ndarray:
    flat = np.asarray(maps).reshape(torus.num_points, torus.lambda_dim,
                                    torus.lambda_dim)
    try:
        return np.linalg.inv(flat).reshape(maps.shape)
    except np.linalg.LinAlgError:
        pass
    # locate the first failing point for the error report
    for p in range(flat.shape[0]):
        if abs(np.linalg.det(flat[p])) < 1e-300:
            idx = np.unravel_index(p, torus.shape)
            raise PointwiseInversionError(
                f"{what} is singular at grid point {idx}", location=idx)
    raise PointwiseInversionError(f"{what} is singular")  # pragma: no cover


def _mb_maps(B: CoefficientField, Binv: np.ndarray) -> np.ndarray:
    """Pointwise maps of M_B = N^+ - B^{-1} N^- B, checked invertible."""
    n = B.torus.dim_n
    Npl = algebra.tangential_proj_matrix(n)
    Nmi = algebra.normal_proj_matrix(n)
    maps = Npl - np.einsum("...ij,jk,...kl->...il", Binv, Nmi, B.maps)
    # M_B is invertible iff its two diagonal blocks are; check pointwise.
    _pointwise_inverse(B.torus, maps, "M_B")
    return maps


def assemble_MB(B: CoefficientField) -> OperatorMatrix:
    """M_B = N^+ - B^{-1} N^- B, assembled pointwise over the grid."""
    Binv = _pointwise_inverse(B.torus, B.maps, "coefficient map B")
    return OperatorMatrix(pointwise_operator(B.torus, _mb_maps(B, Binv)),
                          basis_tag="full")


def assemble_TB(B: CoefficientField) -> OperatorMatrix:
    """T_B = M_B^{-1} (m d + B^{-1} m d* B) on the full discrete field space.

    Dense; the frames use ``TB_operator``.  Kept as its test oracle and for
    the campaigns that need the full-space matrix.
    """
    torus = B.torus
    m = m_full_matrix(torus)
    Binv = pointwise_operator(
        torus, _pointwise_inverse(torus, B.maps, "coefficient map B"))
    # Binv m d* Bm left to right, as the plain product, each dense factor
    # built just before its use and released after it: at most four
    # full-size matrices are alive at once
    K = Binv @ m
    del Binv
    K = K @ d_star_matrix(torus)
    K = K @ coefficient_matrix(B)
    K = m @ d_matrix(torus) + K
    del m
    T = np.linalg.solve(assemble_MB(B).entries, K)
    return OperatorMatrix(T, basis_tag="full")


def _splitting_projections(U_maps: np.ndarray, V_maps: np.ndarray,
                           torus: Torus, what: str):
    """Pointwise complementary projections for range(U) + range(V).

    U_maps/V_maps map Lambda onto the two subspaces; the projection onto
    range(U) along range(V) is computed per point from the column splitting.
    """
    d = torus.lambda_dim
    nor = algebra.normal_mask(torus.dim_n)
    tan_cols = np.where(~nor)[0]
    nor_cols = np.where(nor)[0]
    plus = U_maps[..., :, tan_cols]
    minus = V_maps[..., :, nor_cols]
    S = np.concatenate([plus, minus], axis=-1)
    Sinv = _pointwise_inverse(torus, S, what)
    sel_plus = np.zeros((d, d))
    sel_plus[np.arange(len(tan_cols)), np.arange(len(tan_cols))] = 1.0
    P_plus = np.einsum("...ij,jk,...kl->...il", S, sel_plus, Sinv)
    eye = np.broadcast_to(np.eye(d), P_plus.shape)
    P_minus = eye - P_plus
    return P_plus, P_minus


def _nb_maps(B: CoefficientField, variant: str):
    """Pointwise maps (N_B^+, N_B^-) of the perturbed projections."""
    torus = B.torus
    n = torus.dim_n
    mu = algebra.mu_matrix(n)
    mu_s = algebra.mu_star_matrix(n)
    Binv = _pointwise_inverse(torus, B.maps, "coefficient map B")
    if variant == "hat":
        mu_sB = np.einsum("...ij,jk,...kl->...il", Binv, mu_s, B.maps)
        denom = _pointwise_inverse(torus, mu + mu_sB, "mu + mu*_B")
        P_plus = np.einsum("...ij,...jk->...ik", mu_sB, denom)
        eye = np.broadcast_to(np.eye(torus.lambda_dim), P_plus.shape)
        P_minus = eye - P_plus
    elif variant == "hut":
        # range(N^+ restricted) = tangential, twisted normal range = B^{-1} N^- H
        eye_maps = np.broadcast_to(np.eye(torus.lambda_dim),
                                   torus.shape + (torus.lambda_dim,) * 2)
        P_plus, P_minus = _splitting_projections(
            eye_maps, Binv, torus, "hut splitting matrix")
    else:
        raise ValueError("variant must be 'hat' or 'hut'")
    return P_plus, P_minus


def assemble_NB(B: CoefficientField, variant: str = "hat"):
    """Perturbed complementary projections and reflection.

    variant "hat": splitting H = B^{-1}N^+H + N^-H, built from the explicit
    formulas N^+_B = mu*_B (mu + mu*_B)^{-1} and N^-_B = mu (mu + mu*_B)^{-1}
    with mu*_B = B^{-1} mu* B.

    variant "hut": splitting H = N^+H + B^{-1}N^-H, built directly from the
    pointwise column splitting.

    Returns (N_B^+, N_B^-, N_B) as dense OperatorMatrix; ``NB_operator``
    applies N_B without forming it.
    """
    P_plus, P_minus = _nb_maps(B, variant)
    to_op = lambda maps: OperatorMatrix(pointwise_operator(B.torus, maps),
                                        basis_tag="full")
    return to_op(P_plus), to_op(P_minus), to_op(P_plus - P_minus)


# ---------------------------------------------------------------------------
# matrix-free operators
# ---------------------------------------------------------------------------

class FieldOperator:
    """Operator on the full field space known only by its action.

    ``apply`` and ``adjoint`` map column blocks of shape grid_shape + (d, k)
    (k fields side by side, the Lambda index second to last) to the same
    shape; ``matmat``, ``@`` and ``rmatmat`` take flattened (P*d, k)
    blocks.  No (P*d)^2 matrix is ever formed.
    """

    def __init__(self, torus: Torus, apply, adjoint):
        self.torus = torus
        self.apply = apply
        self.adjoint = adjoint

    @property
    def dim(self) -> int:
        return self.torus.num_points * self.torus.lambda_dim

    def _flat(self, fn, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if X.ndim != 2 or X.shape[0] != self.dim:
            raise ValueError(f"expected a ({self.dim}, k) column block")
        k = X.shape[1]
        grid = self.torus.shape + (self.torus.lambda_dim, k)
        return fn(X.reshape(grid)).reshape(self.dim, k)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._flat(self.apply, X)

    __matmul__ = matmat

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        return self._flat(self.adjoint, X)

    def norm_estimate(self) -> float:
        """Deterministic lower bound for the 2-norm.

        The largest singular value of the operator on an orthonormal block
        Krylov basis of op^H op: a fixed pseudo-random start block, one
        block per step, fully reorthogonalized, stopped once a step raises
        the value by less than 1e-13 relative (at most 40 steps).  It never
        exceeds the exact norm; when the Krylov space would fill the field
        space the whole space is used and the value is exact.

        Written with numpy alone: scipy's ``svds`` (ARPACK) runs on scipy's
        own OpenBLAS, whose spinning threads contend with numpy's; on a
        2-core machine it made the benchmark's ``battery`` workload 1.7x
        slower per operation.
        """
        block, steps = 4, 40
        if block * steps >= self.dim:
            return float(np.linalg.norm(
                self.matmat(np.eye(self.dim, dtype=complex)), 2))
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((self.dim, block))
                         + 1j * rng.standard_normal((self.dim, block)))[0]
        basis, images = [], []
        gram = np.zeros((0, 0), dtype=complex)
        value = 0.0
        for _ in range(steps):
            basis.append(Q)
            Z = self.matmat(Q)
            # Gram matrix of the images op Q_i: its top eigenvalue is the
            # squared norm of op on the span, accurate to rounding
            cross = np.hstack(images).conj().T @ Z if images else \
                np.zeros((0, block), dtype=complex)
            gram = np.block([[gram, cross], [cross.conj().T, Z.conj().T @ Z]])
            images.append(Z)
            prev, value = value, float(np.sqrt(max(
                np.linalg.eigvalsh(gram)[-1], 0.0)))
            if value - prev <= 1e-13 * value:
                break
            Y = self.rmatmat(Z)
            for _ in range(2):
                for V in basis:
                    Y -= V @ (V.conj().T @ Y)
            Q = np.linalg.qr(Y)[0]
        return value


def _herm(maps: np.ndarray) -> np.ndarray:
    """Pointwise conjugate transpose of Lambda-maps."""
    return np.conj(np.swapaxes(maps, -1, -2))


def _pointwise_field_operator(torus: Torus,
                              maps: np.ndarray) -> FieldOperator:
    """Per-point Lambda-maps (grid_shape + (d, d), or one constant (d, d)
    map) as a matrix-free operator."""
    maps_h = _herm(maps)
    return FieldOperator(torus, lambda X: maps @ X, lambda X: maps_h @ X)


def TB_operator(B: CoefficientField) -> FieldOperator:
    """T_B = M_B^{-1} (m d + B^{-1} m d* B), matrix free.

    Batched FFT derivatives along the grid axes composed with the constant
    map m and the pointwise maps B, B^{-1} and M_B^{-1}; the adjoint
    applies the conjugate-transposed maps and d* = d^H in reverse order.
    """
    torus = B.torus
    Bm = B.maps
    Binv = _pointwise_inverse(torus, Bm, "coefficient map B")
    MBinv = _pointwise_inverse(torus, _mb_maps(B, Binv), "M_B")
    m = algebra.m_matrix(torus.dim_n)
    # T_B = C1 d + C2 d* B with the pointwise maps C1 = M_B^{-1} m and
    # C2 = M_B^{-1} B^{-1} m
    C1 = MBinv @ m
    C2 = MBinv @ Binv @ m
    Bh, C1h, C2h = _herm(Bm), _herm(C1), _herm(C2)

    def apply(X):
        out = C1 @ d_columns(torus, X)
        out += C2 @ d_star_columns(torus, Bm @ X)
        return out

    def adjoint(Y):
        out = d_star_columns(torus, C1h @ Y)
        out += Bh @ d_columns(torus, C2h @ Y)
        return out

    return FieldOperator(torus, apply, adjoint)


def NB_operator(B: CoefficientField) -> FieldOperator:
    """The perturbed reflection N_B = N_B^+ - N_B^- ("hat" splitting) as a
    pointwise operator."""
    P_plus, P_minus = _nb_maps(B, "hat")
    return _pointwise_field_operator(B.torus, P_plus - P_minus)


def reflection_operator(torus: Torus) -> FieldOperator:
    """The boundary reflection N as a constant pointwise operator."""
    return _pointwise_field_operator(
        torus, algebra.reflection_matrix(torus.dim_n))


# ---------------------------------------------------------------------------
# constrained subspaces
# ---------------------------------------------------------------------------

def _plane_wave_columns(torus: Torus, mode_vectors) -> np.ndarray:
    """Orthonormal columns e^{i xi.x} v / sqrt(P) for (mode, multivector) pairs."""
    P = torus.num_points
    d = torus.lambda_dim
    coords = torus.coordinates()
    kvecs = np.array([kvec for kvec, _ in mode_vectors], dtype=float)
    vecs = np.array([v for _, v in mode_vectors], dtype=float).T
    phase = np.ones(torus.shape + (len(mode_vectors),), dtype=complex)
    for j in range(torus.dim_n):
        phase = phase * np.exp(2j * np.pi * kvecs[:, j]
                               * coords[j][..., None] / torus.length)
    block = phase[..., None, :] * vecs
    block /= np.sqrt(P)
    return block.reshape(P * d, len(mode_vectors))


def hat_h1_basis(torus: Torus) -> SubspaceBasis:
    """Orthonormal basis of the curl-free vector fields.

    Per Fourier mode xi != 0 this is span{e_0, xi/|xi|} inside the vector
    component; for n = 1 that is every vector field.  The zero mode keeps
    all constant vectors (they form the discrete kernel of the Dirac
    operator and are handled by the kernel policy downstream).
    """
    n = torus.dim_n
    d = torus.lambda_dim
    N = torus.points_per_axis
    ks = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    mode_vectors = []
    e0 = np.zeros(d)
    e0[1] = 1.0
    if n == 1:
        for k in ks:
            v1 = np.zeros(d)
            v1[2] = 1.0
            mode_vectors.append(((k,), e0))
            mode_vectors.append(((k,), v1))
    else:
        for k1 in ks:
            for k2 in ks:
                mode_vectors.append(((k1, k2), e0))
                if k1 == 0 and k2 == 0:
                    for mask in (2, 4):
                        v = np.zeros(d)
                        v[mask] = 1.0
                        mode_vectors.append(((k1, k2), v))
                else:
                    norm_k = np.hypot(k1, k2)
                    v = np.zeros(d)
                    v[2] = k1 / norm_k
                    v[4] = k2 / norm_k
                    mode_vectors.append(((k1, k2), v))
    cols = _plane_wave_columns(torus, mode_vectors)
    return SubspaceBasis(cols, label="hat_h1")


def hat_hk_basis(B: CoefficientField, k: int,
                 rtol: float = 1e-10) -> SubspaceBasis:
    """Orthonormal basis of the degree-k fields with d(f_tan) = 0 and
    d*((B f)_nor) = 0, via an SVD null space of the stacked constraints."""
    torus = B.torus
    n = torus.dim_n
    if not 0 <= k <= n + 1:
        raise ValueError(f"degree k={k} out of range")
    d = torus.lambda_dim
    degs = algebra.mask_degrees(n)
    deg_cols = np.where(degs == k)[0]
    P = torus.num_points
    # embedding of degree-k fields into the full space
    embed = np.zeros((P * d, P * len(deg_cols)), dtype=complex)
    for p in range(P):
        for j, mask in enumerate(deg_cols):
            embed[p * d + mask, p * len(deg_cols) + j] = 1.0
    D = d_matrix(torus)
    Ds = d_star_matrix(torus)
    tang = tangential_proj_full(torus)
    norp = normal_proj_full(torus)
    Bm = coefficient_matrix(B)
    C = np.vstack([D @ tang @ embed, Ds @ norp @ Bm @ embed])
    null = scipy.linalg.null_space(C, rcond=rtol)
    if null.shape[1] == 0:
        raise ValueError(f"constrained degree-{k} subspace is empty")
    cols = embed @ null
    return SubspaceBasis(cols, label=f"hat_hk(k={k})")


def restrict(op: OperatorMatrix | FieldOperator, basis: SubspaceBasis,
             invariance_tol: float | None = None) -> OperatorMatrix:
    """Compress an operator to a subspace: columns* . op . columns.

    ``op`` is a dense OperatorMatrix or a matrix-free FieldOperator.  If
    ``invariance_tol`` is given, also measures the invariance defect
    ||(I - P) op P||_2 / ||op||_2, attaches it to the returned matrix as
    ``invariance_defect`` and raises a SubspaceInvarianceError if it
    exceeds the tolerance.  The leak norm is exact.  ||op||_2 is exact for
    a dense operator and the ``norm_estimate`` lower bound for a
    matrix-free one, so that defect is never below the exact value.
    """
    if basis.ambient_dim != op.dim:
        raise ValueError("basis ambient dimension does not match operator")
    U = basis.columns
    k = basis.dim
    compressed = np.empty((k, k), dtype=complex)
    leak = None if invariance_tol is None else np.empty(U.shape, dtype=complex)
    # a bounded number of columns at a time, so that the working arrays
    # stay small next to the basis itself
    step = max(1, _RESTRICT_CHUNK // basis.ambient_dim)
    for a in range(0, k, step):
        b = min(a + step, k)
        Z = op @ U[:, a:b]
        C = (Z.conj().T @ U).conj().T  # U^H Z without a conjugate copy of U
        compressed[:, a:b] = C
        if leak is not None:
            leak[:, a:b] = Z - U @ C
    defect = None
    if leak is not None:
        norm = (np.linalg.norm(op.entries, 2)
                if isinstance(op, OperatorMatrix) else op.norm_estimate())
        defect = float(np.linalg.norm(leak, 2) / max(norm, 1e-300))
        if defect > invariance_tol:
            raise SubspaceInvarianceError(
                f"operator does not preserve subspace {basis.label!r}: "
                f"relative defect {defect:.3e} > {invariance_tol:.1e}", defect)
    return OperatorMatrix(compressed, basis_tag=basis.label,
                          invariance_defect=defect)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def duality_gram(B: CoefficientField) -> np.ndarray:
    """Matrix of the pairing <f, g>_B = ((B N^+ - N^- B) f, g) on coefficient
    vectors (the scalar grid weight is left to the caller; it cancels in
    every adjoint computation)."""
    n = B.torus.dim_n
    Npl = algebra.tangential_proj_matrix(n)
    Nmi = algebra.normal_proj_matrix(n)
    maps = (np.einsum("...ij,jk->...ik", B.maps, Npl)
            - np.einsum("ij,...jk->...ik", Nmi, B.maps))
    return pointwise_operator(B.torus, maps)


def duality_pairing(f: Field, g: Field, B: CoefficientField) -> complex:
    """<f, g>_B with the physical grid weight included."""
    S = duality_gram(B)
    return complex(B.torus.weight * np.vdot(g.flatten(), S @ f.flatten()))


def adjoint_in_duality(op: OperatorMatrix, B: CoefficientField) -> OperatorMatrix:
    """The operator T' with <T f, g>_B = <f, T' g>_B for all f, g."""
    S = duality_gram(B)
    # <Tf, g> = g^H S T f and <f, T'g> = g^H T'^H S f, so T'^H = S T S^{-1}.
    T_prime_H = S @ op.entries @ np.linalg.inv(S)
    return OperatorMatrix(T_prime_H.conj().T, basis_tag=op.basis_tag)


# ---------------------------------------------------------------------------
# Hodge-type splitting
# ---------------------------------------------------------------------------

def hodge_split(B: CoefficientField, f: Field, rtol: float = 1e-9):
    """Split f (minus its grid mean) as f1 + f2 with f1 in null(i m d) and
    f2 in null(B^{-1} i m d* B), inside the mean-zero complement.

    Returns (f1, f2, constant_part, split_constant) where split_constant is
    (||f1|| + ||f2||) / ||f - mean||, the measured topological-splitting
    constant for this input.
    """
    torus = B.torus
    vec = f.flatten()
    P = torus.num_points
    d = torus.lambda_dim
    mean = vec.reshape(P, d).mean(axis=0)
    const_vec = np.tile(mean, P)
    v = vec - const_vec
    D1 = underline_d_matrix(torus)
    D2 = underline_d_star_B_matrix(B)
    n1 = scipy.linalg.null_space(D1, rcond=rtol)
    n2 = scipy.linalg.null_space(D2, rcond=rtol)
    # remove constants from both null spaces (they lie in the intersection)
    const_basis = np.zeros((P * d, d), dtype=complex)
    for mask in range(d):
        col = np.zeros((P, d), dtype=complex)
        col[:, mask] = 1.0 / np.sqrt(P)
        const_basis[:, mask] = col.reshape(-1)
    def drop_consts(nspace):
        keep = nspace - const_basis @ (const_basis.conj().T @ nspace)
        u, s, _ = np.linalg.svd(keep, full_matrices=False)
        return u[:, s > 1e-10]
    U1 = drop_consts(n1)
    U2 = drop_consts(n2)
    stacked = np.hstack([U1, U2])
    coef, *_ = np.linalg.lstsq(stacked, v, rcond=None)
    v1 = U1 @ coef[:U1.shape[1]]
    v2 = U2 @ coef[U1.shape[1]:]
    resid = np.linalg.norm(stacked @ coef - v)
    vnorm = np.linalg.norm(v)
    if vnorm > 0 and resid > 1e-6 * vnorm:
        raise ValueError(f"Hodge splitting failed: residual {resid/vnorm:.2e}")
    f1 = Field.from_flat(torus, v1)
    f2 = Field.from_flat(torus, v2)
    c = ((np.linalg.norm(v1) + np.linalg.norm(v2)) / vnorm) if vnorm > 0 else 0.0
    return f1, f2, Field.from_flat(torus, const_vec), float(c)


# ---------------------------------------------------------------------------
# matrix interchange
# ---------------------------------------------------------------------------

def matrix_to_csv(op: OperatorMatrix, path) -> None:
    """Row-major dump with interleaved Re/Im columns."""
    e = op.entries
    out = np.empty((e.shape[0], 2 * e.shape[1]))
    out[:, 0::2] = e.real
    out[:, 1::2] = e.imag
    np.savetxt(path, out, delimiter=",", fmt="%.17g")


def matrix_from_csv(path, basis_tag: str = "full") -> OperatorMatrix:
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    return OperatorMatrix(raw[:, 0::2] + 1j * raw[:, 1::2], basis_tag=basis_tag)
