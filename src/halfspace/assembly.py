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
``grid`` and per-point Lambda-maps applied to column blocks).  The
curl-free basis ``hat_h1_basis`` is an implicit ``PlaneWaveBasis``: a
d x r orthonormal frame per Fourier mode, so every product with its column
matrix U is a unitary FFT over the grid axes plus a per-mode gather (U^H)
or scatter (U).  ``restrict`` applies an operator to grid columns made a
chunk at a time and compresses the images in Fourier space, where the
invariance leak is the part of each mode outside its frame.  An operator
that is a Fourier multiplier carries its per-mode symbols sigma_p
(``FieldOperator.mode_symbols``): the reflection N, and T_B and N_B when
all of B's grid maps are equal (constant coefficients).  Such an operator
is compressed exactly, mode by mode, to the blocks F_p^H sigma_p F_p, with
the exact leak and the exact norm max_p ||sigma_p||_2.  A frame therefore
never forms a (N^n 2^(n+1))^2 matrix, nor the dense N^n 2^(n+1) x m basis.
The constrained degree-k bases use the same structure.  With the pointwise
map G = N^+ + N^- B (invertible for accretive B: its normal block is B's),
a degree-k field f has d(f_tan) = 0 and d*((B f)_nor) = 0 exactly when
G f lies in

    W = (null d on tangential degree k) + (null d* on normal degree k),

so the constrained space is G^{-1} W.  W does not depend on B and splits
by Fourier mode: it is a ``PlaneWaveBasis`` whose frames are the per-mode
null vectors of the symbols of d and d*.  ``hat_hk_basis`` lifts it,
applies G^{-1} pointwise and orthonormalizes with one thin QR.
``hodge_split`` takes null(i m d) = null d (without the constants) and
null(B^{-1} i m d* B) = B^{-1} null d* (whole) from the same per-mode null
spaces.  The dense full-space matrices (``assemble_TB``, ``assemble_NB``,
``d_matrix``, ...) remain as test oracles and for the duality and
off-diagonal campaigns, which need the whole operator.

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

from . import algebra
from .grid import (CoefficientField, Field, Torus, _derivative_symbol,
                   d_columns, d_star_columns, partial_columns)

__all__ = [
    "OperatorMatrix",
    "SubspaceBasis",
    "PlaneWaveBasis",
    "PointwiseInversionError",
    "SubspaceInvarianceError",
    "derivative_matrix",
    "pointwise_operator",
    "d_matrix",
    "d_star_matrix",
    "m_full_matrix",
    "reflection_full_matrix",
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
    "duality_gram",
    "adjoint_in_duality",
    "hodge_split",
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
            return OperatorMatrix(self.entries @ other.entries)
        return self.entries @ other


def _as_columns(x: np.ndarray):
    """(x as a column block, whether x was a single vector)."""
    x = np.asarray(x, dtype=complex)
    return (x[:, None], True) if x.ndim == 1 else (x, False)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of the flattened field space,
    held as a dense matrix."""

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
        """Coordinates of the orthogonal projection of ``vec`` (a vector or
        a column block)."""
        # U^H vec without a conjugate copy of U
        return (np.asarray(vec).conj().T @ self.columns).conj().T

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.columns @ coords

    def column_block(self, a: int, b: int) -> np.ndarray:
        """Columns a..b-1 as a (ambient_dim, b - a) block."""
        return self.columns[:, a:b]

    def split(self, Z: np.ndarray):
        """(U^H Z, Z - U U^H Z) for a (ambient_dim, k) block Z."""
        C = self.to_coords(Z)
        return C, Z - self.columns @ C


class PlaneWaveBasis:
    """Orthonormal plane waves e^{i xi.x} v / sqrt(P), held implicitly.

    Fourier mode p (flat FFT order over the grid axes) carries the frame
    ``frames[p]``, a d x r matrix whose columns marked in ``present[p]`` are
    orthonormal Lambda vectors; the others are zero padding.  Coordinates
    run mode by mode and, inside a mode, frame column by frame column.
    Plane waves of different modes are orthogonal by discrete Fourier
    orthogonality, so orthonormality is certified per mode, on the frames.

    A product with the column matrix U is a unitary FFT over the grid axes
    plus a per-mode gather (U^H) or scatter (U); ``columns`` forms U itself,
    for the dense bases built from it and for tests.
    """

    def __init__(self, torus: Torus, frames: np.ndarray, present: np.ndarray,
                 label: str = "custom"):
        frames = np.array(frames, dtype=complex)
        present = np.array(present, dtype=bool)
        P, d = torus.num_points, torus.lambda_dim
        if (frames.ndim != 3 or frames.shape[:2] != (P, d)
                or present.shape != (P, frames.shape[2])):
            raise ValueError("expected (num_points, lambda_dim, r) frames and "
                             "a (num_points, r) mask")
        r = frames.shape[2]
        frames_h = np.ascontiguousarray(np.conj(np.swapaxes(frames, 1, 2)))
        # per mode, F^H F must be the identity on the present columns and
        # zero on the padding
        gram = frames_h @ frames
        gram[:, np.arange(r), np.arange(r)] -= present
        defect = float(np.max(np.linalg.norm(gram, axis=(1, 2)), initial=0.0))
        if defect > 1e-12 * r:
            raise ValueError(
                f"mode frames not orthonormal (worst defect {defect:.2e})")
        frames.flags.writeable = False
        present.flags.writeable = False
        self.torus = torus
        self.frames = frames
        self.present = present
        self.label = label
        self.gram_defect = defect
        self._frames_h = frames_h
        self._axes = tuple(range(torus.dim_n))
        self._dim = int(np.sum(present))

    @property
    def ambient_dim(self) -> int:
        return self.torus.num_points * self.torus.lambda_dim

    @property
    def dim(self) -> int:
        return self._dim

    def _spectrum(self, X: np.ndarray) -> np.ndarray:
        """Unitary FFT of a (P*d, k) block, as (P, d, k) mode slices."""
        t, k = self.torus, X.shape[1]
        spec = np.fft.fftn(X.reshape(t.shape + (t.lambda_dim, k)),
                           axes=self._axes, norm="ortho")
        return spec.reshape(t.num_points, t.lambda_dim, k)

    def _field(self, spec: np.ndarray) -> np.ndarray:
        """Inverse of ``_spectrum``: (P, d, k) mode slices to (P*d, k)."""
        t, k = self.torus, spec.shape[2]
        vals = np.fft.ifftn(spec.reshape(t.shape + (t.lambda_dim, k)),
                            axes=self._axes, norm="ortho")
        return vals.reshape(self.ambient_dim, k)

    def _gather(self, spec: np.ndarray) -> np.ndarray:
        """Frame coordinates F_p^H spec_p of every mode, in basis order."""
        return (self._frames_h @ spec)[self.present]

    def _scatter(self, coords: np.ndarray) -> np.ndarray:
        """Mode slices F_p c_p of (m, k) coordinates."""
        padded = np.zeros(self.present.shape + (coords.shape[1],),
                          dtype=complex)
        padded[self.present] = coords
        return self.frames @ padded

    def to_coords(self, vec: np.ndarray) -> np.ndarray:
        """U^H vec for a vector or a (P*d, k) column block."""
        X, single = _as_columns(vec)
        C = self._gather(self._spectrum(X))
        return C[:, 0] if single else C

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        """U coords for a coordinate vector or an (m, k) block."""
        C, single = _as_columns(coords)
        X = self._field(self._scatter(C))
        return X[:, 0] if single else X

    def column_block(self, a: int, b: int) -> np.ndarray:
        """Columns a..b-1 of U as a (P*d, b - a) block."""
        unit = np.zeros((self.dim, b - a), dtype=complex)
        unit[np.arange(a, b), np.arange(b - a)] = 1.0
        return self.from_coords(unit)

    @property
    def columns(self) -> np.ndarray:
        """The dense (P*d, m) column matrix U, formed on every access."""
        return self.column_block(0, self.dim)

    def split(self, Z: np.ndarray):
        """(U^H Z, leak) for a (P*d, k) block Z.  The leak is Z - U U^H Z in
        unitary Fourier coefficients, the part of each mode outside its
        frame: it has the singular values of Z - U U^H Z."""
        spec = self._spectrum(np.asarray(Z, dtype=complex))
        C = self._gather(spec)
        spec -= self._scatter(C)
        return C, spec.reshape(self.ambient_dim, -1)

    def restrict_multiplier(self, symbols: np.ndarray):
        """U^H op U for the Fourier multiplier op with per-mode symbols
        ``symbols`` (shape (P, d, d)), exactly per mode: block p is
        F_p^H sigma_p F_p.  Returns it with the exact 2-norm of the leak
        (I - F_p F_p^H) sigma_p F_p, which is block diagonal too, so its
        norm is the largest per-mode one."""
        SF = symbols @ self.frames
        blocks = self._frames_h @ SF
        leak_norm = float(np.max(np.linalg.norm(
            SF - self.frames @ blocks, ord=2, axis=(1, 2)), initial=0.0))
        index = np.full(self.present.shape, -1)
        index[self.present] = np.arange(self.dim)
        both = self.present[:, :, None] & self.present[:, None, :]
        rows = np.broadcast_to(index[:, :, None], both.shape)[both]
        cols = np.broadcast_to(index[:, None, :], both.shape)[both]
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[rows, cols] = blocks[both]
        return out, leak_norm


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


def coefficient_matrix(B: CoefficientField) -> np.ndarray:
    """Dense matrix of pointwise multiplication by B."""
    return pointwise_operator(B.torus, B.maps)


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
    return OperatorMatrix(pointwise_operator(B.torus, _mb_maps(B, Binv)))


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
    return OperatorMatrix(T)


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
    to_op = lambda maps: OperatorMatrix(pointwise_operator(B.torus, maps))
    return to_op(P_plus), to_op(P_minus), to_op(P_plus - P_minus)


# ---------------------------------------------------------------------------
# matrix-free operators
# ---------------------------------------------------------------------------

class FieldOperator:
    """Operator on the full field space known only by its action.

    ``apply`` and ``adjoint`` map column blocks of shape grid_shape + (d, k)
    (k fields side by side, the Lambda index second to last) to the same
    shape; ``matmat``, ``@`` and ``rmatmat`` take flattened (P*d, k)
    blocks.  No (P*d)^2 matrix is ever formed.  ``mode_symbols`` is set
    when the operator is a Fourier multiplier: shape (P, d, d) in flat FFT
    order, it maps the plane wave e^{i xi_p.x} v to e^{i xi_p.x} sigma_p v.
    A constant pointwise map is the multiplier whose modes all share one
    symbol.  It is ``None`` when the operator couples modes.
    """

    def __init__(self, torus: Torus, apply, adjoint,
                 mode_symbols: np.ndarray | None = None):
        self.torus = torus
        self.apply = apply
        self.adjoint = adjoint
        self.mode_symbols = mode_symbols

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

    def norm(self) -> float:
        """The 2-norm: exact, max_p ||sigma_p||_2, for a multiplier, and the
        ``norm_estimate`` lower bound otherwise."""
        if self.mode_symbols is None:
            return self.norm_estimate()
        return float(np.max(np.linalg.norm(self.mode_symbols, ord=2,
                                           axis=(1, 2)), initial=0.0))

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


def _common_map(maps: np.ndarray) -> np.ndarray | None:
    """The (d, d) map of a grid of Lambda-maps that are all exactly equal,
    else None."""
    d = maps.shape[-1]
    flat = maps.reshape(-1, d, d)
    return flat[0] if np.all(flat == flat[0]) else None


def _mode_symbols(torus: Torus, kind: str) -> np.ndarray:
    """Per-mode symbols of d or d* in flat FFT order, shape (P, d, d)."""
    d = torus.lambda_dim
    return _derivative_symbol(torus, kind).reshape(torus.num_points, d, d)


def _pointwise_field_operator(torus: Torus,
                              maps: np.ndarray) -> FieldOperator:
    """Per-point Lambda-maps (grid_shape + (d, d), or one constant (d, d)
    map) as a matrix-free operator; a constant map is a multiplier."""
    maps_h = _herm(maps)
    symbols = None
    if maps.ndim == 2:
        d = torus.lambda_dim
        symbols = np.broadcast_to(maps, (torus.num_points, d, d))
    return FieldOperator(torus, lambda X: maps @ X, lambda X: maps_h @ X,
                         mode_symbols=symbols)


def TB_operator(B: CoefficientField) -> FieldOperator:
    """T_B = M_B^{-1} (m d + B^{-1} m d* B), matrix free.

    Batched FFT derivatives along the grid axes composed with the constant
    map m and the pointwise maps B, B^{-1} and M_B^{-1}; the adjoint
    applies the conjugate-transposed maps and d* = d^H in reverse order.
    When all of B's grid maps are equal, T_B is a Fourier multiplier with
    the symbols sigma_p = C1 D(xi_p) + C2 D*(xi_p) B.
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

    symbols = None
    B0 = _common_map(Bm)
    if B0 is not None:
        d = torus.lambda_dim
        C1_0, C2_0 = (C.reshape(-1, d, d)[0] for C in (C1, C2))
        symbols = (C1_0 @ _mode_symbols(torus, "d")
                   + C2_0 @ (_mode_symbols(torus, "d_star") @ B0))
    return FieldOperator(torus, apply, adjoint, mode_symbols=symbols)


def NB_operator(B: CoefficientField) -> FieldOperator:
    """The perturbed reflection N_B = N_B^+ - N_B^- ("hat" splitting) as a
    pointwise operator; a constant map, and so a multiplier, when all of
    B's grid maps are equal."""
    P_plus, P_minus = _nb_maps(B, "hat")
    maps = P_plus - P_minus
    if _common_map(B.maps) is not None:
        maps = maps.reshape((-1,) + maps.shape[-2:])[0]
    return _pointwise_field_operator(B.torus, maps)


def reflection_operator(torus: Torus) -> FieldOperator:
    """The boundary reflection N as a constant pointwise operator."""
    return _pointwise_field_operator(
        torus, algebra.reflection_matrix(torus.dim_n))


# ---------------------------------------------------------------------------
# constrained subspaces
# ---------------------------------------------------------------------------

def hat_h1_basis(torus: Torus) -> PlaneWaveBasis:
    """Orthonormal basis of the curl-free vector fields, as plane waves.

    Per Fourier mode xi != 0 the frame is {e_0, xi/|xi|} inside the vector
    component; for n = 1 that is every vector field.  The zero mode keeps
    all constant vectors (they form the discrete kernel of the Dirac
    operator and are handled by the kernel policy downstream), so at n = 2
    its frame is {e_0, e_1, e_2}.
    """
    n = torus.dim_n
    d = torus.lambda_dim
    P = torus.num_points
    r = n + 1  # e_0 and the tangential vectors at the zero mode
    frames = np.zeros((P, d, r))
    present = np.zeros((P, r), dtype=bool)
    present[:, :2] = True
    frames[:, 1, 0] = 1.0  # e_0
    if n == 1:
        frames[:, 2, 1] = 1.0  # e_1
    else:
        N = torus.points_per_axis
        ks = np.fft.fftfreq(N, d=1.0 / N).astype(int)
        k1, k2 = (k.reshape(-1) for k in np.meshgrid(ks, ks, indexing="ij"))
        norm_k = np.hypot(k1, k2)
        norm_k[0] = 1.0
        frames[:, 2, 1] = k1 / norm_k
        frames[:, 4, 1] = k2 / norm_k
        # the zero mode: e_1 and e_2
        frames[0, 2, 1] = 1.0
        frames[0, 4, 2] = 1.0
        present[0, 2] = True
    return PlaneWaveBasis(torus, frames, present, label="hat_h1")


def _null_plane_waves(torus: Torus, constraints: np.ndarray,
                      embed: np.ndarray, rtol: float) -> PlaneWaveBasis:
    """The plane waves e^{i xi_p.x} embed v with constraints[p] v = 0.

    ``constraints`` is a (P, rows, c) stack of per-mode blocks acting on
    the coordinates of the (d, c) isometry ``embed`` (rows >= c).  Mode p
    keeps the right singular vectors of its block whose singular values are
    at most ``rtol`` times the largest singular value of all blocks: one
    stacked SVD of P small blocks.
    """
    _, s, vh = np.linalg.svd(constraints, full_matrices=False)
    null = s <= rtol * np.max(s, initial=0.0)
    vecs = np.conj(np.swapaxes(vh, 1, 2)) * null[:, None, :]
    return PlaneWaveBasis(torus, embed @ vecs, null)


def hat_hk_basis(B: CoefficientField, k: int) -> SubspaceBasis:
    """Orthonormal basis of the degree-k fields with d(f_tan) = 0 and
    d*((B f)_nor) = 0: G^{-1} W for G = N^+ + N^- B and the per-mode null
    space W of d on tangential and d* on normal degree-k fields (see the
    module docstring).  The null-space cut is 1e-10 relative to the largest
    singular value of the per-mode constraint symbols."""
    torus = B.torus
    n = torus.dim_n
    if not 0 <= k <= n + 1:
        raise ValueError(f"degree k={k} out of range")
    embed = np.eye(torus.lambda_dim)[:, algebra.mask_degrees(n) == k]
    tan = algebra.tangential_proj_matrix(n)
    nor = algebra.normal_proj_matrix(n)
    constraints = np.concatenate(
        [_mode_symbols(torus, "d") @ (tan @ embed),
         _mode_symbols(torus, "d_star") @ (nor @ embed)], axis=1)
    W = _null_plane_waves(torus, constraints, embed, 1e-10)
    if W.dim == 0:
        raise ValueError(f"constrained degree-{k} subspace is empty")
    Ginv = _pointwise_inverse(torus, tan + nor @ B.maps, "N^+ + N^- B")
    q = np.linalg.qr(_pointwise_field_operator(torus, Ginv) @ W.columns)[0]
    return SubspaceBasis(q, label=f"hat_hk(k={k})")


def restrict(op: OperatorMatrix | FieldOperator,
             basis: SubspaceBasis | PlaneWaveBasis,
             invariance_tol: float | None = None) -> OperatorMatrix:
    """Compress an operator to a subspace: U^H . op . U.

    ``op`` is a dense OperatorMatrix or a matrix-free FieldOperator; it is
    applied to the basis columns a chunk at a time, and each chunk of
    images is compressed by ``basis.split`` (for a ``PlaneWaveBasis``, in
    Fourier space).  A Fourier multiplier on a ``PlaneWaveBasis`` is
    compressed exactly, per mode.  If ``invariance_tol`` is given, also
    measures the invariance defect ||(I - P) op P||_2 / ||op||_2, attaches it
    to the returned matrix as ``invariance_defect`` and raises a
    SubspaceInvarianceError if it exceeds the tolerance.  The leak norm is
    exact.  ||op||_2 is exact for a dense operator and for a multiplier,
    and the ``norm_estimate`` lower bound for any other matrix-free one, so
    that defect is never below the exact value.
    """
    if basis.ambient_dim != op.dim:
        raise ValueError("basis ambient dimension does not match operator")
    symbols = getattr(op, "mode_symbols", None)
    if symbols is not None and isinstance(basis, PlaneWaveBasis):
        compressed, leak_norm = basis.restrict_multiplier(symbols)
    else:
        k = basis.dim
        compressed = np.empty((k, k), dtype=complex)
        leak = (None if invariance_tol is None
                else np.empty((basis.ambient_dim, k), dtype=complex))
        # a bounded number of columns at a time, so that the working
        # arrays stay small
        step = max(1, _RESTRICT_CHUNK // basis.ambient_dim)
        for a in range(0, k, step):
            b = min(a + step, k)
            Z = op @ basis.column_block(a, b)
            if leak is None:
                compressed[:, a:b] = basis.to_coords(Z)
            else:
                compressed[:, a:b], leak[:, a:b] = basis.split(Z)
        if leak is not None:
            # rows that are exactly zero carry no norm: the plane-wave leak
            # is zero in every Lambda component an operator never reaches
            rows = leak[np.any(leak, axis=1)]
            del leak
            leak_norm = np.linalg.norm(rows, 2) if rows.size else 0.0
    defect = None
    if invariance_tol is not None:
        defect = 0.0
        if leak_norm > 0:  # a zero leak needs no operator norm
            norm = (np.linalg.norm(op.entries, 2)
                    if isinstance(op, OperatorMatrix) else op.norm())
            defect = float(leak_norm / max(norm, 1e-300))
        if defect > invariance_tol:
            raise SubspaceInvarianceError(
                f"operator does not preserve subspace {basis.label!r}: "
                f"relative defect {defect:.3e} > {invariance_tol:.1e}", defect)
    return OperatorMatrix(compressed, invariance_defect=defect)


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


def adjoint_in_duality(op: OperatorMatrix, B: CoefficientField) -> OperatorMatrix:
    """The operator T' with <T f, g>_B = <f, T' g>_B for all f, g."""
    S = duality_gram(B)
    # <Tf, g> = g^H S T f and <f, T'g> = g^H T'^H S f, so T'^H = S T S^{-1}.
    T_prime_H = S @ op.entries @ np.linalg.inv(S)
    return OperatorMatrix(T_prime_H.conj().T)


# ---------------------------------------------------------------------------
# Hodge-type splitting
# ---------------------------------------------------------------------------

def hodge_split(B: CoefficientField, f: Field):
    """Split f (minus its grid mean) as f1 + f2 with f1 in null(i m d) and
    f2 in null(B^{-1} i m d* B), both mean free.

    The null spaces come from the per-mode null spaces of the symbols of d
    and d*: null(i m d) = null d and null(B^{-1} i m d* B) = B^{-1} null d*,
    cut at 1e-9 relative to the largest symbol singular value.  The
    constants are taken out of null d only: f1 is mean free, and so is
    f2 = (f - mean) - f1.

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
    eye = np.eye(d)
    n1 = _null_plane_waves(torus, _mode_symbols(torus, "d"), eye,
                           1e-9).columns
    Binv = _pointwise_inverse(torus, B.maps, "coefficient map B")
    n2 = _pointwise_field_operator(torus, Binv) @ _null_plane_waves(
        torus, _mode_symbols(torus, "d_star"), eye, 1e-9).columns
    # the constants lie in null d and in null d*, so they are taken out of
    # null d only (what is left of it is mean free); B^{-1} null d* stays
    # whole, since for variable B the fields B^{-1} c are not constant and
    # projecting the constants out would leave null(B^{-1} i m d* B)
    consts = np.zeros((P, d, d), dtype=complex)
    consts[:, np.arange(d), np.arange(d)] = 1.0 / np.sqrt(P)
    consts = consts.reshape(P * d, d)
    u, s, _ = np.linalg.svd(n1 - consts @ (consts.conj().T @ n1),
                            full_matrices=False)
    U1 = u[:, s > 1e-10]
    U2 = np.linalg.qr(n2)[0]
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
