"""Periodic spectral discretization of the boundary R^n.

Multivector-valued fields live on an n-dimensional torus (n in {1, 2}) with
N grid points per axis.  Derivatives are exact Fourier multipliers; the grid
inner product uses the equal-weight (trapezoidal) rule with weight (L/N)^n,
which is exact for band-limited fields and makes Parseval an identity.

Pointwise accretive coefficients B(x) act degree-by-degree on the exterior
algebra; discontinuous profiles (e.g. a sign function) are periodized as
piecewise-constant two-interval profiles.  The coefficients are only ever
applied pointwise, never differentiated, so spectral derivatives of the
fields stay exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import lambda_dim, mask_degrees, mask_label

__all__ = [
    "Torus",
    "Field",
    "CoefficientField",
    "fourier_forward",
    "fourier_inverse",
    "d_op",
    "d_star_op",
    "d_columns",
    "d_star_columns",
    "partial_columns",
    "gradient_of",
    "underline_d",
    "underline_d_star_B",
    "inner_product",
    "norm",
    "apply_coeff",
    "identity_coefficients",
    "vector_block_coefficients",
    "field_from_function",
    "field_to_csv",
    "field_from_csv",
]


@dataclass(frozen=True)
class Torus:
    """Periodic grid [0, L)^n with N samples per axis, x_j = L*k/N."""

    dim_n: int
    length: float = 2.0 * np.pi
    points_per_axis: int = 32

    def __post_init__(self):
        if self.dim_n not in (1, 2):
            raise ValueError("dim_n must be 1 or 2")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("length must be positive and finite")
        N = self.points_per_axis
        if N < 8 or (N & (N - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 8")

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim_n

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** self.dim_n

    @property
    def weight(self) -> float:
        """Quadrature weight (L/N)^n of one grid cell."""
        return (self.length / self.points_per_axis) ** self.dim_n

    @property
    def lambda_dim(self) -> int:
        return lambda_dim(self.dim_n)

    def axis_coordinates(self) -> np.ndarray:
        N, L = self.points_per_axis, self.length
        return L * np.arange(N) / N

    def coordinates(self) -> list:
        """Meshgrid coordinate arrays, one per axis, each of grid shape."""
        x = self.axis_coordinates()
        if self.dim_n == 1:
            return [x]
        return list(np.meshgrid(x, x, indexing="ij"))

    def wavenumbers(self) -> list:
        """Per-axis frequency arrays xi_k = 2*pi*k/L in FFT order."""
        N, L = self.points_per_axis, self.length
        xi = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N) / L
        if self.dim_n == 1:
            return [xi]
        return list(np.meshgrid(xi, xi, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Grid of multivectors: values array of shape grid_shape + (2^(n+1),)."""

    torus: Torus
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        expected = self.torus.shape + (self.torus.lambda_dim,)
        if v.shape != expected:
            raise ValueError(f"expected values of shape {expected}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)
        self.values.flags.writeable = False

    def __add__(self, other: "Field") -> "Field":
        _check_same_torus(self, other)
        return Field(self.torus, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_torus(self, other)
        return Field(self.torus, self.values - other.values)

    def __mul__(self, z) -> "Field":
        return Field(self.torus, self.values * z)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.torus, -self.values)

    def component(self, mask: int) -> np.ndarray:
        """Scalar grid function multiplying the basis element of ``mask``."""
        return self.values[..., mask]

    def flatten(self) -> np.ndarray:
        """Point-major coefficient vector of length num_points * 2^(n+1)."""
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, torus: Torus, vec: np.ndarray) -> "Field":
        return cls(torus, np.asarray(vec, dtype=complex).reshape(
            torus.shape + (torus.lambda_dim,)))

    @classmethod
    def zero(cls, torus: Torus) -> "Field":
        return cls(torus, np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex))


def _check_same_torus(f, g) -> None:
    if f.torus != g.torus:
        raise ValueError("fields live on different tori")


# ---------------------------------------------------------------------------
# transforms and derivatives
# ---------------------------------------------------------------------------

def fourier_forward(f: Field) -> Field:
    """Componentwise forward DFT over the grid axes (numpy convention)."""
    axes = tuple(range(f.torus.dim_n))
    return Field(f.torus, np.fft.fftn(f.values, axes=axes))


def fourier_inverse(f: Field) -> Field:
    axes = tuple(range(f.torus.dim_n))
    return Field(f.torus, np.fft.ifftn(f.values, axes=axes))


@lru_cache(maxsize=None)
def _derivative_symbol(torus: Torus, kind: str) -> np.ndarray:
    """Per-mode symbol sum_j i xi_j M_j of d (M_j = e_j ^) or of d*
    (M_j = -e_j _|), shape grid_shape + (2^(n+1), 2^(n+1))."""
    n = torus.dim_n
    if kind == "d":
        maps = [algebra.left_wedge_matrix(n, 1 << j) for j in range(1, n + 1)]
    else:
        maps = [-algebra.left_hook_matrix(n, 1 << j) for j in range(1, n + 1)]
    symbol = sum((1j * xi)[..., None, None] * M
                 for xi, M in zip(torus.wavenumbers(), maps))
    symbol.flags.writeable = False
    return symbol


def _fourier_multiplier(torus: Torus, cols: np.ndarray,
                        kind: str) -> np.ndarray:
    """d or d* applied to column blocks: one FFT pair over the grid axes.

    ``cols`` has shape grid_shape + (2^(n+1), k): k fields side by side,
    the Lambda index second to last.
    """
    axes = tuple(range(torus.dim_n))
    spec = np.fft.fftn(cols, axes=axes)
    return np.fft.ifftn(_derivative_symbol(torus, kind) @ spec, axes=axes)


def d_columns(torus: Torus, cols: np.ndarray) -> np.ndarray:
    """Exterior derivative of column blocks (see ``_fourier_multiplier``)."""
    return _fourier_multiplier(torus, cols, "d")


def d_star_columns(torus: Torus, cols: np.ndarray) -> np.ndarray:
    """Interior derivative of column blocks (see ``_fourier_multiplier``)."""
    return _fourier_multiplier(torus, cols, "d_star")


def partial_columns(torus: Torus, cols: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis of scalar grid functions as column blocks: one FFT pair
    along ``axis``; ``cols`` has shape grid_shape + (k,)."""
    xi = torus.wavenumbers()[axis][..., None]
    return np.fft.ifft(1j * xi * np.fft.fft(cols, axis=axis), axis=axis)


def d_op(f: Field) -> Field:
    """Exterior derivative d f = sum_j e_j ^ (d/dx_j f), j = 1..n."""
    return Field(f.torus, d_columns(f.torus, f.values[..., None])[..., 0])


def d_star_op(f: Field) -> Field:
    """Interior derivative d* f = -sum_j e_j _| (d/dx_j f), j = 1..n."""
    return Field(f.torus,
                 d_star_columns(f.torus, f.values[..., None])[..., 0])


def gradient_of(torus: Torus, scalar: np.ndarray) -> Field:
    """Tangential gradient d(psi) of a scalar potential, as a vector Field."""
    vals = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    vals[..., 0] = scalar
    return d_op(Field(torus, vals))


def underline_d(f: Field) -> Field:
    """The rotated nilpotent derivative i*m(d f)."""
    df = d_op(f)
    m = algebra.m_matrix(f.torus.dim_n)
    return Field(f.torus, 1j * (df.values @ m.T))


def underline_d_star_B(f: Field, B: "CoefficientField") -> Field:
    """B^{-1} (i m d*) B f, the coefficient-twisted interior counterpart."""
    Bf = apply_coeff(B, f)
    ds = d_star_op(Bf)
    m = algebra.m_matrix(f.torus.dim_n)
    mid = Field(f.torus, 1j * (ds.values @ m.T))
    return apply_coeff(B.inverse(), mid)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def inner_product(f: Field, g: Field) -> complex:
    """(f, g) = (L/N)^n sum_x (f(x), g(x)); conjugate-linear in g."""
    _check_same_torus(f, g)
    return complex(f.torus.weight * np.sum(f.values * np.conj(g.values)))


def norm(f: Field) -> float:
    return float(np.sqrt(f.torus.weight) * np.linalg.norm(f.values))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

class CoefficientField:
    """Pointwise degree-preserving accretive map B(x) on the exterior algebra.

    maps: array of shape grid_shape + (d, d) with d = 2^(n+1); each slice is
    block diagonal over the degree decomposition.  The accretivity constant
    kappa is the minimum (over the grid) eigenvalue of the hermitian part
    (B + B*)/2 and sup_norm the maximum spectral norm.
    """

    def __init__(self, torus: Torus, maps: np.ndarray, _skip_check: bool = False):
        maps = np.asarray(maps, dtype=complex)
        d = torus.lambda_dim
        expected = torus.shape + (d, d)
        if maps.shape != expected:
            raise ValueError(f"expected maps of shape {expected}, got {maps.shape}")
        if not _skip_check:
            degs = mask_degrees(torus.dim_n)
            off = degs[:, None] != degs[None, :]
            worst = np.max(np.abs(maps[..., off]))
            if worst > 1e-13 * max(1.0, np.max(np.abs(maps))):
                raise ValueError(
                    "coefficient map is not degree-preserving "
                    f"(off-degree magnitude {worst:.3e})")
        self.torus = torus
        self.maps = maps
        self.maps.flags.writeable = False
        flat = maps.reshape(-1, d, d)
        herm = 0.5 * (flat + np.conj(np.swapaxes(flat, -1, -2)))
        self.kappa = float(np.min(np.linalg.eigvalsh(herm)))
        self.sup_norm = float(np.max(np.linalg.svd(flat, compute_uv=False)))

    def inverse(self) -> "CoefficientField":
        return CoefficientField(self.torus, np.linalg.inv(self.maps),
                                _skip_check=True)

    def adjoint(self) -> "CoefficientField":
        """Pointwise hermitian adjoint B*(x)."""
        return CoefficientField(
            self.torus, np.conj(np.swapaxes(self.maps, -1, -2)),
            _skip_check=True)

    def is_accretive(self) -> bool:
        return self.kappa > 0

    def vector_block(self) -> np.ndarray:
        """Restriction A = B^1 to 1-vectors: array grid_shape + (n+1, n+1)."""
        n = self.torus.dim_n
        idx = [1 << i for i in range(n + 1)]
        return self.maps[..., idx, :][..., :, idx]


def apply_coeff(B: CoefficientField, f: Field) -> Field:
    if B.torus != f.torus:
        raise ValueError("coefficient and field tori differ")
    out = np.einsum("...ij,...j->...i", B.maps, f.values)
    return Field(f.torus, out)


def identity_coefficients(torus: Torus) -> CoefficientField:
    d = torus.lambda_dim
    maps = np.broadcast_to(np.eye(d, dtype=complex),
                           torus.shape + (d, d)).copy()
    return CoefficientField(torus, maps, _skip_check=True)


def vector_block_coefficients(torus: Torus, A: np.ndarray) -> CoefficientField:
    """B = I + A + I + ... : A acts on 1-vectors, identity on other degrees.

    A has shape (n+1, n+1) for constant coefficients or grid_shape + (n+1, n+1)
    for variable ones, indexed by the vector basis e_0, ..., e_n.
    """
    n = torus.dim_n
    d = torus.lambda_dim
    A = np.asarray(A, dtype=complex)
    if A.shape == (n + 1, n + 1):
        A = np.broadcast_to(A, torus.shape + (n + 1, n + 1))
    elif A.shape != torus.shape + (n + 1, n + 1):
        raise ValueError("vector block has wrong shape")
    maps = np.zeros(torus.shape + (d, d), dtype=complex)
    maps[...] = np.eye(d)
    idx = [1 << i for i in range(n + 1)]
    for a, ma in enumerate(idx):
        for b, mb in enumerate(idx):
            maps[..., ma, mb] = A[..., a, b]
    return CoefficientField(torus, maps)


# ---------------------------------------------------------------------------
# construction and CSV interchange
# ---------------------------------------------------------------------------

def field_from_function(torus: Torus, fn) -> Field:
    """Sample fn(x) -> coefficient array (or MultiVector) on the grid."""
    values = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    coords = torus.coordinates()
    for idx in np.ndindex(*torus.shape):
        x = np.array([c[idx] for c in coords])
        v = fn(x)
        if isinstance(v, algebra.MultiVector):
            v = v.coeffs
        values[idx] = v
    return Field(torus, values)


def field_to_csv(f: Field, path) -> None:
    """Write a field as CSV: x-coordinate columns, then Re/Im per mask.

    Masks appear in increasing order and are named by bit strings with
    index 0 first (header columns re_<bits>, im_<bits>).
    """
    n = f.torus.dim_n
    d = f.torus.lambda_dim
    coords = f.torus.coordinates()
    header = [f"x{j}" for j in range(n)]
    for mask in range(d):
        bits = mask_label(n, mask)
        header += [f"re_{bits}", f"im_{bits}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx in np.ndindex(*f.torus.shape):
            row = [repr(float(c[idx])) for c in coords]
            for mask in range(d):
                z = f.values[idx + (mask,)]
                row += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(row)


def field_from_csv(torus: Torus, path) -> Field:
    """Read a field written by :func:`field_to_csv`; grid must match."""
    n = torus.dim_n
    d = torus.lambda_dim
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [f"x{j}" for j in range(n)]
        for mask in range(d):
            bits = mask_label(n, mask)
            expected += [f"re_{bits}", f"im_{bits}"]
        if header != expected:
            raise ValueError("CSV header does not match the expected field format")
        rows = list(reader)
    if len(rows) != torus.num_points:
        raise ValueError(
            f"expected {torus.num_points} rows, found {len(rows)}")
    values = np.zeros(torus.shape + (d,), dtype=complex)
    for row, idx in zip(rows, np.ndindex(*torus.shape)):
        nums = [float(v) for v in row]
        for mask in range(d):
            re = nums[n + 2 * mask]
            im = nums[n + 2 * mask + 1]
            values[idx + (mask,)] = re + 1j * im
    return Field(torus, values)
