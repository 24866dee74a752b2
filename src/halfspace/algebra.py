"""Complex exterior algebra of R^{n+1} with a bitmask-indexed basis.

A multivector over R^{n+1} is stored as 2^(n+1) complex coefficients.  The
coefficient at position ``b`` belongs to the basis element ``e_s`` where
``s`` is the subset of {0, ..., n} whose characteristic bitmask is ``b``
(bit ``i`` set means index ``i`` is in ``s``), with indices taken in
increasing order inside ``e_s``.

Every sign in the algebra flows from a single counting function
``sigma_count``, which eliminates sign-drift bugs between the wedge and
interior (hook) products.  Index 0 plays the role of the direction normal
to the boundary; the operators ``mu`` (wedge by e_0), ``mu_star`` (hook by
e_0) and their sum ``m`` encode the normal/tangential structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MultiVector",
    "lambda_dim",
    "sigma_count",
    "basis_element",
    "scalar",
    "wedge",
    "hook",
    "mu",
    "mu_star",
    "m_op",
    "dot",
    "degree_part",
    "mask_degrees",
    "normal_mask",
    "left_wedge_matrix",
    "left_hook_matrix",
    "mu_matrix",
    "mu_star_matrix",
    "m_matrix",
    "normal_proj_matrix",
    "tangential_proj_matrix",
    "reflection_matrix",
    "mask_label",
]


def lambda_dim(dim_n: int) -> int:
    """Dimension 2^(n+1) of the exterior algebra over R^(n+1)."""
    return 1 << (dim_n + 1)


def sigma_count(s: int, t: int) -> int:
    """Number of index pairs (i, j) with i in s, j in t and i > j."""
    count = 0
    rest = s
    while rest:
        i = (rest & -rest).bit_length() - 1
        count += bin(t & ((1 << i) - 1)).count("1")
        rest &= rest - 1
    return count


@dataclass(frozen=True)
class MultiVector:
    """Element of the complex exterior algebra of R^(n+1).

    Immutable; all operations return fresh instances.
    """

    dim_n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (lambda_dim(self.dim_n),):
            raise ValueError(
                f"expected {lambda_dim(self.dim_n)} coefficients, got {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)
        self.coeffs.flags.writeable = False

    def __add__(self, other: "MultiVector") -> "MultiVector":
        _check_same_dim(self, other)
        return MultiVector(self.dim_n, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        _check_same_dim(self, other)
        return MultiVector(self.dim_n, self.coeffs - other.coeffs)

    def __mul__(self, z) -> "MultiVector":
        return MultiVector(self.dim_n, self.coeffs * z)

    __rmul__ = __mul__

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.dim_n, -self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _check_same_dim(f: MultiVector, g: MultiVector) -> None:
    if f.dim_n != g.dim_n:
        raise ValueError(f"dimension mismatch: n={f.dim_n} vs n={g.dim_n}")


def basis_element(dim_n: int, mask: int) -> MultiVector:
    """The basis multivector e_s for the subset with bitmask ``mask``."""
    if not 0 <= mask < lambda_dim(dim_n):
        raise ValueError(f"mask {mask} out of range for n={dim_n}")
    c = np.zeros(lambda_dim(dim_n), dtype=complex)
    c[mask] = 1.0
    return MultiVector(dim_n, c)


def scalar(dim_n: int, value=1.0) -> MultiVector:
    """The scalar multivector value * e_emptyset."""
    c = np.zeros(lambda_dim(dim_n), dtype=complex)
    c[0] = value
    return MultiVector(dim_n, c)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def wedge(f: MultiVector, g: MultiVector) -> MultiVector:
    """Exterior product f ^ g.

    Bilinear extension of e_s ^ e_t = (-1)^sigma(s,t) e_{s union t} for
    disjoint s, t, and zero when s and t overlap.
    """
    _check_same_dim(f, g)
    d = lambda_dim(f.dim_n)
    out = np.zeros(d, dtype=complex)
    fc, gc = f.coeffs, g.coeffs
    for s in range(d):
        if fc[s] == 0:
            continue
        for t in range(d):
            if gc[t] == 0 or (s & t):
                continue
            out[s | t] += _sign(s, t) * fc[s] * gc[t]
    return MultiVector(f.dim_n, out)


def hook(f: MultiVector, g: MultiVector) -> MultiVector:
    """Left interior product f _| g.

    Bilinear extension of e_s _| e_t = (-1)^sigma(s, t\\s) e_{t\\s} when
    s is a subset of t, and zero otherwise.  Adjoint to wedging by the
    conjugate: (a _| f, g) = (f, a ^ g) for real a.
    """
    _check_same_dim(f, g)
    d = lambda_dim(f.dim_n)
    out = np.zeros(d, dtype=complex)
    fc, gc = f.coeffs, g.coeffs
    for s in range(d):
        if fc[s] == 0:
            continue
        for t in range(d):
            if gc[t] == 0 or (s & t) != s:
                continue
            out[t ^ s] += _sign(s, t ^ s) * fc[s] * gc[t]
    return MultiVector(f.dim_n, out)


@lru_cache(maxsize=None)
def _sign(s: int, t: int) -> float:
    return -1.0 if sigma_count(s, t) % 2 else 1.0


# ---------------------------------------------------------------------------
# normal / tangential structure
# ---------------------------------------------------------------------------

def mu(f: MultiVector) -> MultiVector:
    """mu f := e_0 ^ f."""
    return wedge(basis_element(f.dim_n, 1), f)


def mu_star(f: MultiVector) -> MultiVector:
    """mu* f := e_0 _| f."""
    return hook(basis_element(f.dim_n, 1), f)


def m_op(f: MultiVector) -> MultiVector:
    """m := mu + mu*; satisfies m^2 = I."""
    return mu(f) + mu_star(f)


def dot(f: MultiVector, g: MultiVector) -> complex:
    """Bilinear pairing sum_s f_s g_s (no conjugation)."""
    _check_same_dim(f, g)
    return complex(np.sum(f.coeffs * g.coeffs))


def degree_part(f: MultiVector, k: int) -> MultiVector:
    """The k-vector part of f (basis subsets of size k)."""
    degs = mask_degrees(f.dim_n)
    return MultiVector(f.dim_n, np.where(degs == k, f.coeffs, 0.0))


# ---------------------------------------------------------------------------
# cached structural arrays and matrices (shared by the grid machinery)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mask_degrees(dim_n: int) -> np.ndarray:
    """popcount of every basis mask; read-only array of length 2^(n+1)."""
    degs = np.array([bin(b).count("1") for b in range(lambda_dim(dim_n))])
    degs.flags.writeable = False
    return degs


@lru_cache(maxsize=None)
def normal_mask(dim_n: int) -> np.ndarray:
    """Boolean array: True at masks whose subset contains index 0."""
    mask = np.array([bool(b & 1) for b in range(lambda_dim(dim_n))])
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def left_wedge_matrix(dim_n: int, s: int) -> np.ndarray:
    """Matrix of f -> e_s ^ f on coefficient vectors."""
    d = lambda_dim(dim_n)
    M = np.zeros((d, d))
    for t in range(d):
        if s & t:
            continue
        M[s | t, t] = _sign(s, t)
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def left_hook_matrix(dim_n: int, s: int) -> np.ndarray:
    """Matrix of f -> e_s _| f on coefficient vectors."""
    d = lambda_dim(dim_n)
    M = np.zeros((d, d))
    for t in range(d):
        if (s & t) != s:
            continue
        M[t ^ s, t] = _sign(s, t ^ s)
    M.flags.writeable = False
    return M


def mu_matrix(dim_n: int) -> np.ndarray:
    return left_wedge_matrix(dim_n, 1)


def mu_star_matrix(dim_n: int) -> np.ndarray:
    return left_hook_matrix(dim_n, 1)


@lru_cache(maxsize=None)
def m_matrix(dim_n: int) -> np.ndarray:
    M = mu_matrix(dim_n) + mu_star_matrix(dim_n)
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def normal_proj_matrix(dim_n: int) -> np.ndarray:
    M = np.diag(normal_mask(dim_n).astype(float))
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def tangential_proj_matrix(dim_n: int) -> np.ndarray:
    M = np.diag((~normal_mask(dim_n)).astype(float))
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def reflection_matrix(dim_n: int) -> np.ndarray:
    """N = N^+ - N^-: +1 on tangential masks, -1 on normal masks."""
    M = tangential_proj_matrix(dim_n) - normal_proj_matrix(dim_n)
    M.flags.writeable = False
    return M


def mask_label(dim_n: int, mask: int) -> str:
    """Bit-string name of a basis mask, index 0 first: mask 1 -> '10' (n=1)."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(dim_n + 1))
