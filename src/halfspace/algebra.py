"""Complex exterior algebra of R^{n+1}: coefficient arrays, operator tables.

A multivector over R^{n+1} is an array of 2^(n+1) complex coefficients.  The
coefficient at position ``b`` belongs to the basis element ``e_s`` where
``s`` is the subset of {0, ..., n} whose characteristic bitmask is ``b``
(bit ``i`` set means index ``i`` is in ``s``), with indices taken in
increasing order inside ``e_s``.

The operator tables are the implementation of the algebra: the matrices of
f -> e_s ^ f (``left_wedge_matrix``) and f -> e_s _| f
(``left_hook_matrix``) on coefficient arrays.  The product f ^ g is
sum_s f_s (e_s ^ g), one contraction over the stacked tables, and the
k-vector part of f is f on the masks of degree k (``mask_degrees``).
Every sign in the tables flows from the single counting function
``sigma_count``, so the wedge and interior (hook) products cannot drift
apart.  Index 0 plays the role of the direction normal to the boundary; the
operators mu (wedge by e_0, ``mu_matrix``), mu* (hook by e_0,
``mu_star_matrix``) and their sum m (``m_matrix``) encode the
normal/tangential structure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "lambda_dim",
    "sigma_count",
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


@lru_cache(maxsize=None)
def _sign(s: int, t: int) -> float:
    return -1.0 if sigma_count(s, t) % 2 else 1.0


# ---------------------------------------------------------------------------
# cached structural arrays and operator tables
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
    """Matrix of f -> e_s ^ f on coefficient vectors: e_s ^ e_t =
    (-1)^sigma(s, t) e_{s union t} for disjoint s, t, and zero when they
    overlap."""
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
    """Matrix of f -> e_s _| f on coefficient vectors: e_s _| e_t =
    (-1)^sigma(s, t minus s) e_{t minus s} when s is a subset of t, and
    zero otherwise.  Adjoint to wedging by e_s:
    (e_s _| f, g) = (f, e_s ^ g)."""
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
