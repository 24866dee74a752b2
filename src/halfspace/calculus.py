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
only leave the modes of the other axis uncoupled.  The kernel, polish and
conditioning rules are the global ones.

Block coefficients take a second route through the same decomposition.
For them T anticommutes with the reflection N, which the plane-wave basis
makes diagonal (``bvp.BoundaryFrame`` passes its signs as ``grading``), so
T = [[0, X], [Y, 0]] in the split by the sign of N and T^2 = diag(XY, YX)
(the paper's block case; XY is the Kato square-root operator).  One
``eig`` of the smaller of XY and YX, half the size of T, gives the pairs
lambda = +-sqrt(mu), v = [u; +-Y u / lambda]; the kernel is null(Y) +
null(X), found from their singular values and ``DeflatedInverse`` rather
than by a cut on sqrt(mu), and one first-order refinement against T itself
restores the digits that squaring costs the small eigenpairs.  V^{-1} and
cond(V) come from the halves.  There is no kernel polish on this route:
its kernel eigenvalues are exactly zero and its kernel columns orthonormal
by construction.

Null spaces of at most n + 1 dimensions (the kernel of T, the null
directions of the boundary operators) are found without singular vectors:
``svdvals`` gives the singular values alone, one stacked call per block
size, and ``DeflatedInverse`` inverts each block with its known null count
deflated by a fixed random rank-r term, which yields orthonormal left and
right null bases and the truncated pseudo-inverse up to rounding.  The
kernel polish (right null bases of the blocks of T), the graded route (of
X and Y) and ``bvp.BoundaryInverse`` share it, and all run on numpy
alone.  The module's
one scipy use is ``svdvals``'s retry with LAPACK's QR-based ``gesvd`` driver
when numpy's SVD fails to converge; scipy is imported there, on first use.

V and V^{-1} stay on that partition (``BlockDiagonal``: the index groups, a
``Partition`` that also keeps each group's row selector, and one stacked
(count, k, k) array per block size), and so does every matrix
formed from them: ``apply_function``, the kernel and non-kernel projectors,
and the products of ``apply_to_vector`` and ``quadratic_constants`` are
block by block.  A matrix that is one block is the single (1, m, m) group,
so a frame whose T is one block (smooth variable coefficients) makes the
same dense calls as a plain matrix would.  The dense m x m array of a
``BlockDiagonal`` (``dense()``, e.g. ``dec.V_blocks.dense()``) is a view
formed on request, for tests, oracles and diagnostics.

Eigenvalues close to zero (relative threshold ``DEFAULT_KERNEL_TOL``) form
the discrete kernel, the stand-in for the missing constants of the continuum
problem.  Each symbol declares its kernel value explicitly: sgn and the
square-function families vanish there, the semigroup is one.  Symbols
built on the holomorphic sgn are undefined on the imaginary axis and say so
through ``sign_sensitive``.

A whole grid of heights is evaluated in eigen-coordinates as one block
product: with c = V^{-1} f (``dec.coordinates(f)``) and S the m x T matrix
of symbol values S_ij = b_j(lambda_i), the columns b_j(T) f are V (S o c)
(``apply_to_vector`` with a t-family or a sequence of symbols).  The
t-families (``exp_minus_t_abs``, ``semigroup_dt``, ``psi_abs_exp``,
``psi_exp``, ``q_t``) take a whole array of heights and evaluate S
as one outer-product block, with one sign-sensitivity check and one kernel
substitution per block.  S depends on the spectrum and the heights alone,
never on f: each t-family carries a value key (the family, its parameters
and the heights' float64 bytes), and the decomposition keeps the read-only
S of every keyed family in a memo bounded by ``_SYMBOL_MEMO_COLUMNS``
height columns, oldest evicted first, so that every solve and every
``bvp.SolutionField`` on one frame shares the blocks of its height grids.
The sign-sensitivity check is made on every call, before the memo is read.
``apply_to_vector`` takes c itself, so a caller that applies many blocks to
the same f (``bvp.SolutionField``) forms c once and each block costs the
one product V (S o c).

Square-function norms int_0^inf ||psi_t(T) f||^2 dt/t are exact Hermitian
forms: with c = V^{-1} f on the non-kernel indices, ``square_function`` is
c^* [(V^* V) o K] c, one stacked product per block size (V^* V is formed
once per decomposition, ``SpectralDecomposition.V_gram``), where
K_ij = int_0^inf conj(psi_t(lambda_i)) psi_t(lambda_j) dt/t is the Gram
kernel each t-family declares in closed form (``FunctionDescriptor.gram``).
With p = conj|mu| and q = |nu|, both in the open right half plane, it is
pq/(p+q)^2 for ``psi_abs_exp``, conj(mu) nu/(p+q)^2 for ``psi_exp`` and
conj(mu) nu (log p - log q)/((p-q)(p+q)) for ``q_t`` (McIntosh 1986).  For
self-adjoint injective T the diagonal is 1/2 for q_t and 1/4 for the other
two, so the values are ||f||^2 / 2 and ||f||^2 / 4.  ``quadratic_constants``
compresses the Gram matrix of q_t, G = V^{-*} [(V^* V) o K] V^{-1}, to the
non-kernel range: with V_nk = QR the non-kernel columns of V, the
compression is R^{-*} [(V_nk^* V_nk) o K] R^{-1}, block by block.  The q_t
kernel has a pole where lambda is imaginary (at t = 1/|lambda|), so both
routines raise SectorViolationError for a (near-)imaginary eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "block_partition",
    "Partition",
    "gather_blocks",
    "svdvals",
    "DeflatedInverse",
    "SpectralDecomposition",
    "FunctionDescriptor",
    "IllConditionedEigenbasisError",
    "SectorViolationError",
    "decompose",
    "sector_half_angle",
    "sector_margin",
    "apply_function",
    "q_t",
    "sgn",
    "exp_minus_t_abs",
    "semigroup_dt",
    "psi_abs_exp",
    "psi_exp",
    "square_function",
    "quadratic_constants",
]

DEFAULT_KERNEL_TOL = 1e-10
COND_V_CAP = 1e8
# ||TN + NT||_F / ||T||_F at or below which T counts as graded (TN = -NT)
_GRADED_TOL = 1e-13
# entries per row chunk of ``block_partition``'s label sweep (1 MB of labels)
_PARTITION_CHUNK = 1 << 18
# height columns of t-family symbol values kept per decomposition (2 MB of
# complex values at m = 512)
_SYMBOL_MEMO_COLUMNS = 256


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
    undefined on the imaginary axis.  A square-function family psi_t
    declares its Gram kernel: ``gram`` maps eigenvalue arrays (mu, nu) to
    int_0^inf conj(psi_t(mu)) psi_t(nu) dt/t, broadcast.

    ``key`` names the symbol's values: ``_t_family`` sets it to the family,
    its parameters and the heights' float64 bytes, and ``_symbol_values``
    keeps the values of a keyed symbol on the decomposition.  It is None
    for every other symbol, which is evaluated afresh on each call.
    """

    name: str
    fn: object  # callable complex array -> complex array
    kernel_value: complex
    sign_sensitive: bool = False
    gram: object = None  # callable (mu, nu) -> complex array
    key: tuple | None = None

    def __call__(self, lam):
        return self.fn(np.asarray(lam, dtype=complex))


def _holo_sign(lam: np.ndarray) -> np.ndarray:
    """sgn on the double sector: +1 on Re > 0, -1 on Re < 0."""
    return np.where(lam.real > 0, 1.0, -1.0).astype(complex)


def _holo_abs(lam: np.ndarray) -> np.ndarray:
    """|z| := z sgn(z), the holomorphic branch of sqrt(z^2)."""
    return np.where(lam.real > 0, lam, -lam)


def _psi_abs_exp_gram(mu, nu):
    p, q = np.conj(_holo_abs(mu)), _holo_abs(nu)
    return p * q / (p + q) ** 2


def _psi_exp_gram(mu, nu):
    p, q = np.conj(_holo_abs(mu)), _holo_abs(nu)
    return np.conj(mu) * nu / (p + q) ** 2


def _q_t_gram(mu, nu):
    """conj(mu) nu (log p - log q) / ((p - q)(p + q)), p = conj|mu|, q = |nu|.

    In the right half plane log p - log q = log(p/q) = 2 atanh(r) with
    r = (p - q)/(p + q) and |r| < 1: the atanh form for |r| <= 1/2 (numpy's
    complex log1p loses digits near p = q), the log form beyond, and the
    limit 2 of log(p/q) / r at p = q.
    """
    p, q = np.conj(_holo_abs(mu)), _holo_abs(nu)
    r = (p - q) / (p + q)
    equal = r == 0
    r = np.where(equal, 0.5, r)  # any |r| < 1; the quotient is replaced
    quot = np.where(np.abs(r) <= 0.5, 2.0 * np.arctanh(r), np.log(p / q)) / r
    return np.conj(mu) * nu * np.where(equal, 2.0, quot) / (p + q) ** 2


def _t_family(name: str, t, fn, kernel_value: complex,
              sign_sensitive: bool, params: str = "",
              gram=None) -> FunctionDescriptor:
    """The symbol z -> fn(z, t) at one height t, or, for a 1-D array of
    heights, the family whose value at an array z is the block
    fn(z[..., None], t) = [b_{t_j}(z_i)], one column per height.

    Its ``key`` is (name, params, the heights' shape and float64 bytes);
    the heights are copied, so the key stays that of the values."""
    ts = np.array(t, dtype=float)
    key = (name, params, ts.shape, ts.tobytes())
    if ts.ndim == 0:
        height = float(ts)
        return FunctionDescriptor(f"{name}(t={t!r}{params})",
                                  lambda z: fn(z, height), kernel_value,
                                  sign_sensitive, gram, key)
    if ts.ndim != 1:
        raise ValueError("heights must be a scalar or a 1-D array")
    return FunctionDescriptor(f"{name}(t=<{ts.size} heights>{params})",
                              lambda z: fn(z[..., None], ts), kernel_value,
                              sign_sensitive, gram, key)


def q_t(t) -> FunctionDescriptor:
    return _t_family("q_t", t, lambda z, t: t * z / (1.0 + (t * z) ** 2),
                     kernel_value=0.0, sign_sensitive=False, gram=_q_t_gram)


def sgn() -> FunctionDescriptor:
    return FunctionDescriptor("sgn", _holo_sign, kernel_value=0.0,
                              sign_sensitive=True)


def exp_minus_t_abs(t) -> FunctionDescriptor:
    return _t_family("exp_minus_t_abs", t,
                     lambda z, t: np.exp(-t * _holo_abs(z)),
                     kernel_value=1.0, sign_sensitive=True)


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
                     sign_sensitive=True, gram=_psi_abs_exp_gram)


def psi_exp(t) -> FunctionDescriptor:
    """psi(tz) with psi(z) = z e^{-|z|}, an alternative quadratic-estimate
    symbol."""
    return _t_family("psi_exp", t,
                     lambda z, t: t * z * np.exp(-t * _holo_abs(z)),
                     kernel_value=0.0, sign_sensitive=True,
                     gram=_psi_exp_gram)


def _same_partition(a: list, b: list) -> bool:
    return a is b or (len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)))


def _is_whole(groups: list) -> bool:
    """Whether the partition is one block of all indices."""
    return len(groups) == 1 and groups[0].shape[0] == 1


def _rows(idx: np.ndarray):
    """The rows of a group: a slice when its blocks tile one range of
    indices in order (the per-mode blocks of a plane-wave frame do), so that
    they are taken and put back as views, else the flat index array."""
    start = int(idx.flat[0])
    if np.array_equal(idx.ravel(), np.arange(start, start + idx.size)):
        return slice(start, start + idx.size)
    return idx.ravel()


class Partition(list):
    """The index groups of a block-diagonal partition, as ``block_partition``
    returns them: a list of (count, size) index arrays, one row per block.

    The partition also keeps ``rows``, the row selector of each group
    (``_rows``), formed on first use and shared by every matrix and solve
    on the partition.  The groups are not to be changed after that use.
    """

    @classmethod
    def of(cls, groups: list) -> "Partition":
        """``groups`` itself when it is a ``Partition``, else wrapped."""
        return groups if isinstance(groups, cls) else cls(groups)

    @cached_property
    def rows(self) -> list:
        return [_rows(idx) for idx in self]


class BlockDiagonal:
    """A block-diagonal m x m matrix held as its blocks: the index groups of
    ``block_partition`` and one stacked (count, k, k) array per group.

    ``@`` takes a vector, a column block, or another block matrix on the
    same partition; ``+``, ``-``, ``.H`` and ``*`` (by a scalar, by a
    length-m vector that scales the columns, or entrywise by a block matrix
    on the same partition) work block by block.  A matrix that is one block
    (as a rule for variable coefficients) is the single (1, m, m) group,
    and each operation is then the plain dense one.
    ``dense()`` scatters the blocks into an m x m array, once, on request.
    """

    __array_ufunc__ = None  # ndarray operators defer to the methods here

    def __init__(self, groups: list, blocks: list):
        self.groups = Partition.of(groups)
        self.blocks = blocks
        self.dim = sum(idx.size for idx in groups)
        self._dense = None

    @classmethod
    def gather(cls, mat: np.ndarray, groups: list) -> "BlockDiagonal":
        """The diagonal blocks of a dense matrix on the partition ``groups``
        (entries outside them are dropped)."""
        return cls(groups, [gather_blocks(mat, idx) for idx in groups])

    @classmethod
    def of(cls, mat: np.ndarray) -> "BlockDiagonal":
        """A dense matrix on its own partition, ``block_partition(mat)``."""
        mat = np.asarray(mat, dtype=complex)
        return cls.gather(mat, block_partition(mat))

    @classmethod
    def eye(cls, groups: list) -> "BlockDiagonal":
        """The identity on the partition ``groups``."""
        return cls(groups, [np.broadcast_to(np.eye(idx.shape[1]), idx.shape
                                            + (idx.shape[1],))
                            for idx in groups])

    @property
    def shape(self) -> tuple:
        return (self.dim, self.dim)

    def _like(self, blocks: list) -> "BlockDiagonal":
        return BlockDiagonal(self.groups, blocks)

    def _pair(self, other: "BlockDiagonal", op) -> "BlockDiagonal":
        if not _same_partition(self.groups, other.groups):
            raise ValueError("block matrices on different partitions")
        return self._like([op(a, b) for a, b in zip(self.blocks,
                                                     other.blocks)])

    def regroup(self, groups: list) -> "BlockDiagonal":
        """The same matrix on a coarser partition ``groups``, each of whose
        blocks is a union of blocks of this one."""
        if _same_partition(self.groups, groups):
            return self
        where = np.empty((3, self.dim), dtype=int)  # group, block, position
        for g, idx in enumerate(groups):
            where[0, idx] = g
            where[1, idx] = np.arange(idx.shape[0])[:, None]
            where[2, idx] = np.arange(idx.shape[1])
        out = [np.zeros(idx.shape + idx.shape[1:], dtype=complex)
               for idx in groups]
        for idx, blk in zip(self.groups, self.blocks):
            g_of = where[0, idx[:, 0]]
            for g in np.unique(g_of):
                sel = g_of == g
                pos = where[2, idx[sel]]
                out[g][where[1, idx[sel, :1]][:, :, None], pos[:, :, None],
                       pos[:, None, :]] = blk if sel.all() else blk[sel]
        return BlockDiagonal(groups, out)

    def __add__(self, other):
        return self._pair(other, np.add)

    def __sub__(self, other):
        return self._pair(other, np.subtract)

    def __mul__(self, other):
        if isinstance(other, BlockDiagonal):
            return self._pair(other, np.multiply)
        other = np.asarray(other)
        if other.ndim == 0:
            return self._like([b * other for b in self.blocks])
        return self._like(self.rowwise(
            self.groups, lambda g, vals: self.blocks[g] * vals[:, None, :],
            other))

    @property
    def H(self) -> "BlockDiagonal":
        """The conjugate transpose."""
        return self._like([np.conj(np.swapaxes(b, 1, 2))
                           for b in self.blocks])

    def __matmul__(self, other):
        if isinstance(other, BlockDiagonal):
            return self._pair(other, np.matmul)
        other = np.asarray(other)
        if other.ndim == 1:
            return (self @ other[:, None])[:, 0]
        return self.rowwise(self.groups, lambda g, x: self.blocks[g] @ x,
                            other, out=True)

    @staticmethod
    def rowwise(groups: list, fn, x: np.ndarray, out: bool = False):
        """``fn(g, rows)`` for every group g of the partition ``groups``,
        with ``rows`` the rows of ``x`` on the group's indices stacked as
        (count, k, ...): a list of the results, or with ``out`` the results
        put back into the rows of one array like ``x``.  The row selectors
        are the partition's own (``Partition.rows``).  A whole partition
        passes ``x[None]`` itself."""
        x = np.asarray(x)
        if _is_whole(groups):
            parts = [fn(0, x[None])]
            return parts[0][0] if out else parts
        rows = Partition.of(groups).rows
        parts = [fn(g, x[r].reshape(idx.shape + x.shape[1:]))
                 for g, (idx, r) in enumerate(zip(groups, rows))]
        if not out:
            return parts
        res = np.empty(x.shape[:1] + parts[0].shape[2:], dtype=parts[0].dtype)
        for r, part in zip(rows, parts):
            res[r] = part.reshape((-1,) + part.shape[2:])
        return res

    def svdvals(self) -> np.ndarray:
        """The singular values of all blocks, one stacked SVD per group."""
        return np.concatenate([svdvals(b).ravel() for b in self.blocks])

    def columns(self, keep: np.ndarray):
        """The columns of each block that the boolean mask ``keep`` over
        the m indices selects.  Yields (g, sel, cols, C): group g, the
        boolean selection of its blocks with r kept columns, their indices
        (count, r) and the columns themselves stacked (count, k, r), in
        index order."""
        for g, (idx, b) in enumerate(zip(self.groups, self.blocks)):
            mask = keep[idx]
            ranks = np.sum(mask, axis=1)
            for r in np.unique(ranks[ranks > 0]):
                sel = ranks == r
                pos = np.nonzero(mask[sel])[1].reshape(-1, r)
                yield (g, sel, np.take_along_axis(idx[sel], pos, axis=1),
                       np.take_along_axis(b[sel], pos[:, None, :], axis=2))

    def dense(self) -> np.ndarray:
        """The m x m array, formed on the first call (a view of the block
        for a whole matrix)."""
        if self._dense is None:
            self._dense = _scatter_blocks(self.groups, self.blocks, self.dim)
        return self._dense

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.dense(), dtype=dtype)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a bisectorial operator matrix, with V and
    V^{-1} held block by block (``BlockDiagonal``)."""

    eigenvalues: np.ndarray
    V_blocks: BlockDiagonal
    Vinv_blocks: BlockDiagonal
    cond_V: float
    kernel_indices: np.ndarray  # boolean mask over eigenvalue positions
    hermitian: bool

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

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
        return self.Vinv_blocks @ vec

    def kernel_projector(self) -> BlockDiagonal:
        """V_K V^{-1}_K, formed only in the blocks that hold kernel
        eigenvalues."""
        blocks = []
        for idx, V, W in zip(self.V_blocks.groups, self.V_blocks.blocks,
                             self.Vinv_blocks.blocks):
            P = np.zeros(V.shape, dtype=complex)
            K = self.kernel_indices[idx]
            for b in np.flatnonzero(np.any(K, axis=1)):
                P[b] = V[b][:, K[b]] @ W[b][K[b]]
            blocks.append(P)
        return self.V_blocks._like(blocks)

    @cached_property
    def V_gram(self) -> BlockDiagonal:
        """V^* V block by block, formed once for the square functions."""
        return self.V_blocks.H @ self.V_blocks

    @cached_property
    def _symbol_memo(self) -> "_SymbolMemo":
        """The read-only symbol blocks of keyed t-families
        (``_symbol_values``), shared by every solve on the decomposition."""
        return _SymbolMemo()

    def nonkernel_projector(self) -> BlockDiagonal:
        return (self.V_blocks * self.nonkernel.astype(complex)) \
            @ self.Vinv_blocks

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    def min_nonkernel(self) -> float:
        lam = self.eigenvalues[self.nonkernel]
        if lam.size == 0:
            raise ValueError("empty non-kernel spectrum")
        return float(np.min(np.abs(lam)))


class _SymbolMemo(dict):
    """Symbol blocks by ``FunctionDescriptor.key``, oldest first, holding at
    most ``_SYMBOL_MEMO_COLUMNS`` height columns in all: a new block evicts
    the oldest ones past that bound, and a block wider than the bound is
    not kept.  ``columns`` is the running count of the columns held."""

    columns = 0

    def put(self, key: tuple, vals: np.ndarray) -> None:
        """Keep ``vals`` (made read-only) under ``key``."""
        vals.flags.writeable = False
        width = int(np.prod(vals.shape[1:]))
        if width > _SYMBOL_MEMO_COLUMNS:
            return
        while self.columns + width > _SYMBOL_MEMO_COLUMNS:
            self.columns -= int(np.prod(self.pop(next(iter(self))).shape[1:]))
        self[key] = vals
        self.columns += width


def block_partition(mat: np.ndarray, *more: np.ndarray) -> list:
    """The connected blocks of the exact nonzero pattern of a square matrix
    (mat != 0 or mat^T != 0), grouped by size: a ``Partition``, the list of
    (count, size) index arrays, one row per block, ascending indices, sizes
    ascending.  With
    ``more`` matrices of the same size, the pattern is the union of all
    their patterns: the finest partition they are all block diagonal on.

    Found by min-label propagation on the dense boolean pattern: every
    index takes the smallest label among its neighbours (a bounded number
    of rows at a time) and then the label of that label, until nothing
    changes or one label is left.  A dense matrix settles in one sweep and
    per-mode blocks in two.
    """
    pattern = np.asarray(mat) != 0
    for other in more:
        pattern |= np.asarray(other) != 0
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
    groups, start = Partition(), 0
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
    if _is_whole(groups):
        return blocks[0][0]
    out = np.zeros((m, m), dtype=complex)
    for idx, block in zip(groups, blocks):
        out[idx[:, :, None], idx[:, None, :]] = block
    return out


def decompose(T: np.ndarray,
              grading: np.ndarray | None = None) -> SpectralDecomposition:
    """Eigendecomposition with kernel classification, one
    connected block of T at a time (``block_partition``); V and V^{-1} are
    kept on that partition.

    Hermitian matrices (relative defect <= 1e-10) get a unitary eigenbasis.
    Otherwise, when ``grading`` (the +-1 diagonal of a reflection N) is
    given and T anticommutes with N up to rounding (``_is_graded``), every
    block is factored through the half-size eigenproblem of
    ``_graded_eig``; else by ``eig`` with the kernel polish.  On the ``eig``
    route the rules are those of the dense factorization: the kernel
    threshold is relative to the largest |lambda| and the kernel polish
    compares with ||T||_2.  On both routes cond(V) is the largest singular
    value of any block over the smallest, the 2-norm condition number of
    the block-diagonal V.
    """
    blocks = BlockDiagonal.of(T)
    m, groups, subs = blocks.dim, blocks.groups, blocks.blocks
    hermitian = _is_hermitian(blocks)
    if not hermitian and grading is not None and _is_graded(blocks,
                                                            grading):
        lam, vecs, inverses, kernel, sv = _graded_eig(groups, subs, grading)
        return _finish(groups, lam, vecs, inverses, kernel, sv)
    lam = np.empty(m, dtype=complex)
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
    kernel = (np.abs(lam) <= DEFAULT_KERNEL_TOL * max_abs if max_abs > 0
              else np.ones(lam.shape, dtype=bool))
    if hermitian:
        V = BlockDiagonal(groups, vecs)
        return SpectralDecomposition(
            eigenvalues=lam, V_blocks=V, Vinv_blocks=V.H, cond_V=1.0,
            kernel_indices=kernel, hermitian=True)
    if np.any(kernel):
        _polish_kernel(groups, subs, vecs, lam, kernel)
    # The conditioning verdict is taken on the polished basis: a
    # near-degenerate zero cluster can make eig's raw basis look
    # arbitrarily ill conditioned even when the polished basis is fine.
    sv = [np.linalg.svd(V_b, compute_uv=False) for V_b in vecs]
    return _finish(groups, lam, vecs, None, kernel, sv)


def _finish(groups, lam, vecs, inverses, kernel, sv) -> SpectralDecomposition:
    """The non-Hermitian decomposition from the stacked blocks of V (and of
    V^{-1}, or None to invert them) and the singular values ``sv`` of V,
    once cond(V) is within ``COND_V_CAP``."""
    s_max = max(float(np.max(s, initial=0.0)) for s in sv)
    s_min = min(float(np.min(s, initial=np.inf)) for s in sv)
    cond_V = s_max / s_min if s_min > 0 else np.inf
    if not cond_V <= COND_V_CAP:
        raise IllConditionedEigenbasisError(
            f"calculus.decompose: cond(V) = {cond_V:.3e} > cap "
            f"{COND_V_CAP:.1e}", cond_V)
    if inverses is None:
        inverses = [np.linalg.inv(V_b) for V_b in vecs]
    return SpectralDecomposition(
        eigenvalues=lam, V_blocks=BlockDiagonal(groups, vecs),
        Vinv_blocks=BlockDiagonal(groups, inverses), cond_V=cond_V,
        kernel_indices=kernel, hermitian=False)


def _is_graded(T: BlockDiagonal, grading: np.ndarray) -> bool:
    """Whether TN = -NT up to rounding for N = diag(grading):
    ||TN + NT||_F <= ``_GRADED_TOL`` ||T||_F.  (TN + NT is twice the
    entries of T between indices of equal sign, the N-diagonal
    sub-blocks.)"""
    defect = fro = 0.0
    for idx, sub in zip(T.groups, T.blocks):
        s = grading[idx]
        defect += np.linalg.norm(sub * (s[:, None, :] + s[:, :, None])) ** 2
        fro += np.linalg.norm(sub) ** 2
    return bool(defect <= _GRADED_TOL ** 2 * fro)


def _graded_eig(groups, subs, grading):
    """The eigendecomposition of T = [[0, X], [Y, 0]] (rows and columns
    split by the sign of ``grading``, the smaller side first, p <= q), one
    half-size ``eig`` per block.

    With XY u = mu u and mu != 0, T has the eigenpairs lambda = +-sqrt(mu),
    v = [u; +-w], w = Y u / lambda.  The kernel of T is null(Y) + null(X),
    each found as the right null basis of ``DeflatedInverse`` with its
    count of singular values at or below DEFAULT_KERNEL_TOL ||T||_2; the
    rank r of Y picks the r largest |mu| (no cut is made on mu, whose
    rounding is eps ||T||^2).  Kernel eigenvalues are exactly 0 and the
    kernel columns orthonormal; T is not diagonalizable when X and Y have
    different ranks (IllConditionedEigenbasisError).

    Squaring costs the small eigenpairs digits, which one first-order
    refinement against T itself restores (``_refine_graded``).  With
    P = [U, K_Y] and Q = [W, K_X] (the half columns of the pairs, then the
    null bases), V = diag(P, Q) S, where S pairs the columns of P and Q
    into [u; w], [u; -w] and keeps the null ones.  S S^H is diagonal
    (2 on pair coordinates, 1 on null ones), so V^{-1} = S^{-1} diag(P^{-1},
    Q^{-1}) and the singular values of V are those of P and Q with their
    pair columns scaled by sqrt(2): two half-size inverses and SVDs.

    Returns the eigenvalues, the stacked blocks of V and of V^{-1} per
    group, the kernel mask and the singular values of V.
    """
    m = sum(idx.size for idx in groups)
    pieces = []
    for g, (idx, sub) in enumerate(zip(groups, subs)):
        # blocks whose rows have the same sign pattern share one stack
        patterns, which = np.unique(grading[idx] > 0, axis=0,
                                    return_inverse=True)
        for u, pattern in enumerate(patterns):
            a, b = np.flatnonzero(pattern), np.flatnonzero(~pattern)
            if a.size > b.size:
                a, b = b, a
            sel = which.ravel() == u
            blk = sub[sel]
            pieces.append((g, sel, a, b, blk[:, a[:, None], b],
                           blk[:, b[:, None], a]))
    # X and Y squared with their right null spaces and singular values:
    # padded by zero rows, or the R factor of a tall one
    squares = [(_square(X), _square(Y)) for *_, X, Y in pieces]
    svals = [(svdvals(X2), svdvals(Y2)) for X2, Y2 in squares]
    norm_T = max(max(float(np.max(s, initial=0.0)) for s in pair)
                 for pair in svals)
    cut = DEFAULT_KERNEL_TOL * norm_T
    lam = np.empty(m, dtype=complex)
    kernel = np.empty(m, dtype=bool)
    vecs, inverses = [None] * len(subs), [None] * len(subs)
    sv = []
    for (g, sel, a, b, X, Y), (X2, Y2), (sX, sY) in zip(pieces, squares,
                                                         svals):
        p, q = a.size, b.size
        null_X = np.sum(sX <= cut, axis=1)
        null_Y = np.sum(sY <= cut, axis=1)
        r = p - null_Y
        if np.any(q - null_X != r):
            raise IllConditionedEigenbasisError(
                "calculus.decompose: graded T is not diagonalizable "
                "(X and Y have different ranks)", np.inf)
        pair = np.arange(p) < r[:, None]  # (count, p): column j < r_b
        pair_q = np.arange(q) < r[:, None]
        mu, U = np.linalg.eig(X @ Y)
        order = np.argsort(-np.abs(mu), axis=1, kind="stable")
        mu = np.take_along_axis(mu, order, axis=1)
        U = np.take_along_axis(U, order[:, None, :], axis=2)
        lam_h = np.where(pair, np.sqrt(mu), 0.0)
        W = (Y @ U) / np.where(pair, lam_h, 1.0)[:, None, :]
        K_Y = _null_basis(Y2, null_Y, norm_T)
        K_X = _null_basis(X2, null_X, norm_T)
        P = _splice(U, K_Y, r, p)
        Q = _splice(W, K_X, r, q)
        P, Q, lam_h = _refine_graded(X, Y, P, Q, lam_h, pair, pair_q)
        # unit eigenvectors [u; w]; the null columns are unit already
        scale = np.where(pair, np.sqrt(
            np.sum(np.abs(P) ** 2, axis=1)
            + np.sum(np.abs(Q[:, :, :p]) ** 2, axis=1)), 1.0)[:, None, :]
        P = P / scale
        Q[:, :, :p] /= scale
        P_inv, Q_inv = np.linalg.inv(P), np.linalg.inv(Q)
        sv.append(svdvals(P * np.where(pair, np.sqrt(2.0), 1.0)[:, None, :]))
        sv.append(svdvals(Q * np.where(pair_q, np.sqrt(2.0), 1.0)[:, None, :]))
        # columns (eigenvalue positions): p slots [u; w] or [k_Y; 0], then
        # q slots [u; -w] or [0; k_X]; rows in the block's own order; the
        # pair slots are the first r of each, and r <= p <= q
        V_b = np.zeros(P.shape[:1] + (p + q, p + q), dtype=complex)
        V_b[:, a, :p] = P
        V_b[:, b, :p] = Q[:, :, :p] * pair[:, None, :]
        V_b[:, a, p:2 * p] = P * pair[:, None, :]
        V_b[:, b, p:] = Q * np.where(pair_q, -1.0, 1.0)[:, None, :]
        W_b = np.zeros_like(V_b)
        W_b[:, :p, a] = P_inv * np.where(pair, 0.5, 1.0)[:, :, None]
        W_b[:, :p, b] = 0.5 * Q_inv[:, :p] * pair[:, :, None]
        W_b[:, p:2 * p, a] = 0.5 * P_inv * pair[:, :, None]
        W_b[:, p:, b] = Q_inv * np.where(pair_q, -0.5, 1.0)[:, :, None]
        _put(vecs, g, sel, V_b)
        _put(inverses, g, sel, W_b)
        lam_b = np.zeros(pair.shape[:1] + (p + q,), dtype=complex)
        lam_b[:, :p], lam_b[:, p:2 * p] = lam_h, -lam_h
        pos = groups[g][sel]
        lam[pos] = lam_b
        kernel[pos] = np.concatenate([~pair, ~pair_q], axis=1)
    return lam, vecs, inverses, kernel, sv


def _put(stacks: list, g: int, sel: np.ndarray, blocks: np.ndarray) -> None:
    """Set the blocks ``sel`` of group g of ``stacks`` (None until the
    first call): the stack itself when it is all of the group."""
    if stacks[g] is None:
        if sel.all():
            stacks[g] = blocks
            return
        stacks[g] = np.empty((sel.size,) + blocks.shape[1:], dtype=complex)
    stacks[g][sel] = blocks


def _refine_graded(X, Y, P, Q, lam, pair, pair_q):
    """One first-order refinement of the graded eigenbasis V = diag(P, Q) S
    (``_graded_eig``) against T = [[0, X], [Y, 0]] itself.

    In the coordinates of P and Q, V^{-1} T V = S^{-1} [[0, F], [G, 0]] S
    with F = P^{-1} X Q and G = Q^{-1} Y P, whose entries give, for the
    eigenvector [u_j; w_j] of lambda_j, the coupling to [u_i; +-w_i]
    ((F_ij +- G_ij) / 2) and to the null columns (F and G on the null
    rows).  The refined eigenvalue is the diagonal (F_jj + G_jj) / 2, and
    each coupling over the eigenvalue gap, (lambda_j - lambda_i),
    (lambda_j + lambda_i) or lambda_j, is added to the column: the
    refinement V (I + Delta) of the whole V, formed on the halves so that
    the pairs stay [u; +-w].  A coupling larger than half its gap (a
    cluster, within which any basis serves) is not added.  The null
    columns are kept as they are.
    """
    p = P.shape[1]
    F = np.linalg.solve(P, X @ Q[:, :, :p])  # the columns of the pairs
    G = np.linalg.solve(Q, Y @ P)
    G_top = G[:, :p]
    to_pair = pair[:, None, :]  # column j is a pair
    both = pair[:, :, None] & to_pair
    eye = np.eye(p, dtype=bool)
    lam_i, lam_j = lam[:, :, None], lam[:, None, :]
    d_plus = _over_gap(0.5 * (F + G_top), lam_j - lam_i, both & ~eye)
    d_minus = _over_gap(0.5 * (F - G_top), lam_j + lam_i, both)
    C_a = eye + d_plus + d_minus + _over_gap(F, lam_j, ~pair[:, :, None]
                                             & to_pair)
    C_b = _over_gap(G, lam_j, ~pair_q[:, :, None] & to_pair)
    C_b[:, :p] += eye + d_plus - d_minus
    P = np.where(to_pair, P @ C_a, P)
    Q = np.concatenate([np.where(to_pair, Q @ C_b, Q[:, :, :p]),
                        Q[:, :, p:]], axis=2)
    lam = np.where(pair, 0.5 * (np.diagonal(F, axis1=1, axis2=2)
                                + np.diagonal(G_top, axis1=1, axis2=2)), 0.0)
    return P, Q, lam


def _over_gap(coupling: np.ndarray, gap: np.ndarray,
              mask: np.ndarray) -> np.ndarray:
    """coupling / gap where ``mask`` holds and the coupling is less than
    half the gap in modulus, else 0."""
    use = mask & (np.abs(coupling) < 0.5 * np.abs(gap))
    return np.where(use, coupling / np.where(use, gap, 1.0), 0.0)


def _square(A: np.ndarray) -> np.ndarray:
    """A stack of s x t blocks made square with the same right null space
    and singular values: padded by zero rows (s < t), or the R factor of
    its QR factorization (s > t)."""
    s, t = A.shape[1:]
    if s < t:
        return np.concatenate([A, np.zeros((A.shape[0], t - s, t),
                                           dtype=A.dtype)], axis=1)
    if s > t:
        return np.linalg.qr(A, mode="r")
    return A


def _null_basis(A: np.ndarray, counts: np.ndarray,
                scale: float) -> np.ndarray:
    """Orthonormal right null bases of a square stack with the given null
    counts (``DeflatedInverse``), columns past each count zero."""
    if not np.any(counts):
        return np.zeros(A.shape[:2] + (0,), dtype=complex)
    return DeflatedInverse(A, counts, scale).right


def _splice(head: np.ndarray, tail: np.ndarray, r: np.ndarray,
            width: int) -> np.ndarray:
    """Per block b, columns 0 .. r_b - 1 of ``head`` followed by columns
    0, 1, .. of ``tail``: a (count, rows, width) stack."""
    out = np.zeros(head.shape[:2] + (width,), dtype=complex)
    cols = min(head.shape[2], width)
    out[:, :, :cols] = head[:, :, :cols]
    shift = np.arange(width) - r[:, None]  # (count, width)
    if tail.shape[2]:
        taken = np.take_along_axis(
            tail, np.clip(shift, 0, tail.shape[2] - 1)[:, None, :], axis=2)
        out = np.where((shift >= 0)[:, None, :], taken, out)
    return out


def _polish_kernel(groups, subs, vecs, lam, kernel) -> None:
    """Replace eig's kernel eigenvectors by exact null vectors, in place
    (``subs`` and ``vecs`` are the stacked blocks of T and of V).

    eig's eigenvectors for the (near-degenerate) zero cluster are only
    accurate to the cluster's residual, which would leave a t-independent
    defect in every semigroup evaluation.  Each block with k kernel
    eigenvalues whose k-th smallest singular value is at most
    DEFAULT_KERNEL_TOL ||T||_2 gets an orthonormal basis of its
    k-dimensional null space instead, the right null basis of ``DeflatedInverse`` (it spans
    the last k right singular vectors, so cond(V) does not change).
    """
    norms, nulls = [], []
    for g, (idx, sub) in enumerate(zip(groups, subs)):
        counts = np.sum(kernel[idx], axis=1)
        if np.any(counts == 0):
            norms.append(np.max(np.linalg.norm(sub[counts == 0], ord=2,
                                               axis=(1, 2))))
        rows = np.flatnonzero(counts)
        if rows.size:
            s = svdvals(sub[rows])
            norms.append(np.max(s[:, 0]))
            nulls.append((g, rows, counts[rows], s))
    norm_T = max(norms)
    for g, rows, k, s in nulls:
        exact = s[np.arange(rows.size), -k] <= DEFAULT_KERNEL_TOL * norm_T
        rows, k = rows[exact], k[exact]
        if not rows.size:
            continue
        right = DeflatedInverse(subs[g][rows], k, norm_T).right
        for b, k_b, basis in zip(rows, k, right):
            in_kernel = kernel[groups[g][b]]
            vecs[g][b][:, in_kernel] = basis[:, :k_b]
            lam[groups[g][b][in_kernel]] = 0.0


# ---------------------------------------------------------------------------
# minimum-norm solves of blocks with a small null space
# ---------------------------------------------------------------------------

def svdvals(blocks: np.ndarray) -> np.ndarray:
    """The singular values of a (count, k, k) stack of blocks, descending
    per block, as one call."""
    try:
        return np.linalg.svd(blocks, compute_uv=False)
    except np.linalg.LinAlgError:
        # the default divide-and-conquer driver can fail to converge on
        # large non-normal matrices; the QR-based driver is slower but
        # unconditionally convergent (imported here: the solver runtime does
        # not load scipy)
        import scipy.linalg
        return np.stack([scipy.linalg.svd(b, compute_uv=False,
                                          lapack_driver="gesvd")
                         for b in blocks])


class DeflatedInverse:
    """Minimum-norm inverse and null bases of a (count, k, k) stack of
    blocks A whose block b has a null space of known dimension
    ``null_counts[b]``, without singular vectors.

    With r the largest null count, L0 and R0 fixed orthonormal k x r
    matrices (random, seeded by k and r) and mu_b the mask that zeros their
    columns at and beyond null_counts[b],

        W_b = inv(A_b + scale L0 mu_b R0^H)

    is invertible when A_b has rank k - null_counts[b] (generically in L0
    and R0).  Since range A_b and range L0 mu_b meet only in 0, W_b L0 mu_b
    spans null A_b and W_b^H R0 mu_b spans null A_b^H; ``right`` and
    ``left`` are their orthonormal bases from one stacked QR each, with
    the masked columns zero.  ``solve`` is then the truncated
    pseudo-inverse up to rounding:

        x = (I - right right^H) W (I - left left^H) b

    (Golub & Van Loan, Matrix Computations, 4th ed., section 5.5).  Pass
    the largest singular value of the whole operator as ``scale``: an
    exactly zero block then still gets a well-conditioned W.
    """

    def __init__(self, A: np.ndarray, null_counts: np.ndarray, scale: float):
        null_counts = np.asarray(null_counts)
        r = int(np.max(null_counts, initial=0))
        if r == 0:
            self.W = np.linalg.inv(A)
            self.right = self.left = None
            return
        k = A.shape[1]
        rng = np.random.default_rng([k, r])
        L0, R0 = np.linalg.qr(rng.standard_normal((2, k, r))
                              + 1j * rng.standard_normal((2, k, r)))[0]
        mu = (np.arange(r) < null_counts[:, None])[:, None, :]
        L = L0 * mu
        self.W = np.linalg.inv(A + scale * (L @ R0.conj().T))
        self.right = np.linalg.qr(self.W @ L)[0] * mu
        self.left = np.linalg.qr(
            np.conj(np.swapaxes(self.W, 1, 2)) @ (R0 * mu))[0] * mu

    def solve(self, x: np.ndarray) -> np.ndarray:
        """The minimum-norm solutions for the stacked right-hand sides
        ``x``, shape (count, k, columns)."""
        if self.right is None:
            return self.W @ x
        y = x - self.left @ (np.conj(np.swapaxes(self.left, 1, 2)) @ x)
        y = self.W @ y
        return y - self.right @ (np.conj(np.swapaxes(self.right, 1, 2)) @ y)


def _is_hermitian(T: BlockDiagonal) -> bool:
    """||T - T^*||_2 <= 1e-10 ||T||_2, decided block by block from
    Frobenius norms through ||X||_F / sqrt(m) <= ||X||_2 <= ||X||_F wherever
    that bracket settles it; the two exact 2-norms (the largest block ones)
    are taken only when it does not."""
    rtol = 1e-10
    subs = T.blocks
    defects = [sub - np.conj(np.swapaxes(sub, 1, 2)) for sub in subs]
    root_m = np.sqrt(T.dim)
    d_fro = np.sqrt(sum(np.linalg.norm(d) ** 2 for d in defects))
    s_fro = np.sqrt(sum(np.linalg.norm(sub) ** 2 for sub in subs))
    if d_fro <= rtol * max(s_fro / root_m, 1e-300):
        return True
    if d_fro / root_m > rtol * max(s_fro, 1e-300):
        return False

    def norm2(stacks):
        return max(float(np.max(np.linalg.norm(x, 2, axis=(1, 2))))
                   for x in stacks)
    scale = max(norm2(subs), 1e-300)
    return bool(norm2(defects) <= rtol * scale)


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
    family, on every call and before the memo is read, so that a failure
    is never kept.  The values of a keyed symbol (a t-family, whose
    ``key`` is set by ``_t_family``) depend only on the decomposition and
    the heights: they are formed once, kept read-only in the
    decomposition's memo (``SpectralDecomposition._symbol_memo``, at most
    ``_SYMBOL_MEMO_COLUMNS`` height columns, oldest evicted first) and
    returned again to every later call with the same key.
    """
    if not isinstance(b, FunctionDescriptor):
        blocks = [_symbol_values(dec, s) for s in b]
        return (np.column_stack(blocks) if blocks
                else np.empty((dec.dim, 0), dtype=complex))
    if b.sign_sensitive and dec.near_imaginary.size:
        raise SectorViolationError(
            f"symbol {b.name!r} undefined at (near-)imaginary eigenvalue "
            f"{dec.near_imaginary[0]!r}")
    if b.key is not None and b.key in dec._symbol_memo:
        return dec._symbol_memo[b.key]
    vals = b(dec.eigenvalues)
    kernel = dec.kernel_indices.reshape((-1,) + (1,) * (vals.ndim - 1))
    vals = np.where(kernel, complex(b.kernel_value), vals)
    if b.key is not None:
        dec._symbol_memo.put(b.key, vals)
    return vals


def apply_function(dec: SpectralDecomposition,
                   b: FunctionDescriptor) -> BlockDiagonal:
    """b(T) = V diag(b(lambda)) V^{-1}, kernel eigenvalues -> kernel value,
    block by block on the partition of V."""
    vals = _symbol_values(dec, b)
    return (dec.V_blocks * vals) @ dec.Vinv_blocks


def apply_to_vector(dec: SpectralDecomposition, b,
                    eig_coords: np.ndarray) -> np.ndarray:
    """b(T) f from the eigen-coordinates c = V^{-1} f
    (``dec.coordinates(f)``), as the one product V (S o c) with
    S_i = b(lambda_i), without forming the full matrix.

    ``b`` may also be a t-family or a sequence of symbols b_1 .. b_T: the
    result is then the m x T block whose column j is b_j(T) f, with
    S_ij = b_j(lambda_i).
    """
    S = _symbol_values(dec, b)
    return dec.V_blocks @ _flush_subnormals(
        S * eig_coords if S.ndim == 1 else S * eig_coords[:, None])


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

def _gram_kernel(dec: SpectralDecomposition, family):
    """The Gram kernel of ``family``, once the spectrum admits it: an empty
    non-kernel spectrum raises ValueError and a (near-)imaginary eigenvalue
    SectorViolationError."""
    if not np.any(dec.nonkernel):
        raise ValueError("empty non-kernel spectrum")
    if dec.near_imaginary.size:
        raise SectorViolationError(
            f"square function undefined at (near-)imaginary eigenvalue "
            f"{dec.near_imaginary[0]!r}")
    return family(1.0).gram  # K integrates over t: any height names it


def square_function(dec: SpectralDecomposition, family,
                    eig_coords: np.ndarray) -> float:
    """int_0^inf ||psi_t(T) f||^2 dt/t = c^* [(V^* V) o K] c, exactly, with
    c = V^{-1} f on the non-kernel indices and K the Gram kernel of
    ``family`` (module docstring), one stacked product per block size.

    ``family`` maps heights to the t-family of psi_t: ``q_t``,
    ``psi_abs_exp`` or ``psi_exp``.  ``eig_coords`` are the eigen-coordinates
    V^{-1} f (``SpectralDecomposition.coordinates``).  Norms are plain
    coefficient-vector norms.
    """
    gram = _gram_kernel(dec, family)
    c = np.where(dec.nonkernel, eig_coords, 0.0)
    # kernel eigenvalues stand in as 1: their coordinates are zero
    lam = np.where(dec.kernel_indices, 1.0, dec.eigenvalues)
    V = dec.V_blocks
    K = V.rowwise(V.groups, lambda _, mu: gram(mu[:, :, None],
                                               mu[:, None, :]), lam)
    return float(np.vdot(c, (dec.V_gram * V._like(K)) @ c).real)


def quadratic_constants(dec: SpectralDecomposition):
    """Best discrete constants (c_low, c_high) in
    c_low ||f|| <= (int ||Q_t f||^2 dt/t)^{1/2} <= c_high ||f||
    over the non-kernel subspace: the square roots of the extreme
    eigenvalues of the Gram matrix of q_t compressed to that subspace,
    R^{-*} [(V_nk^* V_nk) o K] R^{-1} with V_nk = QR (module docstring),
    one stacked QR and eigvalsh per block size and subspace dimension.
    """
    gram = _gram_kernel(dec, q_t)
    lo, hi = np.inf, -np.inf
    for _, _, cols, Vnk in dec.V_blocks.columns(dec.nonkernel):
        lam = dec.eigenvalues[cols]
        H = (np.conj(np.swapaxes(Vnk, 1, 2)) @ Vnk) * gram(lam[:, :, None],
                                                           lam[:, None, :])
        Rinv = np.linalg.inv(np.linalg.qr(Vnk, mode="r"))
        Gr = np.conj(np.swapaxes(Rinv, 1, 2)) @ H @ Rinv
        ev = np.linalg.eigvalsh(0.5 * (Gr + np.conj(np.swapaxes(Gr, 1, 2))))
        lo, hi = min(lo, float(np.min(ev))), max(hi, float(np.max(ev)))
    return float(np.sqrt(max(lo, 0.0))), float(np.sqrt(max(hi, 0.0)))
