"""Boundary value problems in the upper half space via boundary operators.

The trace space is the constrained subspace of curl-free vector fields (or
the degree-k analogue for transmission problems).  On its orthonormal basis
we assemble the Dirac-type operator, take its spectral decomposition, and
form the generalized Cauchy reflection E = sgn(T) together with the two
boundary reflections N (unperturbed) and N_A (coefficient-twisted).  The
curl-free basis is an implicit plane-wave basis (``assembly.PlaneWaveBasis``),
so projecting a boundary datum onto it, lifting coordinates back to grid
fields and measuring the projection loss are FFTs plus per-mode frame
products.  The solve formulas are

    Neumann:     f = 2 (E - N_A)^{-1} (a00^{-1} phi e_0)
    regularity:  f = 2 (E + N)^{-1}  (grad psi)
    aux Neumann: f = 2 (E - N)^{-1}  (phi e_0)
    Dirichlet:   U_t = (F_t, e_0),  F_t from the aux Neumann solve with u
    transmission: (lambda - E N_B) f = 2/(a+ - a-) E g,
                  lambda = (a+ + a-)/(a+ - a-)

and the interior extension is always the semigroup F_t = e^{-t|T|} f applied
through the spectral decomposition.  The decomposition factors T one
connected block at a time (``calculus.block_partition``): per Fourier mode
for constant coefficients, and as a rule the whole matrix for variable
ones; block coefficients, for which T anticommutes with the diagonal N,
through the half-size eigenproblem of XY (``calculus.decompose``).  The
frame keeps E, P_nk, P_K and E_solve as blocks
(``calculus.BlockDiagonal``) on the partition of T, and N and N_A each on
the connected blocks of T and itself; every boundary operator is formed,
factored and solved block by block on the partition of its reflection
(``BoundaryInverse``: singular values alone for the cutoff, condition
number and null count, then one deflated inverse per block and no
singular vectors), and the Hardy defect, kernel fraction and reflection
conditions are taken per block.  Every solve with a boundary operator goes
through ``BoundaryFrame.invert``, which factors each operator once per
frame (once per lambda for transmission) and serves every later solve,
vector or column block, from that factorization.  The dense frame
matrices (``frame.E``, ``frame.Pnk``, ``frame.N``, ``frame.NA``) are views
formed on first access.  Time derivatives are always computed from the
generator (-|T| on the Hardy part), never by finite differences.  A
``SolutionField`` forms its eigen-coordinates c = V^{-1} f once; a whole
t-grid is then one t-family block, the block-by-block product V (S o c).
The symbol values S themselves depend on the frame and the heights alone:
the decomposition keeps them, read-only and keyed by the heights' values
(``calculus._symbol_values``), so that every solve on a frame shares the
e^{-t|lambda|} of each height and grid, and the derivative blocks of the
Dirichlet residual, instead of forming them again.
One height (``SolutionField.at_t``) is evaluated in Fourier space when the
frame's eigenvectors never couple two Fourier modes (the plane-wave basis
with every block of V inside one mode, as for every constant-coefficient
frame): the frame keeps the per-mode lift L_p = F_p V_(p) of its
eigenbasis, and a height is the product e^{-t|lambda|} o c of the shared
factors and the coordinates, one contraction with L per mode and one
inverse FFT.  Other frames lift the height's coordinates V (S o c) through
the basis.  The field also keeps the block of its latest grid of two or
more heights, read-only and keyed by the heights' values, so that the sup
and non-tangential norms, ``norms_at_ts`` and the Dirichlet residual on
one grid evaluate e^{-t|T|} f once.  The non-tangential
maximal function takes the Whitney-box means of all heights at once, as
differences of cumulative sums in t over the sorted grid and in x over the
periodically extended axes.

Constant grid modes form the discrete kernel of T (the torus stand-in for
the absence of L2 constants on R^n); boundary data is projected onto the
non-kernel subspace and the discarded norm is reported.  Inverted boundary
operators carry a condition-number cap of 1e10: beyond it the problem is
declared ill posed at this discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from . import algebra, calculus
from .assembly import (NB_operator, PlaneWaveBasis, TB_operator, hat_h1_basis,
                       hat_hk_basis, reflection_operator, restrict)
from .calculus import (BlockDiagonal, apply_to_vector, decompose,
                       exp_minus_t_abs, psi_abs_exp, semigroup_dt, sgn,
                       square_function)
from .grid import (CoefficientField, Field, Torus, gradient_of,
                   partial_columns, vector_block_coefficients)

COND_CAP = 1e10
# relative size of the normal, higher-degree and curl parts that regularity
# data may carry
GRADIENT_TOL = 1e-10
SCALAR_KINDS = ("neumann", "regularity", "neu_perp", "dirichlet")

__all__ = [
    "WellPosednessError",
    "SolutionField",
    "SolveReport",
    "BoundaryFrame",
    "BoundaryInverse",
    "solve_neumann",
    "solve_regularity",
    "solve_neu_perp",
    "solve_dirichlet",
    "solve_transmission",
    "SCALAR_KINDS",
    "solve_kind",
    "norm_sup_t",
    "norm_triplebar_dt",
    "nontangential_max",
    "reflection_conditions",
    "dirichlet_second_order_residual",
]


class WellPosednessError(RuntimeError):
    """A boundary operator is numerically non-invertible (cond >= 1e10)."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


@dataclass
class SolveReport:
    """Everything measured during a solve, serializable as flat key=value."""

    formula: str
    condition_numbers: dict
    boundary_residual: float
    data_projection_loss: float
    trace_kernel_fraction: float
    hardy_defect: float
    invariance_defect: float
    norms: dict = dataclass_field(default_factory=dict)
    second_order_residual: float | None = None
    extra: dict = dataclass_field(default_factory=dict)

    def items(self):
        yield "formula", self.formula
        for k, v in self.condition_numbers.items():
            yield f"cond.{k}", v
        yield "boundary_residual", self.boundary_residual
        yield "data_projection_loss", self.data_projection_loss
        yield "trace_kernel_fraction", self.trace_kernel_fraction
        yield "hardy_defect", self.hardy_defect
        yield "invariance_defect", self.invariance_defect
        for k, v in self.norms.items():
            yield f"norm.{k}", v
        if self.second_order_residual is not None:
            yield "second_order_residual", self.second_order_residual
        for k, v in self.extra.items():
            yield k, v

    def to_text(self) -> str:
        lines = []
        for k, v in self.items():
            if isinstance(v, float):
                lines.append(f"{k} = {v!r}")
            else:
                lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"


class BoundaryInverse:
    """Minimum-norm inverse of a boundary operator under a singular-value
    cutoff.

    Kernel directions of T invisible to the boundary datum make the solve
    operators structurally rank deficient by at most dim ker T; any null
    space beyond that, or an effective condition number past the cap, is a
    well-posedness failure, raised at construction.

    The operator is a ``calculus.BlockDiagonal``, factored and solved block
    by block; an operator that is one block is the single (1, m, m) group.
    Each size group takes its singular values alone (one stacked
    ``calculus.svdvals`` call), and the rules on them are global: the
    cutoff is 1e-12 times the largest singular value of any block,
    ``null_dim`` counts the values at or below it over all blocks, and
    ``cond`` is the largest value over the smallest kept one.  Past the
    checks, each group gets one ``calculus.DeflatedInverse``: the inverse
    of each block deflated by its own count of dropped values, at the
    scale of the largest singular value, together with its left and right
    null bases, so that ``solve`` is the truncated pseudo-inverse up to
    rounding without any singular vectors.
    """

    def __init__(self, op: BlockDiagonal, label: str, kernel_dim: int):
        m = op.dim
        svals = [calculus.svdvals(b) for b in op.blocks]
        s_all = np.concatenate([s.ravel() for s in svals])
        s_max = float(np.max(s_all))
        cutoff = 1e-12 * s_max
        kept = s_all[s_all > cutoff]
        null_dim = m - kept.size
        cond = s_max / float(np.min(kept)) if kept.size else np.inf
        if null_dim > kernel_dim:
            raise WellPosednessError(
                f"boundary operator {label!r} has {null_dim} null directions "
                f"(at most {kernel_dim} kernel ambiguities expected)",
                np.inf)
        if not np.isfinite(cond) or cond >= COND_CAP:
            raise WellPosednessError(
                f"boundary operator {label!r} is numerically singular "
                f"(condition number {cond:.3e} >= {COND_CAP:.0e})", cond)
        self.label = label
        self.cond = cond
        self.null_dim = null_dim
        self._groups = op.groups
        self._inverses = [
            calculus.DeflatedInverse(b, np.sum(s <= cutoff, axis=1), s_max)
            for b, s in zip(op.blocks, svals)]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse to a vector or to right-hand-side columns."""
        rhs = np.asarray(rhs)
        cols = rhs[:, None] if rhs.ndim == 1 else rhs
        out = BlockDiagonal.rowwise(
            self._groups, lambda g, x: self._inverses[g].solve(x), cols,
            out=True)
        return out[:, 0] if rhs.ndim == 1 else out


_BOUNDARY_LABELS = {"neumann": "E - N_A", "regularity": "E + N",
                    "neu_perp": "E - N", "dirichlet": "E - N",
                    "transmission": "lambda - E N_B"}


def _boundary_label(kind: str) -> str:
    if kind not in _BOUNDARY_LABELS:
        raise ValueError(f"unknown kind {kind!r}")
    return _BOUNDARY_LABELS[kind]


def _grading(refl: np.ndarray) -> np.ndarray | None:
    """The signs s of the diagonal of a restricted reflection N when
    |N - diag(s)| <= 1e-13 entrywise (N is diagonal with entries +-1 up to
    rounding), else None."""
    signs = np.sign(np.diagonal(refl).real)
    defect = np.abs(refl)
    np.fill_diagonal(defect, np.abs(np.diagonal(refl) - signs))
    return signs if np.max(defect, initial=0.0) <= 1e-13 else None


class BoundaryFrame:
    """Assembled boundary machinery for one coefficient field and subspace.

    Builds (once) the restricted Dirac operator, its spectral decomposition,
    the Cauchy reflection E, and the two boundary reflections; ``invert``
    factors each boundary operator the first time a solve needs it and
    keeps the factorization, one per operator and, for transmission, one
    per lambda.  All solves and campaigns for the same coefficients share a
    frame.  The frame matrices are held as blocks: ``E_blocks``,
    ``Pnk_blocks``, ``PK_blocks`` and ``E_solve_blocks`` on the partition
    ``dec.V_blocks.groups`` of T, ``N_blocks`` and ``NA_blocks`` on the
    connected blocks of T and the reflection; ``E``, ``Pnk``, ``N`` and
    ``NA`` are the dense views of four of them.
    """

    def __init__(self, B: CoefficientField, degree: int = 1,
                 invariance_tol: float = 1e-8):
        if not B.is_accretive():
            raise ValueError(
                f"coefficients are not accretive (kappa = {B.kappa:.3e})")
        self.B = B
        self.torus = B.torus
        if degree == 1:
            self.basis = hat_h1_basis(self.torus)
        else:
            self.basis = hat_hk_basis(B, degree)
        # T, N and N_A are applied to the basis columns matrix free; the
        # defect scale ||T_B||_2 is a lower-bound estimate, so the
        # recorded defect is never below the exact one
        self.T = restrict(TB_operator(B), self.basis,
                          invariance_tol=invariance_tol)
        self.invariance_defect = self.T.invariance_defect
        # N is restricted first: where it is diagonal (the plane-wave
        # basis), its signs grade T, and block coefficients, for which T
        # anticommutes with N, are factored through the half-size
        # eigenproblem of XY (``calculus.decompose``)
        refl = restrict(reflection_operator(self.torus), self.basis).entries
        self.dec = decompose(self.T.entries, grading=_grading(refl))
        # E, P_nk, P_K and E_solve are held on the partition of T (that of
        # V); each reflection on the connected blocks of T and itself, the
        # partition its boundary operators are factored on.  The steps
        # keep the order of the dense products, so that the peak memory of
        # the build is not raised.
        self.E_blocks = calculus.apply_function(self.dec, sgn())
        self.N_blocks = self._reflection_blocks(refl)
        self.NA_blocks = self._reflection_blocks(
            restrict(NB_operator(B), self.basis).entries)
        self.Pnk_blocks = self.dec.nonkernel_projector()
        self.PK_blocks = self.dec.kernel_projector()
        self.kernel_dim = int(np.sum(self.dec.kernel_indices))
        # Solve-side Cauchy reflection: the discrete kernel (the torus
        # artifact replacing the absent constants) is assigned to the upper
        # Hardy class, so that (E - N) f = 2 N^- f holds on the whole
        # bounded-solution class E^+ H + ker T.
        self.E_solve_blocks = self.E_blocks + self.PK_blocks
        self._inverses = {}

    def _reflection_blocks(self, refl: np.ndarray) -> BlockDiagonal:
        return BlockDiagonal.gather(
            refl, calculus.block_partition(self.T.entries, refl))

    # -- per-mode semigroup, formed on first use ----------------------------

    @cached_property
    def _mode_lift(self) -> np.ndarray | None:
        """The per-mode lift of the eigenbasis, L_p = F_p V_(p) for the
        mode frames F_p and the r x r part V_(p) of V on mode p's
        coordinates: a (P, d, r) stack, formed from the blocks of V.  None
        unless the basis is a ``PlaneWaveBasis`` and every block of V lies
        inside one Fourier mode (every constant-coefficient frame)."""
        basis = self.basis
        if not isinstance(basis, PlaneWaveBasis):
            return None
        # the mode and frame column of every coordinate, in basis order
        mode, slot = np.nonzero(basis.present)
        V = np.zeros(basis.present.shape + basis.present.shape[1:],
                     dtype=complex)
        V_blocks = self.dec.V_blocks
        for idx, blk in zip(V_blocks.groups, V_blocks.blocks):
            p = mode[idx]
            if np.any(p != p[:, :1]):
                return None
            s = slot[idx]
            V[p[:, :1, None], s[:, :, None], s[:, None, :]] = blk
        return basis.frames @ V

    # -- dense views, formed on first access --------------------------------

    @property
    def E(self) -> np.ndarray:
        return self.E_blocks.dense()

    @property
    def Pnk(self) -> np.ndarray:
        return self.Pnk_blocks.dense()

    @property
    def N(self) -> np.ndarray:
        return self.N_blocks.dense()

    @property
    def NA(self) -> np.ndarray:
        return self.NA_blocks.dense()

    # -- operators ---------------------------------------------------------

    def boundary_operator(self, kind: str, lam: complex | None = None):
        """The boundary operator of ``kind`` as a ``calculus.BlockDiagonal``
        on the partition of its reflection, and its label."""
        label = _boundary_label(kind)
        refl = self.N_blocks if kind in ("regularity", "neu_perp",
                                         "dirichlet") else self.NA_blocks
        E_solve = self.E_solve_blocks.regroup(refl.groups)
        if kind == "transmission":
            return BlockDiagonal.eye(refl.groups) * lam - E_solve @ refl, label
        return (E_solve + refl if kind == "regularity"
                else E_solve - refl), label

    def invert(self, kind: str, rhs: np.ndarray, lam: complex | None = None):
        """Minimum-norm solve with the boundary operator of ``kind`` (at
        ``lam`` for transmission) for a vector or right-hand-side columns.

        The operator is formed and factored (``BoundaryInverse``) only on
        the first call for its label and ``lam``; the factorization is kept
        for the life of the frame, so neu_perp and dirichlet share E - N and
        transmission keeps one per lambda.  Returns the solution and the
        ``BoundaryInverse``, which carries ``label``, ``cond`` and
        ``null_dim``."""
        key = (_boundary_label(kind), lam)
        if key not in self._inverses:
            op, label = self.boundary_operator(kind, lam)
            self._inverses[key] = BoundaryInverse(op, label, self.kernel_dim)
        inv = self._inverses[key]
        return inv.solve(rhs), inv

    # -- field/coordinate plumbing ----------------------------------------

    def to_coords(self, f: Field):
        """Basis coordinates of ``f`` and the relative norm of the part of
        ``f`` outside the subspace (for the plane-wave basis, measured on
        the Fourier coefficients outside each mode's frame)."""
        vec = f.flatten()
        coords, leak = self.basis.split(vec[:, None])
        scale = max(np.linalg.norm(vec), 1e-300)
        return coords[:, 0], float(np.linalg.norm(leak) / scale)

    def to_field(self, coords: np.ndarray) -> Field:
        return Field.from_flat(self.torus, self.basis.from_coords(coords))

    def field_values(self, coords: np.ndarray) -> np.ndarray:
        """Grid values of the fields whose coordinates are the columns of
        ``coords``, lifted by one product: shape grid_shape + (2^(n+1), k)."""
        return self.basis.from_coords(coords).reshape(
            self.torus.shape + (self.torus.lambda_dim, coords.shape[1]))

    def phys_norm(self, coords: np.ndarray) -> float:
        return float(np.sqrt(self.torus.weight) * np.linalg.norm(coords))


def _check_heights(ts: np.ndarray) -> None:
    if not np.isfinite(ts).all():
        raise ValueError("heights must be finite")
    if (ts < 0).any():
        raise ValueError("t measures distance to the boundary; t >= 0")


@dataclass(frozen=True)
class SolutionField:
    """Boundary trace plus semigroup evaluator for one half space.

    Frozen, so that the cached ``eig_coords`` and height block always belong
    to ``coords``.
    """

    frame: BoundaryFrame
    coords: np.ndarray  # trace in the restricted basis
    side: int = +1  # +1 upper half space, -1 lower
    # (heights, read-only F block) of the latest grid of two or more heights
    _grid_block: list = dataclass_field(default_factory=list, init=False,
                                        repr=False, compare=False)

    @cached_property
    def eig_coords(self) -> np.ndarray:
        """The trace's eigen-coordinates V^{-1} coords, formed once."""
        return self.frame.dec.coordinates(self.coords)

    def coords_at_t(self, t: float) -> np.ndarray:
        return self.coords_at_ts([t])[:, 0]

    def coords_at_ts(self, ts) -> np.ndarray:
        """F_t for every t of ``ts`` as the columns of one m x len(ts) block,
        from one ``apply_to_vector`` call; t = 0 gives the trace itself.

        The block of the latest grid of two or more heights is kept,
        read-only, and returned again while the grid's values repeat: the
        norms, ``norms_at_ts`` and the Dirichlet residual on one grid share
        one evaluation of e^{-t|T|} f.
        """
        ts = np.asarray(ts, dtype=float)
        _check_heights(ts)
        if ts.size < 2:
            return self._semigroup(ts)
        memo = self._grid_block
        if memo and np.array_equal(memo[0], ts):
            return memo[1]
        block = self._semigroup(ts)
        block.flags.writeable = False
        memo[:] = [ts.copy(), block]
        return block

    def _semigroup(self, ts: np.ndarray) -> np.ndarray:
        """A fresh F block for the checked heights ``ts``."""
        out = apply_to_vector(self.frame.dec, exp_minus_t_abs(ts),
                              eig_coords=self.eig_coords)
        out[:, ts == 0] = self.coords[:, None]
        return out

    def norms_at_ts(self, ts) -> np.ndarray:
        """Grid L2 norms ||F_t|| at every t of ``ts``, from one block
        product."""
        return np.sqrt(self.frame.torus.weight) * np.linalg.norm(
            self.coords_at_ts(ts), axis=0)

    def at_t(self, t: float) -> Field:
        """F_t = e^{-t|T|} f on the grid at one height t >= 0.

        On a frame whose eigenvectors never couple two Fourier modes (the
        frame's ``_mode_lift``, every constant-coefficient frame), the
        height is evaluated in Fourier space: the factors e^{-t|lambda|}
        (1 on the kernel), taken from the decomposition's symbol memo
        (``calculus._symbol_values``, formed once per frame and height),
        times the eigen-coordinates (subnormals flushed as in
        ``calculus.apply_to_vector``), placed in their mode slots,
        contracted with the per-mode lift L_p = F_p V_(p) in one product and
        taken to the grid by the basis's unitary inverse FFT.  The factors
        are taken before t = 0 is singled out, so that the sector check
        (SectorViolationError at a (near-)imaginary eigenvalue) is made at
        every height.  Any other frame lifts ``coords_at_t(t)`` through the
        basis.  On both routes t = 0 gives the trace field itself, exactly.
        """
        frame = self.frame
        lift = frame._mode_lift
        if lift is None:
            return frame.to_field(self.coords_at_t(t))
        t = float(t)
        _check_heights(np.float64(t))
        factors = calculus._symbol_values(frame.dec, exp_minus_t_abs(t))
        if t == 0:
            return self.trace_field()
        x = calculus._flush_subnormals(factors * self.eig_coords)
        basis = frame.basis
        slots = np.zeros(basis.present.shape, dtype=complex)
        slots[basis.present] = x
        return Field.from_flat(frame.torus, basis.from_modes(
            np.einsum("pdr,pr->pd", lift, slots)))

    def trace_field(self) -> Field:
        return self.frame.to_field(self.coords)

    def hardy_defect(self) -> float:
        """Relative size of the Hardy component for the wrong half space
        (the kernel belongs to both, so it never counts as a defect)."""
        E, Pnk = self.frame.E_blocks, self.frame.Pnk_blocks
        resid = 0.5 * (Pnk @ self.coords - self.side * (E @ self.coords))
        scale = max(np.linalg.norm(self.coords), 1e-300)
        return float(np.linalg.norm(resid) / scale)

    def default_t_samples(self):
        """Log-spaced heights from 1e-2/max|lambda| to 1e2/min non-kernel
        |lambda|, 10 per decade."""
        dec = self.frame.dec
        # an all-kernel spectrum raises ValueError here, before dividing by
        # its zero spectral radius
        t_max = 1e2 / dec.min_nonkernel()
        t_min = 1e-2 / dec.spectral_radius()
        m = max(int(np.ceil(np.log10(t_max / t_min) * 10)), 2)
        return np.exp(np.linspace(np.log(t_min), np.log(t_max), m))


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _as_coefficients(A, torus: Torus | None) -> CoefficientField:
    if isinstance(A, CoefficientField):
        return A
    if torus is None:
        raise ValueError("a torus is required when passing a plain matrix")
    return vector_block_coefficients(torus, np.asarray(A, dtype=complex))


def _e0_field(torus: Torus, scalar: np.ndarray) -> Field:
    vals = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    vals[..., 1] = scalar
    return Field(torus, vals)


def _finish_solve(frame: BoundaryFrame, kind: str, formula: str,
                  rhs_field: Field, compare, mean_loss: float = 0.0) -> tuple:
    rhs_coords, data_loss = frame.to_coords(rhs_field)
    sol_coords, inv = frame.invert(kind, 2.0 * rhs_coords)
    sol = SolutionField(frame, sol_coords)
    g_eff = frame.to_field(rhs_coords)
    resid = compare(sol.trace_field(), g_eff)
    scale = max(np.linalg.norm(sol_coords), 1e-300)
    kernel_fraction = float(np.linalg.norm(frame.PK_blocks @ sol_coords)
                            / scale)
    report = SolveReport(
        formula=formula,
        condition_numbers={inv.label: inv.cond},
        boundary_residual=resid,
        data_projection_loss=float(np.hypot(data_loss, mean_loss)),
        trace_kernel_fraction=kernel_fraction,
        hardy_defect=sol.hardy_defect(),
        invariance_defect=frame.invariance_defect,
        extra={"null_dim": inv.null_dim},
    )
    return sol, report


def _remove_mean(scalar: np.ndarray):
    """Drop the constant Fourier mode of a scalar boundary datum (the torus
    stand-in for data with no zero-frequency content)."""
    mean = complex(np.mean(scalar))
    out = scalar - mean
    loss = abs(mean) / max(float(np.linalg.norm(scalar))
                           / np.sqrt(scalar.size), 1e-300)
    return out, (0.0 if abs(mean) == 0 else float(loss))


def _rel(num: float, den: float) -> float:
    return float(num / max(den, 1e-300))


def solve_neumann(A, data, torus: Torus | None = None,
                  frame: BoundaryFrame | None = None):
    """Neumann problem: conormal derivative e_0 . (A f) = phi on the boundary."""
    if frame is None:
        frame = BoundaryFrame(_as_coefficients(A, torus))
    torus = frame.torus
    phi, mean_loss = _remove_mean(np.asarray(data, dtype=complex))
    a00 = frame.B.maps[..., 1, 1]
    rhs_field = _e0_field(torus, phi / a00)
    Bmat = frame.B.maps

    def compare(trace: Field, g_eff: Field):
        Af = np.einsum("...ij,...j->...i", Bmat, trace.values)
        Ag = np.einsum("...ij,...j->...i", Bmat, g_eff.values)
        return _rel(np.linalg.norm(Af[..., 1] - Ag[..., 1]),
                    np.linalg.norm(Ag[..., 1]))

    return _finish_solve(frame, "neumann",
                         "f = 2 (E - N_A)^{-1} (a00^{-1} phi e0)",
                         rhs_field, compare, mean_loss=mean_loss)


def solve_regularity(A, data: Field, torus: Torus | None = None,
                     frame: BoundaryFrame | None = None):
    """Regularity problem: tangential part of the trace equals grad psi."""
    if frame is None:
        frame = BoundaryFrame(_as_coefficients(A, torus))
    _check_gradient(data)
    tang = algebra.tangential_proj_matrix(frame.torus.dim_n)

    def compare(trace: Field, g_eff: Field):
        diff = (trace.values - g_eff.values) @ tang.T
        return _rel(np.linalg.norm(diff),
                    np.linalg.norm(g_eff.values @ tang.T))

    return _finish_solve(frame, "regularity",
                         "f = 2 (E + N)^{-1} (grad psi)", data, compare)


def solve_neu_perp(A, data, torus: Torus | None = None,
                   frame: BoundaryFrame | None = None):
    """Auxiliary Neumann problem: normal component e_0 . f = phi."""
    if frame is None:
        frame = BoundaryFrame(_as_coefficients(A, torus))
    phi, mean_loss = _remove_mean(np.asarray(data, dtype=complex))
    rhs_field = _e0_field(frame.torus, phi)

    def compare(trace: Field, g_eff: Field):
        return _rel(np.linalg.norm(trace.values[..., 1] - g_eff.values[..., 1]),
                    np.linalg.norm(g_eff.values[..., 1]))

    return _finish_solve(frame, "neu_perp",
                         "f = 2 (E - N)^{-1} (phi e0)", rhs_field, compare,
                         mean_loss=mean_loss)


def solve_dirichlet(A, data, torus: Torus | None = None,
                    frame: BoundaryFrame | None = None):
    """Dirichlet problem: U_t is the e_0 reading of the aux Neumann solve.

    The report additionally carries the relative second-order interior
    residual div_{t,x} A grad_{t,x} U at ten log-spaced heights from
    0.05/max|lambda| to 2/min non-kernel |lambda|, computed with spectral
    x-derivatives and exact generator t-derivatives.
    """
    if frame is None:
        frame = BoundaryFrame(_as_coefficients(A, torus))
    sol, report = solve_neu_perp(None, data, frame=frame)
    report.formula = "U_t = (2 e^{-t|T|} (E - N)^{-1} (u e0), e0)"
    dec = frame.dec
    report.second_order_residual = dirichlet_second_order_residual(
        sol, np.exp(np.linspace(np.log(0.05 / dec.spectral_radius()),
                                np.log(2.0 / dec.min_nonkernel()), 10)))
    return sol, report


def dirichlet_second_order_residual(sol: SolutionField, t_samples) -> float:
    """max over sampled t of ||div_{t,x} A grad_{t,x} U|| relative to the
    size of its constituent terms.

    U_t, dU/dt and d^2U/dt^2 at every sample come from two block products,
    x-derivatives from FFTs.
    """
    frame = sol.frame
    torus = frame.torus
    n = torus.dim_n
    ts = np.asarray(t_samples, dtype=float)
    _check_heights(ts)
    T = len(ts)
    if T == 0:
        raise ValueError("empty sample grid")
    A = frame.B.vector_block()[..., None]
    dts = apply_to_vector(frame.dec, [semigroup_dt(ts, k) for k in (1, 2)],
                          eig_coords=sol.eig_coords)
    vals = frame.field_values(np.hstack([sol.coords_at_ts(ts), dts]))
    U, Ut, Utt = np.split(vals[..., 1, :], 3, axis=-1)
    gradU = [partial_columns(torus, U, j) for j in range(n)]
    gradUt = [partial_columns(torus, Ut, j) for j in range(n)]

    def col_norms(x):
        return np.linalg.norm(x.reshape(-1, T), axis=0)

    # g = A (dU/dt, grad_x U); residual = d/dt g_0 + div_x g_par
    dt_g0 = A[..., 0, 0, :] * Utt
    for j in range(n):
        dt_g0 = dt_g0 + A[..., 0, j + 1, :] * gradUt[j]
    div_gpar = np.zeros_like(U)
    scale_terms = [col_norms(dt_g0)]
    for i in range(n):
        g_i = A[..., i + 1, 0, :] * Ut
        for j in range(n):
            g_i = g_i + A[..., i + 1, j + 1, :] * gradU[j]
        dg_i = partial_columns(torus, g_i, i)
        div_gpar = div_gpar + dg_i
        scale_terms.append(col_norms(dg_i))
    resid = col_norms(dt_g0 + div_gpar)
    scale = np.maximum(np.max(scale_terms, axis=0), 1e-300)
    return float(np.max(resid / scale, initial=0.0))


def _check_gradient(data: Field) -> None:
    """Regularity data must be tangential and curl free (checked per mode),
    each to ``GRADIENT_TOL`` relative."""
    torus = data.torus
    n = torus.dim_n
    nor = algebra.normal_mask(n)
    if np.linalg.norm(data.values[..., nor]) > GRADIENT_TOL * max(
            np.linalg.norm(data.values), 1e-300):
        raise ValueError("regularity data must be tangential")
    degs = algebra.mask_degrees(n)
    high = degs > 1
    if np.linalg.norm(data.values[..., high]) > GRADIENT_TOL * max(
            np.linalg.norm(data.values), 1e-300):
        raise ValueError("regularity data must be a vector field")
    if n == 2:
        spec = np.fft.fftn(data.values, axes=(0, 1))
        xi1, xi2 = torus.wavenumbers()
        curl = xi1 * spec[..., 4] - xi2 * spec[..., 2]
        if np.linalg.norm(curl) > GRADIENT_TOL * max(np.linalg.norm(spec),
                                                     1e-300):
            raise ValueError("regularity data is not curl free")


def solve_transmission(B: CoefficientField, degree: int, alpha_plus: complex,
                       alpha_minus: complex, g: Field,
                       frame: BoundaryFrame | None = None):
    """Two-sided transmission problem for degree-k fields.

    Solves (lambda - E N_B) f = 2/(a+ - a-) E g on the constrained degree-k
    subspace, splits f into Hardy halves and verifies both jump conditions:
    the boundary residual is the larger jump over the sum of the two jumps'
    datum scales ||mu g|| + ||mu* B g||.  A datum more than 1e-8 (relative)
    outside that subspace is rejected.
    """
    if alpha_plus == alpha_minus:
        raise ValueError("alpha_plus and alpha_minus must differ")
    lam = (alpha_plus + alpha_minus) / (alpha_plus - alpha_minus)
    if frame is None:
        frame = BoundaryFrame(B, degree=degree)
    torus = frame.torus
    g_coords, g_loss = frame.to_coords(g)
    if g_loss > 1e-8:
        raise ValueError(
            f"transmission datum is outside the constrained degree-{degree} "
            f"space (relative distance {g_loss:.3e})")
    margin = abs(lam ** 2 + 1.0)
    if margin < 1e-12:
        raise WellPosednessError(
            f"spectral point lambda = {lam!r} is degenerate "
            f"(|lambda^2 + 1| = {margin:.3e})", np.inf)
    E_solve = frame.E_solve_blocks
    rhs = (2.0 / (alpha_plus - alpha_minus)) * (E_solve @ g_coords)
    f_coords, inv = frame.invert("transmission", rhs, lam)
    f_plus = 0.5 * (f_coords + E_solve @ f_coords)
    f_minus = 0.5 * (f_coords - E_solve @ f_coords)
    sol_p = SolutionField(frame, f_plus, side=+1)
    sol_m = SolutionField(frame, f_minus, side=-1)

    # jump conditions in the ambient field space
    n = torus.dim_n
    mu = algebra.mu_matrix(n)
    Bmat = frame.B.maps
    mus = algebra.mu_star_matrix(n)
    fp = frame.to_field(f_plus).values
    fm = frame.to_field(f_minus).values
    gv = frame.to_field(g_coords).values
    j1 = (alpha_minus * fp - alpha_plus * fm - gv) @ mu.T
    j1_scale = np.linalg.norm(gv @ mu.T)
    Bfp = np.einsum("...ij,...j->...i", Bmat, fp)
    Bfm = np.einsum("...ij,...j->...i", Bmat, fm)
    Bg = np.einsum("...ij,...j->...i", Bmat, gv)
    j2 = (alpha_plus * Bfp - alpha_minus * Bfm - Bg) @ mus.T
    j2_scale = np.linalg.norm(Bg @ mus.T)
    # one scale for both jumps: for identity or block B and a gradient
    # datum the normal part of B g is exactly zero, so j2_scale alone
    # would turn a rounding-size jump into a huge relative residual
    resid = _rel(max(np.linalg.norm(j1), np.linalg.norm(j2)),
                 j1_scale + j2_scale)
    report = SolveReport(
        formula="(lambda - E N_B) f = 2/(a+ - a-) E g",
        condition_numbers={inv.label: inv.cond},
        boundary_residual=resid,
        data_projection_loss=float(g_loss),
        trace_kernel_fraction=float(
            np.linalg.norm(frame.PK_blocks @ f_coords)
            / max(np.linalg.norm(f_coords), 1e-300)),
        hardy_defect=max(sol_p.hardy_defect() if np.linalg.norm(f_plus) > 0 else 0.0,
                         sol_m.hardy_defect() if np.linalg.norm(f_minus) > 0 else 0.0),
        invariance_defect=frame.invariance_defect,
        extra={"lambda": lam, "degeneracy_margin": margin,
               "null_dim": inv.null_dim},
    )
    return (sol_p, sol_m), report


def solve_kind(kind: str, frame: BoundaryFrame, scalar: np.ndarray):
    """Solve one of the four scalar-datum problems on ``frame``.

    ``scalar`` is phi for 'neumann' and 'neu_perp', u for 'dirichlet', and
    the potential psi for 'regularity', whose datum is grad psi.
    """
    if kind == "regularity":
        return solve_regularity(None, gradient_of(frame.torus, scalar),
                                frame=frame)
    solvers = {"neumann": solve_neumann, "neu_perp": solve_neu_perp,
               "dirichlet": solve_dirichlet}
    if kind not in solvers:
        raise ValueError(f"unknown problem kind {kind!r}; valid kinds: "
                         f"{', '.join(SCALAR_KINDS)}")
    return solvers[kind](None, scalar, frame=frame)


# ---------------------------------------------------------------------------
# solution norms
# ---------------------------------------------------------------------------

def norm_sup_t(sol: SolutionField, t_samples=None) -> float:
    if t_samples is None:
        t_samples = sol.default_t_samples()
    if len(t_samples) == 0:
        raise ValueError("empty sample grid")
    return float(np.max(sol.norms_at_ts(t_samples)))


def norm_triplebar_dt(sol: SolutionField) -> float:
    """Triple-bar norm (int ||t dF/dt||^2 dt/t)^{1/2} via the generator:
    the square function of t|T| e^{-t|T|} = -t d/dt e^{-t|T|}."""
    total = square_function(sol.frame.dec, psi_abs_exp,
                            eig_coords=sol.eig_coords)
    return float(np.sqrt(sol.frame.torus.weight * total))


def _box_means(a: np.ndarray, wins: np.ndarray, axis: int) -> np.ndarray:
    """Mean of each slice a[i] over the wins[i] periodic neighbours
    j - (w - 1 - w // 2) .. j + w // 2 (w = wins[i]) of every index j along
    ``axis`` (> 0): the window of sum_s roll(a[i], s) over
    s = -(w // 2) .. w - 1 - w // 2.  All slices at once, as differences of
    one cumulative sum over the periodically extended axis."""
    a0 = np.moveaxis(a, axis, 1)
    N = a0.shape[1]
    lo, hi = wins - 1 - wins // 2, wins // 2
    ext_lo = int(np.max(lo, initial=0))
    ext = a0[:, np.arange(-ext_lo, N + int(np.max(hi, initial=0))) % N]
    csum = np.zeros((ext.shape[0], ext.shape[1] + 1) + ext.shape[2:])
    np.cumsum(ext, axis=1, out=csum[:, 1:])
    at = np.arange(N) + ext_lo
    pad = (1,) * (a0.ndim - 2)
    upper = (at + hi[:, None] + 1).reshape((-1, N) + pad)
    lower = (at - lo[:, None]).reshape((-1, N) + pad)
    total = (np.take_along_axis(csum, upper, axis=1)
             - np.take_along_axis(csum, lower, axis=1))
    return np.moveaxis(total / wins.reshape((-1, 1) + pad), 1, axis)


def nontangential_max(sol: SolutionField, t_samples=None) -> float:
    """L2 norm of the non-tangential maximal function on the sample lattice.

    Whitney boxes: |s - t| < t/2 in height, |y - x| <= t per axis (periodic
    distance, whole grid steps); the box average always includes the nearest
    lattice sample.  The fields at all heights are the solution's block on
    the grid (``SolutionField.coords_at_ts``, shared with the other norms
    on the same grid).  The box means of all heights come at once: on the
    sorted grid each height window is a contiguous index range, summed as a
    difference of cumulative sums taken from the largest height down (the
    fields decay in t, so a window at large heights is not the difference
    of two sums over the small ones), and each x-window is a difference of
    cumulative sums over the periodically extended axis (``_box_means``).
    """
    frame = sol.frame
    torus = frame.torus
    if t_samples is None:
        t_samples = sol.default_t_samples()
    if len(t_samples) == 0:
        raise ValueError("empty sample grid")
    ts = np.asarray(t_samples, dtype=float)
    vals = frame.field_values(sol.coords_at_ts(ts))
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    sq = np.moveaxis(np.sum(np.abs(vals) ** 2, axis=-2), -1, 0)[order]
    # height windows t/2 < s < 3t/2 as index ranges [lo, hi); a height whose
    # window is empty (t = 0) takes its own sample
    lo = np.searchsorted(ts, 0.5 * ts, side="right")
    hi = np.searchsorted(ts, 1.5 * ts, side="left")
    own = hi <= lo
    lo[own] = np.flatnonzero(own)
    hi[own] = lo[own] + 1
    tail = np.zeros((len(ts) + 1,) + sq.shape[1:])
    np.cumsum(sq[::-1], axis=0, out=tail[-2::-1])
    pad = (1,) * torus.dim_n
    avg = (tail[lo] - tail[hi]) / (hi - lo).reshape((-1,) + pad)
    dx = torus.length / torus.points_per_axis
    wins = np.minimum(2 * np.floor(ts / dx) + 1,
                      torus.points_per_axis).astype(int)
    for ax in range(torus.dim_n):
        avg = _box_means(avg, wins, ax + 1)
    best = np.max(avg, axis=0, initial=0.0)
    return float(np.sqrt(torus.weight * np.sum(best)))


# ---------------------------------------------------------------------------
# well-posedness landscape
# ---------------------------------------------------------------------------

def reflection_conditions(frame: BoundaryFrame) -> dict:
    """Uncapped 2-norm condition numbers of I -+ E N_A and I -+ E N, from
    the singular values of their blocks on the partition of each
    reflection."""
    out = {}
    for name, refl in (("N_A", frame.NA_blocks), ("N", frame.N_blocks)):
        eye = BlockDiagonal.eye(refl.groups)
        ER = frame.E_blocks.regroup(refl.groups) @ refl
        for sign_, op in (("-", eye - ER), ("+", eye + ER)):
            sv = op.svdvals()
            out[f"I{sign_}E{name}"] = float(np.max(sv)
                                           / max(np.min(sv), 1e-300))
    return out
