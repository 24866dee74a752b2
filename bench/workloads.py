"""The four benchmark workloads and the correctness checks of their outputs.

Every workload runs whole rounds of the same operations, so the share of
failed operations does not depend on the seed or on the run length.  The
coefficient fields are fixed; ``--seed`` draws the boundary data.  Checks
run outside the timed region and compare against an independent route
(``oracles.constant_solver`` wherever the coefficients are constant) or a
property the method must have.  A failed check fails its operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from halfspace import bvp, diagnostics, grid, oracles, verify

KINDS = ("neumann", "regularity", "neu_perp", "dirichlet")

# Tolerances of the per-operation checks.  The E identities are held to the
# frame's own invariance tolerance; the oracle, boundary-residual and
# Dirichlet-residual tolerances are the ones the verify battery gates with.
IDENTITY_TOL = 1e-8
ORACLE_TOL = 1e-9
RESIDUAL_TOL = 1e-8
HARDY_TOL = 1e-8
DIRICHLET_TOL = 1e-6
E_NORM_CAP = 1e3
NORM_WINDOW = (1 / 50, 50.0)
ORACLE_T = np.exp(np.linspace(np.log(0.05), np.log(2.0), 5))


@dataclass
class OpResult:
    """One attempted operation: its wall time and what its checks found."""

    label: str
    seconds: float
    error: str | None = None
    failures: list = dataclass_field(default_factory=list)
    oracle_dev: list = dataclass_field(default_factory=list)
    identity_defect: list = dataclass_field(default_factory=list)
    rows: list = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def coefficient_family(torus: grid.Torus, family: str):
    """(CoefficientField, constant matrix or None) for a named family."""
    n = torus.dim_n
    if family == "identity":
        return grid.identity_coefficients(torus), np.eye(n + 1, dtype=complex)
    if family == "constant":
        A = diagnostics.random_accretive_constant(1, n)
        return grid.vector_block_coefficients(torus, A), A
    if family == "block":
        return diagnostics.block_coefficients(torus, 3), None
    if family == "skew_k4":
        return diagnostics.skew_coefficients(torus, 4.0), None
    if family == "smooth_symmetric":
        return diagnostics.smooth_real_symmetric(torus, 3), None
    raise ValueError(f"unknown coefficient family {family!r}")


def band_limited(torus: grid.Torus, rng) -> np.ndarray:
    """Real, mean-free scalar datum with random Fourier coefficients on the
    modes 0 < |k|_inf <= min(8, N/4), decaying like 1/(1 + |k|^2)."""
    N = torus.points_per_axis
    kmax = max(1, min(8, N // 4))
    ks = np.fft.fftfreq(N, d=1.0 / N)
    grids = np.meshgrid(*([ks] * torus.dim_n), indexing="ij")
    kabs = np.max(np.abs(np.stack(grids)), axis=0)
    k2 = sum(g ** 2 for g in grids)
    keep = (kabs > 0) & (kabs <= kmax)
    spec = np.zeros(torus.shape, dtype=complex)
    draws = rng.standard_normal((2,) + torus.shape)
    spec[keep] = (draws[0] + 1j * draws[1])[keep] / (1.0 + k2[keep])
    scalar = np.fft.ifftn(spec).real
    scalar = scalar - scalar.mean()
    return (scalar / np.max(np.abs(scalar))).astype(complex)


def gradient_field(torus: grid.Torus, scalar: np.ndarray) -> grid.Field:
    """Tangential gradient of a scalar potential, as a vector Field."""
    vals = np.zeros(torus.shape + (torus.lambda_dim,), dtype=complex)
    vals[..., 0] = scalar
    return grid.d_op(grid.Field(torus, vals))


def solve(frame, kind: str, scalar: np.ndarray):
    if kind == "neumann":
        return bvp.solve_neumann(None, scalar, frame=frame)
    if kind == "regularity":
        return bvp.solve_regularity(
            None, gradient_field(frame.torus, scalar), frame=frame)
    if kind == "neu_perp":
        return bvp.solve_neu_perp(None, scalar, frame=frame)
    if kind == "dirichlet":
        return bvp.solve_dirichlet(None, scalar, frame=frame)
    raise ValueError(f"unknown problem kind {kind!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return float(a / max(b, 1e-300))


def check_frame(frame, res: OpResult) -> None:
    """E identities, bounded E and the kernel dimension n + 1."""
    E, T, Pnk = frame.E, frame.T.entries, frame.Pnk
    e2 = _rel(np.linalg.norm(E @ E - Pnk, 2), np.linalg.norm(Pnk, 2))
    comm = _rel(np.linalg.norm(E @ T - T @ E, 2), np.linalg.norm(T, 2))
    norm_E = float(np.linalg.norm(E, 2))
    res.identity_defect += [e2, comm]
    if not e2 <= IDENTITY_TOL:
        res.failures.append(f"|E^2 - P_nk| = {e2:.3e}")
    if not comm <= IDENTITY_TOL:
        res.failures.append(f"|ET - TE|/|T| = {comm:.3e}")
    if not norm_E <= E_NORM_CAP:
        res.failures.append(f"|E| = {norm_E:.3e}")
    expected = frame.torus.dim_n + 1
    if frame.kernel_dim != expected:
        res.failures.append(f"kernel dim {frame.kernel_dim} != {expected}")


def check_solve(kind: str, sol, report, res: OpResult) -> None:
    """Boundary residual, Hardy defect and, for Dirichlet, the second-order
    interior residual."""
    res.identity_defect.append(report.boundary_residual)
    if not report.boundary_residual <= RESIDUAL_TOL:
        res.failures.append(
            f"{kind}: boundary residual {report.boundary_residual:.3e}")
    if not report.hardy_defect <= HARDY_TOL:
        res.failures.append(f"{kind}: Hardy defect {report.hardy_defect:.3e}")
    if kind == "dirichlet":
        res.identity_defect.append(report.second_order_residual)
        if not report.second_order_residual <= DIRICHLET_TOL:
            res.failures.append(
                f"dirichlet: second-order residual "
                f"{report.second_order_residual:.3e}")


def check_oracle(A_const, kind: str, sol, scalar, res: OpResult,
                 samples=()) -> None:
    """Trace and interior against the per-mode constant-coefficient solve.

    The interior is compared at ``ORACLE_T`` relative to the reference at
    that height, and at the (t, Field) pairs in ``samples`` that the
    operation itself evaluated relative to the trace: those reach heights
    where the field has decayed below rounding.
    """
    oracle = oracles.constant_solver(A_const, sol.frame.torus, kind, scalar)
    ref = oracle.trace()
    trace_norm = grid.norm(ref)
    dev = _rel(grid.norm(sol.trace_field() - ref), trace_norm)
    for t in ORACLE_T:
        ref_t = oracle.at_t(float(t))
        dev = max(dev, _rel(grid.norm(sol.at_t(float(t)) - ref_t),
                            grid.norm(ref_t)))
    for t, field in samples:
        dev = max(dev, _rel(grid.norm(field - oracle.at_t(float(t))),
                            trace_norm))
    res.oracle_dev.append(dev)
    if not dev <= ORACLE_TOL:
        res.failures.append(f"{kind}: oracle deviation {dev:.3e}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, then whole rounds of operations.

    ``operations`` lists the (label, thunk, check) triples of one round.
    ``run_round`` times each thunk and then runs its check, outside the
    timed region, on the value the thunk returned.  ``mark(i, phase)`` is
    called as operation i of the round enters its "op" or "check" phase, so
    a tracer can label the spans that follow.
    """

    name = ""
    # rounds a run attempts even when ``--seconds`` is used up sooner
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Repeatable set-up work; the benchmark times several repetitions."""

    def operations(self, round_index: int):
        raise NotImplementedError

    def run_round(self, round_index: int, mark) -> list:
        results = []
        for i, (label, run, check) in enumerate(
                self.operations(round_index)):
            mark(i, "op")
            res = OpResult(label, 0.0)
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # counted as a failed operation
                out = None
                res.error = f"{type(exc).__name__}: {exc}"
            res.seconds = time.perf_counter() - t0
            mark(i, "check")
            if res.error is None:
                try:
                    check(out, res)
                except Exception as exc:
                    res.failures.append(
                        f"check raised {type(exc).__name__}: {exc}")
            del out
            results.append(res)
        return results


class FrameWorkload(Workload):
    """Per operation: one BoundaryFrame build plus the four solves."""

    n = 1
    points = 256
    families: tuple = ()

    def setup(self) -> None:
        self.torus = grid.Torus(self.n, 2 * np.pi, self.points)
        self.coefficients = {f: coefficient_family(self.torus, f)
                             for f in self.families}

    def operations(self, round_index: int):
        ops = []
        for j, family in enumerate(self.families):
            rng = np.random.default_rng(
                [self.seed, round_index, j, self.n, self.points])
            scalar = band_limited(self.torus, rng)
            B, A_const = self.coefficients[family]

            def run(B=B, scalar=scalar):
                frame = bvp.BoundaryFrame(B)
                return frame, {kind: solve(frame, kind, scalar)
                               for kind in KINDS}

            def check(out, res, A_const=A_const, scalar=scalar):
                frame, sols = out
                check_frame(frame, res)
                for kind, (sol, report) in sols.items():
                    check_solve(kind, sol, report, res)
                    if A_const is not None:
                        check_oracle(A_const, kind, sol, scalar, res)

            ops.append((family, run, check))
        return ops


class FrameN1(FrameWorkload):
    name = "frame-n1"
    n, points = 1, 256
    families = ("identity", "constant", "block", "skew_k4",
                "smooth_symmetric")


class FrameN2(FrameWorkload):
    """At n = 2 the build is dense assembly of the same size whatever the
    coefficients, so two families suffice: constant (checked against the
    oracle) and smooth_symmetric (variable coefficients).  Each operation
    takes about 17 s; two keep a run near 40 s."""

    name = "frame-n2"
    n, points = 2, 16
    families = ("constant", "smooth_symmetric")


class SolvesN1(Workload):
    """One frame built in set-up; each operation is one solve on a fresh
    datum plus the interior evaluations (closed loop, one client).

    Its operations take about 0.35 s and their median drifts with the
    machine's load, so a run spans at least ten rounds (40 solves, about
    14 s) for a median that is steady from run to run.
    """

    name = "solves-n1"
    min_rounds = 10

    def setup(self) -> None:
        self.torus = grid.Torus(1, 2 * np.pi, 256)
        B, self.A_const = coefficient_family(self.torus, "constant")
        self.frame = bvp.BoundaryFrame(B)
        self.frame_check = None

    def operations(self, round_index: int):
        if self.frame_check is None:
            self.frame_check = OpResult("frame", 0.0)
            check_frame(self.frame, self.frame_check)
        ops = []
        for j, kind in enumerate(KINDS):
            rng = np.random.default_rng([self.seed, round_index, j])
            scalar = band_limited(self.torus, rng)

            def run(kind=kind, scalar=scalar):
                sol, report = solve(self.frame, kind, scalar)
                ts = sol.default_t_samples()
                interior = [sol.at_t(float(t)) for t in ts]
                norms = {
                    "sup_t": bvp.norm_sup_t(sol, ts),
                    "triplebar_dt": bvp.norm_triplebar_dt(sol),
                    "nontangential": bvp.nontangential_max(sol, t_samples=ts),
                }
                return sol, report, ts, interior, norms

            def check(out, res, kind=kind, scalar=scalar):
                sol, report, ts, interior, norms = out
                res.identity_defect += self.frame_check.identity_defect
                res.failures += self.frame_check.failures
                check_solve(kind, sol, report, res)
                # every twelfth of the operation's own semigroup samples
                check_oracle(self.A_const, kind, sol, scalar, res,
                             samples=list(zip(ts, interior))[::12])
                base = sol.frame.phys_norm(sol.coords)
                for label, value in norms.items():
                    ratio = _rel(value, base)
                    if not NORM_WINDOW[0] <= ratio <= NORM_WINDOW[1]:
                        res.failures.append(
                            f"{kind}: norm {label} ratio {ratio:.3e}")

            ops.append((kind, run, check))
        return ops


# Row prefixes of the verify battery that feed the two accuracy metrics.
ORACLE_ROWS = ("symbol_oracle.", "dirichlet.poisson_factor")
IDENTITY_ROWS = ("algebra.", "block.", "duality.")


class Battery(Workload):
    """``verify.run_all()``; each of its twelve check families is one
    operation.  The battery's own sizes and seeds are fixed, so its inputs
    do not depend on ``--seed``."""

    name = "battery"

    def run_round(self, round_index: int, mark) -> list:
        """One ``run_all`` with each ``check_*`` call timed as an operation.

        A family that raises is recorded as failed and yields no rows, so
        the round always attempts all twelve families.
        """
        results = []
        originals = {name: fn for name, fn in vars(verify).items()
                     if name.startswith("check_") and callable(fn)}

        def timed(name, fn):
            def wrapper(*args, **kwargs):
                mark(len(results), "op")
                res = OpResult(name[len("check_"):], 0.0)
                t0 = time.perf_counter()
                try:
                    res.rows = fn(*args, **kwargs)
                except Exception as exc:  # one family must not end the round
                    res.error = f"{type(exc).__name__}: {exc}"
                res.seconds = time.perf_counter() - t0
                results.append(res)
                return res.rows
            return wrapper

        for name, fn in originals.items():
            setattr(verify, name, timed(name, fn))
        try:
            verify.run_all()
        finally:
            for name, fn in originals.items():
                setattr(verify, name, fn)
        for res in results:
            for name, value, _tol, passed in res.rows:
                if not passed:
                    res.failures.append(f"{name} = {value:.3e}")
                if name.startswith(ORACLE_ROWS):
                    res.oracle_dev.append(value)
                if name.startswith(IDENTITY_ROWS):
                    res.identity_defect.append(value)
        return results


WORKLOADS = {w.name: w for w in (FrameN1, FrameN2, SolvesN1, Battery)}
