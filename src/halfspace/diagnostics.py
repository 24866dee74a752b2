"""Verification campaigns: batch measurements tying operator identities,
spectral bounds, and stability claims to concrete numbers.

Each campaign draws its randomness from a caller-supplied seed, records every
measured quantity next to the tolerance it is judged against, and serializes
to CSV (one row per parameter point) plus a human-readable summary block.
Campaigns marked descriptive (complex-hermitian Rellich, off-diagonal decay)
record observations without gating anything.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import algebra, calculus
from .assembly import (OperatorMatrix, assemble_NB, assemble_TB,
                       adjoint_in_duality, hodge_split)
from .bvp import BoundaryFrame, reflection_conditions
from .calculus import psi_exp, q_t, quadratic_constants, square_function
from .grid import (CoefficientField, Field, Torus,
                   inner_product, norm as field_norm,
                   vector_block_coefficients)

__all__ = [
    "Check",
    "CampaignResult",
    "smooth_real_symmetric",
    "random_accretive_constant",
    "block_coefficients",
    "skew_coefficients",
    "mode_data",
    "gaussian_data",
    "step_data",
    "random_field",
    "rellich_campaign",
    "block_campaign",
    "perturbation_campaign",
    "skew_scan",
    "psi_comparability",
    "hodge_campaign",
    "duality_campaign",
    "offdiag_campaign",
]


# ---------------------------------------------------------------------------
# result record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One measured quantity with the tolerance it is judged against."""

    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass
class CampaignResult:
    campaign: str
    parameters: dict
    seed: int | None
    rows: list = dataclass_field(default_factory=list)
    checks: list = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, value: float, tolerance: float,
              ok=None, note: str = "") -> Check:
        if ok is None:
            ok = bool(value <= tolerance)
        c = Check(name, float(value), float(tolerance), bool(ok), note)
        self.checks.append(c)
        return c

    def to_csv(self, path) -> None:
        keys: list = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in self.rows:
                out = []
                for k in keys:
                    v = row.get(k, "")
                    out.append(f"{v:.17g}" if isinstance(v, float) else v)
                writer.writerow(out)

    def summary(self) -> str:
        lines = [f"campaign {self.campaign}"]
        for k, v in self.parameters.items():
            lines.append(f"  param {k} = {v}")
        if self.seed is not None:
            lines.append(f"  seed = {self.seed}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(
                f"  {status}  {c.name} = {c.value:.6e}"
                f"  (tol {c.tolerance:.1e}){note}")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coefficient and data profiles
# ---------------------------------------------------------------------------

def smooth_real_symmetric(torus: Torus, seed: int,
                          kappa_min: float = 0.3) -> CoefficientField:
    """I plus two low Fourier modes of random real symmetric matrices,
    rescaled so the accretivity constant is at least kappa_min, which the
    modes (of mean zero) allow only up to 1."""
    if kappa_min > 1.0:
        raise ValueError(f"kappa_min must be at most 1, got {kappa_min}")
    rng = np.random.default_rng(seed)
    n = torus.dim_n
    dim = n + 1
    A = np.broadcast_to(np.eye(dim), torus.shape + (dim, dim)).copy()
    xs = torus.coordinates()
    bump = np.zeros(torus.shape + (dim, dim))
    for _ in range(2):
        S = rng.standard_normal((dim, dim))
        S = 0.5 * (S + S.T)
        phase = np.zeros(torus.shape)
        for ax in range(n):
            kf = rng.integers(1, 3)
            phase = phase + 2 * np.pi * kf * xs[ax] / torus.length \
                + rng.uniform(0, 2 * np.pi)
        bump = bump + np.cos(phase)[..., None, None] * S
    worst = np.min(np.linalg.eigvalsh(
        np.eye(dim) + bump.reshape(-1, dim, dim)))
    if worst < kappa_min:
        # shrink the perturbation until the smallest eigenvalue clears the bar
        amp = (1.0 - kappa_min) / max(1.0 - worst, 1e-300)
        bump = amp * bump
    return vector_block_coefficients(torus, A + bump)


def random_accretive_constant(seed: int, dim_n: int) -> np.ndarray:
    """A random constant complex accretive (n+1)x(n+1) matrix near I."""
    rng = np.random.default_rng(seed)
    dim = dim_n + 1
    amplitude = 0.3
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = np.eye(dim) + amplitude * M
    kappa = np.min(np.linalg.eigvalsh(0.5 * (A + A.conj().T)))
    while kappa <= 0.05:
        amplitude *= 0.5
        A = np.eye(dim) + amplitude * M
        kappa = np.min(np.linalg.eigvalsh(0.5 * (A + A.conj().T)))
    return A


def block_coefficients(torus: Torus,
                       seed: int | None = None) -> CoefficientField:
    """Block coefficients: diagonal vector block a(x) = diag(a00, a_par),
    so B commutes with both the normal and tangential projections. Each
    diagonal entry oscillates within [0.5, 2.0]."""
    rng = np.random.default_rng(0 if seed is None else seed)
    n = torus.dim_n
    lo, hi = 0.5, 2.0
    xs = torus.coordinates()
    diag = np.zeros(torus.shape + (n + 1,))
    for j in range(n + 1):
        phase = rng.uniform(0, 2 * np.pi)
        kf = rng.integers(1, 3)
        osc = np.cos(2 * np.pi * kf * xs[0] / torus.length + phase)
        diag[..., j] = 0.5 * (lo + hi) + 0.5 * (hi - lo) * 0.9 * osc
    A = np.zeros(torus.shape + (n + 1, n + 1))
    for j in range(n + 1):
        A[..., j, j] = diag[..., j]
    return vector_block_coefficients(torus, A)


def skew_coefficients(torus: Torus, k: float) -> CoefficientField:
    """The skew family A_k = [[1, k s(x)], [-k s(x), 1]] on n = 1 with the
    sign function periodized to the torus (s = sign of sin(2 pi x / L))."""
    if torus.dim_n != 1:
        raise ValueError("this coefficient family lives on n = 1")
    x = torus.coordinates()[0]
    s = np.sign(np.sin(2 * np.pi * x / torus.length))
    A = np.zeros(torus.shape + (2, 2))
    A[..., 0, 0] = 1.0
    A[..., 1, 1] = 1.0
    A[..., 0, 1] = k * s
    A[..., 1, 0] = -k * s
    return vector_block_coefficients(torus, A)


def mode_data(torus: Torus, k_index: int = 1) -> np.ndarray:
    """Single-mode scalar boundary datum cos(2 pi k x / L) (first axis)."""
    x = torus.coordinates()[0]
    return np.cos(2 * np.pi * k_index * x / torus.length) + 0j


def gaussian_data(torus: Torus, center: float | None = None,
                  width: float | None = None) -> np.ndarray:
    """Periodized Gaussian bump (mean removed so it has no constant mode)."""
    if center is None:
        center = torus.length / 2
    if width is None:
        width = torus.length / 16
    out = np.zeros(torus.shape)
    for shift in (-1, 0, 1):
        r2 = np.zeros(torus.shape)
        for ax, x in enumerate(torus.coordinates()):
            dx = x - center + shift * torus.length
            r2 = r2 + dx ** 2
        out = out + np.exp(-r2 / (2 * width ** 2))
    return (out - out.mean()) + 0j


def step_data(torus: Torus) -> np.ndarray:
    """Mean-free square wave along the first axis."""
    x = torus.coordinates()[0]
    s = np.sign(np.sin(2 * np.pi * x / torus.length))
    return (s - s.mean()) + 0j


def random_field(torus: Torus, rng) -> Field:
    shape = torus.shape + (torus.lambda_dim,)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(torus, vals)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def _hook_e0(vals: np.ndarray, n: int) -> np.ndarray:
    return vals @ algebra.mu_star_matrix(n).T


def rellich_campaign(B: CoefficientField, seed: int = 0,
                     num_fields: int = 100) -> CampaignResult:
    """Hardy-trace Rellich identities for symmetric coefficients.

    For f in either Hardy subspace of the constrained space checks
    (Bf, f) = 2 Re (e0 hook Bf, e0 hook f) = 2 Re (e0 wedge Bf, e0 wedge f)
    and the normal/tangential balance
    (P_nor B f_nor, f_nor) = (P_tan B f_tan, f_tan).

    The identities are established only for real symmetric coefficients.
    The campaign gates exactly in that case, detected from ``B`` to within
    1e-13, and records (without gating) the measured errors for any other
    hermitian or non-hermitian input.
    """
    torus = B.torus
    n = torus.dim_n
    sym_defect = np.max(np.abs(B.maps - np.conj(np.swapaxes(B.maps, -1, -2))))
    exploratory = not (np.max(np.abs(B.maps.imag)) <= 1e-13
                       and sym_defect <= 1e-13 * max(
                           1.0, float(np.max(np.abs(B.maps)))))
    result = CampaignResult(
        "rellich", {"n": n, "N": torus.points_per_axis,
                    "hermitian_defect": float(sym_defect),
                    "exploratory": exploratory}, seed)
    frame = BoundaryFrame(B)
    rng = np.random.default_rng(seed)
    proj = {+1: 0.5 * (np.eye(frame.dec.dim) + frame.E),
            -1: 0.5 * (np.eye(frame.dec.dim) - frame.E)}
    nor = algebra.normal_proj_matrix(n)
    tan = algebra.tangential_proj_matrix(n)
    worst_main = 0.0
    worst_balance = 0.0
    for i in range(num_fields):
        sign = +1 if i % 2 == 0 else -1
        coords = rng.standard_normal(frame.dec.dim) \
            + 1j * rng.standard_normal(frame.dec.dim)
        coords = frame.Pnk @ (proj[sign] @ coords)
        f = frame.to_field(coords)
        Bf = Field(torus, np.einsum("...ij,...j->...i", B.maps, f.values))
        lhs = inner_product(Bf, f)
        mu = algebra.mu_matrix(n)
        hook_pair = torus.weight * np.vdot(
            _hook_e0(f.values, n), _hook_e0(Bf.values, n))
        wedge_pair = torus.weight * np.vdot(
            f.values @ mu.T, Bf.values @ mu.T)
        scale = max(abs(lhs), 1e-300)
        err_main = max(abs(lhs - 2.0 * hook_pair.real),
                       abs(lhs - 2.0 * wedge_pair.real)) / scale
        f_nor = Field(torus, f.values @ nor.T)
        f_tan = Field(torus, f.values @ tan.T)
        q_nor = inner_product(
            Field(torus, np.einsum("...ij,...j->...i", B.maps, f_nor.values)),
            f_nor)
        q_tan = inner_product(
            Field(torus, np.einsum("...ij,...j->...i", B.maps, f_tan.values)),
            f_tan)
        err_cor = abs(q_nor - q_tan) / scale
        worst_main = max(worst_main, float(err_main))
        worst_balance = max(worst_balance, float(err_cor))
        result.rows.append({
            "index": i, "hardy_sign": sign,
            "quadratic_form": float(lhs.real),
            "rellich_error": float(err_main),
            "balance_error": float(err_cor),
        })
    gate = not exploratory
    tol = 1e-7
    result.check("max_rellich_error", worst_main, tol,
                 ok=(worst_main <= tol) if gate else True,
                 note="descriptive" if exploratory else "")
    result.check("max_balance_error", worst_balance, tol,
                 ok=(worst_balance <= tol) if gate else True,
                 note="descriptive" if exploratory else "")
    return result


def block_campaign(B: CoefficientField) -> CampaignResult:
    """Block-coefficient identities: E and N_B anticommute, N_B = N, and the
    closed-form inverse (lambda - E N)^{-1} = (lambda - N E)/(lambda^2 + 1)
    at lambda = 1, -1 and 2.2i."""
    tol = 1e-9
    torus = B.torus
    result = CampaignResult(
        "block", {"n": torus.dim_n, "N": torus.points_per_axis}, None)
    frame = BoundaryFrame(B)
    E, N, NB = frame.E, frame.N, frame.NA
    scale = max(np.linalg.norm(E, 2), 1e-300)
    anti = np.linalg.norm(E @ NB + NB @ E, 2) / scale
    nb_defect = np.linalg.norm(NB - N, 2) / max(np.linalg.norm(N, 2), 1e-300)
    result.check("anticommutator", float(anti), tol)
    result.check("perturbed_reflection_defect", float(nb_defect), tol)
    eye = np.eye(frame.dec.dim)
    # The closed form inverts (lambda - E N) where E^2 = I; on the grid that
    # is the non-kernel subspace (the discrete kernel replaces the absent
    # constants), and both routes leave it invariant for block coefficients.
    Pnk = frame.Pnk
    for lam in (1.0, -1.0, 2j * 1.1):
        margin = abs(lam ** 2 + 1.0)
        direct = np.linalg.solve(lam * eye - E @ NB, eye) @ Pnk
        closed = ((lam * eye - N @ E) / (lam ** 2 + 1.0)) @ Pnk
        err = np.linalg.norm(direct - closed, 2) / max(
            np.linalg.norm(direct, 2), 1e-300)
        result.check(f"closed_form_inverse[lambda={lam}]", float(err), tol)
        result.rows.append({"lambda": str(lam),
                            "degeneracy_margin": float(margin),
                            "inverse_error": float(err)})
    # lambda = i sits at a spectral point of E N; flag rather than invert
    degenerate_margin = abs((1j) ** 2 + 1.0)
    result.check("lambda_i_degenerate", degenerate_margin, 1e-12,
                 ok=degenerate_margin < 1e-12,
                 note="closed form denominator vanishes")
    return result


def _solution_operators(frame: BoundaryFrame) -> dict:
    """2 (boundary operator)^{-1} per kind, inverted as the solves invert."""
    eye = np.eye(frame.dec.dim)
    out = {}
    for kind in ("neumann", "regularity", "neu_perp"):
        out[kind] = 2.0 * frame.invert(kind, eye)[0]
    return out


def perturbation_campaign(B0: CoefficientField, direction: CoefficientField,
                          eps_list=(1e-1, 1e-2, 1e-3),
                          seed: int = 0) -> CampaignResult:
    """Stability of quadratic-estimate constants, the Cauchy reflection, and
    the BVP solution operators along the ray B0 + eps * direction."""
    torus = B0.torus
    result = CampaignResult(
        "perturbation",
        {"n": torus.dim_n, "N": torus.points_per_axis,
         "eps_list": list(eps_list)}, seed)
    frame0 = BoundaryFrame(B0)
    rng = np.random.default_rng(seed)
    probe = frame0.Pnk @ (rng.standard_normal(frame0.dec.dim)
                          + 1j * rng.standard_normal(frame0.dec.dim))
    c_low0, c_high0 = quadratic_constants(frame0.dec)
    sols0 = _solution_operators(frame0)
    dir_norm = direction.sup_norm
    e_ratios, sol_ratios = [], {k: [] for k in sols0}
    c_lows = []
    for eps in eps_list:
        maps = B0.maps + eps * direction.maps
        try:
            Beps = CoefficientField(torus, maps)
        except ValueError as exc:
            result.rows.append({"eps": float(eps), "status": f"rejected: {exc}"})
            continue
        if not Beps.is_accretive():
            result.rows.append({"eps": float(eps),
                                "status": f"rejected: kappa={Beps.kappa:.3e}"})
            continue
        try:
            frame = BoundaryFrame(Beps)
        except calculus.IllConditionedEigenbasisError as exc:
            result.rows.append({"eps": float(eps),
                                "status": f"decomposition failed: {exc}"})
            continue
        c_low, c_high = quadratic_constants(frame.dec)
        c_lows.append((eps, c_low))
        e_ratio = np.linalg.norm(frame.E - frame0.E, 2) / (eps * dir_norm)
        e_ratios.append(float(e_ratio))
        row = {"eps": float(eps), "status": "ok", "c_low": float(c_low),
               "c_high": float(c_high), "cauchy_ratio": float(e_ratio)}
        sols = _solution_operators(frame)
        for kind, S0 in sols0.items():
            ratio = np.linalg.norm(sols[kind] - S0, 2) / (eps * dir_norm)
            sol_ratios[kind].append(float(ratio))
            row[f"sol_ratio.{kind}"] = float(ratio)
        result.rows.append(row)
    result.parameters["c_low_0"] = float(c_low0)
    result.parameters["c_high_0"] = float(c_high0)
    floor = 0.5 * c_low0
    spread_tol = 3.0
    worst_clow = min((c for _, c in c_lows), default=0.0)
    result.check("min_c_low", worst_clow, floor, ok=worst_clow >= floor,
                 note="must stay above half the unperturbed constant")
    for name, ratios in [("cauchy", e_ratios)] + \
            [(f"sol.{k}", v) for k, v in sol_ratios.items()]:
        if not ratios:
            result.check(f"ratio_spread.{name}", np.inf, spread_tol, ok=False,
                         note="no admissible eps")
            continue
        spread = max(ratios) / max(min(ratios), 1e-300)
        result.check(f"ratio_spread.{name}", float(spread), spread_tol,
                     ok=spread <= spread_tol)
    return result


def skew_scan(k_list=(0.0, 1.0, 2.0, 4.0, 8.0), n_points=(128, 256),
              length: float = 2 * np.pi) -> CampaignResult:
    """Scan of the skew coefficient family: the Cauchy reflection stays at
    norm one (self-adjointness, to 1e-6), while boundary-operator condition
    numbers grow with k and sharpen under refinement — the well-posedness
    failure proxy."""
    result = CampaignResult("skew_scan", {"k_list": list(k_list),
                                          "n_points": list(n_points)}, None)
    conds: dict = {}
    for N in n_points:
        torus = Torus(1, length, N)
        for k in k_list:
            frame = BoundaryFrame(skew_coefficients(torus, k))
            Enorm = float(np.linalg.norm(frame.E, 2))
            row = {"k": float(k), "N": N, "E_norm": Enorm,
                   "hermitian": frame.dec.hermitian}
            by_label = reflection_conditions(frame)
            for label, cond in by_label.items():
                row[f"cond.{label}"] = cond
            worst = max(by_label.values())
            row["cond.max"] = worst
            conds[(N, float(k))] = (Enorm, worst)
            result.rows.append(row)
    worst_e = max(abs(v[0] - 1.0) for v in conds.values())
    result.check("E_norm_deviation", float(worst_e), 1e-6)
    for N in n_points:
        seq = [conds[(N, float(k))][1] for k in k_list]
        increasing = all(b > a for a, b in zip(seq, seq[1:]))
        result.check(f"cond_monotone_in_k[N={N}]",
                     float(seq[-1] / seq[0]), np.inf, ok=increasing,
                     note="largest/smallest condition ratio")
    if len(n_points) >= 2:
        k_top = float(k_list[-1])
        lo, hi = conds[(n_points[0], k_top)][1], conds[(n_points[-1], k_top)][1]
        result.check("cond_refinement_growth", float(hi / lo), np.inf,
                     ok=hi > lo, note="largest k, N refinement")
    return result


def psi_comparability(B: CoefficientField, seed: int = 0) -> CampaignResult:
    """Ratio between the standard quadratic norm (symbol t z/(1+t^2 z^2)) and
    the one built from z e^{-|z|}; comparable for a bisectorial operator."""
    result = CampaignResult(
        "psi_comparability",
        {"n": B.torus.dim_n, "N": B.torus.points_per_axis}, seed)
    frame = BoundaryFrame(B)
    dec = frame.dec
    rng = np.random.default_rng(seed)
    ratios = []
    for i in range(5):
        coords = frame.Pnk @ (rng.standard_normal(dec.dim)
                              + 1j * rng.standard_normal(dec.dim))
        c = dec.coordinates(coords)
        base = float(np.sqrt(square_function(dec, q_t, eig_coords=c)))
        psi = float(np.sqrt(square_function(dec, psi_exp, eig_coords=c)))
        ratio = max(base / psi, psi / base)
        ratios.append(ratio)
        result.rows.append({"index": i, "q_t_norm": float(base),
                            "psi_norm": psi, "factor": float(ratio)})
    worst = max(ratios)
    result.check("max_comparability_factor", float(worst), 2.0)
    return result


def hodge_campaign(B: CoefficientField, seed: int = 0) -> CampaignResult:
    """Topological splitting into the null spaces of the nilpotent operator
    and its coefficient-twisted adjoint: recomposition defect (gated at
    1e-8) and projection norms over three random fields."""
    result = CampaignResult(
        "hodge", {"n": B.torus.dim_n, "N": B.torus.points_per_axis}, seed)
    rng = np.random.default_rng(seed)
    worst_rec, worst_proj, worst_const = 0.0, 0.0, 0.0
    for i in range(3):
        f = random_field(B.torus, rng)
        f1, f2, const, split_const = hodge_split(B, f)
        rec = f1 + f2 + const
        defect = field_norm(rec - f) / max(field_norm(f), 1e-300)
        proj = max(field_norm(f1), field_norm(f2)) / max(field_norm(f - const),
                                                         1e-300)
        worst_rec = max(worst_rec, float(defect))
        worst_proj = max(worst_proj, float(proj))
        worst_const = max(worst_const, float(split_const))
        result.rows.append({"index": i, "recompose_defect": float(defect),
                            "projection_norm": float(proj),
                            "split_constant": float(split_const)})
    result.check("max_recompose_defect", worst_rec, 1e-8)
    result.check("max_projection_norm", worst_proj, np.inf,
                 ok=np.isfinite(worst_proj), note="descriptive bound")
    result.parameters["max_split_constant"] = worst_const
    return result


def duality_campaign(B: CoefficientField) -> CampaignResult:
    """Adjoint identities in the coefficient pairing: (T_B)' = -T_{B*},
    N' = N, and the hat reflection pairs with the hut reflection of B*."""
    tol = 1e-9
    torus = B.torus
    result = CampaignResult(
        "duality", {"n": torus.dim_n, "N": torus.points_per_axis}, None)
    Bstar = B.adjoint()

    T = assemble_TB(B)
    T_prime = adjoint_in_duality(T, B)
    T_star = assemble_TB(Bstar)
    scale = max(np.linalg.norm(T.entries, 2), 1e-300)
    d1 = np.linalg.norm(T_prime.entries + T_star.entries, 2) / scale
    result.check("dirac_adjoint_defect", float(d1), tol)

    from .assembly import reflection_full_matrix
    Nfull = OperatorMatrix(reflection_full_matrix(torus))
    N_prime = adjoint_in_duality(Nfull, B)
    d2 = np.linalg.norm(N_prime.entries - Nfull.entries, 2) / max(
        np.linalg.norm(Nfull.entries, 2), 1e-300)
    result.check("reflection_selfdual_defect", float(d2), tol)

    _, _, NB_hat = assemble_NB(B, "hat")
    _, _, NBs_hut = assemble_NB(Bstar, "hut")
    NB_prime = adjoint_in_duality(NB_hat, B)
    d3 = np.linalg.norm(NB_prime.entries - NBs_hut.entries, 2) / max(
        np.linalg.norm(NB_hat.entries, 2), 1e-300)
    result.check("perturbed_reflection_dual_defect", float(d3), tol)
    result.rows.append({"dirac_adjoint_defect": float(d1),
                        "reflection_selfdual_defect": float(d2),
                        "perturbed_reflection_dual_defect": float(d3)})
    return result


def offdiag_campaign(B: CoefficientField, seed: int = 0) -> CampaignResult:
    """Resolvent locality (descriptive): for t = 0.05, 0.1 and 0.2 apply
    (I + i t T_B)^{-1} to a field supported in a small ball and record the
    mass fraction landing at distance >= 8 t from the support, against a
    reference of 0.1."""
    torus = B.torus
    separation = 8.0
    result = CampaignResult(
        "offdiag", {"n": torus.dim_n, "N": torus.points_per_axis,
                    "separation": separation}, seed)
    T = assemble_TB(B).entries
    dim = T.shape[0]
    rng = np.random.default_rng(seed)
    x = torus.coordinates()[0]
    center = torus.length / 2
    d = torus.lambda_dim
    for t in (0.05, 0.1, 0.2):
        radius = max(t, torus.length / torus.points_per_axis)
        dist = np.abs(np.remainder(x - center + torus.length / 2,
                                   torus.length) - torus.length / 2)
        inside = dist <= radius
        vals = np.zeros(torus.shape + (d,), dtype=complex)
        vals[inside] = rng.standard_normal((int(inside.sum()), d)) \
            + 1j * rng.standard_normal((int(inside.sum()), d))
        f = Field(torus, vals).flatten()
        u = np.linalg.solve(np.eye(dim) + 1j * t * T, f)
        uf = Field.from_flat(torus, u).values
        far = dist >= radius + separation * t
        far_mass = np.linalg.norm(uf[far]) if np.any(far) else 0.0
        frac = float(far_mass / max(np.linalg.norm(uf), 1e-300))
        result.rows.append({"t": float(t), "far_fraction": frac})
    worst = max(r["far_fraction"] for r in result.rows)
    result.check("max_far_fraction", float(worst), 0.10,
                 ok=True, note="descriptive")
    return result
