"""Gating verification battery.

Each ``check_*`` function measures one family of identities or estimates and
returns a list of ``(name, value, tolerance, passed)`` tuples.  Its defaults
are the family's full stated sizes, the one place they are declared: the
acceptance tests call every ``check_*`` with no arguments.  ``run_all``
calls the twelve by name at reduced desk sizes for the command-line
``verify`` command; it looks each ``check_*`` up at call time, so the
benchmark's battery can time a family by replacing the module attribute.
"""

from __future__ import annotations

import numpy as np

from . import algebra, diagnostics, oracles
from .assembly import TB_operator, hat_h1_basis, restrict
from .bvp import (SCALAR_KINDS, BoundaryFrame, nontangential_max,
                  norm_sup_t, norm_triplebar_dt, solve_dirichlet, solve_kind,
                  solve_neu_perp, solve_regularity)
from .calculus import (q_t, quadratic_constants, sector_half_angle,
                       sector_margin, square_function)
from .grid import (Field, Torus, identity_coefficients,
                   vector_block_coefficients)

__all__ = ["run_all"]


def _entry(name, value, tol, ok=None):
    if ok is None:
        ok = bool(value <= tol)
    return (name, float(value), float(tol), bool(ok))


def _campaign_entries(prefix, result):
    return [_entry(f"{prefix}.{c.name}", c.value, c.tolerance, c.passed)
            for c in result.checks]


# -- 1. exterior algebra identities -----------------------------------------

def check_algebra(samples: int = 1000):
    """The exterior algebra identities on ``samples`` random triples
    (f, g, h), half at n = 1 and half at n = 2, all of one n at once.

    f ^ g is one contraction over the stacked ``left_wedge_matrix`` tables
    and the k-vector part of f is f on the masks of degree k.  Each value is
    the worst residual relative to the product of the inputs' norms:
    graded anticommutation f_p ^ g_q = (-1)^(pq) g_q ^ f_p, associativity,
    e_j _| (f_p ^ g) = (e_j _| f_p) ^ g + (-1)^p f_p ^ (e_j _| g) for every
    basis vector e_j, m^2 = I, mu mu* + mu* mu = I and mu^2 = mu*^2 = 0.
    """
    rng = np.random.default_rng(0)
    worst = {"anticommute": 0.0, "associative": 0.0, "derivation": 0.0,
             "m_squared": 0.0, "mu_anticommutator": 0.0, "mu_nilpotent": 0.0}

    def norm(x):
        return np.linalg.norm(x, axis=-1)

    def apply(A, x):
        """The table A applied to every multivector of the stack x."""
        return x @ A.T

    def record(key, residual, scale):
        worst[key] = max(worst[key], float(np.max(
            residual / np.maximum(scale, 1e-300), initial=0.0)))

    for n, count in ((1, samples - samples // 2), (2, samples // 2)):
        d = algebra.lambda_dim(n)
        tables = np.stack([algebra.left_wedge_matrix(n, s) for s in range(d)])

        def ext(f, g):
            """The exterior products f ^ g of the stacks f and g."""
            return np.einsum("...s,sij,...j->...i", f, tables, g)

        f, g, h = rng.standard_normal((3, count, d, 2)) @ np.array([1, 1j])
        nf, ng = norm(f), norm(g)
        # fp[:, p] is the p-vector part of f
        grades = algebra.mask_degrees(n) == np.arange(n + 2)[:, None]
        fp, gq = f[:, None] * grades, g[:, None] * grades
        sign = (-1.0) ** np.outer(np.arange(n + 2), np.arange(n + 2))
        anti = (ext(fp[:, :, None], gq[:, None])
                - sign[..., None] * ext(gq[:, None], fp[:, :, None]))
        record("anticommute", norm(anti), (nf * ng)[:, None, None])
        assoc = ext(ext(f, g), h) - ext(f, ext(g, h))
        record("associative", norm(assoc), nf * ng * norm(h))
        parity = (-1.0) ** np.arange(n + 2)[:, None]
        for j in range(n + 1):
            H = algebra.left_hook_matrix(n, 1 << j)
            lhs = apply(H, ext(fp, g[:, None]))
            rhs = (ext(apply(H, fp), g[:, None])
                   + parity * ext(fp, apply(H, g)[:, None]))
            record("derivation", norm(lhs - rhs), (nf * ng)[:, None])
        M = algebra.m_matrix(n)
        mu, mu_star = algebra.mu_matrix(n), algebra.mu_star_matrix(n)
        record("m_squared", norm(apply(M, apply(M, f)) - f), nf)
        record("mu_anticommutator", norm(apply(mu, apply(mu_star, f))
                                         + apply(mu_star, apply(mu, f)) - f),
               nf)
        record("mu_nilpotent", norm(apply(mu, apply(mu, f)))
               + norm(apply(mu_star, apply(mu_star, f))), nf)
    return [_entry(f"algebra.{k}", v, 1e-12) for k, v in worst.items()]


# -- 2. constant-coefficient symbol oracle ----------------------------------

def check_symbol_oracle(points: int = 256, num_t: int = 10):
    """Constant A in {identity, random accretive complex}, n = 1: grid solves
    match the per-mode closed form in trace and at ``num_t`` heights."""
    torus = Torus(1, 2 * np.pi, points)
    out = []
    cases = [("identity", np.eye(2, dtype=complex)),
             ("random", diagnostics.random_accretive_constant(1, 1))]
    scalar = diagnostics.mode_data(torus, 2) + 0.5 * diagnostics.gaussian_data(torus)
    for label, A in cases:
        B = vector_block_coefficients(torus, A)
        frame = BoundaryFrame(B)
        t_list = np.exp(np.linspace(np.log(0.05), np.log(2.0), num_t))
        for kind in SCALAR_KINDS:
            sol, _ = solve_kind(kind, frame, scalar)
            dev = max(d for _, d in oracles.constant_deviations(
                sol, A, kind, scalar, t_list))
            out.append(_entry(f"symbol_oracle.{label}.{kind}", dev, 1e-9))
    return out


# -- 3. explicit Cauchy kernel on the line ----------------------------------

def check_example_kernel(points: int = 512, sample_points: int = 20,
                         tol: float = 1e-3):
    """The regularity solve for A = I with a Gaussian datum on L = 16 matches
    the explicit Cauchy-type line integral at ``sample_points`` points."""
    length = 16.0
    torus = Torus(1, length, points)
    center, width = length / 2, length / 24
    g1 = diagnostics.gaussian_data(torus, center=center, width=width).real
    x_grid = torus.coordinates()[0]
    mean_val = float(np.mean(np.exp(
        -((x_grid - center) ** 2) / (2 * width ** 2))))

    def g1_cont(y):
        # the same mean-free profile periodized over the whole line
        dy = np.remainder(y - center + length / 2, length) - length / 2
        return np.exp(-(dy ** 2) / (2 * width ** 2)) - mean_val

    frame = BoundaryFrame(identity_coefficients(torus))
    vals = np.zeros((points, torus.lambda_dim), dtype=complex)
    vals[:, 2] = g1
    sol, _ = solve_regularity(None, Field(torus, vals), frame=frame)
    rng = np.random.default_rng(7)
    # interior sample points on the grid, inside the central half
    idx = rng.integers(int(0.3 * points), int(0.7 * points), sample_points)
    ts = rng.uniform(0.3, 1.5, sample_points)
    worst = 0.0
    half_window = 4 * length
    for j, t in zip(idx, ts):
        x = float(x_grid[j])
        # two-window Richardson step removes the O(1/W) truncation tail of
        # the slowly decaying e_0 kernel component
        near = oracles.cauchy_extension_line(
            g1_cont, float(t), x, support=(x - half_window, x + half_window))
        far = oracles.cauchy_extension_line(
            g1_cont, float(t), x,
            support=(x - 2 * half_window, x + 2 * half_window))
        ref0, ref1 = 2.0 * far - near
        Ft = sol.at_t(float(t))
        got0, got1 = Ft.values[j, 1], Ft.values[j, 2]
        scale = max(abs(ref0), abs(ref1), 1e-300)
        worst = max(worst, abs(got0 - ref0) / scale, abs(got1 - ref1) / scale)
    return [_entry("cauchy_kernel.max_pointwise", worst, tol)]


# -- 4. sector localization --------------------------------------------------

def check_sector(points: int = 128):
    """Non-kernel eigenvalues lie inside the double sector of half-angle
    arccos(kappa / (2 sup-norm)) for five coefficient families."""
    tol_const, tol_var = 1e-8, 1e-2
    torus = Torus(1, 2 * np.pi, points)
    seed = 3
    families = [
        ("identity", identity_coefficients(torus), tol_const),
        ("constant", vector_block_coefficients(
            torus, diagnostics.random_accretive_constant(seed, 1)), tol_const),
        ("block", diagnostics.block_coefficients(torus, seed), tol_var),
        ("real_symmetric", diagnostics.smooth_real_symmetric(torus, seed),
         tol_var),
        ("skew_k4", diagnostics.skew_coefficients(torus, 4.0), tol_var),
    ]
    out = []
    for label, B, tol in families:
        # only eigenvalue locations matter here, so bypass the eigenbasis
        # (whose conditioning can degrade long before the spectrum does)
        T = restrict(TB_operator(B), hat_h1_basis(torus), 1e-8)
        lam = np.linalg.eigvals(T.entries)
        nonkernel = np.abs(lam) > 1e-10 * np.max(np.abs(lam))
        margin = sector_margin(lam[nonkernel],
                               sector_half_angle(B.kappa, B.sup_norm))
        out.append(_entry(f"sector.{label}", max(margin, 0.0), tol))
    return out


# -- 5. Rellich identities ---------------------------------------------------

def check_rellich(points: int = 64, fields: int = 100):
    """``fields`` Hardy-projected random fields, smooth real symmetric A with
    kappa >= 0.3: both Rellich identities and the normal/tangential balance."""
    torus = Torus(1, 2 * np.pi, points)
    seed = 5
    B = diagnostics.smooth_real_symmetric(torus, seed, kappa_min=0.3)
    result = diagnostics.rellich_campaign(B, seed=seed, num_fields=fields)
    return _campaign_entries("rellich", result)


# -- 6. block identities -----------------------------------------------------

def check_block():
    """Reflection anticommutation, perturbed reflection collapse and the
    closed-form resolvent of the composed operator."""
    torus = Torus(1, 2 * np.pi, 64)
    B = diagnostics.block_coefficients(torus, 6)
    return _campaign_entries("block", diagnostics.block_campaign(B))


# -- 7. quadratic estimates, self-adjoint oracle ----------------------------

def check_quadratic():
    """The square-function value equals half the squared norm; both extremal
    constants equal 1/sqrt(2)."""
    torus = Torus(1, 2 * np.pi, 64)
    rng = np.random.default_rng(8)
    out = []
    for label, B in (("identity", identity_coefficients(torus)),
                     ("skew", diagnostics.skew_coefficients(torus, 2.0))):
        frame = BoundaryFrame(B)
        dec = frame.dec
        coords = frame.Pnk @ (rng.standard_normal(dec.dim)
                              + 1j * rng.standard_normal(dec.dim))
        qn = np.sqrt(square_function(dec, q_t, dec.coordinates(coords)))
        ref = oracles.selfadjoint_qe_value(frame.T.entries, coords)
        err = abs(qn ** 2 - ref) / max(abs(ref), 1e-300)
        out.append(_entry(f"quadratic.value.{label}", err, 1e-4))
        c_low, c_high = quadratic_constants(dec)
        target = 1.0 / np.sqrt(2.0)
        out.append(_entry(f"quadratic.c_low.{label}",
                          abs(c_low - target) / target, 1e-3))
        out.append(_entry(f"quadratic.c_high.{label}",
                          abs(c_high - target) / target, 1e-3))
    return out


# -- 8. perturbation stability ----------------------------------------------

def check_perturbation(eps_list=(1e-1, 1e-2, 1e-3)):
    """Coefficient perturbations at each eps of ``eps_list``: the lower
    square-function constant stays above half its unperturbed value and the
    Lipschitz ratios stay within a 3x spread."""
    torus = Torus(1, 2 * np.pi, 32)
    seed = 9
    direction = diagnostics.smooth_real_symmetric(torus, seed + 100,
                                                  kappa_min=-np.inf)
    from .grid import CoefficientField
    delta = CoefficientField(torus,
                             direction.maps - np.eye(torus.lambda_dim),
                             _skip_check=True)
    out = []
    for label, B0 in (("block", diagnostics.block_coefficients(torus, seed)),
                      ("real_symmetric",
                       diagnostics.smooth_real_symmetric(torus, seed))):
        result = diagnostics.perturbation_campaign(B0, delta, eps_list,
                                                   seed=seed)
        out += _campaign_entries(f"perturbation.{label}", result)
    return out


# -- 9. well-posedness landscape --------------------------------------------

def check_skew(k_list=(0.0, 1.0, 2.0, 4.0, 8.0), n_points=(128, 256)):
    """The skew family scan: the Cauchy reflection stays at norm one while a
    boundary-operator condition number grows in k and under refinement."""
    return _campaign_entries(
        "skew", diagnostics.skew_scan(k_list, n_points, 2 * np.pi))


# -- 10. solution-norm equivalences -----------------------------------------

def _norm_ratios(points: int):
    torus = Torus(1, 2 * np.pi, points)
    ratios = {}
    scalar = diagnostics.mode_data(torus, 1) + 0.3 * diagnostics.mode_data(torus, 3)
    for label, B in (("identity", identity_coefficients(torus)),
                     ("real_symmetric",
                      diagnostics.smooth_real_symmetric(torus, 10))):
        frame = BoundaryFrame(B)
        sol, _ = solve_neu_perp(None, scalar, frame=frame)
        base = frame.phys_norm(sol.coords)
        t_samples = sol.default_t_samples()
        ratios[label] = {
            "sup_t": norm_sup_t(sol, t_samples) / base,
            "triplebar_dt": norm_triplebar_dt(sol) / base,
            "nontangential": nontangential_max(sol, t_samples=t_samples) / base,
        }
    return ratios


def check_norm_equivalences(points: int = 64):
    """The interior sup, square-function and non-tangential maximal norms
    are all comparable to the trace norm and stable under grid doubling."""
    lo = _norm_ratios(points)
    hi = _norm_ratios(2 * points)
    window = (1 / 50, 50.0)
    out = []
    for label in lo:
        for name in lo[label]:
            r0, r1 = lo[label][name], hi[label][name]
            in_window = window[0] <= r0 <= window[1] and \
                window[0] <= r1 <= window[1]
            out.append(_entry(f"norms.{label}.{name}.window",
                              r1, window[1], ok=in_window))
            drift = abs(r1 - r0) / max(abs(r0), 1e-300)
            out.append(_entry(f"norms.{label}.{name}.drift", drift, 0.2))
    return out


# -- 11. duality -------------------------------------------------------------

def check_duality():
    """Duality-pairing adjoints of the Dirac operator and both reflections."""
    torus = Torus(1, 2 * np.pi, 32)
    seed = 11
    out = []
    cases = (("constant_complex", vector_block_coefficients(
        torus, diagnostics.random_accretive_constant(seed, 1))),
        ("real_symmetric", diagnostics.smooth_real_symmetric(torus, seed)))
    for label, B in cases:
        out += _campaign_entries(f"duality.{label}",
                                 diagnostics.duality_campaign(B))
    return out


# -- 12. Dirichlet interior residual ----------------------------------------

def check_dirichlet():
    """The second-order interior residual of a smooth symmetric solve, and
    the per-mode Poisson factor for the identity coefficients."""
    torus = Torus(1, 2 * np.pi, 64)
    out = []
    B = diagnostics.smooth_real_symmetric(torus, 12)
    scalar = diagnostics.mode_data(torus, 1) + 0.5 * diagnostics.mode_data(torus, 2)
    _, report = solve_dirichlet(None, scalar, frame=BoundaryFrame(B))
    out.append(_entry("dirichlet.second_order_residual",
                      report.second_order_residual, 1e-6))
    frame = BoundaryFrame(identity_coefficients(torus))
    sol, _ = solve_dirichlet(None, scalar, frame=frame)
    U0 = np.fft.fft(sol.at_t(0.0).component(1))
    worst = 0.0
    xi = torus.wavenumbers()[0]
    for t in (0.1, 0.5, 1.0):
        Ut = np.fft.fft(sol.at_t(t).component(1))
        expect = U0 * np.array([oracles.poisson_factor(x, t) for x in xi])
        worst = max(worst, float(np.linalg.norm(Ut - expect)
                                 / max(np.linalg.norm(U0), 1e-300)))
    out.append(_entry("dirichlet.poisson_factor", worst, 1e-10))
    return out


# ---------------------------------------------------------------------------

def run_all():
    """Reduced-size pass over all twelve gating families."""
    results = []
    results += check_algebra(samples=200)
    results += check_symbol_oracle(points=128, num_t=5)
    results += check_example_kernel(points=256, sample_points=5, tol=5e-3)
    results += check_sector(points=64)
    results += check_rellich(points=32, fields=30)
    results += check_block()
    results += check_quadratic()
    results += check_perturbation(eps_list=(1e-1, 1e-2))
    results += check_skew(k_list=(0.0, 2.0, 8.0), n_points=(64, 128))
    results += check_norm_equivalences(points=32)
    results += check_duality()
    results += check_dirichlet()
    return results
