"""Command-line entry point: solve, campaign, oracle, verify.

Config files are flat ``key = value`` text with bracketed section headers.
Parsing either succeeds totally or fails with a line-numbered message.  All
output files are written atomically (temp file then rename).  Exit codes:
2 for config errors, 3 for well-posedness failures, 4 for numerical
failures, among them a ``solve`` whose report misses its stated accuracy
(``SOLVE_BOUNDS``), which writes no output.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

import numpy as np

from . import calculus, diagnostics, oracles
from .assembly import PointwiseInversionError, SubspaceInvarianceError
from .bvp import (SCALAR_KINDS, BoundaryFrame, WellPosednessError,
                  nontangential_max, norm_sup_t, norm_triplebar_dt,
                  solve_kind, solve_transmission)
from .grid import (CoefficientField, Torus, field_to_csv, gradient_of,
                   identity_coefficients, vector_block_coefficients)

EXIT_CONFIG = 2
EXIT_WELLPOSEDNESS = 3
EXIT_NUMERICAL = 4
# the stated accuracy of a solve: report metric -> largest value accepted
SOLVE_BOUNDS = {"boundary_residual": 1e-8, "hardy_defect": 1e-8,
                "second_order_residual": 1e-6}

__all__ = ["main", "ConfigError", "NumericalHealthError", "RunConfig",
           "parse_config"]


class ConfigError(ValueError):
    """Invalid configuration; message carries file/line context."""


class NumericalHealthError(ArithmeticError):
    """A solve's report is past the stated accuracy of one of its metrics
    (``SOLVE_BOUNDS``); the message names the solve kind and the metric."""


def check_solve_health(kind: str, report) -> None:
    """Raise NumericalHealthError for the first metric of ``report`` past its
    bound in ``SOLVE_BOUNDS`` (a metric the report does not carry, such as
    the second-order residual of a non-Dirichlet solve, is not checked; a
    nan fails)."""
    for metric, bound in SOLVE_BOUNDS.items():
        value = getattr(report, metric)
        if value is not None and not value <= bound:
            raise NumericalHealthError(
                f"{kind} solve: {metric} = {value:.3e} exceeds its stated "
                f"bound {bound:.0e}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class RunConfig:
    """Parsed configuration: a dict of sections, each a dict of strings,
    with typed accessors that raise line-numbered errors."""

    def __init__(self, sections: dict, line_map: dict, path: str):
        self.sections = sections
        self._lines = line_map
        self.path = path

    def _where(self, section: str, key: str | None = None) -> str:
        ln = self._lines.get((section, key))
        loc = f"{self.path}:{ln}" if ln else self.path
        return loc

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def get(self, section: str, key: str, default=None, required=False):
        sec = self.sections.get(section)
        if sec is None or key not in sec:
            if required:
                raise ConfigError(
                    f"{self.path}: missing required key '{key}' in "
                    f"section [{section}]")
            return default
        return sec[key]

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, default=None, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{self._where(section, key)}: '{key}' must be an integer, "
                f"got {raw!r}") from None

    def get_float(self, section, key, default=None, required=False):
        raw = self.get(section, key, default=None, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{self._where(section, key)}: '{key}' must be a number, "
                f"got {raw!r}") from None
        return self._finite(section, key, raw, value)

    def get_complex(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            value = complex(raw.replace(" ", ""))
        except ValueError:
            raise ConfigError(
                f"{self._where(section, key)}: '{key}' must be a complex "
                f"number like '1+2j', got {raw!r}") from None
        return self._finite(section, key, raw, value)

    def get_list(self, section, key, conv=float, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            values = [conv(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(
                f"{self._where(section, key)}: '{key}' must be a list of "
                f"numbers, got {raw!r}") from None
        for value in values:
            self._finite(section, key, raw, value)
        return values

    def _finite(self, section, key, raw, value):
        """``value`` if it is finite; nan and inf (which ``float`` and
        ``complex`` accept) raise a line-numbered ConfigError."""
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ConfigError(
                f"{self._where(section, key)}: '{key}' must be finite, "
                f"got {raw!r}")
        return value

    def echo(self) -> str:
        lines = []
        for section in sorted(self.sections):
            lines.append(f"[{section}]")
            for k in sorted(self.sections[section]):
                lines.append(f"{k} = {self.sections[section][k]}")
            lines.append("")
        return "\n".join(lines)


def parse_config(path: str) -> RunConfig:
    sections: dict = {}
    line_map: dict = {}
    current = None
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for num, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"{path}:{num}: malformed section header "
                                  f"{line!r}")
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            line_map[(current, None)] = num
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{num}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(
                f"{path}:{num}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{num}: empty key")
        if key in sections[current]:
            raise ConfigError(
                f"{path}:{num}: duplicate key '{key}' in [{current}]")
        sections[current][key] = value
        line_map[(current, key)] = num
    return RunConfig(sections, line_map, path)


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

# the [torus] key that each Torus validation message is about, by its
# first word
_TORUS_KEYS = {"dim_n": "n", "length": "length", "points_per_axis": "points"}


def build_torus(cfg: RunConfig) -> Torus:
    n = cfg.get_int("torus", "n", required=True)
    length = cfg.get_float("torus", "length", default=2 * np.pi)
    points = cfg.get_int("torus", "points", required=True)
    try:
        return Torus(n, length, points)
    except ValueError as exc:
        key = _TORUS_KEYS[str(exc).split()[0]]
        raise ConfigError(
            f"{cfg._where('torus', key)}: invalid torus: {exc}") from None


def build_coefficients(cfg: RunConfig, torus: Torus,
                       seed: int) -> CoefficientField:
    family = cfg.get("coefficients", "family", default="identity")
    seed = cfg.get_int("coefficients", "seed", default=seed)
    if seed < 0:
        raise ConfigError(
            f"{cfg._where('coefficients', 'seed')}: 'seed' must be "
            f"non-negative, got {seed}")
    if family == "identity":
        return identity_coefficients(torus)
    if family == "skew":
        k = cfg.get_float("coefficients", "k", required=True)
        try:
            return diagnostics.skew_coefficients(torus, k)
        except ValueError as exc:
            raise ConfigError(
                f"{cfg._where('coefficients', 'family')}: {exc}") from None
    if family == "block":
        return diagnostics.block_coefficients(torus, seed)
    if family == "smooth_symmetric":
        key = "kappa_min"
        kappa_min = cfg.get_float("coefficients", key, default=0.3)
        try:
            B = diagnostics.smooth_real_symmetric(torus, seed,
                                                  kappa_min=kappa_min)
        except ValueError as exc:
            raise ConfigError(
                f"{cfg._where('coefficients', key)}: {exc}") from None
    elif family == "constant":
        key = "entries"
        entries = cfg.get_list("coefficients", key)
        if entries is None:
            A = diagnostics.random_accretive_constant(seed, torus.dim_n)
        else:
            dim = torus.dim_n + 1
            if len(entries) != 2 * dim * dim:
                raise ConfigError(
                    f"{cfg._where('coefficients', key)}: 'entries' needs "
                    f"{2 * dim * dim} numbers (row-major, re/im "
                    f"interleaved), got {len(entries)}")
            vals = np.asarray(entries).reshape(dim * dim, 2)
            A = (vals[:, 0] + 1j * vals[:, 1]).reshape(dim, dim)
        try:
            B = vector_block_coefficients(torus, A)
        except ValueError as exc:
            raise ConfigError(
                f"{cfg._where('coefficients', key)}: bad constant matrix: "
                f"{exc}") from None
    else:
        raise ConfigError(f"{cfg._where('coefficients', 'family')}: unknown "
                          f"coefficient family {family!r}")
    if not B.is_accretive():
        raise ConfigError(
            f"{cfg._where('coefficients', key)}: the coefficients are not "
            f"accretive (kappa = {B.kappa:.3e})")
    return B


def build_scalar_data(cfg: RunConfig, torus: Torus) -> np.ndarray:
    profile = cfg.get("problem", "data", required=True)
    if profile == "mode":
        index = cfg.get_int("problem", "mode_index", default=1)
        # mode 0 is the constant, which the mean removal discards, and a
        # mode past points/2 aliases to a lower one
        top = torus.points_per_axis // 2
        if not 1 <= index <= top:
            raise ConfigError(
                f"{cfg._where('problem', 'mode_index')}: 'mode_index' must "
                f"be between 1 and points/2 = {top}, got {index}")
        return diagnostics.mode_data(torus, index)
    if profile == "gaussian":
        return diagnostics.gaussian_data(torus)
    if profile == "step":
        return diagnostics.step_data(torus)
    raise ConfigError(
        f"{cfg._where('problem', 'data')}: unknown data profile {profile!r}")


# ---------------------------------------------------------------------------
# atomic output helpers
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def atomic_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.17g}")
            elif isinstance(v, complex):
                cells.append(f"{v.real:.17g}+{v.imag:.17g}j")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, out_dir: str, seed: int, quiet: bool) -> int:
    torus = build_torus(cfg)
    B = build_coefficients(cfg, torus, seed)
    kind = cfg.get("problem", "kind", required=True)
    if kind not in SCALAR_KINDS + ("transmission",):
        raise ConfigError(
            f"{cfg._where('problem', 'kind')}: unknown problem kind {kind!r}")
    frame_kwargs = {}
    if cfg.has("tolerances", "invariance_tol"):
        tol = cfg.get_float("tolerances", "invariance_tol")
        # a tolerance <= 0 would fail every frame, even one with no leak
        if tol <= 0:
            raise ConfigError(
                f"{cfg._where('tolerances', 'invariance_tol')}: "
                f"'invariance_tol' must be positive, got {tol}")
        frame_kwargs["invariance_tol"] = tol
    if kind == "transmission":
        # the datum is the gradient of the scalar profile, a 1-vector field
        degree = cfg.get_int("problem", "degree", default=1)
        if degree != 1:
            raise ConfigError(
                f"{cfg._where('problem', 'degree')}: transmission data is a "
                f"1-vector field, so 'degree' must be 1, got {degree}")
        alpha_plus = cfg.get_complex("problem", "alpha_plus", default=2.0 + 0j)
        alpha_minus = cfg.get_complex("problem", "alpha_minus",
                                      default=1.0 + 0j)
        if alpha_plus == alpha_minus:
            key = ("alpha_minus" if cfg.has("problem", "alpha_minus")
                   else "alpha_plus")
            raise ConfigError(
                f"{cfg._where('problem', key)}: 'alpha_plus' and "
                f"'alpha_minus' must differ, both are {alpha_plus}")
        frame = BoundaryFrame(B, degree=degree, **frame_kwargs)
        g = gradient_of(torus, build_scalar_data(cfg, torus))
        (sol, sol_minus), report = solve_transmission(
            B, degree, alpha_plus, alpha_minus, g, frame=frame)
    else:
        frame = BoundaryFrame(B, **frame_kwargs)
        sol, report = solve_kind(kind, frame, build_scalar_data(cfg, torus))
    check_solve_health(kind, report)

    t_samples = sol.default_t_samples()
    trace_norm = frame.phys_norm(sol.coords)
    report.norms["trace"] = trace_norm
    report.norms["sup_t"] = norm_sup_t(sol, t_samples)
    report.norms["triplebar_dt"] = norm_triplebar_dt(sol)
    report.norms["nontangential"] = nontangential_max(sol, t_samples=t_samples)

    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "report.txt"),
                      report.to_text() + "\n# resolved config\n" + cfg.echo())
    tmp_trace = os.path.join(out_dir, "trace.csv.tmp")
    field_to_csv(sol.trace_field(), tmp_trace)
    os.replace(tmp_trace, os.path.join(out_dir, "trace.csv"))
    atomic_csv(os.path.join(out_dir, "samples.csv"),
               ["t", "norm_Ft", "hardy_defect"],
               [[float(t), float(norm), report.hardy_defect]
                for t, norm in zip(t_samples, sol.norms_at_ts(t_samples))])
    atomic_csv(os.path.join(out_dir, "norms.csv"), ["name", "value"],
               [[k, float(v)] for k, v in report.norms.items()])
    if not quiet:
        print(report.to_text(), end="")
        print(f"output written to {out_dir}")
    return 0


def cmd_campaign(cfg: RunConfig, out_dir: str, seed: int, quiet: bool) -> int:
    cid = cfg.get("campaign", "id", required=True)
    torus = build_torus(cfg)
    B = build_coefficients(cfg, torus, seed)
    if cid == "rellich":
        fields = cfg.get_int("campaign", "fields", default=100)
        if fields < 1:
            raise ConfigError(f"{cfg._where('campaign', 'fields')}: fields "
                              f"must be at least 1, got {fields}")
        result = diagnostics.rellich_campaign(B, seed=seed, num_fields=fields)
    elif cid == "block":
        result = diagnostics.block_campaign(B)
    elif cid == "perturbation":
        eps_list = cfg.get_list("campaign", "eps_list",
                                default=[1e-1, 1e-2, 1e-3])
        if not eps_list:
            raise ConfigError(
                f"{cfg._where('campaign', 'eps_list')}: empty eps_list")
        direction = diagnostics.smooth_real_symmetric(
            torus, seed + 1, kappa_min=-np.inf)
        delta = CoefficientField(
            torus, direction.maps - np.eye(torus.lambda_dim), _skip_check=True)
        result = diagnostics.perturbation_campaign(B, delta, eps_list,
                                                   seed=seed)
    elif cid == "skew":
        k_list = cfg.get_list("campaign", "k_list",
                              default=[0.0, 1.0, 2.0, 4.0, 8.0])
        if not k_list:
            raise ConfigError(
                f"{cfg._where('campaign', 'k_list')}: empty k_list")
        n_points = cfg.get_list("campaign", "n_points", conv=int,
                                default=[128, 256])
        where = cfg._where("campaign", "n_points")
        if not n_points:
            raise ConfigError(f"{where}: empty n_points")
        for N in n_points:
            try:
                Torus(1, torus.length, N)
            except ValueError as exc:
                raise ConfigError(
                    f"{where}: invalid n_points entry {N}: {exc}") from None
        result = diagnostics.skew_scan(k_list, n_points, torus.length)
    elif cid == "psi":
        result = diagnostics.psi_comparability(B, seed=seed)
    elif cid == "hodge":
        result = diagnostics.hodge_campaign(B, seed=seed)
    elif cid == "duality":
        result = diagnostics.duality_campaign(B)
    elif cid == "offdiag":
        result = diagnostics.offdiag_campaign(B, seed=seed)
    else:
        raise ConfigError(
            f"{cfg._where('campaign', 'id')}: unknown campaign id {cid!r}")
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, "campaign.csv.tmp")
    result.to_csv(tmp)
    os.replace(tmp, os.path.join(out_dir, "campaign.csv"))
    atomic_write_text(os.path.join(out_dir, "summary.txt"), result.summary())
    if not quiet:
        print(result.summary(), end="")
    return 0 if result.passed else 1


def cmd_oracle(cfg: RunConfig, out_dir: str, seed: int, quiet: bool) -> int:
    """Compare the grid solves against the constant-coefficient per-mode
    oracle for all four problem kinds."""
    torus = build_torus(cfg)
    if torus.dim_n != 1:
        raise ConfigError(f"{cfg._where('torus', 'n')}: the oracle "
                          f"comparison runs on n = 1")
    family = cfg.get("coefficients", "family", default="identity")
    if family == "identity":
        A = np.eye(2, dtype=complex)
    elif family == "constant":
        B_tmp = build_coefficients(cfg, torus, seed)
        A = B_tmp.vector_block()[(0,) * torus.dim_n]
    else:
        raise ConfigError(
            f"{cfg._where('coefficients', 'family')}: oracle comparison "
            f"needs constant coefficients")
    B = vector_block_coefficients(torus, A)
    frame = BoundaryFrame(B)
    scalar = build_scalar_data(cfg, torus) if cfg.has("problem", "data") \
        else diagnostics.mode_data(torus, 1)
    t_list = [0.05, 0.2, 1.0]
    rows = []
    for kind in SCALAR_KINDS:
        sol, _ = solve_kind(kind, frame, scalar)
        rows += [[kind, t, float(dev)] for t, dev in
                 oracles.constant_deviations(sol, A, kind, scalar, t_list)]
    worst = max(row[2] for row in rows)
    os.makedirs(out_dir, exist_ok=True)
    atomic_csv(os.path.join(out_dir, "oracle.csv"),
               ["kind", "t", "relative_deviation"], rows)
    atomic_write_text(os.path.join(out_dir, "summary.txt"),
                      f"max_deviation = {worst:.6e}\n")
    if not quiet:
        print(f"max oracle deviation: {worst:.6e}")
    return 0


def cmd_verify(out_dir: str | None, quiet: bool) -> int:
    """Reduced-size run of every gating verification; prints a table."""
    from . import verify as verify_mod
    results = verify_mod.run_all()
    lines = [f"{'check':<42}{'value':>14}{'tol':>10}  status"]
    ok = True
    for name, value, tol, passed in results:
        ok = ok and passed
        lines.append(f"{name:<42}{value:>14.3e}{tol:>10.0e}  "
                     f"{'pass' if passed else 'FAIL'}")
    table = "\n".join(lines) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(os.path.join(out_dir, "verify.txt"), table)
    if not quiet:
        print(table, end="")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="halfspace",
        description="Half-space boundary value problems through the "
                    "functional calculus of a first-order boundary operator.")
    parser.add_argument("command",
                        choices=["solve", "campaign", "oracle", "verify"])
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must be non-negative, got {args.seed}")

    try:
        if args.command == "verify":
            return cmd_verify(args.out, args.quiet)
        if not args.config:
            raise ConfigError(f"command {args.command!r} requires --config")
        cfg = parse_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.seed, args.quiet)
        if args.command == "campaign":
            return cmd_campaign(cfg, args.out, args.seed, args.quiet)
        return cmd_oracle(cfg, args.out, args.seed, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WellPosednessError as exc:
        print(f"well-posedness failure: {exc} "
              f"(condition number {exc.condition_number:.3e})",
              file=sys.stderr)
        return EXIT_WELLPOSEDNESS
    except (calculus.IllConditionedEigenbasisError,
            calculus.SectorViolationError, PointwiseInversionError,
            SubspaceInvarianceError, NumericalHealthError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
