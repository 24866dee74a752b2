"""Acceptance gate: the full verification battery at its stated sizes.

Each test calls one ``verify.check_*`` family with no arguments, so at the
full sizes and tolerances its defaults declare (its docstring says what it
measures), and requires every gating row to pass.  The rows are
(name, measured value, tolerance, passed).
"""

from halfspace import verify


def _assert_all(rows):
    failed = [r for r in rows if not r[3]]
    msg = "\n".join(f"{name}: value {value:.6e} exceeds tolerance {tol:.1e}"
                    for name, value, tol, _ in failed)
    assert not failed, msg


def test_01_exterior_algebra_identities():
    _assert_all(verify.check_algebra())


def test_02_symbol_oracle_equivalence():
    _assert_all(verify.check_symbol_oracle())


def test_03_explicit_half_plane_kernel():
    _assert_all(verify.check_example_kernel())


def test_04_spectral_sector_localization():
    _assert_all(verify.check_sector())


def test_05_rellich_identities():
    _assert_all(verify.check_rellich())


def test_06_block_coefficient_identities():
    _assert_all(verify.check_block())


def test_07_quadratic_estimate_selfadjoint_value():
    _assert_all(verify.check_quadratic())


def test_08_perturbation_stability():
    _assert_all(verify.check_perturbation())


def test_09_wellposedness_landscape():
    _assert_all(verify.check_skew())


def test_10_solution_norm_equivalences():
    _assert_all(verify.check_norm_equivalences())


def test_11_duality_adjoints():
    _assert_all(verify.check_duality())


def test_12_dirichlet_interior_residual():
    _assert_all(verify.check_dirichlet())
