"""Tests for the measurement campaigns and their reporting."""

import csv

import numpy as np
import pytest

from halfspace.diagnostics import (block_campaign, block_coefficients,
                                   duality_campaign, gaussian_data,
                                   hodge_campaign,
                                   skew_scan, mode_data, offdiag_campaign,
                                   perturbation_campaign, psi_comparability,
                                   random_accretive_constant,
                                   rellich_campaign, smooth_real_symmetric,
                                   step_data)
from halfspace.grid import Torus, identity_coefficients


def _torus(points=32):
    return Torus(1, 2 * np.pi, points)


def test_smooth_real_symmetric_accretive():
    for seed in range(5):
        B = smooth_real_symmetric(_torus(), seed)
        assert B.kappa >= 0.3 - 1e-12
        # real symmetric pointwise
        assert np.allclose(B.maps.imag, 0.0)
        assert np.allclose(B.maps, np.swapaxes(B.maps, -1, -2))


def test_random_accretive_constant_accretive():
    for seed in range(5):
        B = random_accretive_constant(seed, 1)
        assert np.min(np.linalg.eigvalsh(0.5 * (B + B.conj().T))) > 0


def test_data_profiles_mean_free_or_bounded():
    torus = _torus()
    g = gaussian_data(torus)
    assert abs(np.mean(g)) <= 1e-12 * np.max(np.abs(g))
    m = mode_data(torus, 3)
    assert abs(np.mean(m)) <= 1e-12
    s = step_data(torus)
    assert np.max(np.abs(s)) <= 2.0


def test_rellich_campaign_passes_real_symmetric():
    res = rellich_campaign(smooth_real_symmetric(_torus(), 2), seed=0,
                           num_fields=20)
    assert res.passed
    assert len(res.rows) > 0


@pytest.mark.parametrize("num_fields", [0, -1])
def test_rellich_campaign_rejects_no_fields(num_fields):
    # with no fields both maxima would stay 0 and the campaign pass vacuously
    with pytest.raises(ValueError, match="num_fields must be at least 1"):
        rellich_campaign(smooth_real_symmetric(_torus(16), 2),
                         num_fields=num_fields)


def test_rellich_campaign_exploratory_for_complex_hermitian():
    # complex hermitian coefficients are measured but marked exploratory:
    # the identity is only proved for real symmetric coefficients
    torus = _torus()
    A = np.array([[1.5, 0.2 + 0.3j], [0.2 - 0.3j, 1.2]])
    from halfspace.grid import vector_block_coefficients
    Bc = vector_block_coefficients(torus, A)
    res = rellich_campaign(Bc, seed=0, num_fields=5)
    assert res.parameters.get("exploratory") is True
    assert res.passed  # exploratory checks never gate


def test_block_campaign_identities():
    res = block_campaign(block_coefficients(_torus(), seed=1))
    assert res.passed
    names = [c.name for c in res.checks]
    assert any("anticommutator" in n for n in names)
    assert any("closed_form" in n for n in names)


def test_perturbation_campaign_stability():
    torus = _torus()
    B0 = block_coefficients(torus, seed=2)
    direction = smooth_real_symmetric(torus, 9)
    res = perturbation_campaign(B0, direction, eps_list=(1e-1, 1e-2))
    assert res.passed


def test_skew_scan_landscape():
    res = skew_scan(k_list=(0.0, 2.0), n_points=(32, 64))
    assert res.passed
    assert len(res.rows) == 4


def test_psi_and_hodge_and_offdiag():
    torus = _torus()
    assert psi_comparability(identity_coefficients(torus)).passed
    assert hodge_campaign(smooth_real_symmetric(torus, 4)).passed
    res = offdiag_campaign(smooth_real_symmetric(torus, 4))
    # descriptive only: never gates
    assert all(c.note for c in res.checks)


def test_duality_campaign():
    res = duality_campaign(smooth_real_symmetric(_torus(), 5))
    assert res.passed


def test_campaign_seed_determinism():
    B = smooth_real_symmetric(_torus(), 2)
    r1 = rellich_campaign(B, seed=7, num_fields=10)
    r2 = rellich_campaign(B, seed=7, num_fields=10)
    assert r1.rows == r2.rows
    assert [c.value for c in r1.checks] == [c.value for c in r2.checks]


def test_campaign_csv_roundtrip_precision(tmp_path):
    res = rellich_campaign(smooth_real_symmetric(_torus(), 2), seed=0,
                           num_fields=5)
    path = tmp_path / "campaign.csv"
    res.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(body) == len(res.rows)
    # values round-trip at full precision
    for text_row, row in zip(body, res.rows):
        for key, text in zip(header, text_row):
            v = row.get(key, "")
            if isinstance(v, float):
                assert float(text) == v


def test_summary_contains_verdict():
    res = block_campaign(block_coefficients(_torus(), seed=1))
    text = res.summary()
    assert "overall:" in text
    assert "pass" in text
