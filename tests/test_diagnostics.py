"""Diagnostics tests with hand-derived calibration values.

The entropy of a 9-zeros-one-one window is the frozen oracle value
-(0.9 log2 0.9 + 0.1 log2 0.1) = 0.4689955935892812.
"""

import collections
import math

import numpy as np
import pytest

from matchdna import diagnostics as diag
from matchdna.diagnostics import (
    DiagnosticsConfig,
    binarize,
    diagnostics_to_csv,
    ga_diagnostics,
    measure_entropy,
    measure_mi,
    mutual_information,
    site_entropy,
)
from matchdna.attractor_tree import GaConfig

NINE_ZEROS_ONE_ONE_H = 0.4689955935892812


def oracle_site_entropy(window):
    b = np.atleast_2d(np.asarray(window).T).T
    if b.ndim == 1:
        b = b[:, None]
    per_cell = []
    for cell in range(b.shape[1]):
        counts = collections.Counter(int(v) for v in b[:, cell])
        total = b.shape[0]
        h = -sum((c / total) * math.log2(c / total) for c in counts.values())
        per_cell.append(h)
    return sum(per_cell) / len(per_cell)


class TestBinarize:
    def test_threshold_tie_goes_to_one(self):
        assert binarize([0.5, 0.49, 0.51]).tolist() == [1, 0, 1]


class TestSiteEntropy:
    def test_all_zero_window(self):
        assert site_entropy(np.zeros(10, dtype=int)) == 0.0

    def test_alternating_window(self):
        assert site_entropy(np.array([0, 1] * 5)) == pytest.approx(1.0)

    def test_nine_zeros_one_one(self):
        window = np.array([0] * 9 + [1])
        assert site_entropy(window) == pytest.approx(NINE_ZEROS_ONE_ONE_H, abs=1e-12)

    def test_multi_cell_average(self):
        block = np.stack([np.zeros(10, dtype=int), np.array([0, 1] * 5)], axis=1)
        assert site_entropy(block) == pytest.approx(0.5)

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = int(rng.integers(2, 16))
            n = int(rng.integers(1, 6))
            window = rng.integers(0, 2, size=(w, n))
            assert site_entropy(window) == pytest.approx(
                oracle_site_entropy(window), abs=1e-12)


class TestMutualInformation:
    def test_copy_is_one(self):
        p = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        assert mutual_information(p, p.copy()) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert mutual_information(np.zeros(8, int), np.ones(8, int)) == 0.0
        assert mutual_information(np.ones(8, int), np.array([0, 1] * 4)) == 0.0

    def test_independent_long_patterns_near_zero(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=2000)
        b = rng.integers(0, 2, size=2000)
        assert mutual_information(a, b) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.integers(0, 2, size=30)
            b = rng.integers(0, 2, size=30)
            assert mutual_information(a, b) == pytest.approx(
                mutual_information(b, a), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 2, size=12)
            b = rng.integers(0, 2, size=12)
            assert 0.0 <= mutual_information(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information([0, 1], [0, 1, 1])


SMALL = dict(window=10, run_steps=200, trials=5, rng_seed=31)


class TestMeasureEntropy:
    def test_constant_zero_rules(self):
        report = measure_entropy([0] * 8, DiagnosticsConfig(**SMALL))
        assert report.mean_entropy == 0.0 and report.std_dev == 0.0

    def test_complement_rules_alternate_at_full_entropy(self):
        report = measure_entropy([51] * 8, DiagnosticsConfig(**SMALL))
        assert report.mean_entropy == pytest.approx(1.0)

    def test_reference_vector_settles_to_zero(self):
        report = measure_entropy([238, 254, 238, 252], DiagnosticsConfig(**SMALL))
        assert report.mean_entropy == 0.0

    def test_identity_rules_are_static(self):
        report = measure_entropy([204] * 6, DiagnosticsConfig(**SMALL))
        assert report.mean_entropy == 0.0

    def test_deterministic_and_bounded(self):
        cfg = DiagnosticsConfig(window=6, run_steps=120, trials=4, rng_seed=8)
        rules = [254, 85, 238, 51, 240, 170]
        a = measure_entropy(rules, cfg)
        b = measure_entropy(rules, cfg)
        assert a.per_trial == b.per_trial
        assert 0.0 <= a.mean_entropy <= 1.0
        assert len(a.per_trial) == 4


class TestMeasureMi:
    def test_identity_rules_copy_exactly(self):
        report = measure_mi([204] * 10, DiagnosticsConfig(**SMALL))
        assert report.mean_mi == pytest.approx(1.0)

    def test_constant_zero_rules(self):
        report = measure_mi([0] * 10, DiagnosticsConfig(**SMALL))
        assert report.mean_mi == 0.0

    def test_bounded_and_deterministic(self):
        cfg = DiagnosticsConfig(window=6, run_steps=150, trials=4, rng_seed=9)
        rules = [250, 3, 204, 17, 238, 254]
        a = measure_mi(rules, cfg)
        assert a.per_trial == measure_mi(rules, cfg).per_trial
        assert 0.0 <= a.mean_mi <= 1.0


class TestRuleVectorDiagnostics:
    @pytest.mark.parametrize("rules", [[0] * 6, [204] * 6, [51] * 6,
                                       [254, 85, 238, 51, 240, 170]])
    def test_row_equals_separate_measurements(self, rules):
        cfg = DiagnosticsConfig(window=6, run_steps=150, trials=4, rng_seed=9)
        ent = measure_entropy(rules, cfg)
        mi = measure_mi(rules, cfg)
        assert diag.rule_vector_diagnostics(rules, cfg, generation=3) == {
            "generation": 3, "n": 6, "mean_entropy": ent.mean_entropy,
            "std_entropy": ent.std_dev, "mean_mi": mi.mean_mi}


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [dict(window=1), dict(run_steps=5, window=10),
                                    dict(trials=0)])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            DiagnosticsConfig(**kw)


class TestGaDiagnostics:
    def test_rows_and_csv(self):
        rows = ga_diagnostics(
            n=6,
            ga_config=GaConfig(population_size=8, generations=5, rng_seed=17),
            diag_config=DiagnosticsConfig(window=5, run_steps=60, trials=3,
                                          rng_seed=18))
        assert rows and rows[0]["generation"] == 0
        assert [r["generation"] for r in rows] == list(range(len(rows)))
        for row in rows:
            assert row["n"] == 6
            assert 0.0 <= row["mean_entropy"] <= 1.0
            assert 0.0 <= row["mean_mi"] <= 1.0
        text = diagnostics_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "generation,n,mean_entropy,std_entropy,mean_mi"
        assert len(lines) == 2 + len(rows)

    def test_deterministic(self):
        kw = dict(n=4,
                  ga_config=GaConfig(population_size=6, generations=3, rng_seed=2),
                  diag_config=DiagnosticsConfig(window=4, run_steps=40, trials=2,
                                                rng_seed=3))
        assert diagnostics_to_csv(ga_diagnostics(**kw)) == \
               diagnostics_to_csv(ga_diagnostics(**kw))
