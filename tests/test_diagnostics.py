"""Diagnostics tests with hand-derived calibration values.

The entropy of a 9-zeros-one-one window is the frozen oracle value
-(0.9 log2 0.9 + 0.1 log2 0.1) = 0.4689955935892812.
"""

import collections
import hashlib
import math
import tracemalloc

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
)
from matchdna.attractor_tree import GaConfig
from matchdna.fuzzy_ca import SUPPORTED_RULES, RuleSet

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


def site_entropy(window):
    """Mean per-cell entropy of one (w,) or (w, n) bit window: the
    one-window, one-trial case of the reduction measure_entropy runs."""
    b = np.asarray(window)
    if b.ndim == 1:
        b = b[:, None]
    return diag._entropy_report(b[:, None, :], np.arange(len(b)),
                                len(b)).mean_entropy


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


def float_mi(a, b):
    """_normalized_mi from float64 copies of the bits: means for the
    marginals, masks of (a == x) & (b == y) for the joint cells."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[-1]
    pa, pb = a.mean(axis=-1), b.mean(axis=-1)
    h_a, h_b = diag._h_bernoulli(pa), diag._h_bernoulli(pb)
    mi = np.zeros_like(h_a)
    for x in (0, 1):
        for y in (0, 1):
            px, py = (pa if x else 1.0 - pa), (pb if y else 1.0 - pb)
            pxy = ((a == x) & (b == y)).sum(axis=-1) / n
            with np.errstate(divide="ignore", invalid="ignore"):
                term = pxy * np.log2(pxy / (px * py))
            mi += np.where(pxy > 0.0, np.nan_to_num(term), 0.0)
    h_min = np.minimum(h_a, h_b)
    return np.where(h_min > 0.0, np.clip(mi / np.where(h_min > 0, h_min, 1.0),
                                         0.0, 1.0), 0.0)


class TestMutualInformation:
    def test_counts_equal_float_copies_fuzz(self):
        # counting ones must give the very floats the float copies gave,
        # on uint8 bits and int arrays, 1-D and batched, dense and sparse
        rng = np.random.default_rng(43)
        for shape in [(1,), (8,), (30,), (40, 15, 8), (7, 3, 64)]:
            for p in (0.0, 0.05, 0.5, 0.95, 1.0):
                a = (rng.random(shape) < p).astype(np.uint8)
                b = (rng.random(shape) < rng.random()).astype(np.uint8)
                for x, y in ((a, b), (a, a.copy()), (b.astype(int), a.astype(int))):
                    assert np.array_equal(diag._normalized_mi(x, y), float_mi(x, y))

    def test_copy_is_one(self):
        p = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        assert diag._normalized_mi(p, p.copy()) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert diag._normalized_mi(np.zeros(8, int), np.ones(8, int)) == 0.0
        assert diag._normalized_mi(np.ones(8, int), np.array([0, 1] * 4)) == 0.0

    def test_independent_long_patterns_near_zero(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=2000)
        b = rng.integers(0, 2, size=2000)
        assert diag._normalized_mi(a, b) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.integers(0, 2, size=30)
            b = rng.integers(0, 2, size=30)
            assert diag._normalized_mi(a, b) == pytest.approx(
                diag._normalized_mi(b, a), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 2, size=12)
            b = rng.integers(0, 2, size=12)
            assert 0.0 <= diag._normalized_mi(a, b) <= 1.0


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


def reference_series(rules, config):
    """Every trial stepped through all run_steps, binarized after the
    transient: the full-length (T, trials, n) series, and whether the
    batch repeats a state exactly within run_steps."""
    rs = RuleSet.coerce(rules)
    seqs = np.random.SeedSequence(config.rng_seed).spawn(config.trials)
    cur = np.vstack([np.random.default_rng(s).random(rs.n) for s in seqs])
    states = np.empty((config.run_steps + 1, config.trials, rs.n))
    states[0] = cur
    for t in range(1, config.run_steps + 1):
        states[t] = cur = rs.apply(cur)
    repeats = len({state.tobytes() for state in states}) < len(states)
    return (binarize(states[min(config.window, len(states) - config.window):]),
            repeats)


def first_repeat_step(rules, config):
    """The first step whose whole-batch state equals one seen at an
    earlier step, or run_steps if the batch never repeats."""
    rs = RuleSet.coerce(rules)
    seqs = np.random.SeedSequence(config.rng_seed).spawn(config.trials)
    cur = np.vstack([np.random.default_rng(s).random(rs.n) for s in seqs])
    seen = {cur.tobytes()}
    for t in range(1, config.run_steps + 1):
        cur = rs.apply(cur)
        if cur.tobytes() in seen:
            return t
        seen.add(cur.tobytes())
    return config.run_steps


def reference_entropy(series, w):
    """Tallies of the full-length series: per trial, how many (window,
    cell) pairs hold k ones, weighted by h(k / w) and added by fsum."""
    counts = np.stack([series[t:t + w].sum(axis=0, dtype=np.int64)
                       for t in range(len(series) - w + 1)])
    h_table = diag._h_bernoulli(np.arange(w + 1) / w)
    per_trial = np.array([
        math.fsum(float(h_table[k]) * int((counts[:, trial] == k).sum())
                  for k in range(w + 1))
        for trial in range(series.shape[1])]) / (counts.shape[0] * series.shape[2])
    return float(per_trial.mean()), float(per_trial.std()), \
        [float(v) for v in per_trial]


def reference_mi(series):
    per_trial = diag._normalized_mi(series[:-diag.MI_LAG],
                                    series[diag.MI_LAG:]).mean(axis=0)
    return float(per_trial.mean()), [float(v) for v in per_trial]


class TestStoppedSeries:
    """The probes stop stepping at the batch's first exact repeat; every
    float must equal the one a full-length run gives."""

    def check(self, rules, cfg):
        series, repeats = reference_series(rules, cfg)
        mean_h, std_h, per_h = reference_entropy(series, cfg.window)
        mean_mi, per_mi = reference_mi(series)
        ent = measure_entropy(rules, cfg)
        mi = measure_mi(rules, cfg)
        assert (ent.mean_entropy, ent.std_dev, ent.per_trial) == \
            (mean_h, std_h, per_h)
        assert (mi.mean_mi, mi.per_trial) == (mean_mi, per_mi)
        assert diag.rule_vector_diagnostics(rules, cfg, generation=1) == {
            "generation": 1, "n": len(rules), "mean_entropy": mean_h,
            "std_entropy": std_h, "mean_mi": mean_mi}
        return repeats

    def test_fuzz_equals_full_length_reference(self):
        rng = np.random.default_rng(14)
        rules = sorted(SUPPORTED_RULES)
        stopped = 0
        for case in range(240):
            n = int(rng.integers(2, 10))
            window = int(rng.integers(2, 12))
            # a short run often ends before the batch repeats
            top = window + 8 if case % 3 == 0 else 500
            cfg = DiagnosticsConfig(window=window,
                                    run_steps=int(rng.integers(window, top)),
                                    trials=int(rng.integers(1, 6)),
                                    rng_seed=case)
            stopped += self.check([int(r) for r in rng.choice(rules, n)], cfg)
        assert 200 <= stopped < 240  # both kinds of run are covered

    def test_run_ends_before_any_repeat(self):
        # a left shift of 9 random cells only empties after 9 steps
        cfg = DiagnosticsConfig(window=3, run_steps=6, trials=2, rng_seed=4)
        assert not self.check([170] * 9, cfg)

    def test_single_trial(self):
        cfg = DiagnosticsConfig(window=5, run_steps=80, trials=1, rng_seed=5)
        assert self.check([250, 1, 3, 5, 3, 250, 252, 204], cfg)

    @pytest.mark.parametrize("rules", [[204] * 5, [51] * 5, [170] * 5,
                                       [250, 1, 3, 5, 3]])
    def test_window_equals_run_steps(self, rules):
        self.check(rules, DiagnosticsConfig(window=7, run_steps=7, trials=3,
                                            rng_seed=6))

    def test_default_probe_steps_to_the_repeat_only(self, monkeypatch):
        calls = []
        apply = RuleSet.apply

        def counting(self, state):
            calls.append(len(state))
            return apply(self, state)

        monkeypatch.setattr(RuleSet, "apply", counting)
        diag.rule_vector_diagnostics([250, 1, 3, 5, 3, 250, 252, 204],
                                     DiagnosticsConfig())
        assert 0 < len(calls) <= 64

    @pytest.mark.parametrize("rules", [
        [0] * 6, [51] * 6, [250, 1, 3, 5, 3, 250, 252, 204],
        [5, 250, 3, 51, 170, 204, 1, 252],
        # never repeats within the default 10,000 steps
        [170, 3, 240, 1, 1, 240, 51, 252]])
    def test_default_probe_stops_at_the_first_repeat(self, rules, monkeypatch):
        cfg = DiagnosticsConfig()
        want = first_repeat_step(rules, cfg)
        calls = []
        apply = RuleSet.apply
        monkeypatch.setattr(RuleSet, "apply",
                            lambda self, state: calls.append(1) or apply(self, state))
        diag.rule_vector_diagnostics(rules, cfg)
        assert len(calls) == want


def traced_peak(rules, config):
    """tracemalloc's peak over one rule_vector_diagnostics call."""
    diag.rule_vector_diagnostics(rules, config)
    tracemalloc.start()
    try:
        diag.rule_vector_diagnostics(rules, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestProbeMemory:
    """Entropy is tallied per distinct state, so a probe that repeats
    early makes no array with a row per step of its 10,000."""

    def test_default_probe_that_repeats_early(self):
        assert traced_peak([250, 1, 3, 5, 3, 250, 252, 204],
                           DiagnosticsConfig()) < 4e6

    def test_default_probe_that_never_repeats(self):
        # the stopped series is the whole run here; gathering a float per
        # (step, trial, cell) for entropy took the peak above 38.5 MB, and
        # MI's float copies of both bit arrays took it to 33.8 MB
        assert traced_peak([170, 3, 240, 1, 1, 240, 51, 252],
                           DiagnosticsConfig()) <= 26e6


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

    def test_pinned_csv_digest(self):
        text = diagnostics_to_csv(ga_diagnostics(
            8, GaConfig(population_size=30, generations=12, rng_seed=3),
            DiagnosticsConfig(rng_seed=3)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "2257b4e2c37b1eb3a24dac0e97ae0029ae520c64ba053762b0dc60c5ae88e62b"

    def test_deterministic(self):
        kw = dict(n=4,
                  ga_config=GaConfig(population_size=6, generations=3, rng_seed=2),
                  diag_config=DiagnosticsConfig(window=4, run_steps=40, trials=2,
                                                rng_seed=3))
        assert diagnostics_to_csv(ga_diagnostics(**kw)) == \
               diagnostics_to_csv(ga_diagnostics(**kw))
