"""Entropy and mutual-information diagnostics for fuzzy CA rule vectors.

Fuzzy states are binarized at BINARIZE_THRESHOLD (ties count as 1) and
measured with bit-level Shannon statistics: per-cell temporal entropy
over a moving window, and mutual information between whole states
MI_LAG steps apart with cells as the samples.  Normalized MI divides by
the smaller marginal entropy so that an exact copy scores 1; constant
patterns score 0 by convention.

A probe steps its trials as one deterministic batch, so the run is a
transient followed by a cycle.  Stepping stops at the batch's first
exact repeat, and each distinct state's window one-counts and lag-pair
MI are computed once.  Entropy adds h(k / window) times integer tallies
of the (window, cell) pairs holding k ones, equal to the full run_steps
series' own, by math.fsum; MI is gathered to full length by a step ->
state index.  So stopping early changes no reported float; a batch that
never repeats is stepped to run_steps.

EDGE_OF_CHAOS_ENTROPY is the reference entropy level that evolved
rule populations are reported to approach; it is context for reading
reports, not a gate.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .attractor_tree import GaConfig, _evolve_rules
from .fuzzy_ca import RuleSet

EDGE_OF_CHAOS_ENTROPY = 0.84
GA_TASK_PER_CLASS = 25   # patterns per class in ga_diagnostics' synthetic task
BINARIZE_THRESHOLD = 0.5
MI_LAG = 1

CSV_SCHEMA_HEADER = "# schema_version=1"
CSV_COLUMNS = ("generation", "n", "mean_entropy", "std_entropy", "mean_mi")


@dataclass(frozen=True)
class DiagnosticsConfig:
    window: int = 10
    run_steps: int = 10000
    trials: int = 15
    rng_seed: int = 0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.run_steps < self.window:
            raise ValueError("run_steps must be >= window")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class EntropyReport:
    mean_entropy: float
    std_dev: float
    per_trial: list = field(default_factory=list)


@dataclass
class MiReport:
    mean_mi: float
    per_trial: list = field(default_factory=list)


def binarize(state) -> np.ndarray:
    """Fuzzy values to bits; values equal to BINARIZE_THRESHOLD become 1."""
    return (np.asarray(state, dtype=float) >= BINARIZE_THRESHOLD).astype(np.uint8)


def _h_bernoulli(p):
    """Shannon entropy of a 0/1 source with P(1) = p, elementwise."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


def _normalized_mi(a, b) -> np.ndarray:
    """Normalized MI between 0/1 bit patterns along the last axis, whose
    cells are the samples, for every leading index at once.

    The marginals and the four joint cells come from integer counts of
    ones in a, in b and in both, so the bits are never copied as floats;
    a count over n is the same float as the mean of 0.0/1.0 samples,
    whose sum is exact.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1]
    ones_a = np.count_nonzero(a, axis=-1)
    ones_b = np.count_nonzero(b, axis=-1)
    both = np.count_nonzero(a & b, axis=-1)
    pa = ones_a / n
    pb = ones_b / n
    h_a = _h_bernoulli(pa)
    h_b = _h_bernoulli(pb)
    mi = np.zeros_like(h_a)
    for x in (0, 1):
        px = pa if x else 1.0 - pa
        a_is_x = ones_a if x else n - ones_a
        b_is_1 = both if x else ones_b - both  # of the cells where a == x
        for y in (0, 1):
            py = pb if y else 1.0 - pb
            pxy = (b_is_1 if y else a_is_x - b_is_1) / n
            good = pxy > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                term = pxy * np.log2(pxy / (px * py))
            mi += np.where(good, np.nan_to_num(term), 0.0)
    h_min = np.minimum(h_a, h_b)
    return np.where(h_min > 0.0, np.clip(mi / np.where(h_min > 0, h_min, 1.0),
                                         0.0, 1.0), 0.0)


def _trial_bit_series(rules, config: DiagnosticsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Binarized trial trajectories as (bits, index): the trial series
    is bits[index], shape (T, trials, n), the run after its transient.

    Each trial starts from its own seeded uniform state; all trials step
    together as one batch.  Up to `window` leading steps are dropped,
    keeping at least one window's worth of samples.

    A deterministic batch runs a transient and then a cycle, so stepping
    stops at the batch's first exact repeat: step t whose state was first
    seen at step mu.  Steps mu..t-1 are the cycle, and step t' >= mu maps
    to state mu + (t'-mu) % (t-mu).  `bits` holds the distinct states and
    then up to window-1 states of continuation, so every window that
    starts at one of them lies whole in `bits`; `index` maps each step of
    the series to its distinct state, so bits[index] is, element for
    element, the series that stepping to run_steps gives, and the
    reductions below return the same floats.  A batch that never repeats
    steps to run_steps and is its own index.
    """
    rs = RuleSet.coerce(rules)
    seqs = np.random.SeedSequence(config.rng_seed).spawn(config.trials)
    cur = np.vstack([np.random.default_rng(s).random(rs.n) for s in seqs])
    # states lie in [0, 1] and apply never makes -0.0 or NaN, so two
    # states are equal as floats exactly when their bytes are
    step_of = {cur.tobytes(): 0}  # distinct states in step order
    for t in range(1, config.run_steps + 1):
        cur = rs.apply(cur)
        mu = step_of.setdefault(cur.tobytes(), t)
        if mu < t:
            break
    states = np.frombuffer(b"".join(step_of)).reshape(-1, *cur.shape)
    del step_of  # its keys copy `states`: a long run must not keep both
    index = np.arange(config.run_steps + 1)
    if mu < t:
        index = np.where(index < t, index, mu + (index - mu) % (t - mu))
    bits = binarize(states)[index[:len(states) + config.window - 1]]
    return bits, index[min(config.window, len(index) - config.window):]


def _entropy_report(bits, index, w: int) -> EntropyReport:
    """Moving-window site entropy of the trial series bits[index],
    averaged within trials, mean/std across.

    A window's one-counts depend only on the state it starts from, so
    they are counted once per row of `bits`, and `uses` counts the
    window starts of the series each row stands for.  A trial's mean is
    sum_k h(k / w) * tally_k / (windows * cells), added by fsum, where
    tally_k counts the (window start, cell) pairs holding k ones.
    """
    # rolling per-cell one-counts via cumulative sums
    csum = np.zeros((len(bits) + 1,) + bits.shape[1:], dtype=np.int64)
    np.cumsum(bits, axis=0, dtype=np.int64, out=csum[1:])
    counts = csum[w:] - csum[:-w]          # (window starts, trials, n)
    del csum
    uses = np.bincount(index[:len(index) - w + 1], minlength=len(counts))
    tallies = np.array([uses @ (counts == k).sum(axis=2) for k in range(w + 1)])
    terms = _h_bernoulli(np.arange(w + 1) / w)[:, None] * tallies  # (k, trials)
    per_trial = np.array(list(map(math.fsum, terms.T))) / (uses.sum() * counts.shape[2])
    return EntropyReport(mean_entropy=float(per_trial.mean()),
                         std_dev=float(per_trial.std()),
                         per_trial=[float(v) for v in per_trial])


def _mi_report(bits, index) -> MiReport:
    """Mean normalized MI between states MI_LAG steps apart, per trial,
    of the trial series bits[index].

    A lag pair's MI depends only on its first state, so it is computed
    once per row of `bits` and gathered by `index` to every pair of the
    series.  A trial series keeps at least `window` >= 2 rows, so every
    trial has a lagged pair.
    """
    per_pair = _normalized_mi(bits[:-MI_LAG], bits[MI_LAG:])
    per_trial = per_pair[index[:len(index) - MI_LAG]].mean(axis=0)
    return MiReport(mean_mi=float(per_trial.mean()),
                    per_trial=[float(v) for v in per_trial])


def measure_entropy(rules, config: DiagnosticsConfig = DiagnosticsConfig()) -> EntropyReport:
    """Moving-window site entropy, averaged within trials, mean/std across."""
    return _entropy_report(*_trial_bit_series(rules, config), config.window)


def measure_mi(rules, config: DiagnosticsConfig = DiagnosticsConfig()) -> MiReport:
    """Mean normalized MI between states at lag MI_LAG, per trial."""
    return _mi_report(*_trial_bit_series(rules, config))


# ----- per-generation GA diagnostics ------------------------------------------

def rule_vector_diagnostics(rules, config: DiagnosticsConfig, generation: int = 0) -> dict:
    """One CSV row: entropy and MI of a single simulated trial series."""
    bits, index = _trial_bit_series(rules, config)
    ent = _entropy_report(bits, index, config.window)
    mi = _mi_report(bits, index)
    return {"generation": generation, "n": len(RuleSet.coerce(rules)),
            "mean_entropy": ent.mean_entropy, "std_entropy": ent.std_dev,
            "mean_mi": mi.mean_mi}


def ga_diagnostics(n: int, ga_config, diag_config: DiagnosticsConfig) -> list:
    """Evolve a rule vector on a synthetic 2-class task and measure the
    per-generation best, one CSV row per generation.

    The task is the standard separated-band set: GA_TASK_PER_CLASS
    patterns per class, class 1 features in [0, 0.3], class 2 in
    [0.7, 1.0], n cells wide.
    """
    if not isinstance(ga_config, GaConfig):
        raise TypeError("ga_config must be a GaConfig")
    rng = np.random.default_rng(np.random.SeedSequence(ga_config.rng_seed).spawn(1)[0])
    lo = rng.uniform(0.0, 0.3, size=(GA_TASK_PER_CLASS, n))
    hi = rng.uniform(0.7, 1.0, size=(GA_TASK_PER_CLASS, n))
    patterns = np.vstack([lo, hi])
    labels = np.array([1] * GA_TASK_PER_CLASS + [2] * GA_TASK_PER_CLASS)

    rows = []

    def on_generation(gen, best_rules, best_fit):
        rows.append(rule_vector_diagnostics(best_rules, diag_config, generation=gen))

    _evolve_rules(patterns, labels, ga_config,
                  np.random.default_rng(ga_config.rng_seed),
                  on_generation=on_generation)
    return rows


def diagnostics_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA_HEADER + "\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        for key in ("mean_entropy", "std_entropy", "mean_mi"):
            out[key] = f"{row[key]:.6f}"
        writer.writerow(out)
    return buf.getvalue()
