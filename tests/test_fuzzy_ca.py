"""Unit tests for the fuzzy CA engine.

The worked trajectory and the dependency matrix are frozen reference
values for the rule vector <238, 254, 238, 252>; they were computed by
hand from the bounded-sum semantics before the implementation existed.
"""

import re
from math import lcm

import numpy as np
import pytest

from matchdna import fuzzy_ca
from matchdna.fuzzy_ca import (
    COMPLEMENT_OF,
    RuleSet,
    SUPPORTED_RULES,
    dependency_matrix,
    eval_rule,
    evolve,
)

REFERENCE_RULES = [238, 254, 238, 252]
REFERENCE_START = [0.80, 0.20, 0.20, 0.00]
REFERENCE_TRAJECTORY = [
    [0.80, 0.20, 0.20, 0.00],
    [1.00, 1.00, 0.20, 0.20],
    [1.00, 1.00, 0.40, 0.40],
    [1.00, 1.00, 0.80, 0.80],
    [1.00, 1.00, 1.00, 1.00],
]


def brute_step(state, rules):
    """Scalar re-derivation of one update, used as the oracle for
    `RuleSet.apply`."""
    out = []
    for i, rule in enumerate(rules):
        left = state[i - 1] if i > 0 else 0.0
        right = state[i + 1] if i + 1 < len(state) else 0.0
        out.append(eval_rule(rule, left, state[i], right))
    return np.array(out)


class TestEvalRule:
    def test_identity_rules(self):
        assert eval_rule(204, 0.3, 0.7, 0.9) == pytest.approx(0.7)
        assert eval_rule(170, 0.3, 0.7, 0.9) == pytest.approx(0.9)
        assert eval_rule(240, 0.3, 0.7, 0.9) == pytest.approx(0.3)

    def test_bounded_sum_saturates(self):
        assert eval_rule(254, 0.5, 0.6, 0.7) == 1.0
        assert eval_rule(238, 0.0, 0.5, 0.4) == pytest.approx(0.9)

    def test_constant_rules(self):
        assert eval_rule(0, 0.9, 0.9, 0.9) == 0.0
        assert eval_rule(255, 0.9, 0.9, 0.9) == 1.0

    def test_rejects_unsupported_rule(self):
        with pytest.raises(ValueError):
            eval_rule(30, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize("rule, shown", [
        (238.0, "238.0"), (True, "True"), ("238", "'238'")])
    def test_rejects_non_integer_rule(self, rule, shown):
        # 238.0 used to step as rule 238 and True as rule 1
        with pytest.raises(ValueError,
                           match=f"rule number {re.escape(shown)} is not an integer"):
            eval_rule(rule, 0.1, 0.2, 0.3)

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ValueError):
            eval_rule(204, 0.0, 1.5, 0.0)

    def test_complement_duality_spot(self):
        rng = np.random.default_rng(7)
        for base, comp in COMPLEMENT_OF.items():
            l, s, r = rng.random(3)
            assert eval_rule(comp, l, s, r) == pytest.approx(
                1.0 - eval_rule(base, l, s, r), abs=1e-12)


class TestStep:
    def test_reference_trajectory_stepwise(self):
        state = np.array(REFERENCE_START)
        for expected in REFERENCE_TRAJECTORY[1:]:
            state = RuleSet(REFERENCE_RULES).apply(state)
            np.testing.assert_allclose(state, expected, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(123)
        rules_pool = sorted(SUPPORTED_RULES)
        for _ in range(200):
            n = rng.integers(1, 12)
            rules = rng.choice(rules_pool, size=n)
            state = rng.random(n)
            np.testing.assert_allclose(RuleSet(rules).apply(state),
                                       brute_step(state, rules), atol=1e-12)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(5)
        rules = RuleSet([238, 254, 240, 204, 252])
        batch = rng.random((20, 5))
        stepped = rules.apply(batch)
        for i in range(20):
            np.testing.assert_allclose(stepped[i], rules.apply(batch[i]))

    def test_null_boundary(self):
        # leftmost cell under a left-reading rule sees 0 outside the array
        assert RuleSet([240, 240]).apply(np.array([0.4, 0.0]))[0] == 0.0
        assert RuleSet([170, 170]).apply(np.array([0.0, 0.4]))[1] == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([204, 204]).apply(np.zeros(3))


class TestDependencyMatrix:
    def test_reference_matrix(self):
        expected = np.array([
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ], dtype=bool)
        np.testing.assert_array_equal(dependency_matrix(REFERENCE_RULES), expected)

    def test_complemented_rules_share_dependencies(self):
        for base, comp in COMPLEMENT_OF.items():
            a = dependency_matrix([base, base, base])
            b = dependency_matrix([comp, comp, comp])
            np.testing.assert_array_equal(a, b)

    def test_boundary_rows_drop_missing_neighbors(self):
        dep = dependency_matrix([254, 254])
        np.testing.assert_array_equal(dep, np.array([[1, 1], [1, 1]], dtype=bool))


class TestEvolve:
    def test_reference_trajectory_terminal(self):
        traj = evolve(REFERENCE_START, REFERENCE_RULES, max_steps=50)
        assert traj.terminal.kind == "fixed_point"
        assert traj.terminal.index == 4
        np.testing.assert_allclose(traj.states, REFERENCE_TRAJECTORY, atol=1e-9)
        np.testing.assert_allclose(traj.attractor, [1, 1, 1, 1])

    def test_fixed_point_immediate(self):
        traj = evolve([0.0, 0.0, 0.0], [0, 0, 0], max_steps=10)
        assert traj.terminal.kind == "fixed_point"
        assert traj.terminal.index == 0

    def test_cycle_detected(self):
        # rule 51 is NOT(self): any non-half state alternates with period 2
        traj = evolve([0.2, 0.8], [51, 51], max_steps=10)
        assert traj.terminal.kind == "cycle"
        assert traj.terminal.period == 2
        # representative is the lexicographically smaller of the pair
        np.testing.assert_allclose(traj.attractor, [0.2, 0.8])
        assert traj.converged

    def test_cycles_longer_than_two_agree_with_terminal_states(self):
        for rules, period in (([5, 240], 4), ([1, 240], 3)):
            traj = evolve([0.2, 0.7], rules, max_steps=50)
            assert traj.terminal.kind == "cycle"
            assert (traj.terminal.start, traj.terminal.period) == (0, period)
            terms, conv = fuzzy_ca.terminal_states([[0.2, 0.7]], rules)
            assert conv[0]
            np.testing.assert_allclose(terms[0], traj.attractor, atol=1e-9)
        np.testing.assert_allclose(evolve([0.2, 0.7], [5, 240]).attractor, [0.2, 0.7])

    def test_cycle_entered_after_transient(self):
        traj = evolve([0.2, 0.7, 0.4], [1, 240, 1], max_steps=50)
        assert traj.terminal.kind == "cycle"
        assert (traj.terminal.start, traj.terminal.period) == (1, 6)

    def test_truncated(self):
        # cell 1 climbs by 1e-3 per step: never fixed, never revisits
        traj = evolve([1e-3, 0.0], [204, 252], max_steps=5)
        assert traj.terminal.kind == "truncated"
        assert not traj.converged
        assert len(traj.states) == 6

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            evolve([0.5, 1.5], [204, 204])


class TestTerminalStates:
    def test_matches_evolve_per_row(self):
        rng = np.random.default_rng(77)
        rules = [254, 238, 252, 204, 240]
        batch = rng.random((32, 5))
        terms, conv = fuzzy_ca.terminal_states(batch, rules, max_steps=100)
        for i in range(32):
            traj = evolve(batch[i], rules, max_steps=100)
            np.testing.assert_allclose(terms[i], traj.attractor, atol=1e-9)
            assert conv[i] == traj.converged

    def test_agrees_with_evolve_on_cycling_rules(self):
        # complemented rules produce 2- and 4-cycles; the batch path must
        # land on the same representatives as the per-pattern path
        rng = np.random.default_rng(99)
        pool = sorted(SUPPORTED_RULES)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            rules = rng.choice(pool, size=n)
            batch = rng.random((10, n))
            terms, conv = fuzzy_ca.terminal_states(batch, rules, max_steps=150)
            for i in range(10):
                traj = evolve(batch[i], rules, max_steps=150)
                assert conv[i] == traj.converged
                if conv[i]:
                    np.testing.assert_allclose(terms[i], traj.attractor, atol=1e-9)

    def test_cycle_rows_fall_back(self):
        # both rows alternate under NOT(self); representatives are the
        # lexicographically smaller state of each 2-cycle
        batch = np.array([[0.2, 0.8], [0.0, 0.0]])
        terms, conv = fuzzy_ca.terminal_states(batch, [51, 51], max_steps=50)
        assert conv.all()
        np.testing.assert_allclose(terms[0], [0.2, 0.8])
        np.testing.assert_allclose(terms[1], [0.0, 0.0])


# the eight crisp neighborhoods (l, s, r); row k is neighborhood k = 4l+2s+r
CRISP = np.array([[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)], float)

# every number whose crisp truth table is the OR of a neighbor subset or
# its NOT, derived from the bits alone
OR_NOT_RULES = {
    sum(((l & ul | s & us | r & ur) ^ comp) << (4 * l + 2 * s + r)
        for l in (0, 1) for s in (0, 1) for r in (0, 1))
    for ul in (0, 1) for us in (0, 1) for ur in (0, 1) for comp in (0, 1)}


class TestTruthTable:
    """Every number 0..255: a supported rule's output on a crisp
    neighborhood (l, s, r) is bit 4l+2s+r of its number; any other
    number is refused alike by every entry point."""

    def test_supported_rules_are_the_or_not_rules(self):
        assert SUPPORTED_RULES == OR_NOT_RULES

    @pytest.mark.parametrize("rule", range(256))
    def test_rule_number_is_its_truth_table(self, rule):
        if rule not in SUPPORTED_RULES:
            message = (f"unsupported rule number {rule}; expected one of "
                       f"{sorted(SUPPORTED_RULES)}")
            for refuse in (lambda: RuleSet([204, rule, 204]),
                           lambda: eval_rule(rule, 0.0, 0.0, 0.0),
                           lambda: fuzzy_ca.parse_rule_vector(f"204,{rule}")):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    refuse()
            return
        bits = [(rule >> k) & 1 for k in range(8)]
        # the middle cell of a 3-cell state sees (l, s, r) as its neighborhood
        assert RuleSet([204, rule, 204]).apply(CRISP)[:, 1].tolist() == bits
        assert [eval_rule(rule, *row) for row in CRISP.tolist()] == bits


class TestRuleNumbers:
    @pytest.mark.parametrize("rules, bad", [
        ([238.7, 254.2], "238.7"), ([238, 254.0], "254.0"),
        ([True, 254], "True"), ([238, False], "False"),
        ([[238, 254], [238, "254"]], "'254'"), ([238, None], "None"),
        (np.array([238.0, 254.0]), "238.0"), (np.array([True]), "True")])
    def test_non_integer_refused_naming_first(self, rules, bad):
        # numpy truncated 238.7 to 238 and read True as rule 1
        with pytest.raises(ValueError,
                           match=f"rule number {re.escape(bad)} is not an integer"):
            RuleSet(rules)

    @pytest.mark.parametrize("rules", [
        [238, 254], (np.int64(238), 254), np.array([238, 254], dtype=np.uint8),
        np.array([[238, 254], [252, 204]])])
    def test_integers_of_any_kind_taken(self, rules):
        assert RuleSet(rules).rules == np.asarray(rules).tolist()


class TestRuleMatrix:
    """terminal_states with an (m, n) rule matrix: row i steps under its
    own rule vector, exactly as a per-vector call would step it."""

    # (rules, pattern, converged): a fixed point, a 2-cycle, a period-4
    # cycle only the probe finds, and a climb that never settles
    PLANTED = [([204, 204], [0.2, 0.6], True),
               ([51, 51], [0.2, 0.8], True),
               ([5, 240], [0.2, 0.7], True),
               ([204, 252], [1e-3, 0.0], False)]

    @staticmethod
    def assert_rows_match(patterns, rule_rows, **kw):
        terms, conv = fuzzy_ca.terminal_states(patterns, rule_rows, **kw)
        for i, (pattern, rules) in enumerate(zip(patterns, rule_rows)):
            t1, c1 = fuzzy_ca.terminal_states([pattern], rules, **kw)
            assert np.array_equal(terms[i], t1[0]), (i, rules)
            assert conv[i] == c1[0], (i, rules)
        return terms, conv

    def test_planted_terminal_kinds(self, monkeypatch):
        rules = np.array([r for r, _p, _c in self.PLANTED])
        patterns = np.array([p for _r, p, _c in self.PLANTED])
        monkeypatch.setattr(fuzzy_ca, "MAX_PERIOD", 8)
        terms, conv = self.assert_rows_match(patterns, rules, max_steps=20)
        assert conv.tolist() == [c for _r, _p, c in self.PLANTED]
        np.testing.assert_allclose(terms[1], [0.2, 0.8])
        np.testing.assert_allclose(terms[2], [0.2, 0.7])

    def test_rows_match_per_vector_calls(self, monkeypatch):
        rng = np.random.default_rng(314)
        pool = np.array(sorted(SUPPORTED_RULES))
        seen = set()
        for trial in range(120):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 12))
            if trial % 2:
                patterns = rng.integers(0, 6, size=(m, n)) * 0.2
            else:
                patterns = rng.random((m, n))
            rules = rng.choice(pool, size=(m, n))
            max_steps = int(rng.choice([3, 20, 80]))
            monkeypatch.setattr(fuzzy_ca, "MAX_PERIOD",
                                int(rng.choice([2, 8, 32])))
            _terms, conv = self.assert_rows_match(patterns, rules,
                                                  max_steps=max_steps)
            seen.update(conv.tolist())
        assert seen == {True, False}

    def test_one_rule_vector_per_pattern_row(self):
        with pytest.raises(ValueError):
            fuzzy_ca.terminal_states(np.zeros((3, 2)), [[204, 204], [51, 51]])

    def test_unsupported_rule_inside_matrix_raises(self):
        batch = np.zeros((2, 3))
        for bad in (30, 256, -1):
            with pytest.raises(ValueError, match="unsupported rule"):
                fuzzy_ca.terminal_states(batch, [[204, 204, 204], [204, bad, 204]])

    def test_lexmin_matches_tuple_min(self):
        # grid values make ties within rows and whole equal states common
        rng = np.random.default_rng(5)
        for _ in range(200):
            k, m, n = (int(v) for v in rng.integers(1, 6, size=3))
            stack = rng.integers(0, 3, size=(k, m, n)) * 0.5
            best = fuzzy_ca._lexmin(stack)
            for j in range(m):
                want = min(list(stack[:, j]), key=tuple)
                assert np.array_equal(best[j], want)


def reference_terminal_states(patterns, rules, max_steps=200, max_period=32):
    """terminal_states as it was before the exact early exit: every live
    row steps to max_steps, then the period probe steps up to max_period
    more.  A rule matrix is sliced and recompiled from its numbers."""
    numbers = np.asarray(rules)
    rs = RuleSet(numbers)
    cur = np.array(patterns, dtype=float)
    out = cur.copy()
    converged = np.zeros(cur.shape[0], dtype=bool)
    live = np.arange(cur.shape[0])
    prev = None
    tol = fuzzy_ca.DEFAULT_TOLERANCE
    for _ in range(max_steps):
        if not live.size:
            break
        nxt = rs.apply(cur)
        fixed = np.abs(nxt - cur).max(axis=1) <= tol
        out[live[fixed]] = nxt[fixed]
        done = fixed
        if prev is not None:
            cyc2 = ~fixed & (np.abs(nxt - prev).max(axis=1) <= tol)
            if cyc2.any():
                out[live[cyc2]] = fuzzy_ca._lexmin(np.stack([cur[cyc2], nxt[cyc2]]))
                done = fixed | cyc2
        prev, cur = cur, nxt
        if done.any():
            converged[live[done]] = True
            keep = ~done
            live, prev, cur = live[keep], prev[keep], cur[keep]
            if numbers.ndim == 2:
                numbers = numbers[keep]
                rs = RuleSet(numbers)
    if live.size:
        stack = [cur]
        found = np.zeros(live.size, dtype=bool)
        s = cur
        for _ in range(max_period):
            s = rs.apply(s)
            hit = ~found & (np.abs(s - cur).max(axis=1) <= tol)
            if hit.any():
                out[live[hit]] = fuzzy_ca._lexmin(np.stack(stack)[:, hit])
                converged[live[hit]] = True
                found |= hit
            if found.all():
                break
            stack.append(s)
        out[live[~found]] = cur[~found]
    return out, converged


def assert_same_as_reference(patterns, rules, max_steps):
    """Bit-identical terminals (compared as int64) and converged flags,
    at the probe's current fuzzy_ca.MAX_PERIOD."""
    terms, conv = fuzzy_ca.terminal_states(patterns, rules, max_steps=max_steps)
    kw = dict(max_steps=max_steps, max_period=fuzzy_ca.MAX_PERIOD)
    want_terms, want_conv = reference_terminal_states(patterns, rules, **kw)
    assert np.array_equal(terms.view(np.int64), want_terms.view(np.int64)), kw
    assert np.array_equal(conv, want_conv), kw
    return terms, conv


# Blocks whose orbit is exactly periodic: rules, start state, period.  The
# states lie on binary grids (multiples of 1/8 and 1/32), where bounded
# sums and complements are exact, so the orbit repeats bit for bit.
CYCLE_BLOCKS = {
    2: ([51], [0.25]),
    3: ([170, 3], [1.0, 0.0]),
    4: ([170, 15], [0.125, 0.5]),
    5: ([240, 250, 5, 1, 240], [0.125, 0.75, 0.6875, 0.5625, 0.3125]),
    7: ([204, 5, 250, 3], [0.5, 0.375, 0.875, 0.5]),
    11: ([204, 5, 250, 3], [0.25, 0.5, 0.125, 0.75]),
    13: ([204, 5, 250, 3], [0.75, 0.75, 0.0, 0.125]),
    32: ([204, 5, 250, 3], [0.4375, 0.8125, 0.875, 1.0]),
    40: ([204, 5, 250, 3], [0.34375, 0.0625, 0.90625, 0.84375]),
}

# one planted row per tuple: its blocks cycle side by side, so the row's
# period is the lcm of theirs (3 to 40)
PLANTED_PERIODS = [(3,), (4,), (5,), (2, 3), (7,), (11,), (3, 4), (13,),
                   (3, 5), (4, 5), (3, 7), (4, 7), (32,), (3, 11), (5, 7),
                   (3, 13), (40,)]


def planted_row(blocks, climb):
    """Rules and start of a row made of cycle blocks and a climb, each
    followed by a rule-0 cell.  Rule 0 reads nothing and holds 0, so its
    neighbors see a null boundary and the parts step independently.  The
    climb [204, 252] from [climb, 0] adds `climb` per step and fixes at 1
    after 1 / climb steps: the transient before the row's cycle."""
    rules, start = [], []
    for period in blocks:
        block_rules, block_start = CYCLE_BLOCKS[period]
        rules += block_rules + [0]
        start += block_start + [0.0]
    return rules + [204, 252], start + [climb, 0.0]


def planted_batch(periods, climbs):
    """(patterns, rule matrix, periods) of planted rows, right-padded with
    inert rule-0 cells at 0 to one width."""
    rows = [planted_row(b, c) for b, c in zip(periods, climbs)]
    n = max(len(r) for r, _s in rows)
    rules = np.array([r + [0] * (n - len(r)) for r, _s in rows])
    patterns = np.array([s + [0.0] * (n - len(s)) for _r, s in rows])
    return patterns, rules, [lcm(*b) for b in periods]


def brent_detection_step(start, period):
    """The step at which terminal_states' checkpoint sees a row that is
    periodic from `start`: the first checkpoint a = 2**j - 1 >= start
    whose span 2**j covers the period, plus period + 1."""
    span = 1
    while span - 1 < start or span < period:
        span *= 2
    return span - 1 + period + 1


class TestExactEarlyExit:
    """terminal_states against the loop that steps every row to
    max_steps: the same bytes, with fewer steps."""

    def test_seeded_fuzz_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        pool = np.array(sorted(SUPPORTED_RULES))
        seen = set()
        for case in range(500):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 30))
            grid = case % 3
            if grid == 0:
                patterns = rng.integers(0, 6, size=(m, n)) * 0.2
            elif grid == 1:
                patterns = rng.random((m, n))
            else:
                patterns = rng.integers(0, 9, size=(m, n)) / 8
            shape = (m, n) if case % 2 else n
            rules = rng.choice(pool, size=shape)
            max_steps = int(rng.integers(1, 201))
            monkeypatch.setattr(fuzzy_ca, "MAX_PERIOD",
                                int(rng.integers(1, 33)))
            _terms, conv = assert_same_as_reference(patterns, rules, max_steps)
            seen.update(conv.tolist())
        assert seen == {True, False}

    @pytest.mark.parametrize("max_steps,max_period", [
        (80, 32), (200, 32), (80, 8), (200, 12), (12, 32), (5, 40), (1, 32)])
    def test_planted_cycles_match_reference(self, max_steps, max_period,
                                            monkeypatch):
        climbs = [2.0 ** -(i % 6) for i in range(len(PLANTED_PERIODS))]
        patterns, rules, periods = planted_batch(PLANTED_PERIODS, climbs)
        # evolve, which shares no stepping with terminal_states, confirms
        # each row's planted period and its transient of at least one step
        starts = []
        for pattern, row_rules, period in zip(patterns, rules, periods):
            traj = evolve(pattern, row_rules, max_steps=200)
            assert (traj.terminal.kind, traj.terminal.period) == ("cycle", period)
            assert traj.terminal.start >= 1
            starts.append(traj.terminal.start)
        periods, starts = np.array(periods), np.array(starts)
        assert periods.min() == 3 and periods.max() == 40
        monkeypatch.setattr(fuzzy_ca, "MAX_PERIOD", max_period)
        _terms, conv = assert_same_as_reference(patterns, rules, max_steps)
        # grid states never come within tolerance of one another, so a row
        # converges only if it is on its cycle by max_steps and the cycle
        # fits in max_period; a longer period stays truncated
        want = (starts <= max_steps) & (periods <= max_period)
        assert conv.tolist() == want.tolist()
        detect = np.array([brent_detection_step(s, p)
                           for s, p in zip(starts, periods)])
        if max_steps in (12, 80):
            # some rows leave at their repeat, and some are on their cycle
            # by max_steps but are seen to repeat only after it
            assert (detect <= max_steps).any()
            assert ((starts <= max_steps) & (detect > max_steps)).any()

    def test_period_five_batch_steps_less_than_half(self, monkeypatch):
        patterns, rules, _periods = planted_batch([(5,)] * 4,
                                                  [1.0, 0.5, 0.25, 0.125])
        want = reference_terminal_states(patterns, rules, max_steps=80)
        calls = []
        apply = RuleSet.apply
        monkeypatch.setattr(RuleSet, "apply",
                            lambda self, state: calls.append(1) or apply(self, state))
        terms, conv = fuzzy_ca.terminal_states(patterns, rules, max_steps=80)
        assert np.array_equal(terms.view(np.int64), want[0].view(np.int64))
        assert conv.all() and want[1].all()
        assert len(calls) < 40

    def test_take_slices_the_compiled_rules(self):
        rng = np.random.default_rng(11)
        numbers = rng.choice(sorted(SUPPORTED_RULES), size=(9, 4))
        keep = rng.random(9) < 0.5
        part = RuleSet(numbers).take(keep)
        whole = RuleSet(numbers[keep])
        assert part.rules == whole.rules and part.n == whole.n
        batch = rng.random((int(keep.sum()), 4))
        assert np.array_equal(part.apply(batch), whole.apply(batch))
        vector = RuleSet(numbers[0])
        assert vector.take(keep) is vector


class TestUnitInterval:
    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
    def test_out_of_range_or_nan_state_rejected(self, bad):
        with pytest.raises(ValueError, match=r"state values must lie in \[0, 1\]"):
            evolve([0.5, bad], [204, 204])
        with pytest.raises(ValueError, match=r"patterns must lie in \[0, 1\]"):
            fuzzy_ca.terminal_states([[0.5, 0.5], [0.5, bad]], [204, 204])

    def test_bounds_are_inclusive(self):
        fuzzy_ca.check_unit_interval([[0.0, 1.0]], "values")


class TestRuleVectorText:
    def test_round_trip(self):
        text = "238, 254,238,252"
        rules = fuzzy_ca.parse_rule_vector(text)
        assert rules == REFERENCE_RULES
        assert fuzzy_ca.format_rule_vector(rules) == "238,254,238,252"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            fuzzy_ca.parse_rule_vector("238,30")
