"""Tests for the bucket-brigade learning classifier system."""

import hashlib
import math
from itertools import product

import numpy as np
import pytest

from matchdna.classifier_system import (
    ACTIONS,
    ALPHABET,
    CONTEXT_LENGTH,
    EVAL_BLOCK,
    REWARDED_HISTORY,
    LcsConfig,
    LearningCurve,
    MinerStats,
    Population,
    SequenceReplayEnvironment,
    SuffixOracleEnvironment,
    bucket_brigade_update,
    covering,
    curve_to_csv,
    encode_condition,
    ga_discover,
    match_set,
    mine_rewarded_patterns,
    population_to_csv,
    train,
    _MatchIndex,
    _draw,
)
from matchdna.mining import DEFAULT_MOTIFS, AnnotatedSequence, Motif
from matchdna.sequences import IDLE, PlayerSequence


def rules_population(specs):
    """A population of (condition, action, strength) rules."""
    conditions, actions, strengths = zip(*specs)
    return Population(np.stack([encode_condition(c) for c in conditions]),
                      actions, strengths)


class ZeroRewardEnvironment:
    """Same contexts as the suffix oracle but no reward ever; strengths
    can only leak through dissipated bids."""

    def __init__(self, config: LcsConfig):
        self._oracle = SuffixOracleEnvironment(config)

    def context(self, rng) -> str:
        return self._oracle.context(rng)

    def feedback(self, context: str, action: str):
        _reward, correct = self._oracle.feedback(context, action)
        return 0.0, correct


class TestMatchSet:
    def test_exact_and_wildcard(self):
        pop = rules_population([
            ("AACCT", "G", 10.0),
            ("##CCT", "G", 10.0),
            ("AAAAA", "A", 10.0),
            ("#####", "T", 10.0),
        ])
        got = match_set("AACCT", pop)
        assert got.tolist() == [0, 1, 3]

    def test_idle_symbol_matches_literally(self):
        pop = rules_population([("--CCT", "G", 1.0), ("#xxxx".replace("x", "#"), "A", 1.0)])
        assert match_set("--CCT", pop).tolist() == [0, 1]

    def test_context_length_mismatch(self):
        pop = rules_population([("AACCT", "G", 1.0)])
        with pytest.raises(ValueError):
            match_set("AACC", pop)

    def test_context_may_not_contain_wildcard(self):
        pop = rules_population([("AACCT", "G", 1.0)])
        with pytest.raises(ValueError):
            match_set("AA#CT", pop)

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            rules_population([("AABCT", "G", 1.0)])


class TestDraw:
    """_draw, the bid-proportional pick train makes every iteration."""

    def test_bid_proportions(self):
        # bids 30 vs 10 -> selection probabilities 0.75 / 0.25
        pop = rules_population([("#####", "G", 300.0), ("#####", "C", 100.0)])
        matches = match_set("AAAAA", pop).tolist()
        rng = np.random.default_rng(7)
        wins = sum(_draw(matches, pop.strengths, 0.1, rng) == 0
                   for _ in range(10000))
        assert abs(wins / 10000 - 0.75) < 0.02

    def test_zero_bids_fall_back_to_uniform(self):
        pop = rules_population([("#####", "G", 0.0), ("#####", "C", 0.0)])
        matches = match_set("AAAAA", pop).tolist()
        rng = np.random.default_rng(7)
        wins = sum(_draw(matches, pop.strengths, 0.1, rng) == 0
                   for _ in range(10000))
        assert abs(wins / 10000 - 0.5) < 0.02

    def test_returns_action_letter(self):
        pop = rules_population([("#####", "T", 5.0)])
        winner = _draw([0], pop.strengths, 0.1, np.random.default_rng(0))
        assert winner == 0 and pop.actions[winner] == "T"

    class FixedDraw:
        """Stands in for the generator: random() returns one fixed double."""

        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    def test_lowest_draw_skips_leading_zero_bids(self):
        strengths = [0.0, 0.0, 3.0, 0.0]
        assert _draw([0, 1, 2, 3], strengths, 0.1, self.FixedDraw(0.0)) == 2

    def test_highest_draw_lands_on_last_positive_bid(self):
        # bids whose normalized cumulative sum ends below the largest
        # double random() returns, followed by a zero-strength rule
        u = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(0)
        while True:
            strengths = np.append(rng.random(7) * 100, 0.0)
            bids = 0.1 * strengths
            if (bids / bids.sum()).cumsum()[-1] < u:
                break
        assert _draw(list(range(8)), strengths.tolist(), 0.1,
                     self.FixedDraw(u)) == 6

    def test_draw_equals_generator_choice(self):
        """Same winner and same generator state as
        Generator.choice(matches, p=bids / total), over 20,000 seeded
        match sets of 1-200 rules with strength scales from 1e-3 to 1e6
        and some zero strengths."""
        n = 200
        data = np.random.default_rng(90210)
        ours = np.random.default_rng(17)
        numpy_choice = np.random.default_rng(17)
        for case in range(20000):
            size = int(data.integers(1, n + 1))
            matches = np.sort(data.permutation(n)[:size])
            strengths = data.random(n) * 10.0 ** data.uniform(-3, 6)
            strengths[data.random(n) < data.choice([0.0, 0.5, 0.95])] = 0.0
            strengths[matches[data.integers(size)]] += 1e-3
            bid_fraction = float(data.uniform(0.01, 0.99))

            winner = _draw(matches.tolist(), strengths.tolist(), bid_fraction,
                           ours)
            bids = bid_fraction * strengths[matches]
            expected = int(numpy_choice.choice(matches, p=bids / bids.sum()))
            assert winner == expected, case
            assert ours.bit_generator.state == \
                numpy_choice.bit_generator.state, case

    @staticmethod
    def bid_lists():
        """Seeded bid lists of every length 1-400, so numpy's pairwise
        block edges (7/8/9, 16/17, 128/129/136, 256/257) are among them,
        with zeros mixed in and magnitudes from 1e-3 to 1e6."""
        data = np.random.default_rng(4242)
        for n in range(1, 401):
            bids = data.random(n) * 10.0 ** data.uniform(-3, 6, size=n)
            bids[data.random(n) < 0.3] = 0.0
            yield bids.tolist()

    def test_winner_equals_numpy_searchsorted_on_cdf_edges(self):
        # a draw equal to an entry of numpy's normalized cdf is where a
        # total one ulp off would change the winner
        data = np.random.default_rng(77)
        for bids in self.bid_lists():
            p = np.array(bids)
            total = math.fsum(bids)
            if total <= 0.0:
                continue
            cdf = (p / total).cumsum()
            cdf /= cdf[-1]
            edges = cdf[data.integers(len(cdf), size=8)]
            for u in [0.0, np.nextafter(1.0, 0.0), *edges[edges < 1.0]]:
                want = int(cdf.searchsorted(u, side="right"))
                got = _draw(list(range(len(bids))), bids, 1.0,
                            self.FixedDraw(float(u)))
                assert got == want, (len(bids), u)


class TestBucketBrigade:
    @pytest.mark.parametrize("strengths, winner, previous, reward", [
        ([100.0, 50.0], 0, 1, 0.0),
        ([100.0, 50.0], 1, None, 1000.0),
        ([0.3, 5.0], 0, 0, 1.7),       # pays itself
        ([0.3, 5.0], 0, 0, -0.5),      # pays itself, then clamped
        ([10.0, 5.0], 0, 1, -50.0),    # clamped
    ])
    def test_list_equals_array(self, strengths, winner, previous, reward):
        as_list = list(strengths)
        as_array = np.array(strengths)
        list_clamped = bucket_brigade_update(as_list, winner, previous,
                                             reward, 0.1)
        array_clamped = bucket_brigade_update(as_array, winner, previous,
                                              reward, 0.1)
        assert list_clamped is array_clamped
        assert as_list == as_array.tolist()
        assert all(type(v) is float for v in as_list)

    def test_bid_flows_to_previous_winner(self):
        strengths = np.array([100.0, 50.0])
        clamped = bucket_brigade_update(strengths, winner=0, previous=1,
                                        reward=0.0, bid_fraction=0.1)
        assert strengths.tolist() == pytest.approx([90.0, 60.0])
        assert clamped is False

    def test_reward_added_after_bid(self):
        strengths = np.array([100.0])
        bucket_brigade_update(strengths, winner=0, previous=None,
                              reward=1000.0, bid_fraction=0.1)
        assert strengths[0] == pytest.approx(1090.0)

    def test_total_strength_conserved_with_previous(self):
        strengths = np.array([80.0, 20.0])
        before = strengths.sum()
        bucket_brigade_update(strengths, 0, 1, reward=0.0, bid_fraction=0.1)
        assert strengths.sum() == pytest.approx(before)

    def test_first_step_dissipates_bid(self):
        strengths = np.array([80.0])
        bucket_brigade_update(strengths, 0, None, reward=0.0, bid_fraction=0.1)
        assert strengths[0] == pytest.approx(72.0)

    def test_strengths_never_negative(self):
        strengths = np.array([10.0])
        for _ in range(200):
            bucket_brigade_update(strengths, 0, None, reward=0.0,
                                  bid_fraction=0.5)
        assert strengths[0] >= 0.0

    def test_negative_reward_clamps_winner_at_zero(self):
        strengths = np.array([10.0, 5.0])
        clamped = bucket_brigade_update(strengths, 0, 1, reward=-50.0,
                                        bid_fraction=0.1)
        assert clamped is True
        assert strengths.tolist() == pytest.approx([0.0, 6.0])

    def test_winner_paying_itself_rounds_through_the_bid(self):
        # previous == winner: ((s - bid) + bid) + reward, clamped at zero;
        # for s = 0.3 the round trip gives 0.30000000000000004, not s
        s = 0.3
        bid = 0.1 * s
        for reward, want, want_clamped in [
                (0.0, (s - bid) + bid, False),
                (1.7, ((s - bid) + bid) + 1.7, False),
                (-0.5, 0.0, True)]:
            strengths = np.array([s, 5.0])
            clamped = bucket_brigade_update(strengths, winner=0, previous=0,
                                            reward=reward, bid_fraction=0.1)
            assert clamped is want_clamped
            assert strengths.tolist() == [want, 5.0]
        assert (s - bid) + bid != s


class TestCovering:
    def test_replaces_weakest_and_matches_context(self):
        pop = rules_population([
            ("AAAAA", "A", 50.0),
            ("CCCCC", "C", 5.0),
            ("GGGGG", "G", 65.0),
        ])
        rng = np.random.default_rng(3)
        slot = covering("TTTTT", pop, rng)
        assert slot == 1
        assert len(pop) == 3
        assert slot in match_set("TTTTT", pop)
        # strength pinned to the pre-insertion population mean
        assert pop.strengths[slot] == pytest.approx((50.0 + 5.0 + 65.0) / 3)

    def test_wildcard_rate_close_to_third(self):
        pop = rules_population([("AAAAA", "A", 1.0)] * 4)
        rng = np.random.default_rng(11)
        wild = 0
        for _ in range(2000):
            covering("ACGTA", pop, rng)
            wild += pop.conditions[0].tolist().count(5)
        assert abs(wild / (2000 * 5) - 0.33) < 0.02


class TestGaDiscover:
    def config(self):
        return LcsConfig(rng_seed=0)

    def test_identical_parents_give_identical_offspring_without_mutation(
            self, monkeypatch):
        monkeypatch.setattr(LcsConfig, "mutation_rate", 0.0)
        pop = rules_population([("AC-GT", "G", 10.0)] * 8)
        ga_discover(pop, MinerStats(), np.random.default_rng(0),
                    self.config())
        for rule in pop.rules():
            assert rule.condition == "AC-GT"
            assert rule.action == "G"

    def test_mutation_rate_bound(self, monkeypatch):
        monkeypatch.setattr(LcsConfig, "mutation_rate", 0.2)
        changed = 0
        trials = 300
        for seed in range(trials):
            pop = rules_population([("AAAAA", "A", 10.0)] * 8)
            ga_discover(pop, MinerStats(), np.random.default_rng(seed),
                        self.config())
            for rule in pop.rules()[:2]:  # the replaced quartile
                changed += sum(ch != "A" for ch in rule.condition)
        # each position mutates at 0.2 and lands off-'A' 5/6 of the time
        rate = changed / (trials * 2 * 5)
        assert abs(rate - 0.2 * 5 / 6) < 0.03

    def test_offspring_strength_is_parent_average(self, monkeypatch):
        monkeypatch.setattr(LcsConfig, "mutation_rate", 0.0)
        pop = rules_population([
            ("AAAAA", "A", 0.0),
            ("CCCCC", "C", 0.0),
            ("GGGGG", "G", 40.0),
            ("TTTTT", "T", 40.0),
        ])
        ga_discover(pop, MinerStats(), np.random.default_rng(1),
                    self.config())
        assert pop.strengths[0] == pytest.approx(40.0)

    def test_replaces_exactly_the_weakest_quartile(self):
        specs = [(f"{ACTIONS[i % 4]}AAAA".replace("x", "A"), "A", float(i))
                 for i in range(8)]
        pop = rules_population(specs)
        before = [r.condition for r in pop.rules()]
        ga_discover(pop, MinerStats(patterns=[("GGGGG", 3)]),
                    np.random.default_rng(2), self.config())
        after = [r.condition for r in pop.rules()]
        assert after[2:] == before[2:]
        assert all(c == "GGGGG" for c in after[:2])
        assert len(pop) == 8

    def test_miner_pattern_seeds_conditions(self):
        pop = rules_population([("AAAAA", "A", float(i)) for i in range(8)])
        ga_discover(pop, MinerStats(patterns=[("TCCCT", 12)]),
                    np.random.default_rng(5), self.config())
        seeded = [r.condition for r in pop.rules()[:2]]
        assert seeded == ["TCCCT", "TCCCT"]
        assert 0 in match_set("TCCCT", pop) or 1 in match_set("TCCCT", pop)

    def test_motif_wildcards_become_hashes(self):
        pop = rules_population([("AAAAA", "A", float(i)) for i in range(8)])
        stats = MinerStats(motifs=[Motif("CxCCT", "goal", 50.0)])
        ga_discover(pop, stats, np.random.default_rng(5), self.config())
        assert pop.rules()[0].condition == "C#CCT"
        assert 0 in match_set("CACCT", pop)

    def test_short_patterns_right_aligned_with_wildcard_padding(self):
        pop = rules_population([("AAAAA", "A", float(i)) for i in range(8)])
        ga_discover(pop, MinerStats(patterns=[("CCT", 9)]),
                    np.random.default_rng(5), self.config())
        assert pop.rules()[0].condition == "##CCT"

class TestMineRewardedPatterns:
    def test_shared_suffix_outweighs_any_full_context(self):
        from matchdna.classifier_system import mine_rewarded_patterns
        rewarded = {"AGCCT": 3, "CGCCT": 3, "GTCCT": 3, "TTCCT": 3}
        templates = mine_rewarded_patterns(rewarded, length=5)
        assert templates[0] == ("##CCT", 12)

    def test_wildcards_cover_unconstrained_positions(self):
        from matchdna.classifier_system import mine_rewarded_patterns
        templates = mine_rewarded_patterns({"ACGTA": 2}, length=5)
        conditions = [cond for cond, _w in templates]
        assert "ACG##" in conditions and "#CGT#" in conditions
        assert all(len(c) == 5 for c in conditions)

    def test_interior_spans_stay_in_place(self):
        from matchdna.classifier_system import mine_rewarded_patterns
        rewarded = {"ACCTA": 5, "GCCTC": 5, "TCCTG": 5}
        templates = mine_rewarded_patterns(rewarded, length=5)
        assert templates[0] == ("#CCT#", 15)


class ScriptedEnvironment:
    """Fixed context; rewards arbitrary scripted amounts."""

    def __init__(self, rewards):
        self.rewards = list(rewards)
        self.calls = 0

    def context(self, rng):
        return "AAAAA"

    def feedback(self, context, action):
        reward = self.rewards[min(self.calls, len(self.rewards) - 1)]
        self.calls += 1
        return reward, action == "A"


class TestTrain:
    @pytest.fixture
    def small(self, monkeypatch):
        """Configs over a 24-rule population."""
        monkeypatch.setattr(LcsConfig, "population_size", 24)

        def make(**kw):
            return LcsConfig(**{**dict(max_iterations=6000, ga_period=2000,
                                       rng_seed=9), **kw})
        return make

    def test_ga_fires_only_at_period_multiples(self, small,
                                              monkeypatch):
        import matchdna.classifier_system as cs
        calls = []
        real = cs.ga_discover

        def spy(pop, stats, rng, config):
            calls.append(len(calls))
            return real(pop, stats, rng, config)

        monkeypatch.setattr(cs, "ga_discover", spy)
        cs.train(ScriptedEnvironment([0.0]), small())
        assert len(calls) == 3  # 2000, 4000, 6000

        calls.clear()
        cs.train(ScriptedEnvironment([0.0]),
                 small(max_iterations=1999))
        assert calls == []

    def test_population_size_constant_and_strengths_nonnegative(self, small):
        config = small()
        env = SuffixOracleEnvironment(config)
        pop, _curve = train(env, config)
        assert len(pop) == config.population_size
        assert (np.asarray(pop.strengths) >= 0.0).all()

    def test_zero_reward_environment_stays_at_chance(self, small):
        config = small(max_iterations=5000, ga_period=9000)
        pop, curve = train(ZeroRewardEnvironment(config), config)
        assert (np.asarray(pop.strengths) >= 0.0).all()
        # every opening bid dissipates, so total strength drains
        # (slowly: covering re-seeds replaced rules at the population mean)
        assert sum(pop.strengths) < 0.9 * 24 * 100.0
        # nothing to learn from: accuracy hovers at the 1-in-4 baseline
        assert all(abs(p - 0.25) < 0.1 for p in curve.proportions())

    def test_clamped_updates_are_counted(self, small):
        # a reward below minus the winner's strength clamps every update
        config = small(max_iterations=300)
        pop, _curve = train(ScriptedEnvironment([-1000.0]), config)
        assert pop.clamp_count == 300
        assert (np.asarray(pop.strengths) >= 0.0).all()

    def test_population_stays_floats_and_letters(self, small, monkeypatch):
        # covering and GA rounds write into the population's two lists; an
        # np.float64, an action code or a list swapped for a copy shows here
        import matchdna.classifier_system as cs
        held = set()
        real = cs.ga_discover

        def spy(pop, stats, rng, config):
            held.add((id(pop.strengths), id(pop.actions)))
            return real(pop, stats, rng, config)

        monkeypatch.setattr(cs, "ga_discover", spy)
        config = small()
        pop, _curve = train(SuffixOracleEnvironment(config), config)
        assert pop.cover_count > 0
        assert held == {(id(pop.strengths), id(pop.actions))}
        assert all(type(s) is float for s in pop.strengths)
        assert all(type(a) is str and a in ACTIONS for a in pop.actions)

    def test_miner_stats_read_once_and_history_skipped(self, small,
                                                       monkeypatch):
        import matchdna.classifier_system as cs
        mined = []
        real = cs.mine_rewarded_patterns

        def spy(rewarded, length):
            mined.append(len(rewarded))
            return real(rewarded, length)

        monkeypatch.setattr(cs, "mine_rewarded_patterns", spy)

        class WithStats(SuffixOracleEnvironment):
            reads = 0

            def miner_stats(self):
                self.reads += 1
                return MinerStats(patterns=[("CCT", 5)])

        config = small()
        env = WithStats(config)
        train(env, config)
        assert env.reads == 1
        assert mined == []
        # without miner stats, every GA round mines the rewarded history
        train(SuffixOracleEnvironment(config), config)
        assert len(mined) == 3 and all(mined)

    def test_always_correct_action_converges(self):
        class AlwaysG:
            def __init__(self, reward):
                self.reward = reward

            def context(self, rng):
                return "".join("ACGT"[i] for i in rng.integers(0, 4, size=5))

            def feedback(self, context, action):
                correct = action == "G"
                return (self.reward if correct else 0.0), correct

        config = LcsConfig(max_iterations=20000, rng_seed=5)
        _pop, curve = train(AlwaysG(config.reward_play), config)
        props = curve.proportions()
        assert props[-1] >= 0.95
        # trend is upward: late blocks beat early blocks
        assert sum(props[-5:]) > sum(props[:5])

    def test_curve_blocks_every_thousand_iterations(self, small):
        config = small(max_iterations=3500)
        _pop, curve = train(SuffixOracleEnvironment(config), config)
        assert [it for it, _p in curve.points] == [1000, 2000, 3000, 3500]
        assert all(0.0 <= p <= 1.0 for p in curve.proportions())

    def test_deterministic_given_seed(self, small):
        config = small(max_iterations=4000)
        pop_a, curve_a = train(SuffixOracleEnvironment(config), config)
        pop_b, curve_b = train(SuffixOracleEnvironment(config), config)
        assert population_to_csv(pop_a) == population_to_csv(pop_b)
        assert curve_a.points == curve_b.points

    def test_different_seed_differs(self, small):
        config = small(max_iterations=4000)
        other = small(max_iterations=4000, rng_seed=10)
        pop_a, _ = train(SuffixOracleEnvironment(config), config)
        pop_b, _ = train(SuffixOracleEnvironment(other), other)
        assert population_to_csv(pop_a) != population_to_csv(pop_b)


class TestMatchTable:
    def test_every_context_row_equals_match_set(self):
        # 8 rules, wildcards included; then one rewritten rule's column,
        # then every column after a GA round
        rng = np.random.default_rng(8)
        population = rules_population([
            ("AACCT", "G", 1.0), ("##CCT", "G", 1.0), ("-####", "A", 1.0),
            ("#####", "T", 1.0), ("A#C#-", "C", 1.0), ("TTTTT", "A", 1.0),
            ("#-#-#", "G", 1.0), ("GCA##", "C", 1.0)])
        index = _MatchIndex(population)
        contexts = ["".join(c) for c in product(ALPHABET, repeat=CONTEXT_LENGTH)]
        assert len(contexts) == len(ALPHABET) ** CONTEXT_LENGTH

        def check():
            for context in contexts:
                found = index.matches(context)
                assert found == match_set(context, population).tolist(), \
                    context
                assert all(type(i) is int for i in found), context

        check()
        slot = covering("CCAGT", population, rng)
        index.refresh([slot])
        check()
        ga_discover(population, MinerStats(), rng, LcsConfig())
        index.refresh(slice(None))
        check()

    @pytest.mark.parametrize("context", ["AACC", "AACCTT", "AA#CT", "AAXCT", ""])
    def test_train_refuses_what_match_set_refuses(self, context):
        class Fixed:
            def context(self, rng):
                return context

            def feedback(self, context, action):
                return 0.0, False

        with pytest.raises(ValueError):
            train(Fixed(), LcsConfig(max_iterations=3))


def reference_train(environment, config):
    """train's loop as it was before the match index: match_set and
    Generator.choice on every iteration.  Also returns how many draws took
    the zero-bid fallback and the iteration each context first appeared."""
    rng = np.random.default_rng(config.rng_seed)
    population = Population.random(config, rng)
    curve = LearningCurve()
    episode_probe = getattr(environment, "new_episode", None)
    previous = None
    block_hits = 0
    block_size = 0
    rewarded = {}
    fallbacks = 0
    first_seen = {}

    for iteration in range(1, config.max_iterations + 1):
        context = environment.context(rng)
        first_seen.setdefault(context, iteration)
        if episode_probe is None or episode_probe():
            previous = None
        matches = match_set(context, population)
        if len(matches) == 0:
            matches = np.array([covering(context, population, rng)])
        bids = config.bid_fraction * np.asarray(population.strengths)[matches]
        total = bids.sum()
        if total <= 0.0:
            fallbacks += 1
            winner = int(matches[rng.integers(len(matches))])
        else:
            winner = int(rng.choice(matches, p=bids / total))
        action = population.actions[winner]
        reward, correct = environment.feedback(context, action)
        population.clamp_count += bucket_brigade_update(
            population.strengths, winner, previous, reward,
            config.bid_fraction)
        previous = winner

        if reward > 0:
            rewarded[context] = rewarded.get(context, 0) + 1
            if len(rewarded) > REWARDED_HISTORY:
                del rewarded[next(iter(rewarded))]

        block_hits += int(correct)
        block_size += 1
        if block_size == EVAL_BLOCK:
            curve.points.append((iteration, block_hits / EVAL_BLOCK))
            block_hits = 0
            block_size = 0

        if iteration % config.ga_period == 0:
            stats = None
            getter = getattr(environment, "miner_stats", None)
            if getter is not None:
                stats = getter()
            if stats is None:
                stats = MinerStats(patterns=mine_rewarded_patterns(
                    rewarded, CONTEXT_LENGTH))
            ga_discover(population, stats, rng, config)
            previous = None

    if block_size:
        curve.points.append((config.max_iterations, block_hits / block_size))
    return population, curve, fallbacks, first_seen


def replay_corpus(seed):
    rng = np.random.default_rng(seed)
    return [AnnotatedSequence(f"s{i}", "".join(rng.choice(list("ACGT-"), size=60)),
                              [(int(t), "goal") for t in
                               sorted(rng.choice(60, size=2, replace=False))])
            for i in range(6)]


REPLAY_STATS = MinerStats(patterns=[("CCT", 40), ("ACG", 30), ("GG", 10)],
                          motifs=list(DEFAULT_MOTIFS))


class TestIndexedLoopAgainstReference:
    """train (match index, inlined draw) against the per-iteration loop,
    with a population of 8 and a GA round every 50 iterations, so that
    covering and index refreshes happen many times."""

    # environment factory, class constants to patch, config fields; the
    # zero-reward case drains strengths with a 0.9 bid and a rarer GA so
    # that the all-zero-bid fallback is drawn
    CASES = {
        "suffix-oracle": (
            lambda config, seed: SuffixOracleEnvironment(config), {}, {}),
        "zero-reward": (
            lambda config, seed: ZeroRewardEnvironment(config),
            dict(bid_fraction=0.9), dict(ga_period=500, max_iterations=2000)),
        "replay-miner-stats": (
            lambda config, seed: SequenceReplayEnvironment(
                replay_corpus(seed), config, REPLAY_STATS), {}, {}),
        "replay-rewarded-contexts": (
            lambda config, seed: SequenceReplayEnvironment(
                replay_corpus(seed), config), {}, {}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_population_and_curve_equal_reference(self, case, monkeypatch):
        make, constants, fields = self.CASES[case]
        for name, value in {"population_size": 8, **constants}.items():
            monkeypatch.setattr(LcsConfig, name, value)
        late_contexts = 0
        fallbacks = 0
        covers = 0
        for seed in range(10):
            config = LcsConfig(**{**dict(ga_period=50, max_iterations=1500,
                                         rng_seed=seed), **fields})
            got_pop, got_curve = train(make(config, seed), config)
            ref_pop, ref_curve, ref_fallbacks, first_seen = \
                reference_train(make(config, seed), config)
            assert len(got_pop) == 8, seed
            assert np.array_equal(got_pop.conditions, ref_pop.conditions), seed
            assert np.array_equal(got_pop.actions, ref_pop.actions), seed
            assert np.array_equal(got_pop.strengths, ref_pop.strengths), seed
            assert got_pop.clamp_count == ref_pop.clamp_count, seed
            assert got_pop.cover_count == ref_pop.cover_count, seed
            assert got_curve.points == ref_curve.points, seed
            late_contexts += sum(it > config.ga_period
                                 for it in first_seen.values())
            fallbacks += ref_fallbacks
            covers += got_pop.cover_count
        # the dense workload covers only 12 times at seed 0 (CI pins the
        # count); this small population covers often, which keeps covering
        # compared against the reference
        assert covers > 0
        if case == "zero-reward":
            assert fallbacks > 0
        else:
            # contexts first seen only after a GA round rewrote conditions
            assert late_contexts > 0


class TestOracleEnvironment:
    def test_random_policy_baseline_quarter(self):
        config = LcsConfig()
        env = SuffixOracleEnvironment(config)
        rng = np.random.default_rng(123)
        hits = 0
        n = 20000
        for _ in range(n):
            context = env.context(rng)
            action = ACTIONS[rng.integers(4)]
            _reward, correct = env.feedback(context, action)
            hits += int(correct)
        assert abs(hits / n - 0.25) < 0.03

    def test_reward_only_on_correct_action(self):
        config = LcsConfig()
        env = SuffixOracleEnvironment(config)
        assert env.feedback("AACCT", "G") == (config.reward_play, True)
        assert env.feedback("AACCT", "A") == (0.0, False)

    def test_learning_beats_baseline(self):
        config = LcsConfig(max_iterations=50000, rng_seed=4)
        env = SuffixOracleEnvironment(config)
        _pop, curve = train(env, config)
        tail = curve.proportions()[-5:]
        assert sum(tail) / len(tail) >= 0.45


class TestSequenceReplayEnvironment:
    def corpus(self):
        return [
            PlayerSequence("a", "m1", "AACCTG--AC"),
            PlayerSequence("b", "m1", "CCCCCCCCCC"),
        ]

    def test_contexts_come_from_sequences(self):
        config = LcsConfig()
        env = SequenceReplayEnvironment(self.corpus(), config)
        rng = np.random.default_rng(0)
        for _ in range(50):
            context = env.context(rng)
            assert len(context) == 5
            _reward, correct = env.feedback(context, context[-1])
            assert correct in (True, False)

    def test_correct_next_letter_pays(self):
        config = LcsConfig()
        env = SequenceReplayEnvironment([PlayerSequence("a", "m", "AAAAAC")],
                                        config)
        rng = np.random.default_rng(0)
        context = env.context(rng)
        while context != "AAAAA":
            context = env.context(rng)
        assert env.feedback(context, "C") == (config.reward_play, True)
        assert env.feedback(context, "G") == (0.0, False)

    def test_early_positions_padded_with_idle(self):
        config = LcsConfig()
        env = SequenceReplayEnvironment([PlayerSequence("a", "m", "-ACG")],
                                        config)
        rng = np.random.default_rng(0)
        assert env.context(rng) == "-----"
        assert env.feedback("-----", "A") == (config.reward_play, True)
        assert env.context(rng) == "----A"
        assert env.context(rng) == "---AC"

    def test_goal_windows_pay_win_reward(self):
        config = LcsConfig()

        class Annotated:
            letters = "AAAAAG"
            events = [(5, "goal")]

        env = SequenceReplayEnvironment([Annotated()], config)
        rng = np.random.default_rng(0)
        context = env.context(rng)
        while context != "AAAAA":
            context = env.context(rng)
        assert env.feedback(context, "G") == (config.reward_win, True)

    def test_idle_continuations_skipped(self):
        config = LcsConfig()
        with pytest.raises(ValueError):
            SequenceReplayEnvironment([PlayerSequence("a", "m", "-----")],
                                      config)

    def test_windows_equal_rjust_rule(self):
        # steps as letters[max(0, t - 5):t].rjust(5, IDLE) gives them, on
        # seeded sequences: many shorter than a context, some opening with
        # idle letters, idle targets skipped, and goals at the first and
        # last index
        data = np.random.default_rng(31)
        corpus = [PlayerSequence("p", "m", "AC"), PlayerSequence("q", "m", "")]
        for i in range(60):
            n = int(data.integers(1, 3 * CONTEXT_LENGTH))
            letters = "".join(data.choice(list(ALPHABET), size=n))
            if i % 3 == 0:
                letters = IDLE * int(data.integers(1, 8)) + letters
            events = [(0, "goal"), (len(letters) - 1, "goal"),
                      (int(data.integers(len(letters))), "threat")]
            corpus.append(AnnotatedSequence(f"s{i}", letters, events))
        env = SequenceReplayEnvironment(corpus, LcsConfig())
        want = []
        for seq in corpus:
            letters = seq.letters
            goals = {t for t, label in getattr(seq, "events", ())
                     if label == "goal"}
            kept = [t for t in range(1, len(letters)) if letters[t] in ACTIONS]
            if kept:
                want.append(([letters[max(0, t - CONTEXT_LENGTH):t].rjust(
                                 CONTEXT_LENGTH, IDLE) for t in kept],
                             [letters[t] for t in kept],
                             [t in goals for t in kept]))
        assert env._episodes == want
        assert any(any(goals) for _contexts, _targets, goals in want)

    def test_equal_contexts_are_one_string(self):
        data = np.random.default_rng(32)
        corpus = [PlayerSequence("p", "m", "".join(data.choice(list("AC"), 40)))
                  for _ in range(20)]
        env = SequenceReplayEnvironment(corpus, LcsConfig())
        contexts = [c for episode in env._episodes for c in episode[0]]
        assert len(contexts) == 20 * 39
        # 2 ** k windows end in k of the letters after 5 - k idle ones
        assert len({id(c) for c in contexts}) == len(set(contexts)) <= \
            sum(2 ** k for k in range(1, CONTEXT_LENGTH + 1))

    def test_sequences_walked_as_episodes(self):
        config = LcsConfig()
        env = SequenceReplayEnvironment(
            [PlayerSequence("a", "m", "AAAAACG")], config)
        rng = np.random.default_rng(0)
        flags = []
        for _ in range(12):
            env.context(rng)
            flags.append(env.new_episode())
        # six steps per pass over the only sequence (targets at t = 1..6)
        assert flags == ([True] + [False] * 5) * 2


class TestSerialization:
    def test_population_csv_round_trip(self):
        pop = rules_population([("A#CG-", "G", 12.5), ("#####", "T", 0.0)])
        assert population_to_csv(pop).splitlines() == [
            "# schema_version=1",
            "condition,action,strength",
            "A#CG-,G,12.500000",
            "#####,T,0.000000",
        ]

    def test_curve_csv_lines(self):
        from matchdna.classifier_system import LearningCurve
        curve = LearningCurve(points=[(1000, 0.25), (2000, 0.4375)])
        lines = curve_to_csv(curve).splitlines()
        assert lines == [
            "# schema_version=1",
            "iteration,proportion_correct",
            "1000,0.250000",
            "2000,0.437500",
        ]


class TestConfigValidation:
    def test_rejects_ga_period_below_one(self):
        with pytest.raises(ValueError):
            LcsConfig(ga_period=0)

    @pytest.mark.parametrize("name, value", [
        ("population_size", 200), ("bid_fraction", 0.1),
        ("reward_win", 1000.0), ("reward_play", 50.0),
        ("mutation_rate", 0.02)])
    def test_constants_read_but_not_set(self, name, value):
        assert getattr(LcsConfig(), name) == value
        with pytest.raises(TypeError):
            LcsConfig(**{name: value})

    def test_fields_are_what_a_run_sets(self):
        config = LcsConfig(ga_period=7, max_iterations=9, rng_seed=3)
        assert vars(config) == dict(ga_period=7, max_iterations=9,
                                    rng_seed=3)


class TestPinnedTrain:
    """SHA-256 of population_to_csv + curve_to_csv for seeded replay runs.

    The corpus is 30 random 150-letter sequences with three goal windows
    each; over 12,000 iterations it rewards far more than REWARDED_HISTORY
    distinct contexts, so the run without miner stats discovers from the
    evicting rewarded-context history.
    """

    def corpus(self):
        rng = np.random.default_rng(2024)
        out = []
        for i in range(30):
            letters = "".join(rng.choice(list("ACGT-"), size=150))
            events = [(int(t), "goal")
                      for t in rng.choice(150, size=3, replace=False)]
            out.append(AnnotatedSequence(f"s{i}", letters, sorted(events)))
        return out

    @pytest.mark.parametrize("stats, digest", [
        (None,
         "820d56d8f928eb7d3fbe26c2ce8662b4cbbc7621a954c0dc2c7ac06c1118ea36"),
        (MinerStats(patterns=[("CCT", 40), ("ACG", 30), ("T-A", 20), ("GG", 10)],
                    motifs=list(DEFAULT_MOTIFS)),
         "0977bb1f97e15724f40ea792e3c910bc4d3b75a7f1abe1e662428c3948ef5d22"),
    ], ids=["rewarded-contexts", "miner-stats"])
    def test_train_bytes(self, stats, digest):
        config = LcsConfig(max_iterations=12000, rng_seed=5)
        env = SequenceReplayEnvironment(self.corpus(), config, stats)
        population, curve = train(env, config)
        text = population_to_csv(population) + curve_to_csv(curve)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
