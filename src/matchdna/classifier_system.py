"""Bucket-brigade learning classifier system over play-letter contexts.

Rules pair a fixed-length condition over {A, C, G, T, -, #} ('#' wildcard)
with a single action letter and a strength.  Each iteration the matching
rules bid a fixed fraction of their strength; a bid-proportional winner
acts, pays its bid backward to the previous winner, and collects the
environment's reward.  Every ga_period iterations a discovery GA rebuilds
the weakest quartile, seeding conditions from mined patterns and motifs
when available and from parent crossover otherwise.

A Population holds each rule once: its conditions as one (rules,
CONTEXT_LENGTH) uint8 code matrix, which the match table broadcasts
over, its action letters as a list and its strengths as a list of
Python floats.  train, covering and ga_discover all change those lists
in place; ClassifierRule is the string view used at the edges.

train keeps a match table: one boolean row over the rules for every
possible context, len(ALPHABET) ** CONTEXT_LENGTH rows (3,125 x 200
rules, 625 KB), built when train starts.  A context's matching rule
indices, its row's nonzero() as a list, are kept from its first visit
until the next refresh; a string that is no context goes to match_set,
which refuses it.  Covering recomputes its slot's column and a GA round
every column, each as one broadcast over the table.

A match set holds about 10 rules, too few for numpy calls to pay for
themselves, so train's hot loop draws and pays credit on the
population's Python floats.  _draw, the one draw kernel, picks the
winner as Generator.choice(matches, p=bids / total) does internally:
normalized cumsum, one double, right-sided searchsorted.  The winner,
and so every pinned digest, hangs on the bid total's last bit, so the
total is math.fsum's: correctly rounded, it does not depend on the order
the bids are added in, on the Python version or on numpy.  The draw
needs finite, non-negative strengths: Population.random, covering and
ga_discover only set such strengths, and the bucket brigade clamps a
winner at zero.

SequenceReplayEnvironment keeps an episode as three lists, one entry
per step: contexts, target letters and goal flags.  Equal contexts are
one string, shared through one dict per environment, so a corpus of any
length holds at most 3,125; context, feedback and new_episode only index.

LcsConfig holds what a run sets: ga_period, max_iterations and
rng_seed.  population_size, bid_fraction, reward_win, reward_play and
mutation_rate are class constants on it, readable from any config but
not settable.  The credit rule, bucket_brigade_update, works on any
mutable sequence of float strengths, a list or an array, so any learner
that keeps strengths can share it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import ClassVar

import numpy as np

from .mining import GOAL
from .sequences import ACTIONS, ALPHABET, IDLE

WILDCARD = "#"
# rule conditions are coded by index into this string
CONDITION_SYMBOLS = ALPHABET + WILDCARD

_CODE = {ch: i for i, ch in enumerate(CONDITION_SYMBOLS)}
_WILD = _CODE[WILDCARD]

CSV_SCHEMA_HEADER = "# schema_version=1"

CONTEXT_LENGTH = 5   # letters per context and per rule condition
EVAL_BLOCK = 1000
COVER_WILDCARD_PROB = 0.33
REWARDED_HISTORY = 400
CANDIDATE_POOL = 24
MIN_TEMPLATE_SPAN = 3


@dataclass(frozen=True)
class ClassifierRule:
    condition: str
    action: str
    strength: float


@dataclass(frozen=True)
class LcsConfig:
    population_size: ClassVar[int] = 200
    bid_fraction: ClassVar[float] = 0.1
    reward_win: ClassVar[float] = 1000.0
    reward_play: ClassVar[float] = 50.0
    mutation_rate: ClassVar[float] = 0.02

    ga_period: int = 4000
    max_iterations: int = 50000
    rng_seed: int = 0

    def __post_init__(self):
        if self.ga_period < 1:
            raise ValueError("ga_period must be >= 1")


@dataclass
class LearningCurve:
    points: list = field(default_factory=list)  # (iteration, proportion_correct)

    def proportions(self):
        return [p for _, p in self.points]


@dataclass
class MinerStats:
    """Condition source material: (pattern, count) pairs plus motifs whose
    'x' wildcards become '#'."""
    patterns: list = field(default_factory=list)
    motifs: list = field(default_factory=list)


def encode_condition(condition: str) -> np.ndarray:
    try:
        return np.array([_CODE[ch] for ch in condition], dtype=np.uint8)
    except KeyError as err:
        raise ValueError(f"bad condition symbol {err.args[0]!r}") from None


def encode_context(context: str) -> np.ndarray:
    codes = encode_condition(context)
    if (codes == _WILD).any():
        raise ValueError("contexts cannot contain the wildcard")
    return codes


def decode_condition(codes) -> str:
    return "".join(CONDITION_SYMBOLS[c] for c in codes)


class Population:
    """Rule store of fixed size: a condition code matrix, a list of action
    letters and a list of float strengths (see the module docstring)."""

    def __init__(self, conditions: np.ndarray, actions, strengths):
        self.conditions = conditions.astype(np.uint8)
        self.actions = list(actions)
        self.strengths = [float(s) for s in strengths]
        self.clamp_count = 0  # bucket-brigade updates clamped at zero
        self.cover_count = 0  # rules replaced by covering

    @classmethod
    def random(cls, config: LcsConfig, rng) -> "Population":
        shape = (config.population_size, CONTEXT_LENGTH)
        # wildcard with probability 1/3, otherwise a uniform play symbol
        wild = rng.random(shape) < 1.0 / 3.0
        conds = rng.integers(0, len(ALPHABET), size=shape).astype(np.uint8)
        conds[wild] = _WILD
        actions = rng.integers(0, len(ACTIONS), size=config.population_size)
        return cls(conds, [ACTIONS[a] for a in actions.tolist()],
                   [100.0] * config.population_size)

    def rules(self) -> list:
        return [ClassifierRule(decode_condition(cond), action, strength)
                for cond, action, strength in
                zip(self.conditions, self.actions, self.strengths)]

    def __len__(self):
        return len(self.strengths)


def match_set(context: str, population: Population) -> np.ndarray:
    """Indices of rules whose condition matches position-wise."""
    ctx = encode_context(context)
    if population.conditions.shape[1] != len(ctx):
        raise ValueError("context length differs from condition length")
    ok = (population.conditions == ctx[None, :]) | \
         (population.conditions == _WILD)
    return np.flatnonzero(ok.all(axis=1))


def _draw(matches: list, strengths, bid_fraction: float, rng) -> int:
    """Bid-proportional pick from the rule indices `matches`, uniform
    when every bid is zero; see the module docstring."""
    bids = [strengths[i] * bid_fraction for i in matches]
    total = math.fsum(bids)
    if total <= 0.0:
        return matches[rng.integers(len(matches))]
    cdf = []
    acc = 0.0
    for bid in bids:
        acc += bid / total
        cdf.append(acc)
    last = cdf[-1]
    u = rng.random()
    i = 0
    while cdf[i] / last <= u:
        i += 1
    return matches[i]


def bucket_brigade_update(strengths, winner: int, previous: int | None,
                          reward: float, bid_fraction: float) -> bool:
    """Winner pays its bid backward, then banks the external reward.
    Updates `strengths`, a list or array of floats, in place; True when
    the winner was clamped at zero."""
    strength = float(strengths[winner])
    bid = bid_fraction * strength
    strength -= bid
    if previous == winner:  # pays itself: ((s - bid) + bid) need not be s
        strength += bid
    elif previous is not None:
        strengths[previous] += bid
    strength += reward
    if strength < 0.0:
        strengths[winner] = 0.0
        return True
    strengths[winner] = strength
    return False


def covering(context: str, population: Population, rng) -> int:
    """Replace the weakest rule with a context-derived one (wildcards
    sprinkled in), random action, strength at the population mean."""
    ctx = encode_context(context)
    cond = ctx.copy()
    cond[rng.random(len(ctx)) < COVER_WILDCARD_PROB] = _WILD
    slot = int(np.argmin(population.strengths))
    population.conditions[slot] = cond
    population.actions[slot] = ACTIONS[rng.integers(0, len(ACTIONS))]
    population.strengths[slot] = float(np.mean(population.strengths))
    population.cover_count += 1
    return slot


class _MatchIndex:
    """train's match table: one boolean row over the rules for every
    possible context; see the module docstring."""

    def __init__(self, population: Population):
        self._population = population
        self._rows = np.empty((len(ALPHABET) ** CONTEXT_LENGTH, len(population)),
                              dtype=bool)
        # context -> its row; product varies the last letter fastest, as
        # refresh's grid does
        self._row_of = {"".join(letters): row for row, letters in enumerate(
            product(ALPHABET, repeat=CONTEXT_LENGTH))}
        self._found = {}  # context -> its row's rule indices, until refresh
        self.refresh(slice(None))

    def matches(self, context: str) -> list:
        found = self._found.get(context)
        if found is None:
            row = self._row_of.get(context)
            if row is None:  # not a context, which match_set refuses
                match_set(context, self._population)
            found = self._found[context] = self._rows[row].nonzero()[0].tolist()
        return found

    def refresh(self, rules) -> None:
        """Recompute the columns of `rules` (an index list or slice into
        the population) for every context."""
        conds = self._population.conditions[rules]
        letters = np.arange(len(ALPHABET))[:, None]
        ok = True
        for pos in range(CONTEXT_LENGTH):
            cond = conds[:, pos]
            fits = (cond == letters) | (cond == _WILD)  # (letter, rule)
            # the context's letter at `pos` indexes axis `pos` of the grid
            shape = [1] * CONTEXT_LENGTH + [len(cond)]
            shape[pos] = len(ALPHABET)
            ok = ok & fits.reshape(shape)
        self._rows[:, rules] = ok.reshape(len(self._rows), -1)
        self._found.clear()


def _condition_candidates(stats: MinerStats, length: int) -> list:
    """Mined patterns and motifs as length-L code rows.

    Patterns shorter than the condition keep only their most recent
    positions pinned; everything a pattern does not constrain is a '#',
    so the wildcards land on the low-information positions.  Motif 'x'
    wildcards map to '#' directly.
    """
    texts = []
    ranked = sorted(stats.patterns, key=lambda pc: (-pc[1], pc[0]))
    texts.extend(p for p, _count in ranked[:CANDIDATE_POOL])
    texts.extend(m.template.replace("x", WILDCARD) for m in stats.motifs)
    rows = []
    for text in texts:
        text = text[-length:].rjust(length, WILDCARD)
        rows.append(encode_condition(text))
    return rows


def mine_rewarded_patterns(rewarded: dict, length: int) -> list:
    """Condition templates mined from rewarded contexts.

    Every substring span of at least MIN_TEMPLATE_SPAN letters is weighted
    by how often its context earned reward; the CANDIDATE_POOL heaviest
    spans become length-L templates with '#' at every position the span
    leaves free.  Spans recurring across many contexts outweigh any
    single full context, so the templates generalize over the positions
    that vary freely.
    """
    weights = {}
    for context, count in rewarded.items():
        for span in range(MIN_TEMPLATE_SPAN, length + 1):
            for start in range(length - span + 1):
                key = (start, context[start:start + span])
                weights[key] = weights.get(key, 0) + count
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    templates = []
    for (start, text), weight in ranked[:CANDIDATE_POOL]:
        cond = [WILDCARD] * length
        cond[start:start + len(text)] = text
        templates.append(("".join(cond), weight))
    return templates


def ga_discover(population: Population, stats: MinerStats, rng,
                config: LcsConfig) -> None:
    """Rebuild the weakest quartile in place.

    Conditions come from the mined candidate pool; with no miner
    material they fall back to single-point crossover of the parents'
    conditions.  Actions cross over from strong parents; every new gene
    mutates at mutation_rate.  Offspring strength is the parent average.
    """
    n = len(population)
    quartile = max(1, n // 4)
    # victims and survivors are disjoint, so the parents' strengths read
    # here are the ones the loop below leaves alone
    strengths = np.array(population.strengths)
    order = np.argsort(strengths, kind="stable")
    victims = order[:quartile]
    survivors = order[quartile:]

    weights = strengths[survivors]
    total = weights.sum()
    probs = weights / total if total > 0 else None

    rows = _condition_candidates(stats, CONTEXT_LENGTH)
    candidates = np.stack(rows) if rows else None

    length = CONTEXT_LENGTH
    for slot in victims:
        pa, pb = rng.choice(survivors, size=2, p=probs)
        if candidates is not None:
            cond = candidates[rng.integers(len(candidates))].copy()
        else:
            cond = population.conditions[pa].copy()
            if length > 1 and rng.random() < 0.5:
                point = int(rng.integers(1, length))
                cond[point:] = population.conditions[pb][point:]
            mutate = rng.random(length) < config.mutation_rate
            cond[mutate] = rng.integers(0, len(CONDITION_SYMBOLS),
                                        size=int(mutate.sum()))
        action = population.actions[pa if rng.random() < 0.5 else pb]
        if rng.random() < config.mutation_rate:
            action = ACTIONS[rng.integers(0, len(ACTIONS))]
        population.conditions[slot] = cond
        population.actions[slot] = action
        population.strengths[slot] = float(0.5 * (strengths[pa] +
                                                  strengths[pb]))


def train(environment, config: LcsConfig) -> tuple[Population, LearningCurve]:
    """Match, bid, act, reinforce, and periodically discover.

    The environment supplies `context(rng) -> str` and
    `feedback(context, action) -> (reward, correct)`; it may also expose
    `miner_stats() -> MinerStats`, read once before the first iteration.
    When that gives no stats, train keeps a history of recently rewarded
    contexts instead, and discovery is seeded from the most frequent.

    Bids chain backward only within an episode.  An environment that
    walks a sequence exposes `new_episode() -> bool` (queried right
    after each context); without it every iteration stands alone and the
    opening bid dissipates.
    """
    rng = np.random.default_rng(config.rng_seed)
    population = Population.random(config, rng)
    curve = LearningCurve()
    episode_probe = getattr(environment, "new_episode", None)
    previous = None
    block_hits = 0
    block_size = 0
    getter = getattr(environment, "miner_stats", None)
    stats = getter() if getter is not None else None
    # context -> reward count, in first-rewarded order; kept only when
    # there are no miner stats to seed discovery
    rewarded = {} if stats is None else None
    index = _MatchIndex(population)

    for iteration in range(1, config.max_iterations + 1):
        context = environment.context(rng)
        if episode_probe is None or episode_probe():
            previous = None
        matches = index.matches(context)
        if not matches:
            slot = covering(context, population, rng)
            index.refresh([slot])
            matches = [slot]
        winner = _draw(matches, population.strengths, config.bid_fraction,
                       rng)
        reward, correct = environment.feedback(context,
                                               population.actions[winner])
        population.clamp_count += bucket_brigade_update(
            population.strengths, winner, previous, reward,
            config.bid_fraction)
        previous = winner

        if reward > 0 and rewarded is not None:
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
            if rewarded is not None:
                stats = MinerStats(patterns=mine_rewarded_patterns(
                    rewarded, CONTEXT_LENGTH))
            ga_discover(population, stats, rng, config)
            index.refresh(slice(None))
            previous = None

    if block_size:
        curve.points.append((config.max_iterations, block_hits / block_size))
    return population, curve


# ----- environments -----------------------------------------------------------

class SuffixOracleEnvironment:
    """Four context families keyed by disjoint 3-letter suffixes, each with
    one correct action; random 2-letter heads.  A uniform-random policy
    scores 0.25 here, and the suffix->action map is fully learnable."""

    FAMILIES = {"CCT": "G", "AAC": "C", "GGA": "A", "TTG": "T"}

    def __init__(self, config: LcsConfig):
        self.config = config
        self._suffixes = sorted(self.FAMILIES)

    def context(self, rng) -> str:
        suffix = self._suffixes[rng.integers(len(self._suffixes))]
        head = "".join(ACTIONS[i] for i in rng.integers(0, 4, size=2))
        return head + suffix

    def feedback(self, context: str, action: str):
        correct = self.FAMILIES[context[-3:]] == action
        return (self.config.reward_play if correct else 0.0), correct


class SequenceReplayEnvironment:
    """Replays encoded play sequences: the context is a sliding window of
    a player sequence and the correct action is the letter that actually
    followed; goal-flagged continuations pay reward_win.

    Windows that start before the sequence does are left-padded with the
    idle letter, so short or late-starting sequences still contribute
    samples.  One pass over one sequence is one episode, so bids chain
    backward along the sequence and break between sequences."""

    def __init__(self, corpus, config: LcsConfig, stats: MinerStats | None = None):
        self.config = config
        self._stats = stats
        length = CONTEXT_LENGTH
        share = {}.setdefault  # a context -> its first equal string
        self._episodes = []
        for seq in corpus:
            letters = seq.letters
            kept = [t for t, ch in enumerate(letters[1:], 1) if ch in ACTIONS]
            if not kept:
                continue
            goals = [False] * len(kept)
            for t, label in getattr(seq, "events", ()):
                step = bisect_left(kept, t)
                if label == GOAL and step < len(kept) and kept[step] == t:
                    goals[step] = True
            # padded[t:t + length] is the `length` letters before t,
            # idle-padded on the left
            padded = IDLE * length + letters
            windows = [padded[t:t + length] for t in kept]
            self._episodes.append((list(map(share, windows, windows)),
                                   [letters[t] for t in kept], goals))
        if not self._episodes:
            raise ValueError("corpus yielded no usable context windows")
        self._contexts = self._targets = self._goals = ()
        self._pos = 0
        self._fresh = True

    def context(self, rng) -> str:
        self._fresh = self._pos >= len(self._contexts)
        if self._fresh:
            self._contexts, self._targets, self._goals = \
                self._episodes[rng.integers(len(self._episodes))]
            self._pos = 0
        self._pos += 1
        return self._contexts[self._pos - 1]

    def new_episode(self) -> bool:
        return self._fresh

    def feedback(self, context: str, action: str):
        step = self._pos - 1
        if action != self._targets[step]:
            return 0.0, False
        return (self.config.reward_win if self._goals[step]
                else self.config.reward_play), True

    def miner_stats(self):
        return self._stats


# ----- serialization ----------------------------------------------------------

def population_to_csv(population: Population) -> str:
    lines = [CSV_SCHEMA_HEADER, "condition,action,strength"]
    for rule in population.rules():
        lines.append(f"{rule.condition},{rule.action},{rule.strength:.6f}")
    return "\n".join(lines) + "\n"


def curve_to_csv(curve: LearningCurve) -> str:
    lines = [CSV_SCHEMA_HEADER, "iteration,proportion_correct"]
    for iteration, proportion in curve.points:
        lines.append(f"{iteration},{proportion:.6f}")
    return "\n".join(lines) + "\n"
