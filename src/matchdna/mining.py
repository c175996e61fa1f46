"""Substring mining over play sequences: unique patterns, tandem repeats,
and wildcard goal/threat motifs.

Sequences are plain strings over the five-letter play alphabet
{A, C, G, T, -}.  '-' is an ordinary symbol for literal mining but is never
covered by the motif wildcard 'x'.

Every literal count goes through one whole-corpus k-gram kernel,
_Kgrams.  It lays the strings end to end and ranks the corpus's own
distinct characters from 1 in code-point order, with 0 as padding.  The
k letters at a position become one int64 key: their ranks as the
leading k of max_len base-(letters + 1) digits, the rest 0.  So keys of
every length in a query band sort exactly as Python sorts the strings, a
prefix before its extensions, and one sort of
sequence * (letters + 1) ** max_len + key puts mine_report's rows in
order; a key decodes back to its string digit by digit.  A query whose
sort keys do not fit in an int64 is refused.  Tandem runs come from the
same keys: a start is a candidate when the next copy begins k later
inside the same sequence, a run's copies are run lengths along stride k,
and the greedy left-to-right pick jumps from one run to the next with
searchsorted, so Python runs once per reported run.

A motif template compiles to one regular expression, 'x' becoming
[ACGT], which match_motif, find_motif and motif_occurrence_rate share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sequences import ACTIONS, ALPHABET

WILDCARD = "x"

GOAL = "goal"
THREAT = "threat"

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class PatternQuery:
    """Length band for unique-substring enumeration."""
    min_len: int
    max_len: int

    def __post_init__(self):
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"need 1 <= min_len <= max_len, got "
                             f"[{self.min_len}, {self.max_len}]")


@dataclass(frozen=True)
class Motif:
    """A literal-plus-wildcard template tagged with what it precedes.

    confidence_band is the reported frequency band for the motif:
    one of '95', '75', '50', '<50' (percent).
    """
    template: str
    label: str
    confidence_band: str = "<50"

    def __post_init__(self):
        if not self.template:
            raise ValueError("motif template must be non-empty")
        bad = set(self.template) - set(ALPHABET) - {WILDCARD}
        if bad:
            raise ValueError(f"motif template contains {sorted(bad)}")
        if self.label not in (GOAL, THREAT):
            raise ValueError(f"motif label must be goal or threat, got {self.label!r}")


# Frequency bands observed for play windows preceding goals and threats.
GOAL_MOTIFS = (
    Motif("TCCCT", GOAL, "95"),
    Motif("CACCT", GOAL, "75"),
    Motif("CxCCT", GOAL, "50"),
    Motif("CCAT", GOAL, "<50"),
)
THREAT_MOTIFS = (
    Motif("CTCCC", THREAT, "95"),
    Motif("CCACC", THREAT, "75"),
    Motif("CCxCC", THREAT, "50"),
    Motif("GCAC", THREAT, "<50"),
)
DEFAULT_MOTIFS = GOAL_MOTIFS + THREAT_MOTIFS


@dataclass
class PatternReport:
    """Per-sequence occurrence rows plus located tandem runs."""
    rows: list = field(default_factory=list)        # (pattern, occurrences, sequence_id)
    tandem_runs: list = field(default_factory=list)  # (pattern, sequence_id, start, copies)


@dataclass
class AnnotatedSequence:
    """A play string with the window indices of its goal/threat events."""
    sequence_id: str
    letters: str
    events: list = field(default_factory=list)  # (window_index, label)


class _Kgrams:
    """The int64 keys of every k-gram of some strings laid end to end,
    for k up to `width` (see the module docstring)."""

    def __init__(self, texts: list, width: int):
        points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                               dtype=np.uint32)
        self.letters, ranks = np.unique(points, return_inverse=True)
        self.base = len(self.letters) + 1
        # rows sort by sequence * stride + key, which must fit in an int64
        self.stride = self.base ** width
        if len(texts) * self.stride > _INT64_MAX:
            raise ValueError(
                f"query too wide for int64 keys: {len(texts)} strings * "
                f"{self.base} ** {width} exceeds the limit, strings * "
                f"(distinct letters + 1) ** max_len <= 2**63 - 1")
        self.size = len(points)
        lengths = [len(t) for t in texts]
        ends = np.cumsum(lengths, dtype=np.int64)
        # each position's sequence, where it begins and where it ends
        self.seq = np.repeat(np.arange(len(texts)), lengths)
        self.begin = np.repeat(ends - lengths, lengths)
        self.end = np.repeat(ends, lengths)
        self.weights = [self.base ** (width - 1 - j) for j in range(width)]
        self._codes = np.zeros(self.size + width, dtype=np.int64)
        self._codes[:self.size] = ranks + 1
        self._key = np.zeros(self.size, dtype=np.int64)
        self._k = 0

    def keys(self, k: int) -> np.ndarray:
        """The key of the k letters at every position.  Called with
        ascending k, it adds one digit per new length; positions whose k
        letters run past their sequence's end get a key that means
        nothing (see starts)."""
        while self._k < k:
            digit = self._k
            self._key += self._codes[digit:digit + self.size] * self.weights[digit]
            self._k += 1
        return self._key

    def starts(self, k: int) -> np.ndarray:
        """Ascending positions whose k letters lie inside their sequence."""
        return np.flatnonzero(np.arange(self.size) + k <= self.end)

    def copies(self, k: int) -> np.ndarray:
        """At every position, how many copies of its k letters run back to
        back from there inside its sequence, itself included: 1 unless the
        next copy begins k later."""
        key = self.keys(k)
        n = self.size
        head = max(n - k, 0)
        rows = -(-n // k)
        # laid out in rows of k, a position's next copy is one row down;
        # the last row holds no next copy, so every column stops there
        follows = np.zeros(rows * k, dtype=bool)
        follows[:head] = (key[k:] == key[:head]) & \
            (np.arange(head) + 2 * k <= self.end[:head])
        grid = follows.reshape(rows, k)
        row = np.arange(rows)[:, None]
        stop = np.minimum.accumulate(np.where(grid, rows, row)[::-1], axis=0)[::-1]
        return (stop - row + 1).ravel()[:n]

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The strings whose keys are `keys`, as an object array."""
        digits = keys[:, None] // np.array(self.weights, dtype=np.int64) % self.base
        symbols = np.array([""] + [chr(point) for point in self.letters.tolist()],
                           dtype=object)
        return np.fromiter(map("".join, symbols[digits].tolist()), dtype=object,
                           count=len(keys))


def _greedy_runs(order: np.ndarray, spans: np.ndarray) -> list:
    """Which tandem candidates, sorted by `order` (ascending (group,
    start) keys), the left-to-right scan keeps: each kept run hands over
    to the first candidate at or after its end, `spans` later."""
    kept = []
    i = 0
    while i < len(order):
        kept.append(i)
        i = int(order.searchsorted(order[i] + spans[i]))
    return kept


def enumerate_unique(sequence: str, query: PatternQuery) -> set:
    """All distinct substrings of `sequence` with length in the query band."""
    grams = _Kgrams([sequence], query.max_len)
    keys = [grams.keys(k)[grams.starts(k)]
            for k in range(query.min_len, query.max_len + 1)]
    return set(grams.decode(np.unique(np.concatenate(keys))))


def _occurrences(sequence: str, pattern: str) -> tuple:
    """The _Kgrams of `sequence` then `pattern`, and the ascending starts
    of the pattern in the sequence."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    k = len(pattern)
    grams = _Kgrams([sequence, pattern], k)
    starts = grams.starts(k)
    key = grams.keys(k)
    n = len(sequence)
    return grams, starts[(starts < n) & (key[starts] == key[n])]


def count_occurrences(sequence: str, pattern: str) -> tuple[int, list[int]]:
    """Count possibly overlapping literal occurrences; also return starts."""
    starts = _occurrences(sequence, pattern)[1]
    return len(starts), starts.tolist()


def find_tandem_repeats(sequence: str, pattern: str) -> list[tuple[int, int]]:
    """Maximal runs of >= 2 adjacent back-to-back copies of `pattern`.

    Runs are located greedily left to right; each is reported once as
    (start_index, copy_count) and cannot be extended by another copy on
    either side.
    """
    grams, starts = _occurrences(sequence, pattern)
    copies = grams.copies(len(pattern))[starts]
    run = copies >= 2
    starts, copies = starts[run], copies[run]
    return [(int(starts[i]), int(copies[i]))
            for i in _greedy_runs(starts, copies * len(pattern))]


@lru_cache(maxsize=64)
def _motif_pattern(template: str) -> re.Pattern:
    """The template as a zero-width lookahead, so that finditer reports
    overlapping starts: 'x' becomes [ACGT], every other letter itself."""
    body = "".join(f"[{ACTIONS}]" if ch == WILDCARD else re.escape(ch)
                   for ch in template)
    return re.compile(f"(?={body})")


def match_motif(window: str, motif: Motif) -> bool:
    """True iff `window` matches the template position by position.

    'x' stands for any action letter; it never matches the idle symbol '-'.
    """
    if len(window) != len(motif.template):
        raise ValueError(f"window length {len(window)} != template "
                         f"length {len(motif.template)}")
    return _motif_pattern(motif.template).match(window) is not None


def find_motif(sequence: str, motif: Motif) -> list[int]:
    """Start indices of all sliding-window matches of the motif,
    overlapping ones included."""
    return [m.start() for m in _motif_pattern(motif.template).finditer(sequence)]


def motif_occurrence_rate(corpus, motif: Motif, lookback: int) -> float:
    """Percentage of the motif's events preceded by a motif match.

    For every annotated event carrying the motif's label, the lookback
    letters ending at the event window are scanned for a sliding match.
    The event's own window is included: the final action of a scoring
    pattern lands in the window the goal is recorded in.
    """
    if lookback < len(motif.template):
        raise ValueError("lookback shorter than the motif template")
    pattern = _motif_pattern(motif.template)
    hits = 0
    total = 0
    for seq in corpus:
        for index, label in seq.events:
            if label != motif.label:
                continue
            total += 1
            window = seq.letters[max(0, index + 1 - lookback):index + 1]
            if pattern.search(window) is not None:
                hits += 1
    if total == 0:
        raise ValueError(f"corpus has no events labelled {motif.label!r}")
    return 100.0 * hits / total


def mine_report(sequences, query: PatternQuery) -> PatternReport:
    """Full report over (sequence_id, letters) pairs: occurrence counts for
    every enumerated pattern plus all tandem runs per sequence."""
    pairs = list(sequences)
    grams = _Kgrams([letters for _id, letters in pairs], query.max_len)
    sort_keys, runs = [], []
    for k in range(query.min_len, query.max_len + 1):
        starts = grams.starts(k)
        sort_key = grams.seq[starts] * grams.stride + grams.keys(k)[starts]
        sort_keys.append(sort_key)
        # a (sequence, pattern) group has one length, so its runs are
        # picked here, over its candidates in (group, start) order
        copies = grams.copies(k)[starts]
        run = np.flatnonzero(copies >= 2)
        group = np.unique(sort_key[run], return_inverse=True)[1]
        place = group * (grams.size + 1) + starts[run]
        order = np.argsort(place)
        run, place = run[order], place[order]
        run = run[_greedy_runs(place, copies[run] * k)]
        runs.append((sort_key[run], starts[run], copies[run]))
    sort_key = np.concatenate(sort_keys)
    del sort_keys
    sort_key.sort()

    # one row per (sequence, pattern) group of equal sort keys
    opens = np.ones(len(sort_key), dtype=bool)
    opens[1:] = sort_key[1:] != sort_key[:-1]
    first = np.flatnonzero(opens)
    group_key = sort_key[first]
    counts = np.diff(first, append=len(sort_key))
    del sort_key, opens, first
    seq, key = np.divmod(group_key, grams.stride)
    distinct, which = np.unique(key, return_inverse=True)
    patterns = grams.decode(distinct)
    ids = np.fromiter((sequence_id for sequence_id, _ in pairs), dtype=object,
                      count=len(pairs))
    report = PatternReport()
    # one list of the final size: grown by appends, its buffer would
    # land above the freed arrays and hold them resident
    report.rows = np.fromiter(zip(patterns[which], counts.tolist(), ids[seq]),
                              dtype=object, count=len(counts)).tolist()

    run_key, starts, copies = (np.concatenate(part) for part in zip(*runs))
    seq, key = np.divmod(run_key, grams.stride)
    pattern = distinct.searchsorted(key)
    for i in np.lexsort((starts, run_key)):
        report.tandem_runs.append((
            patterns[pattern[i]], ids[seq[i]],
            int(starts[i] - grams.begin[starts[i]]), int(copies[i])))
    return report
