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

mine_report runs that kernel over chunks of whole sequences of at most
_CHUNK_LETTERS letters in all, a longer sequence making a chunk of its
own, so its int64 arrays stay a chunk's size however large the corpus.
Rows and tandem runs are ordered sequence first, so appending them chunk
by chunk gives the whole corpus's order, and a pattern found in several
chunks is one string, shared through one dict.  The int64 refusal is
still made once, for the whole corpus, before the first chunk: a chunk
with fewer strings or letters would fit where the corpus does not.  The
rows are kept as three columns, a pattern list, an array of counts and
an id list, behind the read-only PatternRows sequence: about a third of
the memory of one tuple per row.

A motif template compiles to one regular expression, 'x' becoming
[ACGT], which match_motif, find_motif and motif_occurrence_rate share.
"""

from __future__ import annotations

import operator
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sequences import ACTIONS, ALPHABET

WILDCARD = "x"

GOAL = "goal"
THREAT = "threat"

_INT64_MAX = int(np.iinfo(np.int64).max)
_CHUNK_LETTERS = 8192  # mine_report's letters per chunk (module docstring)


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


class PatternRows(Sequence):
    """Read-only (pattern, occurrences, sequence_id) rows held as three
    columns: iterating, indexing and slicing give the tuples, and a
    PatternRows equals a list or PatternRows with the same rows."""

    __slots__ = ("_patterns", "_counts", "_ids")

    def __init__(self, patterns=(), counts=(), ids=()):
        self._patterns, self._counts, self._ids = patterns, counts, ids

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PatternRows(self._patterns[i], self._counts[i], self._ids[i])
        return self._patterns[i], self._counts[i], self._ids[i]

    def __iter__(self):
        return zip(self._patterns, self._counts, self._ids)

    def __eq__(self, other):
        if not isinstance(other, (list, PatternRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"PatternRows({list(self)!r})"


@dataclass
class PatternReport:
    """Per-sequence occurrence rows plus located tandem runs.

    rows is a read-only PatternRows: it cannot be appended to, and
    list(report.rows) gives a list of the tuples, for JSON or editing.
    """
    rows: PatternRows = field(default_factory=PatternRows)
    tandem_runs: list = field(default_factory=list)  # (pattern, sequence_id, start, copies)


@dataclass
class AnnotatedSequence:
    """A play string with the window indices of its goal/threat events."""
    sequence_id: str
    letters: str
    events: list = field(default_factory=list)  # (window_index, label)


def _refuse_wide(strings: int, base: int, width: int):
    """Refuse a query whose sort keys, sequence * base ** width + key
    over `strings` strings, do not fit in an int64."""
    if strings * base ** width > _INT64_MAX:
        raise ValueError(
            f"query too wide for int64 keys: {strings} strings * "
            f"{base} ** {width} exceeds the limit, strings * "
            f"(distinct letters + 1) ** max_len <= 2**63 - 1")


class _Kgrams:
    """The int64 keys of every k-gram of some strings laid end to end,
    for k up to `width` (see the module docstring)."""

    def __init__(self, texts: list, width: int):
        points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"),
                               dtype=np.uint32)
        self.letters, ranks = np.unique(points, return_inverse=True)
        self.base = len(self.letters) + 1
        self.stride = self.base ** width
        _refuse_wide(len(texts), self.base, width)
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


def _chunks(pairs: list):
    """Runs of consecutive pairs of at most _CHUNK_LETTERS letters in
    all; a longer sequence is a chunk of its own."""
    chunk, size = [], 0
    for pair in pairs:
        if chunk and size + len(pair[1]) > _CHUNK_LETTERS:
            yield chunk
            chunk, size = [], 0
        chunk.append(pair)
        size += len(pair[1])
    if chunk:
        yield chunk


def _mine_chunk(pairs: list, query: PatternQuery, shared: dict,
                columns: tuple, tandem_runs: list):
    """Append the rows of `pairs` to the (patterns, counts, ids)
    `columns` and their tandem runs to `tandem_runs`; `shared` maps each
    pattern string to the one copy the rows hold."""
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
    counts = np.diff(first, append=len(sort_key))
    seq, key = np.divmod(sort_key[first], grams.stride)
    del sort_key, opens, first
    distinct, which = np.unique(key, return_inverse=True)
    patterns = np.fromiter((shared.setdefault(p, p) for p in grams.decode(distinct)),
                           dtype=object, count=len(distinct))
    ids = np.fromiter((sequence_id for sequence_id, _ in pairs), dtype=object,
                      count=len(pairs))
    texts, numbers, names = columns
    texts.extend(patterns[which].tolist())
    numbers.frombytes(counts.astype(np.int64, copy=False).tobytes())
    names.extend(ids[seq].tolist())

    run_key, starts, copies = (np.concatenate(part) for part in zip(*runs))
    seq, key = np.divmod(run_key, grams.stride)
    pattern = distinct.searchsorted(key)
    for i in np.lexsort((starts, run_key)):
        tandem_runs.append((
            patterns[pattern[i]], ids[seq[i]],
            int(starts[i] - grams.begin[starts[i]]), int(copies[i])))


def mine_report(sequences, query: PatternQuery) -> PatternReport:
    """Full report over (sequence_id, letters) pairs: occurrence counts for
    every enumerated pattern plus all tandem runs per sequence."""
    pairs = list(sequences)
    letters = set().union(*(text for _id, text in pairs))
    _refuse_wide(len(pairs), len(letters) + 1, query.max_len)
    columns, tandem_runs, shared = ([], array("q"), []), [], {}
    for chunk in _chunks(pairs):
        _mine_chunk(chunk, query, shared, columns, tandem_runs)
    return PatternReport(PatternRows(*columns), tandem_runs)
