"""Substring mining over play sequences: unique patterns, tandem repeats,
and wildcard goal/threat motifs.

Sequences are plain strings over the five-letter play alphabet
{A, C, G, T, -}.  '-' is an ordinary symbol for literal mining but is never
covered by the motif wildcard 'x'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sequences import ACTIONS, ALPHABET

WILDCARD = "x"

GOAL = "goal"
THREAT = "threat"


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


def _occurrence_index(sequence: str, query: PatternQuery) -> dict:
    """One sliding pass: every substring with length in the query band,
    mapped to its ascending (possibly overlapping) start positions."""
    index = {}
    n = len(sequence)
    for i in range(n):
        for length in range(query.min_len, min(query.max_len, n - i) + 1):
            index.setdefault(sequence[i:i + length], []).append(i)
    return index


def enumerate_unique(sequence: str, query: PatternQuery) -> set:
    """All distinct substrings of `sequence` with length in the query band."""
    return set(_occurrence_index(sequence, query))


def count_occurrences(sequence: str, pattern: str) -> tuple[int, list[int]]:
    """Count possibly overlapping literal occurrences; also return starts.
    The starts come from the miner's own index at the pattern's length."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    k = len(pattern)
    starts = _occurrence_index(sequence, PatternQuery(k, k)).get(pattern, [])
    return len(starts), starts


def _runs(starts, k: int) -> list[tuple[int, int]]:
    """Tandem runs among the ascending occurrence starts of a length-k
    pattern: scanning left to right, a start followed by copies at +k,
    +2k, ... opens a run of >= 2 copies, and the scan resumes after it."""
    if len(starts) < 2:
        return []
    present = set(starts)
    runs = []
    resume = 0
    for start in starts:
        if start < resume:
            continue
        copies = 1
        while start + copies * k in present:
            copies += 1
        if copies >= 2:
            runs.append((start, copies))
            resume = start + copies * k
    return runs


def find_tandem_repeats(sequence: str, pattern: str) -> list[tuple[int, int]]:
    """Maximal runs of >= 2 adjacent back-to-back copies of `pattern`.

    Runs are located greedily left to right; each is reported once as
    (start_index, copy_count) and cannot be extended by another copy on
    either side.
    """
    return _runs(count_occurrences(sequence, pattern)[1], len(pattern))


def match_motif(window: str, motif: Motif) -> bool:
    """True iff `window` matches the template position by position.

    'x' stands for any action letter; it never matches the idle symbol '-'.
    """
    if len(window) != len(motif.template):
        raise ValueError(f"window length {len(window)} != template "
                         f"length {len(motif.template)}")
    for w, t in zip(window, motif.template):
        if t == WILDCARD:
            if w not in ACTIONS:
                return False
        elif w != t:
            return False
    return True


def find_motif(sequence: str, motif: Motif) -> list[int]:
    """Start indices of all sliding-window matches of the motif."""
    k = len(motif.template)
    return [i for i in range(len(sequence) - k + 1)
            if match_motif(sequence[i:i + k], motif)]


def motif_occurrence_rate(corpus, motif: Motif, lookback: int) -> float:
    """Percentage of the motif's events preceded by a motif match.

    For every annotated event carrying the motif's label, the lookback
    letters ending at the event window are scanned for a sliding match.
    The event's own window is included: the final action of a scoring
    pattern lands in the window the goal is recorded in.
    """
    if lookback < len(motif.template):
        raise ValueError("lookback shorter than the motif template")
    hits = 0
    total = 0
    for seq in corpus:
        for index, label in seq.events:
            if label != motif.label:
                continue
            total += 1
            window = seq.letters[max(0, index + 1 - lookback):index + 1]
            if find_motif(window, motif):
                hits += 1
    if total == 0:
        raise ValueError(f"corpus has no events labelled {motif.label!r}")
    return 100.0 * hits / total


def mine_report(sequences, query: PatternQuery) -> PatternReport:
    """Full report over (sequence_id, letters) pairs: occurrence counts for
    every enumerated pattern plus all tandem runs per sequence."""
    report = PatternReport()
    for sequence_id, letters in sequences:
        for pattern, starts in sorted(_occurrence_index(letters, query).items()):
            report.rows.append((pattern, len(starts), sequence_id))
            for start, copies in _runs(starts, len(pattern)):
                report.tandem_runs.append((pattern, sequence_id, start, copies))
    return report
