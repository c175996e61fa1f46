"""Unit and property tests for the substring miner.

Tandem-repeat location is checked against an independent regex oracle
(non-overlapping, leftmost, greedy runs of >= 2 copies), and unique
enumeration against a brute-force window slide.
"""

import re
import tracemalloc

import numpy as np
import pytest

from matchdna import mining
from matchdna.mining import (
    ALPHABET,
    AnnotatedSequence,
    GOAL_MOTIFS,
    Motif,
    PatternQuery,
    count_occurrences,
    enumerate_unique,
    find_motif,
    find_tandem_repeats,
    match_motif,
    motif_occurrence_rate,
)


def oracle_unique(sequence, min_len, max_len):
    out = set()
    for k in range(min_len, max_len + 1):
        for i in range(len(sequence) - k + 1):
            out.add(sequence[i:i + k])
    return out


def oracle_tandem(sequence, pattern):
    runs = []
    for m in re.finditer(f"(?:{re.escape(pattern)}){{2,}}", sequence):
        runs.append((m.start(), (m.end() - m.start()) // len(pattern)))
    return runs


def oracle_report(sequences, min_len, max_len):
    """mine_report's rows and tandem runs: counts by slicing at every
    start, runs by the regex oracle."""
    rows, runs = [], []
    for sid, s in sequences:
        for pattern in sorted(oracle_unique(s, min_len, max_len)):
            count = sum(s[i:i + len(pattern)] == pattern for i in range(len(s)))
            rows.append((pattern, count, sid))
            runs.extend((pattern, sid, start, copies)
                        for start, copies in oracle_tandem(s, pattern))
    return rows, runs


def loop_match_motif(window, motif):
    """match_motif as a per-letter loop, the reference for the regex."""
    if len(window) != len(motif.template):
        raise ValueError("length mismatch")
    for w, t in zip(window, motif.template):
        if t == "x":
            if w not in "ACGT":
                return False
        elif w != t:
            return False
    return True


def loop_find_motif(sequence, motif):
    k = len(motif.template)
    return [i for i in range(len(sequence) - k + 1)
            if loop_match_motif(sequence[i:i + k], motif)]


def random_sequence(rng, max_len=200):
    n = int(rng.integers(1, max_len + 1))
    return "".join(rng.choice(list(ALPHABET), size=n))


class TestEnumerateUnique:
    def test_hand_examples(self):
        assert enumerate_unique("ACAC", PatternQuery(2, 2)) == {"AC", "CA"}
        assert enumerate_unique("", PatternQuery(1, 3)) == set()
        assert enumerate_unique("AAAA", PatternQuery(1, 2)) == {"A", "AA"}

    def test_min_len_beyond_sequence(self):
        assert enumerate_unique("AC", PatternQuery(5, 9)) == set()

    def test_invalid_query(self):
        with pytest.raises(ValueError):
            PatternQuery(3, 2)
        with pytest.raises(ValueError):
            PatternQuery(0, 2)

    def test_matches_oracle_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_sequence(rng, 60)
            lo = int(rng.integers(1, 5))
            hi = lo + int(rng.integers(0, 5))
            assert enumerate_unique(s, PatternQuery(lo, hi)) == oracle_unique(s, lo, hi)


class TestCountOccurrences:
    def test_hand_examples(self):
        assert count_occurrences("ACCCACCC", "ACCC") == (2, [0, 4])
        assert count_occurrences("AAAA", "AA") == (3, [0, 1, 2])
        assert count_occurrences("GT-CA", "GT-CA") == (1, [0])

    def test_pattern_longer_than_sequence(self):
        assert count_occurrences("AC", "ACGT") == (0, [])

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences("ACGT", "")

    def test_every_start_is_a_literal_match(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_sequence(rng, 80)
            k = int(rng.integers(1, 4))
            i = int(rng.integers(0, len(s))) if len(s) else 0
            pattern = s[i:i + k] or "A"
            count, starts = count_occurrences(s, pattern)
            assert count == len(starts)
            for j in starts:
                assert s[j:j + len(pattern)] == pattern


class TestTandemRepeats:
    def test_hand_examples(self):
        assert find_tandem_repeats("CACACA", "CA") == [(0, 3)]
        assert find_tandem_repeats("CAXCA", "CA") == []
        assert find_tandem_repeats("ACCCACCCACCC", "ACCC") == [(0, 3)]

    def test_self_overlapping_pattern(self):
        assert find_tandem_repeats("AAAA", "AA") == [(0, 2)]
        assert find_tandem_repeats("AAAAA", "AA") == [(0, 2)]

    def test_multiple_runs(self):
        assert find_tandem_repeats("CACAGGCACACA", "CA") == [(0, 2), (6, 3)]

    def test_matches_regex_oracle_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            # a 2-letter alphabet makes runs common enough to exercise
            s = "".join(rng.choice(["C", "A"], size=int(rng.integers(4, 60))))
            k = int(rng.integers(1, 4))
            pattern = "".join(rng.choice(["C", "A"], size=k))
            assert find_tandem_repeats(s, pattern) == oracle_tandem(s, pattern)

    def test_runs_maximal_and_disjoint(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            s = "".join(rng.choice(["C", "A", "G"], size=int(rng.integers(6, 80))))
            pattern = "".join(rng.choice(["C", "A"], size=int(rng.integers(1, 3))))
            k = len(pattern)
            prev_end = 0
            for start, copies in find_tandem_repeats(s, pattern):
                assert copies >= 2
                assert start >= prev_end
                # right extension by one copy fails
                assert not s.startswith(pattern, start + copies * k)
                # left extension fails unless it would overlap the prior run
                if start - k >= prev_end:
                    assert not s.startswith(pattern, start - k)
                prev_end = start + copies * k


class TestMatchMotif:
    def test_goal_band_members_match_wildcard_motif(self):
        xxcct = Motif("xxCCT", "goal")
        assert match_motif("TCCCT", xxcct)
        assert match_motif("CACCT", xxcct)
        assert not match_motif("AAAAA", xxcct)

    def test_wildcard_excludes_idle_by_default(self):
        m = Motif("xC", "goal")
        assert not match_motif("-C", m)
        assert match_motif("GC", m)

    def test_all_wildcards_match_anything(self):
        m = Motif("xxx", "threat")
        assert match_motif("AGT", m)
        assert match_motif("CCC", m)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            match_motif("AC", Motif("xxCCT", "goal"))

    def test_literal_idle_in_template_matches_idle(self):
        assert match_motif("A-C", Motif("A-C", "goal"))

    def test_bad_templates_rejected(self):
        with pytest.raises(ValueError):
            Motif("", "goal")
        with pytest.raises(ValueError):
            Motif("AxB", "goal")
        with pytest.raises(ValueError):
            Motif("AC", "win")


class TestMotifRate:
    def make_corpus(self, n_games, n_hits, motif_text="TCCCT"):
        corpus = []
        for g in range(n_games):
            filler = "AGAGAGAGAGAGAGA"
            if g < n_hits:
                letters = filler[:10] + motif_text
            else:
                letters = filler[:10] + "AAAAA"
            corpus.append(AnnotatedSequence(f"g{g}", letters,
                                            [(len(letters) - 1, "goal")]))
        return corpus

    def test_planted_rate(self):
        corpus = self.make_corpus(20, 15)
        rate = motif_occurrence_rate(corpus, Motif("xxCCT", "goal"), lookback=10)
        assert rate == pytest.approx(75.0)

    def test_universal_and_zero(self):
        assert motif_occurrence_rate(self.make_corpus(5, 5),
                                     Motif("xxCCT", "goal"), 10) == 100.0
        assert motif_occurrence_rate(self.make_corpus(5, 0),
                                     Motif("xxCCT", "goal"), 10) == 0.0

    def test_permutation_invariant(self):
        corpus = self.make_corpus(10, 4)
        rate = motif_occurrence_rate(corpus, Motif("xxCCT", "goal"), 10)
        assert motif_occurrence_rate(corpus[::-1], Motif("xxCCT", "goal"), 10) == rate

    def test_unannotated_corpus_is_an_error(self):
        corpus = [AnnotatedSequence("g0", "ACGT", [])]
        with pytest.raises(ValueError):
            motif_occurrence_rate(corpus, GOAL_MOTIFS[0], 10)

    def test_lookback_shorter_than_template_rejected(self):
        with pytest.raises(ValueError):
            motif_occurrence_rate(self.make_corpus(2, 2), Motif("xxCCT", "goal"), 3)

    def test_label_filtering(self):
        seq = AnnotatedSequence("g0", "AATCCCTAA",
                                [(6, "goal"), (8, "threat")])
        rate = motif_occurrence_rate([seq], Motif("TCCCT", "goal"), 7)
        assert rate == 100.0


class TestFindMotif:
    def test_sliding_matches(self):
        assert find_motif("TCCCTCCCT", Motif("TCCCT", "goal")) == [0, 4]
        assert find_motif("AAAA", Motif("TCCCT", "goal")) == []


class TestMineReport:
    def test_rows_and_runs(self):
        report = mining.mine_report([("g1", "CACACA")], PatternQuery(2, 2))
        assert ("CA", 3, "g1") in report.rows
        assert ("AC", 2, "g1") in report.rows
        assert ("CA", "g1", 0, 3) in report.tandem_runs
        for _, occurrences, _ in report.rows:
            assert occurrences >= 1

    def test_matches_brute_force_oracle_fuzz(self):
        # counts by slicing at every start, tandem runs by the regex oracle;
        # small alphabets make repeats common, and each band sees empty
        # sequences and ones shorter than min_len
        rng = np.random.default_rng(29)
        for lo, hi in [(1, 1), (1, 3), (2, 5), (3, 3), (4, 9)]:
            sequences = [("empty", ""), ("short", "ACGT"[:lo - 1])]
            for i in range(40):
                letters = list(ALPHABET[:int(rng.integers(1, 6))])
                size = int(rng.integers(0, 60))
                sequences.append((f"s{i}", "".join(rng.choice(letters, size=size))))
            rows, runs = oracle_report(sequences, lo, hi)
            report = mining.mine_report(sequences, PatternQuery(lo, hi))
            assert report.rows == rows
            assert report.tandem_runs == runs

    def test_transient_memory_under_the_report(self):
        # a mostly non-idle corpus of 400 x 100 letters: the report holds
        # about 95k rows, 7 MB, and the k-gram arrays and int64 keys are
        # freed before the rows are made, so the peak above what the
        # report keeps is a fraction of it
        rng = np.random.default_rng(41)
        sequences = [(f"p{i}", "".join(rng.choice(list(ALPHABET), size=100,
                                                   p=[0.2125] * 4 + [0.15])))
                     for i in range(400)]
        mining.mine_report(sequences, PatternQuery(2, 5))
        tracemalloc.start()
        try:
            report = mining.mine_report(sequences, PatternQuery(2, 5))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.rows) > 90_000
        assert peak - held < 0.6 * held, (held, peak)
        # column rows and chunks of at most 8,192 letters: one tuple per
        # row and whole-corpus arrays held 7.66 MB and peaked at 11.1 MB
        assert held <= 3.5e6 and peak <= 5.5e6, (held, peak)


class TestChunkedMining:
    """mine_report mines chunks of whole sequences of at most
    _CHUNK_LETTERS letters; no bound may change a row, a run or a
    refusal."""

    @staticmethod
    def report_at(monkeypatch, bound, sequences, query):
        with monkeypatch.context() as patch:
            patch.setattr(mining, "_CHUNK_LETTERS", bound)
            return mining.mine_report(sequences, query)

    def test_bounds_change_nothing_fuzz(self, monkeypatch):
        # repeated ids, empty strings, letters outside ASCII, and
        # sequences longer than the bound, each its own chunk
        rng = np.random.default_rng(53)
        letters = list(ALPHABET) + ["\u00e9", "\u4e2d"]
        corpora = [[], [("e", "")], [("e", ""), ("f", ""), ("g", "CA")]]
        for _ in range(40):
            pool = list(rng.choice(letters, size=int(rng.integers(1, 5)),
                                   replace=False))
            corpora.append([
                (f"s{int(rng.integers(0, 4))}",
                 "".join(rng.choice(pool, size=int(rng.integers(0, 90)))))
                for _ in range(int(rng.integers(1, 12)))])
        for sequences in corpora:
            lo = int(rng.integers(1, 4))
            hi = lo + int(rng.integers(0, 3))
            query = PatternQuery(lo, hi)
            whole = self.report_at(monkeypatch, 10 ** 9, sequences, query)
            rows, runs = oracle_report(sequences, lo, hi)
            assert whole.rows == rows and whole.tandem_runs == runs
            for bound in (1, 7, 64):
                report = self.report_at(monkeypatch, bound, sequences, query)
                assert report.rows == rows, bound
                assert report.tandem_runs == runs, bound

    def test_chunks_hold_whole_sequences(self, monkeypatch):
        monkeypatch.setattr(mining, "_CHUNK_LETTERS", 7)
        pairs = [("a", "ACG"), ("b", ""), ("c", "TTTT"), ("d", "A" * 9),
                 ("e", "C"), ("f", "GG")]
        assert [[sid for sid, _ in chunk] for chunk in mining._chunks(pairs)] == \
            [["a", "b", "c"], ["d"], ["e", "f"]]

    def test_patterns_shared_across_chunks(self, monkeypatch):
        report = self.report_at(monkeypatch, 1, [("a", "CAC"), ("b", "CAT")],
                                PatternQuery(2, 2))
        assert list(report.rows) == [("AC", 1, "a"), ("CA", 1, "a"),
                                     ("AT", 1, "b"), ("CA", 1, "b")]
        assert report.rows[1][0] is report.rows[3][0]

    def test_refusal_counts_the_whole_corpus(self, monkeypatch):
        # one string fits 6 ** 24 under 2**63 - 1, two do not, so each
        # one-string chunk would fit where the corpus does not
        sequences = [("a", "ACGT-"), ("b", "ACGT-")]
        refusals = []
        for bound in (mining._CHUNK_LETTERS, 1):
            with pytest.raises(ValueError, match=r"2\*\*63 - 1") as refused:
                self.report_at(monkeypatch, bound, sequences, PatternQuery(2, 24))
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert "2 strings * 6 ** 24" in refusals[0]


class TestPatternRows:
    """PatternReport.rows is a read-only sequence over three columns."""

    SEQUENCES = [("g1", "CACACA"), ("g2", "ACG")]
    ROWS = [("AC", 2, "g1"), ("CA", 3, "g1"), ("AC", 1, "g2"), ("CG", 1, "g2")]

    def rows(self):
        return mining.mine_report(self.SEQUENCES, PatternQuery(2, 2)).rows

    def test_sequence_protocol(self):
        rows = self.rows()
        assert len(rows) == 4
        assert rows[0] == ("AC", 2, "g1") and rows[-1] == ("CG", 1, "g2")
        assert rows[-4] == rows[0]
        with pytest.raises(IndexError):
            rows[4]
        assert rows[1:3] == self.ROWS[1:3] and rows[::-1] == self.ROWS[::-1]
        assert rows[5:] == []
        assert ("CA", 3, "g1") in rows and ("CA", 3, "g2") not in rows
        assert list(reversed(rows)) == self.ROWS[::-1]
        assert rows.index(("AC", 1, "g2")) == 2 and rows.count(rows[0]) == 1

    def test_equality_both_ways(self):
        rows = self.rows()
        assert rows == self.ROWS and self.ROWS == rows
        assert rows == self.rows() and not rows != self.ROWS
        assert rows != self.ROWS[:-1] and self.ROWS[1:] != rows
        assert rows != [("AC", 2, "g1")] * 4
        assert rows != tuple(self.ROWS)
        assert mining.PatternReport().rows == []

    def test_iterates_the_same_each_time(self):
        rows = self.rows()
        first = list(rows)
        assert first == list(rows) == self.ROWS
        assert all(type(count) is int for _, count, _ in rows)

    def test_read_only(self):
        rows = self.rows()
        assert not hasattr(rows, "append")
        with pytest.raises(TypeError):
            rows[0] = ("AC", 9, "g1")


class TestPlantedMining:
    """Cases a whole-corpus k-gram kernel can get wrong, against the
    slice and regex oracles."""

    def assert_oracle(self, sequences, min_len, max_len):
        report = mining.mine_report(sequences, PatternQuery(min_len, max_len))
        rows, runs = oracle_report(sequences, min_len, max_len)
        assert report.rows == rows
        assert report.tandem_runs == runs
        return report

    def test_no_run_spans_two_sequences(self):
        # laid end to end, "a" ends with CA and "b" begins with it, and so
        # do "c" and "d": CACA twice across the joins
        sequences = [("a", "GGTCA"), ("b", "CAGT"), ("c", "TCACA"), ("d", "CA")]
        report = self.assert_oracle(sequences, 2, 4)
        assert report.tandem_runs == [("CA", "c", 1, 2)]
        for sid, letters in sequences:
            assert find_tandem_repeats(letters, "CA") == \
                oracle_tandem(letters, "CA"), sid

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_idle_runs(self, k):
        idle = "-" * 37
        self.assert_oracle([("before", "AC" + idle), ("idle", idle),
                            ("after", idle + "GT")], k, k)
        assert find_tandem_repeats(idle, "-" * k) == [(0, 37 // k)]
        assert count_occurrences(idle, "-" * k) == (38 - k, list(range(38 - k)))

    @pytest.mark.parametrize("sequence, pattern", [
        ("ACACACACACA", "ACACA"),
        ("ACACAACACAACACA", "ACACA"),
        ("GACACAACACAG", "ACACA"),
        ("A" * 11, "AAAA"),
        ("AAAAAAAAC" + "A" * 8, "AAAA"),
    ])
    def test_self_overlapping_patterns(self, sequence, pattern):
        assert find_tandem_repeats(sequence, pattern) == \
            oracle_tandem(sequence, pattern)
        starts = [i for i in range(len(sequence))
                  if sequence.startswith(pattern, i)]
        assert count_occurrences(sequence, pattern) == (len(starts), starts)
        self.assert_oracle([("s", sequence)], len(pattern) - 1, len(pattern))

    def test_sequence_shorter_than_min_len_between_longer_ones(self):
        self.assert_oracle([("long1", "CACACAGT"), ("short", "CA"),
                            ("long2", "CACAGTGT")], 3, 4)

    def test_rows_follow_python_string_order_fuzz(self):
        # letters out of code-point order when listed, two outside ASCII:
        # the kernel ranks a corpus's own letters by code point
        rng = np.random.default_rng(37)
        letters = ["a", "-", "Z", "\u00e9", "A", "\u4e2d"]
        for _ in range(30):
            pool = list(rng.choice(letters, size=int(rng.integers(1, 4)),
                                   replace=False))
            sequences = [(f"s{i}", "".join(rng.choice(pool, size=int(rng.integers(0, 30)))))
                         for i in range(4)]
            lo = int(rng.integers(1, 4))
            self.assert_oracle(sequences, lo, lo + int(rng.integers(0, 3)))

    def test_query_too_wide_for_int64_keys_refused(self):
        # five distinct letters plus padding: 6 ** 24 fits in an int64 key,
        # 6 ** 25 does not
        self.assert_oracle([("a", "ACGT-")], 2, 24)
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            mining.mine_report([("a", "ACGT-")], PatternQuery(2, 25))
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            count_occurrences("ACGT-", "A" * 30)


class TestMotifAgainstLoop:
    def test_seeded_fuzz(self):
        # few letters, so that five-letter templates match often
        rng = np.random.default_rng(41)
        hits = 0
        for _ in range(400):
            letters = list(rng.choice(list(ALPHABET), size=int(rng.integers(1, 4)),
                                      replace=False))
            template = "".join(rng.choice(letters + ["x"],
                                          size=int(rng.integers(1, 6))))
            motif = Motif(template, "goal")
            sequence = "".join(rng.choice(letters, size=int(rng.integers(0, 40))))
            starts = find_motif(sequence, motif)
            assert starts == loop_find_motif(sequence, motif), (sequence, template)
            for i in range(len(sequence) - len(template) + 1):
                window = sequence[i:i + len(template)]
                assert match_motif(window, motif) == \
                    loop_match_motif(window, motif), (window, template)
            hits += len(starts)
            events = [(int(t), "goal") for t in
                      rng.integers(0, len(sequence), size=3)] if sequence else []
            corpus = [AnnotatedSequence("g", sequence, events),
                      AnnotatedSequence("h", "ACGT", [(3, "goal")])]
            lookback = len(template) + int(rng.integers(0, 5))
            matched = sum(bool(loop_find_motif(
                seq.letters[max(0, i + 1 - lookback):i + 1], motif))
                for seq in corpus for i, _label in seq.events)
            assert motif_occurrence_rate(corpus, motif, lookback) == \
                100.0 * matched / (len(events) + 1)
        assert hits > 500
