"""Mine letter sequences for repeats and scoring motifs.

Pattern mining enumerates every substring in a length band and counts
its occurrences, overlapping ones included; tandem detection finds
back-to-back runs of the same pattern.  Motifs are short templates
('x' = any action letter) that tend to precede goals or threats.
"""

from matchdna import (
    DEFAULT_MOTIFS,
    PatternQuery,
    count_occurrences,
    find_motif,
    find_tandem_repeats,
    mine_report,
)

CORPUS = [
    ("p1", "ACGTCCTCCTCCTGGA--TCCCTAAC"),
    ("p2", "CCTCCT--CACCTGGAGGATTG"),
    ("p3", "TTGACGACGACG--CCACC"),
]


def main():
    query = PatternQuery(min_len=3, max_len=5)
    report = mine_report(CORPUS, query)

    totals = {}
    for pattern, count, _seq in report.rows:
        totals[pattern] = totals.get(pattern, 0) + count
    top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    print("most frequent patterns (3..5 letters, overlapping counts):")
    for pattern, count in top:
        print(f"  {pattern:<6} x{count}")

    print("\ntandem runs found:")
    for pattern, seq_id, start, copies in report.tandem_runs:
        print(f"  {seq_id}: {pattern} repeated {copies}x from index {start}")

    pattern = "CCT"
    count, positions = count_occurrences(CORPUS[0][1], pattern)
    print(f"\n'{pattern}' occurs {count}x in {CORPUS[0][0]} at {positions}")
    print(f"tandem check: {find_tandem_repeats(CORPUS[0][1], pattern)}")

    print("\nmotif table (confidence band = share of events preceded by it):")
    for motif in DEFAULT_MOTIFS:
        hits = [find_motif(letters, motif) for _sid, letters in CORPUS]
        n = sum(len(h) for h in hits)
        print(f"  {motif.template:<6} {motif.label:<7} band {motif.confidence_band:<4}"
              f" {n} match(es) in the demo corpus")


if __name__ == "__main__":
    main()
