"""Run one seeded 2v2 match and poke at the log.

Both teams play the same goal-seeking policy (close on the ball, turn
toward the opponent goal, shoot).  Matches are deterministic per seed:
the same config replays to a byte-identical log.
"""

from collections import Counter

from matchdna import AWAY, HOME, FieldConfig, run_match
from matchdna.shooting import ShootingPolicy


def play(seed: int):
    config = FieldConfig(cycle_count=600, rng_seed=seed, players_per_team=2)
    return run_match(ShootingPolicy(team=HOME), ShootingPolicy(team=AWAY),
                     config)


def main():
    log = play(seed=42)
    print(f"final score home {log.score[0]} : {log.score[1]} away "
          f"({log.outcome})")

    kinds = Counter(e.kind for e in log.events)
    print("event counts:", dict(sorted(kinds.items())))

    goals = [e for e in log.events if e.kind == "goal"]
    for e in goals[:5]:
        print(f"  cycle {e.cycle:4d}: goal for {e.team}")

    replay = play(seed=42)
    same = [(a.kind, a.cycle, a.agent) for a in log.events] == \
           [(b.kind, b.cycle, b.agent) for b in replay.events]
    print(f"replay with the same seed identical: {same}")

    other = play(seed=43)
    print(f"different seed, different score: {other.score} vs {log.score}")


if __name__ == "__main__":
    main()
