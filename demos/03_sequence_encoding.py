"""Compress a match log into DNA-style letter strings.

The game sequence has one letter per 10-cycle window: the agent that
held the ball for a strict majority of the window, '-' while the ball
was loose or in flight.  Each player sequence maps the same windows to
the player's dominant action: A turn, C move, G kick, T pass.
"""

from matchdna import (
    AWAY,
    HOME,
    FieldConfig,
    encode_game,
    encode_player,
    run_match,
)
from matchdna.sequences import SYMBOL_ACTIONS, sequences_to_fasta
from matchdna.shooting import ShootingPolicy


def main():
    config = FieldConfig(cycle_count=1000, rng_seed=13, players_per_team=2)
    log = run_match(ShootingPolicy(team=HOME), ShootingPolicy(team=AWAY),
                    config)
    print(f"score {log.score}, {len(log.per_cycle_states)} cycles")

    game = encode_game(log, window_cycles=10, game_id="demo")
    print(f"\ngame sequence  ({len(game)} windows):\n  {game.letters}")

    players = [encode_player(log, game, pid) for pid, _team in log.agents]
    for seq in players:
        print(f"player {seq.player_id}:\n  {seq.letters}")

    print("\nletter meanings:")
    for symbol, action in SYMBOL_ACTIONS.items():
        print(f"  {symbol}  {action}")

    print("\nFASTA form:")
    print(sequences_to_fasta([game] + players))


if __name__ == "__main__":
    main()
