"""Codec tests built on hand-assembled match logs."""

import numpy as np
import pytest

from matchdna import sequences as seqmod
from matchdna.simulator import (
    AWAY,
    HOME,
    FieldConfig,
    MatchEvent,
    MatchLog,
    run_match,
)
from matchdna.sequences import (
    GameSequence,
    decode_symbol,
    encode_game,
    encode_player,
    parse_fasta,
    sequences_to_fasta,
)
from matchdna.shooting import ShootingPolicy
from test_simulator import Barrage


def synthetic_log(timeline, events=(), ids=("a", "b")):
    """Build a log whose per-cycle possession follows `timeline` exactly:
    the holder sits on the ball, everyone else is far away."""
    cfg = FieldConfig(cycle_count=max(1, len(timeline)), rng_seed=0)
    ids = sorted(ids)
    rows = []
    for holder in timeline:
        row = []
        for i, aid in enumerate(ids):
            x, y = (0.0, 0.0) if aid == holder else (10.0 + 5.0 * i, 10.0)
            row += [x, y, 0.0, 0.0]
        rows.append(row + [0.0, 0.0, 0.0, 0.0])  # the ball rests on the spot
    return MatchLog(config=cfg, agents=[(aid, "home") for aid in ids],
                    events=list(events),
                    per_cycle_states=np.array(rows).reshape(-1, 4 * len(ids) + 4))


class TestEncodeGame:
    def test_uniform_possession(self):
        log = synthetic_log(["a"] * 60)
        game = encode_game(log, window_cycles=1)
        assert game.letters == "a" * 60

    def test_hand_timeline_majority(self):
        log = synthetic_log(["a", "b", "b", None, "a"])
        game = encode_game(log, window_cycles=1)
        assert game.letters == "abb-a"

    def test_strict_majority_required(self):
        # window of 4: a holds 2 of 4 cycles, not a strict majority
        log = synthetic_log(["a", "a", None, None, "b", "b", "b", None])
        game = encode_game(log, window_cycles=4)
        assert game.letters == "-b"

    def test_partial_last_window(self):
        log = synthetic_log(["a"] * 5)
        game = encode_game(log, window_cycles=2)
        assert game.letters == "aaa"  # ceil(5/2) windows

    def test_empty_log_rejected(self):
        log = MatchLog(config=FieldConfig(cycle_count=1, rng_seed=0))
        with pytest.raises(ValueError):
            encode_game(log, 1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            encode_game(synthetic_log(["a"]), 0)

    @pytest.mark.parametrize("order", [("a", "b", "c"), ("c", "b", "a"),
                                       ("b", "c", "a")])
    def test_equidistant_holders_tie_by_id(self, order):
        # b and c sit 0.5 from the ball, a is out of range; the lower id
        # holds whatever order the log lists the agents in
        place = {"a": (5.0, 0.0), "b": (0.5, 0.0), "c": (-0.5, 0.0)}
        row = [v for aid in order for v in (*place[aid], 0.0, 0.0)]
        log = MatchLog(config=FieldConfig(cycle_count=1, rng_seed=0),
                       agents=[(aid, "home") for aid in order],
                       per_cycle_states=np.array([row + [0.0] * 4]))
        assert seqmod.possession_timeline(log) == ["b"]


class TestEncodePlayer:
    def test_hand_built_accg(self):
        events = [MatchEvent(0, "turn", agent="a"),
                  MatchEvent(1, "move", agent="a"),
                  MatchEvent(2, "move", agent="a"),
                  MatchEvent(3, "kick", agent="a", effective=True)]
        log = synthetic_log(["a"] * 4, events)
        game = encode_game(log, 1)
        player = encode_player(log, game, "a")
        assert player.letters == "ACCG"

    def test_pass_relabels_kick(self):
        events = [MatchEvent(0, "kick", agent="a", effective=True),
                  MatchEvent(2, "pass_completed", agent="a", agent2="b",
                             kick_cycle=0)]
        log = synthetic_log(["a", None, "b"], events)
        game = encode_game(log, 1)
        player = encode_player(log, game, "a")
        assert player.letters[0] == "T"

    def test_other_players_windows_idle(self):
        events = [MatchEvent(0, "turn", agent="a"),
                  MatchEvent(1, "turn", agent="b")]
        log = synthetic_log(["a", "b"], events)
        game = encode_game(log, 1)
        assert encode_player(log, game, "a").letters == "A-"
        assert encode_player(log, game, "b").letters == "-A"

    def test_possessing_but_inactive_window_is_idle(self):
        log = synthetic_log(["a", "a"], [MatchEvent(0, "turn", agent="a")])
        game = encode_game(log, 1)
        assert encode_player(log, game, "a").letters == "A-"

    def test_tie_priority_kick_beats_move(self):
        events = [MatchEvent(0, "move", agent="a"),
                  MatchEvent(1, "kick", agent="a", effective=False)]
        log = synthetic_log(["a", "a"], events)
        game = encode_game(log, 2)
        assert encode_player(log, game, "a").letters == "G"

    def test_majority_beats_priority(self):
        events = [MatchEvent(0, "move", agent="a"),
                  MatchEvent(1, "move", agent="a"),
                  MatchEvent(2, "kick", agent="a", effective=True)]
        log = synthetic_log(["a", "a", "a"], events)
        game = encode_game(log, 3)
        assert encode_player(log, game, "a").letters == "C"

    def test_unknown_player_rejected(self):
        log = synthetic_log(["a"])
        with pytest.raises(ValueError):
            encode_player(log, encode_game(log, 1), "z")


class TestInvariants:
    def test_lengths_match_and_alphabet_closed(self):
        cfg = FieldConfig(cycle_count=120, rng_seed=21)
        log = run_match(Barrage(31), Barrage(32), cfg)
        game = encode_game(log, 15)
        assert len(game.letters) == 8
        ids = sorted(aid for aid, _team in log.agents)
        for aid in ids:
            player = encode_player(log, game, aid)
            assert len(player) == len(game)
            assert set(player.letters) <= set("ACGT-")
            for t, letter in enumerate(player.letters):
                if game.letters[t] != aid:
                    assert letter == "-"

    @pytest.mark.parametrize("players", [1, 2, 3])
    def test_possession_changes_name_the_timeline_holder(self, players):
        # the world's possession events and the timeline encode reads
        # from the logged rows share one holder rule
        changes = 0
        for seed in range(4):
            cfg = FieldConfig(cycle_count=300, rng_seed=seed,
                              players_per_team=players)
            log = run_match(ShootingPolicy(HOME), ShootingPolicy(AWAY), cfg)
            timeline = seqmod.possession_timeline(log)
            for e in log.events:
                if e.kind == "possession_change":
                    changes += 1
                    assert timeline[e.cycle] == e.agent, (seed, e.cycle)
        assert changes

    def test_deterministic(self):
        cfg = FieldConfig(cycle_count=60, rng_seed=5)
        log = run_match(Barrage(7), Barrage(8), cfg)
        assert encode_game(log, 10) == encode_game(log, 10)


class TestDecode:
    def test_symbol_round_trip(self):
        assert decode_symbol("G") == "kick-toward-goal"
        assert decode_symbol("-") == "idle"
        assert decode_symbol("T") == "pass-toward-teammate"

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            decode_symbol("Z")


class TestFasta:
    def test_round_trip(self):
        game = GameSequence("7", "ab-ba", 10)
        player = seqmod.PlayerSequence("a", "7", "AC-G-")
        text = sequences_to_fasta([game, player])
        assert text.startswith("# schema_version=1\n")
        entries = parse_fasta(text)
        assert entries == [("game:7 window=10", "ab-ba"),
                           ("player:a@game:7", "AC-G-")]

    def test_multi_line_bodies_concatenate(self):
        entries = parse_fasta("# schema_version=1\n>player:a@game:0\nACG\nT-\n")
        assert entries == [("player:a@game:0", "ACGT-")]

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta("ACGT\n")

    def test_foreign_schema_header_rejected(self):
        with pytest.raises(ValueError, match="schema_version=2"):
            parse_fasta("# schema_version=2\n>player:a@game:0\nACG\n")
        with pytest.raises(ValueError, match="unsupported FASTA schema header"):
            parse_fasta("# a comment\n>player:a@game:0\nACG\n")

    def test_read_fasta_names_file(self, tmp_path):
        path = tmp_path / "m.fasta"
        path.write_text("# schema_version=9\n>game:0 window=10\nab\n")
        with pytest.raises(ValueError, match="m.fasta: unsupported"):
            seqmod.read_fasta(path)
