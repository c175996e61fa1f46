"""Codec tests built on hand-assembled match logs."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from matchdna import sequences as seqmod
from matchdna.simulator import (
    AGENT_IDS,
    AWAY,
    HOME,
    FieldConfig,
    MatchEvent,
    MatchLog,
    run_match,
)
from matchdna.sequences import (
    GameSequence,
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


def reference_game(timeline, window_cycles):
    """Game letters by the per-cycle rule: each window's strict-majority
    holder, ties broken by id."""
    letters = []
    for t in range(math.ceil(len(timeline) / window_cycles)):
        chunk = timeline[t * window_cycles:(t + 1) * window_cycles]
        counts = {}
        for holder in chunk:
            if holder is not None:
                counts[holder] = counts.get(holder, 0) + 1
        best = max(counts, key=lambda h: (counts[h], h)) if counts else None
        if best is not None and counts[best] * 2 > len(chunk):
            letters.append(best)
        else:
            letters.append("-")
    return "".join(letters)


def reference_player(events, game, player_id):
    """Player letters by the per-cycle rule: list each cycle's actions,
    then walk every cycle of every window the player holds."""
    passes = {(e.agent, e.kick_cycle) for e in events
              if e.kind == "pass_completed"}
    actions_by_cycle = {}
    for e in events:
        if e.agent != player_id:
            continue
        if e.kind == "turn":
            letter = "A"
        elif e.kind == "move":
            letter = "C"
        elif e.kind == "kick":
            letter = "T" if (player_id, e.cycle) in passes else "G"
        else:
            continue
        actions_by_cycle.setdefault(e.cycle, []).append(letter)
    w = game.window_cycles
    letters = []
    for t, game_letter in enumerate(game.letters):
        window_letters = []
        if game_letter == player_id:
            for cycle in range(t * w, (t + 1) * w):
                window_letters.extend(actions_by_cycle.get(cycle, ()))
        if not window_letters:
            letters.append("-")
            continue
        counts = {}
        for letter in window_letters:
            counts[letter] = counts.get(letter, 0) + 1
        letters.append(max(counts, key=lambda s: (counts[s],
                                                  seqmod._PRIORITY[s])))
    return "".join(letters)


def random_log(rng):
    """A log of 1-3 players a side and 1-200 cycles: possession in runs
    (loose ball included), one command per active player per cycle, some
    kicks completed as passes, and events of other kinds mixed in."""
    ids = AGENT_IDS[:2 * rng.randint(1, 3)]
    cycles = rng.randint(1, 200)
    timeline = []
    while len(timeline) < cycles:
        timeline += [rng.choice(ids + "_")] * rng.randint(1, 12)
    timeline = [None if h == "_" else h for h in timeline[:cycles]]
    events = []
    for cycle in range(cycles):
        for aid in ids:
            if rng.random() < 0.6:
                kind = rng.choice(("turn", "move", "kick", "kick"))
                events.append(MatchEvent(cycle, kind, agent=aid))
                if kind == "kick" and rng.random() < 0.4:
                    done = min(cycles - 1, cycle + rng.randint(0, 4))
                    events.append(MatchEvent(done, "pass_completed", agent=aid,
                                             agent2=rng.choice(ids),
                                             kick_cycle=cycle))
        if rng.random() < 0.1:
            events.append(MatchEvent(cycle, rng.choice(("goal", "idle"))))
        if rng.random() < 0.1:
            events.append(MatchEvent(cycle, "possession_change",
                                     agent=rng.choice(ids)))
    events.sort(key=lambda e: e.cycle)
    return synthetic_log(timeline, events, ids)


class TestPerCycleReference:
    def test_encoders_match_the_per_cycle_rule(self):
        seen = {"loose": 0, "pass": 0, "tie": 0}
        for seed in range(300):
            rng = random.Random(seed)
            log = random_log(rng)
            window_cycles = rng.randint(1, 15)
            game = encode_game(log, window_cycles, game_id=str(seed))
            timeline = seqmod.possession_timeline(log)
            assert game.letters == reference_game(timeline, window_cycles), seed
            seen["loose"] += game.letters.count("-")
            for aid, _team in log.agents:
                player = encode_player(log, game, aid)
                assert player.letters == reference_player(log.events, game,
                                                          aid), (seed, aid)
                seen["pass"] += player.letters.count("T")
                kinds = {}  # held window -> the player's command kinds
                for e in log.events:
                    window = e.cycle // window_cycles
                    if e.agent == aid and game.letters[window] == aid and \
                            e.kind in ("turn", "move", "kick"):
                        kinds.setdefault(window, []).append(e.kind)
                for window in kinds.values():
                    top = Counter(window).most_common(2)
                    seen["tie"] += len(top) == 2 and top[0][1] == top[1][1]
        # the draws reach every case the two rules could disagree on
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(12))
    def test_out_of_range_event_cycle_refused_by_name(self, seed):
        rng = random.Random(seed)
        log = random_log(rng)
        cycles = len(log.per_cycle_states)
        game = encode_game(log, rng.randint(1, 15))
        aid = rng.choice(log.agents)[0]
        bad = rng.choice((-1, -rng.randint(2, 50), cycles,
                          cycles + rng.randint(1, 50)))
        kind = rng.choice(("turn", "move", "kick", "pass_completed"))
        log.events.insert(rng.randint(0, len(log.events)),
                          MatchEvent(bad, kind, agent=aid, kick_cycle=0))
        with pytest.raises(ValueError,
                           match=re.escape(f"event cycle {bad} is outside")):
            encode_player(log, game, aid)


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
