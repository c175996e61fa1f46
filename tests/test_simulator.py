"""Simulator unit tests.

The goal-detection scenario is hand-computed: with the default field the
right goal line sits at x = 52.5 and the mouth spans |y| <= 7, so a ball
at (51.5, 0) moving (2, 0) crosses at (52.5, 0) half way through the
cycle.
"""

import hashlib
import json
import math
from dataclasses import asdict
from decimal import Decimal

import numpy as np
import pytest

from matchdna import simulator as sim
from matchdna.simulator import (
    Command,
    FieldConfig,
    MatchEvent,
    MatchLog,
    World,
    dash,
    kick,
    load_match_log,
    log_to_jsonl,
    normalize_heading,
    run_match,
    turn,
)
from matchdna.shooting import ShootingPolicy


def small_config(**kw):
    defaults = dict(cycle_count=50, rng_seed=42)
    defaults.update(kw)
    return FieldConfig(**defaults)


class Barrage:
    """Test policy that sprays several random commands every cycle."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def act(self, agent_id, perceptions, cycle):
        cmds = []
        for _ in range(int(self.rng.integers(0, 4))):
            k = int(self.rng.integers(0, 4))
            if k == 0:
                cmds.append(turn(float(self.rng.uniform(-400, 400))))
            elif k == 1:
                cmds.append(dash(float(self.rng.uniform(-100, 200))))
            elif k == 2:
                cmds.append(kick(float(self.rng.uniform(-50, 200)),
                                 float(self.rng.uniform(-400, 400))))
            else:
                cmds.append(sim.catch())
        return cmds


class TestCommands:
    def test_heading_normalization(self):
        assert normalize_heading(180) == -180
        assert normalize_heading(-180) == -180
        assert normalize_heading(540) == -180
        assert normalize_heading(90) == 90
        assert -180 <= normalize_heading(123456.7) < 180


class TestSubmission:
    def test_unknown_agent(self):
        w = World(small_config())
        with pytest.raises(ValueError):
            w.submit_command("z", turn(10), 0)

    def test_stale_cycle_rejected(self):
        w = World(small_config())
        ack = w.submit_command("a", turn(10), 5)
        assert not ack.accepted and ack.note == "stale"

    def test_clamp_noted(self):
        w = World(small_config())
        ack = w.submit_command("a", dash(1000), 0)
        assert ack.accepted and ack.note == "clamped" and ack.command.x == 100

    @pytest.mark.parametrize("command", [
        turn(-180), turn(180), dash(-30), dash(100), kick(0, -180),
        kick(100, 180), sim.catch()])
    def test_in_range_taken_as_sent(self, command):
        w = World(small_config())
        ack = w.submit_command("a", command, 0)
        assert ack.accepted and ack.note == ""
        assert (ack.command.kind, ack.command.x, ack.command.y) == \
               (command.kind, command.x, command.y)

    @pytest.mark.parametrize("command, x, y", [
        (turn(-181), -180, 0), (turn(270), 180, 0),
        (dash(-45), -30, 0), (dash(1000), 100, 0),
        (kick(-1, 0), 0, 0), (kick(130, -500), 100, -180),
        (kick(50, 200), 50, 180)])  # only the angle is out of range
    def test_out_of_range_clamped(self, command, x, y):
        w = World(small_config())
        ack = w.submit_command("a", command, 0)
        assert ack.accepted and ack.note == "clamped"
        assert (ack.command.kind, ack.command.x, ack.command.y) == \
               (command.kind, x, y)

    def test_issued_cycle_stamped(self):
        w = World(small_config())
        w.step()
        w.step()
        ack = w.submit_command("a", dash(1000), 2)
        assert ack.command.issued_cycle == 2
        ack = w.submit_command("a", kick(10, 5, cycle=7), 2)
        assert ack.command.issued_cycle == 2

    def test_unknown_kind_named(self):
        w = World(small_config())
        with pytest.raises(ValueError, match="unknown command kind 'say'"):
            w.submit_command("a", Command("say"), 0)

    @pytest.mark.parametrize("command, value", [
        (Command("turn", Decimal("10")), "Decimal('10')"),
        (Command("dash", "50"), "'50'"),
        (Command("dash", True), "True"),
        (Command("kick", 10.0, None), "None"),
        (Command("catch", 0.0, Decimal("1")), "Decimal('1')")])
    def test_non_number_argument_refused_naming_agent_and_kind(self, command,
                                                               value):
        # a Decimal would pass the clamp's comparisons and fail the next
        # step with a bare TypeError; a bool is no number, as in the log
        w = World(small_config())
        with pytest.raises(ValueError) as err:
            w.submit_command("a", command, 0)
        assert str(err.value) == (f"agent 'a' sent {command.kind} with "
                                  f"argument {value}, not an int or float")
        assert w.step() == [MatchEvent(0, "idle")]  # nothing was queued

    def test_int_arguments_taken(self):
        sent = Command("kick", 50, -20)
        ack = World(small_config()).submit_command("a", sent, 0)
        assert ack.accepted and ack.note == ""
        assert (ack.command.x, ack.command.y) == (50, -20)


INF, NAN = float("inf"), float("nan")

# (kind, clamped slot, (lo, hi)) for every argument a command range bounds
CLAMPED_SLOTS = [("turn", "x", sim.TURN_RANGE), ("dash", "x", sim.DASH_RANGE),
                 ("kick", "x", sim.KICK_POWER_RANGE),
                 ("kick", "y", sim.KICK_ANGLE_RANGE)]


def slot_edges(lo, hi):
    """Non-finite values, both zeros, each bound and the floats just past
    and just inside it."""
    return [NAN, INF, -INF, -0.0, 0.0, lo, hi,
            math.nextafter(lo, -INF), math.nextafter(lo, INF),
            math.nextafter(hi, INF), math.nextafter(hi, -INF)]


class TestClampingEdges:
    """Clamping is max(lo, min(hi, value)) bit for bit: a NaN argument
    takes the upper bound, an infinity the nearer bound, and -0.0 the
    lower bound where that is 0.0.  The note compares the taken pair with
    the sent one as a tuple, so a NaN taken as sent reads as unchanged."""

    @pytest.mark.parametrize("kind, slot, bounds", CLAMPED_SLOTS)
    def test_taken_value_is_max_of_min(self, kind, slot, bounds):
        lo, hi = bounds
        for value in slot_edges(lo, hi):
            sent = Command(kind, **{slot: value})
            ack = World(small_config()).submit_command("a", sent, 0)
            wanted = max(lo, min(hi, value))
            assert ack.accepted and ack.command.kind == kind
            # repr tells -0.0 from 0.0 and shows a NaN
            assert repr(getattr(ack.command, slot)) == repr(wanted), value
            other = "y" if slot == "x" else "x"
            assert repr(getattr(ack.command, other)) == "0.0"
            note = "" if (wanted == value or wanted is value) else "clamped"
            assert ack.note == note, value

    @pytest.mark.parametrize("value, taken, note", [
        (NAN, 100.0, "clamped"), (INF, 100.0, "clamped"),
        (-INF, -30.0, "clamped"), (-0.0, -0.0, ""), (100.0, 100.0, ""),
        (math.nextafter(100.0, INF), 100.0, "clamped"),
        (math.nextafter(-30.0, -INF), -30.0, "clamped")])
    def test_dash_edges_by_value(self, value, taken, note):
        ack = World(small_config()).submit_command("a", dash(value), 0)
        assert (repr(ack.command.x), ack.note) == (repr(taken), note)

    @pytest.mark.parametrize("value, taken, note", [
        (NAN, 100.0, "clamped"), (-INF, 0.0, "clamped"), (-0.0, 0.0, "")])
    def test_kick_power_edges_by_value(self, value, taken, note):
        ack = World(small_config()).submit_command("a", kick(value, 0), 0)
        assert (repr(ack.command.x), ack.note) == (repr(taken), note)

    @pytest.mark.parametrize("command", [
        Command("turn", 10.0, NAN), Command("dash", 10.0, NAN),
        Command("catch", NAN, -INF), Command("catch", INF, -0.0)])
    def test_unbounded_slots_taken_as_sent(self, command):
        ack = World(small_config()).submit_command("a", command, 0)
        assert (repr(ack.command.x), repr(ack.command.y), ack.note) == \
            (repr(command.x), repr(command.y), "")

    def test_match_of_edge_commands_logs_finite_values(self, tmp_path):
        edges = [v for _kind, _slot, (lo, hi) in CLAMPED_SLOTS
                 for v in slot_edges(lo, hi)]

        class Edges:
            """Every edge value in every clamped slot, three commands a
            cycle, so the seeded pick executes each kind."""

            def act(self, agent_id, perceptions, cycle):
                v = edges[cycle % len(edges)]
                w = edges[(cycle * 7 + 3) % len(edges)]
                return [turn(v), dash(w), kick(w, v)]

        cfg = FieldConfig(cycle_count=400, rng_seed=5, players_per_team=1)
        log = run_match(Edges(), Edges(), cfg,
                        positions={"a": (0, 0, 0), "b": (1.0, 0, 180)},
                        ball=(0.5, 0.0))
        assert log.valid
        kinds = {e.kind for e in log.events}
        assert {"turn", "move", "kick"} <= kinds
        assert any(e.kind == "kick" and e.effective for e in log.events)
        path = tmp_path / "edges.jsonl"
        sim.save_match_log(log, path)
        values = load_match_log(path).per_cycle_states
        assert values.shape == (400, 12)
        assert np.isfinite(values).all()


class TestStep:
    def test_turn_adds_and_normalizes(self):
        w = World(small_config())
        w.submit_command("a", turn(90), 0)
        w.step()
        assert w.agents["a"].heading == 90
        w.submit_command("a", turn(135), 1)
        w.step()
        assert w.agents["a"].heading == -135

    def test_single_movement_per_agent_per_cycle(self):
        w = World(small_config())
        for _ in range(5):
            w.submit_command("a", turn(10), 0)
            w.submit_command("a", dash(50), 0)
        events = w.step()
        moves = [e for e in events if e.agent == "a" and e.kind in ("turn", "move")]
        assert len(moves) == 1

    def test_dash_moves_along_heading(self):
        w = World(small_config(), positions={"a": (0, 0, 0)})
        w.submit_command("a", dash(100), 0)
        w.step()
        a = w.agents["a"]
        assert a.x == pytest.approx(1.0)
        assert a.y == pytest.approx(0.0)
        # speed decays, so the glide shortens next cycle
        w.step()
        assert a.x == pytest.approx(1.4)

    def test_kick_within_range_impulses_ball(self):
        w = World(small_config(), positions={"a": (0, 0, 0)}, ball=(0.5, 0))
        w.submit_command("a", kick(100, 0), 0)
        events = w.step()
        kicks = [e for e in events if e.kind == "kick"]
        assert kicks and kicks[0].effective
        assert w.ball.x == pytest.approx(5.5)
        assert w.ball.vx == pytest.approx(5.0 * 0.94)

    def test_kick_out_of_range_ineffective(self):
        w = World(small_config(), positions={"a": (0, 0, 0)}, ball=(3.0, 0))
        w.submit_command("a", kick(100, 0), 0)
        events = w.step()
        kicks = [e for e in events if e.kind == "kick"]
        assert kicks and kicks[0].effective is False
        assert w.ball.x == pytest.approx(3.0)

    @pytest.mark.parametrize("start", [
        {"ball": (math.nan, 0.0)},
        {"ball": (0.0, 0.0, math.inf, 0.0)},
        {"positions": {"a": (0.0, -math.inf)}},
        {"positions": {"b": (0.0, 0.0, math.nan)}}])
    def test_non_finite_start_refused(self, start):
        # the log writes floats with '%.6f', which gives nan or inf as
        # text JSON cannot read back; commands are clamped into range, so
        # a non-finite value can only enter with the start state
        with pytest.raises(ValueError, match="must be finite"):
            World(small_config(), **start)

    def test_idle_event_when_nothing_executes(self):
        w = World(small_config())
        events = w.step()
        assert [e.kind for e in events if e.kind == "idle"] == ["idle"]

    def test_goal_crossing_and_reset(self):
        w = World(small_config(), ball=(51.5, 0.0))
        w.ball.vx = 2.0
        events = w.step()
        goals = [e for e in events if e.kind == "goal"]
        assert goals and goals[0].team == "home"
        assert (w.ball.x, w.ball.y) == (52.5, 0.0)
        assert w.score["home"] == 1
        w.step()
        assert (w.ball.x, w.ball.y) == (0.0, 0.0)

    def test_wide_shot_is_not_a_goal(self):
        w = World(small_config(), ball=(51.5, 10.0))
        w.ball.vx = 2.0
        events = w.step()
        assert not [e for e in events if e.kind == "goal"]
        assert w.ball.x == 52.5  # clamped at the line

    def test_away_goal_on_left_line(self):
        w = World(small_config(), ball=(-51.5, 2.0))
        w.ball.vx = -3.0
        events = w.step()
        goals = [e for e in events if e.kind == "goal"]
        assert goals and goals[0].team == "away"

    def test_possession_and_pass(self):
        w = World(small_config(players_per_team=2),
                  positions={"a": (0, 0, 0), "b": (6.5, 0, 0),
                             "c": (20, 20, 0), "d": (25, 20, 0)},
                  ball=(0.5, 0.0))
        w.submit_command("a", kick(20, 0), 0)
        all_events = [w.step()]
        for cycle in range(1, 12):
            all_events.append(w.step())
        flat = [e for evs in all_events for e in evs]
        passes = [e for e in flat if e.kind == "pass_completed"]
        assert passes and (passes[0].agent, passes[0].agent2) == ("a", "b")
        assert passes[0].kick_cycle == 0
        changes = [e for e in flat if e.kind == "possession_change"]
        assert changes[-1].agent == "b"

    def test_kick_to_opponent_is_not_a_pass(self):
        w = World(small_config(players_per_team=1),
                  positions={"a": (0, 0, 0), "b": (6.5, 0, 0)},
                  ball=(0.5, 0.0))
        w.submit_command("a", kick(20, 0), 0)
        flat = []
        for _ in range(12):
            flat.extend(w.step())
        assert not [e for e in flat if e.kind == "pass_completed"]
        assert [e for e in flat if e.kind == "possession_change"]


class TestPerceptions:
    def test_jitter_long_run_mean(self):
        w = World(small_config(cycle_count=1000))
        totals = {aid: 0 for aid in w.agents}
        for _ in range(1000):
            for aid, snaps in w.deliver_perceptions().items():
                totals[aid] += len(snaps)
            w.step()
        for total in totals.values():
            assert 900 <= total <= 1100

    def test_snapshot_contents(self):
        w = World(small_config(), ball=(1.0, 2.0))
        agents, ball = w.snap
        assert (ball.x, ball.y) == (1.0, 2.0)
        assert [a.id for a in agents] == sorted(w.agents)
        assert all(s is w.snap for snaps in w.deliver_perceptions().values()
                   for s in snaps)


class TestPerceptionStream:
    """The block draw against one scalar draw per agent per call from the
    perception stream; cycle_count 7 and 20 calls refill the block twice."""

    @pytest.mark.parametrize("players", [1, 2])
    def test_counts_equal_per_agent_scalar_draws(self, players):
        for seed in range(50):
            w = World(FieldConfig(cycle_count=7, rng_seed=seed,
                                  players_per_team=players))
            ref = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
            for call in range(20):
                got = w.deliver_perceptions()
                assert list(got) == sorted(w.agents)
                for aid, snaps in got.items():
                    k = int(ref.choice(3, p=[0.1, 0.8, 0.1]))
                    assert len(snaps) == k, (seed, call, aid)
                    assert all(s is w.snap for s in snaps)


def state_values(snapshot):
    """A snapshot's roster and its values in the log's row layout."""
    agents, ball = snapshot
    return ([(a.id, a.team) for a in agents],
            [v for a in agents for v in (a.x, a.y, a.heading, a.speed)] +
            [ball.x, ball.y, ball.vx, ball.vy])


class TestPerceptionTiming:
    def test_agents_see_the_state_logged_for_the_previous_cycle(self):
        cfg = FieldConfig(cycle_count=300, rng_seed=7, players_per_team=2)
        seen = []  # (cycle, values) per delivered snapshot, read on delivery

        class Recorder(ShootingPolicy):
            def act(self, agent_id, perceptions, cycle):
                seen.extend((cycle, state_values(p)) for p in perceptions)
                return super().act(agent_id, perceptions, cycle)

        log = run_match(Recorder(sim.HOME), Recorder(sim.AWAY), cfg)
        goals = [e.cycle for e in log.events if e.kind == "goal"]
        assert goals
        initial = state_values(World(cfg).snapshot())
        for cycle, values in seen:
            wanted = initial if cycle == 0 else \
                (log.agents, log.per_cycle_states[cycle - 1].tolist())
            assert values == wanted, cycle
        perceived = {cycle for cycle, _values in seen}
        assert 0 in perceived
        assert all(goal + 1 in perceived for goal in goals)


class TestRunMatch:
    def test_null_policies_draw(self):
        log = run_match(None, None, small_config(cycle_count=20))
        assert log.outcome == "draw" and log.score == (0, 0)
        assert all(e.kind == "idle" for e in log.events)
        assert len(log.per_cycle_states) == 20

    def test_policy_exception_flags_log(self):
        class Boom:
            def act(self, agent_id, perceptions, cycle):
                raise RuntimeError("bad policy")
        log = run_match(Boom(), None, small_config(cycle_count=20))
        assert not log.valid

    def test_abort_records_cause_and_cycle(self, tmp_path):
        class FailsAtSeven:
            def act(self, agent_id, perceptions, cycle):
                if cycle == 7:
                    raise KeyError("no such agent")
                return None
        log = run_match(None, FailsAtSeven(), small_config(cycle_count=20))
        assert not log.valid
        assert log.error == {"type": "KeyError", "message": "'no such agent'",
                             "cycle": 7}
        assert len(log.per_cycle_states) == 7
        path = tmp_path / "aborted.jsonl"
        sim.save_match_log(log, path)
        assert load_match_log(path).error == log.error

    def test_abort_at_first_cycle_keeps_roster(self, tmp_path):
        class FailsAtOnce:
            def act(self, agent_id, perceptions, cycle):
                raise RuntimeError("no start")
        log = run_match(FailsAtOnce(), None,
                        small_config(cycle_count=20, players_per_team=1))
        path = tmp_path / "aborted.jsonl"
        sim.save_match_log(log, path)
        assert path.read_text().startswith('{"agents":[["a","home"],["b","away"]]')
        loaded = load_match_log(path)
        assert loaded.agents == [("a", "home"), ("b", "away")]
        assert loaded.per_cycle_states.shape == (0, 12)
        assert loaded.error == {"type": "RuntimeError", "message": "no start",
                                "cycle": 0}

    def test_non_number_argument_recorded_naming_agent(self):
        class SendsDecimal:
            def act(self, agent_id, perceptions, cycle):
                return [Command("turn", Decimal("10"))] if cycle == 3 else None
        log = run_match(None, SendsDecimal(), small_config(cycle_count=20))
        assert log.error == {"type": "ValueError", "cycle": 3, "message":
                             "agent 'c' sent turn with argument "
                             "Decimal('10'), not an int or float"}

    def test_valid_log_tail_has_no_error_field(self):
        log = run_match(None, None, small_config(cycle_count=5))
        tail = log_to_jsonl(log).splitlines()[-1]
        assert tail == '{"outcome":"draw","score":[0,0],"valid":true}'

    def test_replay_determinism(self):
        cfg = small_config(cycle_count=60, rng_seed=9)
        a = run_match(Barrage(1), Barrage(2), cfg)
        b = run_match(Barrage(1), Barrage(2), cfg)
        assert log_to_jsonl(a) == log_to_jsonl(b)

    def test_different_seed_differs(self):
        a = run_match(Barrage(1), Barrage(2), small_config(cycle_count=60, rng_seed=1))
        b = run_match(Barrage(1), Barrage(2), small_config(cycle_count=60, rng_seed=2))
        assert log_to_jsonl(a) != log_to_jsonl(b)

    def test_ball_speed_non_increasing_between_kicks(self):
        cfg = small_config(cycle_count=80)
        w = World(cfg, positions={"a": (0, 0, 0)}, ball=(0.5, 0))
        w.submit_command("a", kick(100, 30), 0)
        w.step()
        speeds = []
        for _ in range(40):
            events = w.step()
            if any(e.kind in ("kick", "goal") for e in events):
                break
            speeds.append(math.hypot(w.ball.vx, w.ball.vy))
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(speeds, speeds[1:]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = small_config(cycle_count=30)
        log = run_match(Barrage(3), Barrage(4), cfg)
        path = tmp_path / "match.jsonl"
        sim.save_match_log(log, path)
        loaded = load_match_log(path)
        assert loaded.config == cfg
        assert loaded.score == log.score and loaded.outcome == log.outcome
        assert loaded.agents == log.agents
        assert loaded.per_cycle_states.shape == log.per_cycle_states.shape
        assert [e.to_dict() for e in loaded.events] == \
               [e.to_dict() for e in log.events]
        # rounded coordinates survive the trip
        assert loaded.per_cycle_states[5, 0] == \
            pytest.approx(log.per_cycle_states[5, 0], abs=1e-6)

    def test_header_schema_version(self, tmp_path):
        log = run_match(None, None, small_config(cycle_count=2))
        text = log_to_jsonl(log)
        assert text.splitlines()[0] == (
            '{"agents":[["a","home"],["b","home"],["c","away"],["d","away"]],'
            '"config":{"cycle_count":2,"players_per_team":2,"rng_seed":42},'
            '"schema_version":3}')

    def test_schema_2_log_refused_naming_file(self, tmp_path):
        # a one-cycle idle match as schema 2 wrote it: a dict per cycle
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"config":{"cycle_count":1,"players_per_team":1,"rng_seed":0},'
            '"schema_version":2}\n'
            '{"agents":[{"heading":0.0,"id":"a","speed":0.0,"team":"home",'
            '"x":-26.25,"y":0.0},{"heading":-180.0,"id":"b","speed":0.0,'
            '"team":"away","x":26.25,"y":0.0}],"ball":{"vx":0.0,"vy":0.0,'
            '"x":0.0,"y":0.0},"cycle":0,"events":[{"cycle":0,"kind":"idle"}]}\n'
            '{"outcome":"draw","score":[0,0],"valid":true}\n')
        with pytest.raises(ValueError,
                           match=r"old\.jsonl: unsupported schema_version 2"):
            load_match_log(path)

    def test_cut_mid_line_names_file_and_line(self, tmp_path):
        cfg = FieldConfig(cycle_count=200, rng_seed=7)
        text = log_to_jsonl(run_match(ShootingPolicy(sim.HOME),
                                      ShootingPolicy(sim.AWAY), cfg))
        cut = text[:len(text) // 2]
        assert not cut.endswith("\n")
        path = tmp_path / "half.jsonl"
        path.write_text(cut)
        last = cut.count("\n") + 1  # the partial line, 1-based
        with pytest.raises(ValueError,
                           match=rf"half\.jsonl line {last} is not valid JSON"):
            load_match_log(path)

    def test_truncated_log_names_file(self, tmp_path):
        log = run_match(Barrage(3), Barrage(4), small_config(cycle_count=80))
        path = tmp_path / "cut.jsonl"
        lines = log_to_jsonl(log).splitlines(keepends=True)
        path.write_text("".join(lines[:50]))
        with pytest.raises(ValueError, match="cut.jsonl has no closing outcome line"):
            load_match_log(path)

    def test_last_line_not_an_object_names_file(self, tmp_path):
        lines = log_to_jsonl(run_match(None, None, small_config())).splitlines()
        path = tmp_path / "number.jsonl"
        path.write_text("\n".join(lines[:-1] + ["7"]) + "\n")
        with pytest.raises(ValueError,
                           match="number.jsonl has no closing outcome line"):
            load_match_log(path)

    @pytest.mark.parametrize("line, edit, message", [
        (7, lambda row: row[1:], "a cycle row must be a list of 21 values"),
        (7, lambda row: row[:-1], "a cycle row must be a list of 21 values"),
        (7, lambda row: row + [[]], "a cycle row must be a list of 21 values"),
        (7, lambda row: dict(enumerate(row)),
         "a cycle row must be a list of 21 values"),
        (7, lambda row: row[:-1] + [{"cycle": 4, "kind": "idle"}],
         "argument after \\*\\* must be a mapping"),
        (7, lambda row: row[:-1] + [[{**row[-1][0], "foo": 1}]],
         "unexpected keyword argument 'foo'"),
        # annotate_log indexed the ball's x with the cycle of an event:
        # past the log it raised a bare IndexError, and at -1 it read the
        # last row and wrote a threat at window -1
        (7, lambda row: row[:-1] + [[{**row[-1][0], "cycle": 5000}]],
         "event cycle 5000 is not its row's cycle 4"),
        (7, lambda row: row[:-1] + [[{**row[-1][0], "cycle": -1}]],
         "event cycle -1 is not its row's cycle 4"),
        (7, lambda row: ["oops"] + row[1:],
         "cycle row value 0 must be a number, got 'oops'"),
        (7, lambda row: row[:3] + [True] + row[4:],
         "cycle row value 3 must be a number, got True"),
        (7, lambda row: row[:2] + [[90.0]] + row[3:],
         "cycle row value 2 must be a number, got \\[90.0\\]"),
        (7, lambda row: row[:19] + [None] + row[20:],
         "cycle row value 19 must be a number, got None"),
        (7, lambda row: [math.nan] + row[1:],
         "NaN is not a number a match log can hold"),
        (7, lambda row: row[:19] + [-math.inf] + row[20:],
         "-Infinity is not a number a match log can hold"),
        (1, lambda head: {k: v for k, v in head.items() if k != "agents"},
         "missing field 'agents'"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["b"],
                                             ["c", "away"], ["d", "away"]]},
         "header agents must be a list of \\[id, team\\] pairs"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["b", 1],
                                             ["c", "away"], ["d", "away"]]},
         "header agents must be a list of \\[id, team\\] pairs"),
        (1, lambda head: {**head, "agents": {"a": "home"}},
         "header agents must be a list of \\[id, team\\] pairs"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["a", "home"],
                                             ["c", "away"], ["d", "away"]]},
         "header agents repeat an id"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["b", "left"],
                                             ["c", "away"], ["d", "away"]]},
         "header agent 'b' has team 'left', neither 'home' nor 'away'"),
        (1, lambda head: {**head, "config": {**head["config"], "foo": 1}},
         "header config keys"),
        (1, lambda head: {**head, "config": {"cycle_count": 50}},
         "header config keys"),
        (53, lambda tail: {k: v for k, v in tail.items() if k != "score"},
         "missing field 'score'"),
        (53, lambda tail: {k: v for k, v in tail.items() if k != "valid"},
         "missing field 'valid'"),
        # "-" is the idle letter and "ab" two agents: either one loaded and
        # encoded into letters for windows nobody held
        (1, lambda head: {**head, "agents": [["a", "home"], ["-", "home"],
                                             ["c", "away"], ["d", "away"]]},
         "header agent id '-' is not one letter of 'abc"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["ab", "home"],
                                             ["c", "away"], ["d", "away"]]},
         "header agent id 'ab' is not one letter of 'abc"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["", "home"],
                                             ["c", "away"], ["d", "away"]]},
         "header agent id '' is not one letter of 'abc"),
        (1, lambda head: {**head, "agents": [["a", "home"], ["B", "home"],
                                             ["c", "away"], ["d", "away"]]},
         "header agent id 'B' is not one letter of 'abc"),
        (53, lambda tail: {"outcome": "banana", "score": [1, 2, 3],
                           "valid": "yes"},
         "score must be two non-negative integers, got \\[1, 2, 3\\]"),
        (53, lambda tail: {**tail, "score": [1, -1]},
         "score must be two non-negative integers"),
        (53, lambda tail: {**tail, "score": [0.0, 0]},
         "score must be two non-negative integers"),
        (53, lambda tail: {**tail, "score": [True, 0], "outcome": "home_win"},
         "score must be two non-negative integers"),
        (53, lambda tail: {**tail, "score": "0-0"},
         "score must be two non-negative integers"),
        (53, lambda tail: {**tail, "outcome": "banana", "score": [0, 0]},
         "outcome 'banana' does not match score \\[0, 0\\], which is 'draw'"),
        (53, lambda tail: {**tail, "outcome": "home_win", "score": [1, 2]},
         "outcome 'home_win' does not match score \\[1, 2\\], "
         "which is 'away_win'"),
        (53, lambda tail: {**tail, "outcome": "draw", "score": [2, 1]},
         "outcome 'draw' does not match score \\[2, 1\\], which is 'home_win'"),
        (53, lambda tail: {**tail, "valid": "yes"},
         "valid must be true or false, got 'yes'"),
        (53, lambda tail: {**tail, "valid": 1},
         "valid must be true or false, got 1"),
        (53, lambda tail: {**tail, "valid": False},
         "an invalid log's error must be an object, got None"),
        (53, lambda tail: {**tail, "valid": False, "error": "boom"},
         "an invalid log's error must be an object, got 'boom'")],
        ids=["row-short", "row-no-events", "row-long", "row-not-list",
             "events-not-list", "event-key", "event-cycle-after-log",
             "event-cycle-negative", "x-string", "speed-bool",
             "heading-list", "ball-vy-null", "x-nan", "ball-vy-minus-inf",
             "header-no-agents",
             "agents-short-pair", "agents-team-not-string", "agents-not-list",
             "agents-repeat-id", "agents-team-left",
             "config-extra", "config-rng_seed", "tail-score", "tail-valid",
             "id-idle-letter", "id-two-letters", "id-empty", "id-upper",
             "tail-banana", "score-negative", "score-float", "score-bool",
             "score-string", "outcome-banana", "outcome-not-score",
             "draw-not-score", "valid-string", "valid-int",
             "invalid-no-error", "invalid-error-string"])
    def test_malformed_field_names_file_and_line(self, tmp_path, line, edit,
                                                 message):
        # a 50-cycle log of 2 players a side, so 4 * 4 + 5 = 21 values a
        # row, with a blank line after the header, which the line numbers
        # count: line 1 is the header, 7 the row of cycle 4 and 53 the
        # closing outcome line, {"outcome": "draw", "score": [0, 0], ...}
        cfg = FieldConfig(cycle_count=50, rng_seed=3)
        lines = log_to_jsonl(run_match(ShootingPolicy(sim.HOME),
                                       ShootingPolicy(sim.AWAY), cfg)).splitlines()
        lines.insert(1, "")
        lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1])))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl line {line}: .*{message}"):
            load_match_log(path)

    def test_integer_values_load_as_numbers(self, tmp_path):
        lines = log_to_jsonl(run_match(None, None, small_config(
            cycle_count=1, players_per_team=1))).splitlines()
        lines[1] = '[-26,0,0,0,26,0,-180,0,0,0,0,0,[{"cycle":0,"kind":"idle"}]]'
        path = tmp_path / "ints.jsonl"
        path.write_text("\n".join(lines) + "\n")
        row = load_match_log(path).per_cycle_states[0]
        assert (row[0], row[6], row[11]) == (-26, -180, 0)  # a's x, b's heading, ball vy

    def test_heading_stays_normalized_under_fuzz(self):
        cfg = small_config(cycle_count=100)
        log = run_match(Barrage(5), Barrage(6), cfg)
        headings = log.per_cycle_states[:, 2:-4:4]
        assert headings.shape == (100, 4)
        assert ((-180 <= headings) & (headings < 180)).all()


def r6(x):
    """A logged float's value: x to 6 decimals, with -0.0 folded to 0.0."""
    v = round(float(x), 6)
    return 0.0 if v == 0 else v


def reference_jsonl(log):
    """log_to_jsonl as json.dumps of each line's values: the writer's
    reference, kept here so the formatted rows can be checked against it.
    Its floats are their repr, not '%.6f', so rows compare by the values
    they read back as, not byte for byte."""
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    lines = [dumps({"schema_version": sim.SCHEMA_VERSION,
                    "config": asdict(log.config),
                    "agents": [[aid, team] for aid, team in log.agents]})]
    events_by_cycle = {}
    for e in log.events:
        events_by_cycle.setdefault(e.cycle, []).append(e.to_dict())
    for cycle, values in enumerate(log.per_cycle_states):
        row = [r6(v) for v in values] + [events_by_cycle.get(cycle, [])]
        lines.append(dumps(row))
    tail = {"outcome": log.outcome, "score": list(log.score), "valid": log.valid}
    if not log.valid:
        tail["error"] = log.error
    lines.append(dumps(tail))
    return "\n".join(lines) + "\n"


# signed zeros, values that round to zero or across a sixth decimal, and
# magnitudes at and just inside the field's half length and width and the
# heading range, and one far outside both
EDGE_VALUES = [0.0, -0.0, -4e-7, 4e-7, 1e-7, -1e-7, 5e-7, -5e-7, 1.0000005,
               -2.4999995, 52.5, -52.5, 52.4999996, -52.4999994, 34.0, -34.0,
               33.9999999, -180.0, 179.9999999, 1e-12, 123456.7654321]


def fuzzed_log(seed, cycles=80, away_id='q"\u00e9'):
    """A log of fuzzed rows and events.  Its first away id needs JSON
    escaping by default; the reader refuses any id that is not one letter
    of AGENT_IDS, so a log meant to load back passes away_id="c"."""
    rng = np.random.default_rng(seed)

    def value(scale):
        if rng.random() < 0.3:
            return EDGE_VALUES[int(rng.integers(len(EDGE_VALUES)))]
        return float(rng.uniform(-scale, scale))

    players = [("a", sim.HOME), ("b", sim.HOME), (away_id, sim.AWAY),
               ("d", sim.AWAY)]
    log = MatchLog(config=FieldConfig(cycle_count=cycles, rng_seed=seed),
                   agents=players)
    rows = []
    for cycle in range(cycles):
        row = [v for _player in players
               for v in (value(52.5), value(34.0), value(180.0), value(1.0))]
        if rng.random() < 0.2:
            row += rng.integers(-40, 40, 4).tolist()
        else:
            row += [value(52.5), value(34.0), value(5.0), value(5.0)]
        rows.append(row)
        for _ in range(int(rng.integers(0, 3))):
            aid, team = players[int(rng.integers(len(players)))]
            log.events.append([
                MatchEvent(cycle, "goal", team=team),
                MatchEvent(cycle, "possession_change", agent=aid),
                MatchEvent(cycle, "pass_completed", agent=aid, agent2="b",
                           kick_cycle=max(cycle - 3, 0)),
                MatchEvent(cycle, "kick", agent=aid, effective=True),
                MatchEvent(cycle, "kick", agent=aid, effective=False),
                MatchEvent(cycle, "turn", agent=aid),
                MatchEvent(cycle, "move", agent=aid),
                MatchEvent(cycle, "idle"),
            ][int(rng.integers(8))])
    log.score = tuple(int(v) for v in rng.integers(0, 5, 2))
    log.outcome = sim._outcome(*log.score)
    if seed % 3 == 0:
        log.valid = False
        log.error = {"type": "KeyError", "message": "'x'", "cycle": cycles}
    log.per_cycle_states = np.array(rows, dtype=float)
    return log


def edge_log():
    """A 2-a-side log whose rows step every float field through
    EDGE_VALUES, so each value is written at each position of a row."""
    n = len(EDGE_VALUES)
    return MatchLog(
        config=FieldConfig(cycle_count=n, rng_seed=0),
        agents=[("a", sim.HOME), ("b", sim.HOME), ("c", sim.AWAY),
                ("d", sim.AWAY)],
        events=[MatchEvent(cycle, "idle") for cycle in range(n)],
        per_cycle_states=np.array([[EDGE_VALUES[(cycle + k) % n]
                                    for k in range(20)] for cycle in range(n)]))


class TestWriterAgainstReference:
    def test_rows_equal_the_reference_rows(self):
        kinds = set()
        for seed in range(40):
            log = fuzzed_log(seed)
            kinds.update(e.kind for e in log.events)
            got = log_to_jsonl(log).splitlines()
            wanted = reference_jsonl(log).splitlines()
            assert len(got) == len(wanted)
            assert (got[0], got[-1]) == (wanted[0], wanted[-1]), seed
            for number, (line, ref) in enumerate(zip(got, wanted)):
                # repr tells -0.0 from 0.0 and 1 from 1.0
                assert repr(json.loads(line)) == repr(json.loads(ref)), \
                    (seed, number)
        assert len(kinds) == 7

    def test_load_then_save_is_a_fixed_point(self, tmp_path):
        logs = [fuzzed_log(seed, away_id="c") for seed in range(40)] + [edge_log()]
        path = tmp_path / "match.jsonl"
        for log in logs:
            sim.save_match_log(log, path)
            saved = path.read_text()
            loaded = load_match_log(path)
            assert log_to_jsonl(loaded) == saved, log.config
            floats = loaded.per_cycle_states
            assert floats.dtype == np.float64
            assert not (np.signbit(floats) & (floats == 0)).any(), log.config

    @pytest.mark.parametrize("change, width", [("extra-agent", 24),
                                               ("missing-agent", 16)])
    def test_state_width_other_than_roster_refused(self, change, width):
        log = edge_log()
        states = log.per_cycle_states
        if change == "extra-agent":
            log.per_cycle_states = np.hstack([states, states[:, :4]])
        else:
            log.per_cycle_states = states[:, 4:]
        with pytest.raises(ValueError, match=rf"^per_cycle_states has shape "
                           rf"\(21, {width}\), but 4 agents take rows of 20 values"):
            log_to_jsonl(log)

    @pytest.mark.parametrize("cycle", [5000, 50, -1])
    def test_event_without_a_row_refused(self, cycle, tmp_path):
        # 100 events on the log's 50 rows and one that no row carries
        log = MatchLog(
            config=FieldConfig(cycle_count=50, rng_seed=0),
            agents=[("a", sim.HOME), ("c", sim.AWAY)],
            events=[MatchEvent(c // 2, "idle") for c in range(100)] +
            [MatchEvent(cycle, "idle")],
            per_cycle_states=np.zeros((50, 12)))
        with pytest.raises(ValueError, match=rf"^event cycle {cycle} is not "
                           rf"one of the log's 50 cycles$"):
            log_to_jsonl(log)
        path = tmp_path / "match.jsonl"
        with pytest.raises(ValueError, match="the log's 50 cycles"):
            sim.save_match_log(log, path)
        assert not path.exists()
        log.events.pop()
        sim.save_match_log(log, path)
        assert load_match_log(path).events == log.events

    def test_load_of_save_returns_the_match(self, tmp_path):
        cfg = FieldConfig(cycle_count=300, rng_seed=7, players_per_team=2)
        log = run_match(ShootingPolicy(sim.HOME),
                        ShootingPolicy(sim.AWAY), cfg)
        path = tmp_path / "match.jsonl"
        sim.save_match_log(log, path)
        loaded = load_match_log(path)

        assert loaded.agents == log.agents
        assert loaded.per_cycle_states.tolist() == \
            [[r6(v) for v in row] for row in log.per_cycle_states.tolist()]
        assert loaded.events == log.events
        assert (loaded.score, loaded.outcome, loaded.valid, loaded.error) == \
            (log.score, log.outcome, log.valid, log.error)


def body_digest(text):
    """SHA-256 of a serialized log's lines after the header."""
    return hashlib.sha256(text.partition("\n")[2].encode()).hexdigest()


def simulation_digest(log):
    """SHA-256 of a match's per-cycle values, free of the log format: each
    agent's id, team, x, y, heading and speed, the ball's x, y, vx and vy,
    and the cycle's event dicts.  Floats enter as their repr, so the sign
    of a zero shows; digest a loaded log to pin the values a file holds."""
    events_by_cycle = {}
    for e in log.events:
        events_by_cycle.setdefault(e.cycle, []).append(e.to_dict())
    h = hashlib.sha256()
    for cycle, values in enumerate(log.per_cycle_states.tolist()):
        agents = [(aid, team, *values[4 * i:4 * i + 4])
                  for i, (aid, team) in enumerate(log.agents)]
        row = (agents, tuple(values[-4:]), events_by_cycle.get(cycle, []))
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


class TestPinnedBytes:
    """SHA-256 of whole serialized matches, recorded once and kept: a
    change to simulator output shows across commits, not only between
    two runs of the same code.  The digest of the lines after the header
    is pinned apart, so a change to the header alone shows as one, and
    the values the file loads back as are pinned apart from both, so a
    change of log format shows apart from a change of the simulation."""

    def digests(self, log, tmp_path):
        """(whole file, body, simulation digest of the file read back)."""
        text = log_to_jsonl(log)
        path = tmp_path / "pinned.jsonl"
        path.write_text(text)
        return (hashlib.sha256(text.encode()).hexdigest(), body_digest(text),
                simulation_digest(load_match_log(path)))

    def test_shooting_match(self, tmp_path):
        cfg = FieldConfig(cycle_count=300, rng_seed=7, players_per_team=2)
        log = run_match(ShootingPolicy(sim.HOME),
                        ShootingPolicy(sim.AWAY), cfg)
        assert log.score == (2, 2)
        whole, body, values = self.digests(log, tmp_path)
        assert values == \
            "372fc5518fdfd3d2db32c12ec51afb37928ff0f284caf263cc3a6107862b3e4c"
        assert body == \
            "35f5b70082941220d8c08f6d314fd3aecc0a3b21c1e21b9d504c5fbbd7dd3678"
        assert whole == \
            "ab126f2ec61b0c36830cec82100502e4719d9af436f08cf5e4bafec7593d9caa"

    def test_barrage_match(self, tmp_path):
        # agents start at the ball, so clamped kicks land and goals follow;
        # up to three commands a cycle exercise the duplicate pick and catch
        cfg = FieldConfig(cycle_count=200, rng_seed=11, players_per_team=1)
        log = run_match(Barrage(1), Barrage(2), cfg,
                        positions={"a": (0, 0, 0), "b": (1.0, 0, 180)},
                        ball=(0.5, 0.0))
        assert any(e.kind == "kick" and e.effective for e in log.events)
        whole, body, values = self.digests(log, tmp_path)
        assert values == \
            "b5e334cea88693eb66cc4f8e1a63b432a640c99b7d7f89632589b09989c76c42"
        assert body == \
            "3e4c61d778d853b83c9fd99769728e0acbd44a50ef8c87af50116a0808d007c8"
        assert whole == \
            "81e23e75291f01f15247406c037cf1fd86fbc9c4951219f65dac7b78983639a5"

    @pytest.mark.parametrize("players, seed, score, whole", [
        (1, 7, (2, 2),
         "550e9ddb5812cfe83079ad3136a2f0a82f0bf02bbcccde5019f96a1ea130c2e2"),
        (1, 8, (0, 2),
         "80b72f8da4313763be6117adf37f92c5aa3a347209c9ce18fd26fe4d5474a898"),
        (1, 9, (1, 2),
         "26424f6dbbee1bd358ecc57a924ea48b9a50ab368f4fcc12c72b81dba0857fd6"),
        (3, 7, (2, 2),
         "09974b7c1c47da46cb3b41f61f0dcff2999917d728eb6a4897681fba0bba1d0e"),
        (3, 8, (2, 2),
         "ea8a34624c97283f0dc1ce6ef0e1fbe3381031805e8b3531f3c052d41e2e7947"),
        (3, 9, (2, 1),
         "2274a7ed29ba27270cd14d49562c43313f2261988c0916eb36601f84bfb5e7f6")])
    def test_shooting_match_other_team_sizes(self, players, seed, score, whole):
        # the roster and each agent's view of it change with the team size
        cfg = FieldConfig(cycle_count=300, rng_seed=seed,
                          players_per_team=players)
        log = run_match(ShootingPolicy(sim.HOME),
                        ShootingPolicy(sim.AWAY), cfg)
        assert log.score == score
        assert hashlib.sha256(log_to_jsonl(log).encode()).hexdigest() == whole
