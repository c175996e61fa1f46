"""Shooting-policy tests: state transitions, macro letter order, the
feedback veto path, and an end-to-end scripted goal."""

import pytest

from matchdna.attractor_tree import (
    FeedbackDecision,
    GaConfig,
    ca_feedback,
    fit_window_classifier,
)
from matchdna.simulator import AgentState, BallState, FieldConfig, run_match
from matchdna import shooting
from matchdna.shooting import ShootingPolicy


def perception(ball_xy, agent_xy, heading, agent_id="a", team="home"):
    """A world snapshot holding one agent and a resting ball."""
    return ([AgentState(agent_id, team, agent_xy[0], agent_xy[1], heading)],
            BallState(ball_xy[0], ball_xy[1]))


def drive(policy, perc, n, agent_id="a"):
    """Run n act() calls against a frozen perception; return movement commands."""
    out = []
    for cycle in range(n):
        cmds = policy.act(agent_id, [perc], cycle)
        if cmds is None:
            out.append(None)
            continue
        if not isinstance(cmds, list):
            cmds = [cmds]
        out.extend(cmds)
    return out


class TestFindBall:
    def test_scans_when_ball_behind(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        perc = perception((-10, 0), (0, 0), 0.0)  # ball directly behind
        cmds = drive(policy, perc, 2)
        assert cmds[0].kind == "turn" and cmds[0].x == shooting.SCAN_STEP
        assert policy.letters_of("a").startswith("AA")

    def test_ball_in_view_advances_to_approach(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        perc = perception((20, 0), (0, 0), 0.0)
        cmds = drive(policy, perc, 1)
        assert cmds[0].kind == "dash" and cmds[0].x == 100
        assert policy.memory("a").state == shooting.APPROACH


class TestApproach:
    def test_turns_to_align_before_dashing(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        perc = perception((0, 20), (0, 0), 0.0)  # ball 90 degrees left but in FOV?
        # 90 > fov half angle, so this is still find-ball territory
        cmds = drive(policy, perc, 1)
        assert cmds[0].kind == "turn"

    def test_stops_when_proximity_exceeds_threshold(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        # 3 m away: proximity 33 > 20, skip straight to rounding
        perc = perception((3, 0), (0, 0), 0.0)
        drive(policy, perc, 1)
        assert policy.memory("a").state == shooting.ROUND


class TestRoundAndShoot:
    def test_full_letter_script_goal_ahead(self):
        cfg = FieldConfig(cycle_count=64, rng_seed=0)
        windows = []
        policy = ShootingPolicy(
            cfg, feedback=lambda w: windows.append(w) or FeedbackDecision(proceed=True))
        perc = perception((3, 0), (0, 0), 0.0)
        cmds = drive(policy, perc, 16)
        # goal dead ahead (rel 0) -> counterclockwise macro AAACT, then
        # align ATACT, then shoot AATAA capped by the strong kick
        assert policy.letters_of("a") == "AAACT" + "ATACT" + "AATAA" + "G"
        # the hook gets the whole letter history at the shot decision
        assert windows == ["AAACTATACT"]
        kicks = [c for c in cmds if c is not None and c.kind == "kick"]
        assert kicks[-1].x == 100

    def test_clockwise_macro_when_goal_right(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        # heading 90 puts the goal (at bearing 0) to the agent's right
        perc = perception((0, 3), (0, 0), 90.0)
        drive(policy, perc, 5)
        assert policy.letters_of("a") == "AGGGT"

    def test_hook_sees_at_most_letter_history(self):
        windows = []
        policy = ShootingPolicy(
            FieldConfig(cycle_count=200, rng_seed=0),
            feedback=lambda w: windows.append(w) or FeedbackDecision(proceed=False))
        drive(policy, perception((3, 0), (0, 0), 0.0), 200)
        # every veto sends the agent round again, so the history fills up
        assert max(len(w) for w in windows) == shooting.LETTER_HISTORY
        assert len(policy.letters_of("a")) == shooting.LETTER_HISTORY

    def test_veto_reverses_direction(self):
        cfg = FieldConfig(cycle_count=64, rng_seed=0)
        answers = iter([FeedbackDecision(proceed=False), FeedbackDecision(proceed=True)])
        policy = ShootingPolicy(cfg, feedback=lambda w: next(answers))
        perc = perception((3, 0), (0, 0), 0.0)
        drive(policy, perc, 30)
        letters = policy.letters_of("a")
        # first pass counterclockwise, veto flips to the clockwise macro
        assert letters.startswith("AAACT" + "ATACT" + "AGGGT")
        assert policy.memory("a").flip

    def test_trained_tree_vetoes_align_window(self):
        tree = fit_window_classifier(
            ["ATACT", "ATACC", "TTACT", "TCCCT", "CACCT", "GCCCT"],
            ["threat", "threat", "threat", "goal", "goal", "goal"],
            ga=GaConfig(population_size=10, generations=5, rng_seed=0))
        assert not ca_feedback(tree, "ATACT").proceed
        cfg = FieldConfig(cycle_count=64, rng_seed=0)
        policy = ShootingPolicy(cfg, feedback=lambda w: ca_feedback(tree, w))
        perc = perception((3, 0), (0, 0), 0.0)
        drive(policy, perc, 15)
        # the align window ATACT is vetoed, so the clockwise macro follows
        assert policy.letters_of("a") == "AAACT" + "ATACT" + "AGGGT"
        assert policy.memory("a").flip

    def test_wide_tree_vetoes_through_policy(self):
        # a 10-letter tree judges the round and align macros together; a
        # 5-letter window would only ever be flagged as too short
        tree = fit_window_classifier(
            ["AAACTATACT", "AAACTATACC", "AAACTTTACT",
             "-----TCCCT", "-----CACCT", "-----GCCCT"],
            ["threat", "threat", "threat", "goal", "goal", "goal"],
            ga=GaConfig(population_size=10, generations=5, rng_seed=0))
        assert tree.window == 10
        assert not ca_feedback(tree, "AAACTATACT").proceed
        cfg = FieldConfig(cycle_count=64, rng_seed=0)
        decisions = []
        policy = ShootingPolicy(
            cfg, feedback=lambda w: decisions.append(ca_feedback(tree, w))
            or decisions[-1])
        drive(policy, perception((3, 0), (0, 0), 0.0), 15)
        assert policy.letters_of("a") == "AAACT" + "ATACT" + "AGGGT"
        assert len(decisions) == 1
        assert not decisions[0].proceed and not decisions[0].flagged
        assert policy.memory("a").flip

    def test_acts_from_stale_snapshot_when_no_perception(self):
        cfg = FieldConfig(cycle_count=10, rng_seed=0)
        policy = ShootingPolicy(cfg)
        assert policy.act("a", [], 0) is None  # nothing ever seen
        perc = perception((20, 0), (0, 0), 0.0)
        policy.act("a", [perc], 1)
        cmds = policy.act("a", [], 2)
        assert cmds and cmds[-1].kind in ("dash", "turn")


class TestScriptedGoal:
    def test_shooter_scores_against_null_defense(self):
        cfg = FieldConfig(cycle_count=500, rng_seed=3, players_per_team=1,
                          perception_jitter=True)
        policy = ShootingPolicy(cfg, team="home")
        log = run_match(policy, None, cfg,
                        positions={"a": (40.0, 0.0, 0.0), "b": (45.0, 20.0, 0.0)},
                        ball=(40.5, 0.0))
        goals = [e for e in log.events if e.kind == "goal" and e.team == "home"]
        assert goals, "scripted shooter should score within 500 cycles"
        assert log.score[0] >= 1
