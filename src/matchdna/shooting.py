"""Scripted shooting behavior: a finite-state policy that finds the ball,
approaches it, rounds it until ball and goal are both in view, aligns,
asks an optional feedback hook whether to shoot, and kicks at the goal.
The hook takes the agent's letter history (its last LETTER_HISTORY
letters, oldest first) and returns a verdict whose `proceed` is false to
veto the shot (attractor_tree.ca_feedback's FeedbackDecision, which reads
as many trailing letters as its tree was trained on).

Rounding, aligning and shooting are driven by five-letter action macros;
each letter maps to one cycle's command:

    A  turn toward the ball
    C  dash toward the ball (power 60)
    G  gentle kick toward the goal (power 30)
    T  sidestep: low-power dash (power 30), the orbit/closing step

The policy records every letter it emits; that history is handed to the
feedback hook before a shot.

`act` receives 0-2 references to the simulator's snapshot of the previous
cycle, an (AgentState list, BallState) pair; the policy keeps the last
one it got and acts on it when a cycle delivers none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .simulator import (
    AWAY,
    FIELD_LENGTH,
    HOME,
    Command,
    dash,
    kick,
    turn,
)

FIND_BALL = "find_ball"
APPROACH = "approach"
ROUND = "round"
ALIGN = "align"
SHOOT = "shoot"

ROUND_CLOCKWISE = "AGGGT"       # goal to the right
ROUND_COUNTERCW = "AAACT"       # goal to the left
ALIGN_MACRO = "ATACT"
SHOOT_MACRO = "AATAA"

FOV_HALF_ANGLE = 45.0
STOP_PROXIMITY = 20.0           # proximity metric: 100 / distance_in_meters
SCAN_STEP = 45.0

LETTER_HISTORY = 64             # letters kept and handed to the feedback hook

# the commands that take no argument from the view; a Command is immutable,
# so every emission can share one
_SCAN_TURN = turn(SCAN_STEP)
_DASH_100 = dash(100)
_DASH_60 = dash(60)
_DASH_30 = dash(30)


@dataclass
class _AgentMemory:
    state: str = FIND_BALL
    macro: list = field(default_factory=list)
    flip: bool = False           # set by a vetoed shot; reverses round side
    letters: list = field(default_factory=list)
    last_perception: object = None


class ShootingPolicy:
    """One policy instance drives any number of agents of one team."""

    def __init__(self, team: str, feedback=None):
        if team not in (HOME, AWAY):
            raise ValueError(f"team must be {HOME!r} or {AWAY!r}, got {team!r}")
        self.team = team
        self.feedback = feedback
        goal_x = FIELD_LENGTH / 2 if team == HOME else -FIELD_LENGTH / 2
        self.goal = (goal_x, 0.0)
        self._memory = {}

    def memory(self, agent_id) -> _AgentMemory:
        mem = self._memory.get(agent_id)
        if mem is None:
            mem = self._memory[agent_id] = _AgentMemory()
        return mem

    # ----- geometry helpers -------------------------------------------------

    def _view(self, perception, agent_id):
        """Relative bearings (ball, goal) and ball distance for one agent."""
        agents, ball = perception
        for me in agents:
            if me.id == agent_id:
                break
        else:
            raise KeyError(agent_id)
        x, y, heading = me.x, me.y, me.heading
        bx, by = ball.x, ball.y
        gx, gy = self.goal
        # each bearing is normalize_heading(degrees(atan2(dy, dx)) - heading)
        rel_ball = (math.degrees(math.atan2(by - y, bx - x)) - heading
                    + 180.0) % 360.0 - 180.0
        rel_goal = (math.degrees(math.atan2(gy - y, gx - x)) - heading
                    + 180.0) % 360.0 - 180.0
        return rel_ball, rel_goal, math.hypot(bx - x, by - y)

    # ----- letter execution ---------------------------------------------------

    def _letter_command(self, letter, rel_ball, rel_goal) -> Command:
        if letter == "A":
            return turn(rel_ball)
        if letter == "C":
            return _DASH_60
        if letter == "G":
            return kick(30, rel_goal)
        if letter == "T":
            return _DASH_30
        raise ValueError(f"unknown macro letter {letter!r}")

    def _emit(self, mem, letter, command):
        mem.letters.append(letter)
        del mem.letters[:-LETTER_HISTORY]
        return command

    # ----- policy entry -------------------------------------------------------

    def act(self, agent_id, perceptions, cycle):
        mem = self.memory(agent_id)
        if perceptions:
            mem.last_perception = perceptions[-1]
        perception = mem.last_perception
        if perception is None:
            return None
        rel_ball, rel_goal, dist = self._view(perception, agent_id)
        sees_ball = abs(rel_ball) <= FOV_HALF_ANGLE
        sees_goal = abs(rel_goal) <= FOV_HALF_ANGLE
        proximity = 100.0 / max(dist, 1e-6)

        if mem.state == FIND_BALL:
            if not sees_ball:
                return [self._emit(mem, "A", _SCAN_TURN)]
            mem.state = APPROACH

        if mem.state == APPROACH:
            if proximity <= STOP_PROXIMITY:
                if abs(rel_ball) > 10.0:
                    return [self._emit(mem, "A", turn(rel_ball))]
                return [self._emit(mem, "C", _DASH_100)]
            self._enter_round(mem, rel_goal)

        if mem.state == ROUND:
            if not mem.macro:
                if sees_ball and sees_goal:
                    mem.state = ALIGN
                    mem.macro = list(ALIGN_MACRO)
                else:
                    self._enter_round(mem, rel_goal)
            if mem.state == ROUND:
                return [self._step_macro(mem, rel_ball, rel_goal)]

        if mem.state == ALIGN:
            if mem.macro:
                return [self._step_macro(mem, rel_ball, rel_goal)]
            if self._vetoed(mem):
                mem.flip = not mem.flip
                self._enter_round(mem, rel_goal)
                return [self._step_macro(mem, rel_ball, rel_goal)]
            mem.state = SHOOT
            mem.macro = list(SHOOT_MACRO)

        if mem.state == SHOOT:
            if mem.macro:
                return [self._step_macro(mem, rel_ball, rel_goal)]
            mem.state = FIND_BALL
            return [self._emit(mem, "G", kick(100, rel_goal))]

    def _enter_round(self, mem, rel_goal):
        clockwise = rel_goal < 0.0
        if mem.flip:
            clockwise = not clockwise
        mem.state = ROUND
        mem.macro = list(ROUND_CLOCKWISE if clockwise else ROUND_COUNTERCW)

    def _step_macro(self, mem, rel_ball, rel_goal):
        letter = mem.macro.pop(0)
        return self._emit(mem, letter,
                          self._letter_command(letter, rel_ball, rel_goal))

    def _vetoed(self, mem) -> bool:
        if self.feedback is None:
            return False
        return not self.feedback("".join(mem.letters)).proceed

