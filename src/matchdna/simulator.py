"""Cycle-based 2-D soccer simulator.

The world advances in discrete cycles.  Agents queue commands during a
cycle; at cycle end exactly one queued movement command per agent
(turn/dash/kick/catch) executes, chosen by the match RNG when several
were queued.  These four are the whole protocol: the agents do not
communicate, so there is no say, sense_body or change_view command.

Agents perceive the state the log records for the previous cycle (the
initial state at cycle 0).  The world copies its state once per cycle and
hands the same snapshot objects to every agent, so agents only read what
they perceive; the log keeps the snapshot's numbers, not its objects.  How
many copies an agent gets each cycle is drawn from the perception stream
in blocks of cycle_count cycles; a block takes the same values, in the
same order, as one draw per agent per cycle.

Every match plays on one field with one physics, the module constants
FIELD_LENGTH, FIELD_WIDTH, GOAL_WIDTH, KICKABLE_DISTANCE, DASH_GAIN,
KICK_GAIN, BALL_DECAY and PLAYER_DECAY.  A FieldConfig holds only what a
run varies: cycle_count, rng_seed and players_per_team.

The match log (schema 4) is JSON Lines.  Its header records those three
values, the schema version and the agents as [id, team] pairs in id
order.  Each cycle follows as one positional row: x, y, heading and
speed per agent in the header's order, then the ball's x, y, vx and vy,
each to 6 decimals, then the cycle's event dicts, so a row of n agents
holds 4n + 5 values.  An event dict carries no cycle: its row's position
is its cycle.  A closing line records score, valid and, for an aborted
match, error; the outcome is the score's.  In memory a MatchLog holds the
same: the roster once, the rows' numbers as one (cycles, 4n + 4) float
array, and each event with its cycle.

Conventions: x runs along the field length, y across the width, the
origin is the center spot.  The home team attacks +x.  Headings are
degrees in [-180, 180), 0 pointing at +x, measured counterclockwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = 4

FIELD_LENGTH = 105.0
FIELD_WIDTH = 68.0
GOAL_WIDTH = 14.0
KICKABLE_DISTANCE = 1.0
DASH_GAIN = 0.01      # meters per power unit per cycle
KICK_GAIN = 0.05      # ball impulse per power unit
BALL_DECAY = 0.94
PLAYER_DECAY = 0.4

# agent ids, home team first; each team takes at most half of them
AGENT_IDS = "abcdefghijklmnopqrstuvwxyz"
MAX_PLAYERS_PER_TEAM = len(AGENT_IDS) // 2

# command argument ranges (min, max)
TURN_RANGE = (-180.0, 180.0)
DASH_RANGE = (-30.0, 100.0)
KICK_POWER_RANGE = (0.0, 100.0)
KICK_ANGLE_RANGE = (-180.0, 180.0)

MOVEMENT_KINDS = ("turn", "dash", "kick", "catch")
# what World.step logs: an executed turn, dash (move) or kick, no
# executed command (idle), and what follows from the ball's motion
EVENT_KINDS = frozenset(("turn", "move", "kick", "idle", "goal",
                         "possession_change", "pass_completed"))

HOME = "home"
AWAY = "away"


def normalize_heading(deg: float) -> float:
    """Fold an angle into [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class FieldConfig:
    """What one match varies; the field and its physics are constants."""
    cycle_count: int = 6000
    rng_seed: int = 0
    players_per_team: int = 2

    def __post_init__(self):
        if self.cycle_count <= 0:
            raise ValueError("cycle_count must be positive")
        if not 1 <= self.players_per_team <= MAX_PLAYERS_PER_TEAM:
            raise ValueError(f"players_per_team must be in "
                             f"[1, {MAX_PLAYERS_PER_TEAM}], "
                             f"got {self.players_per_team}")


@dataclass
class AgentState:
    id: str
    team: str
    x: float
    y: float
    heading: float = 0.0
    speed: float = 0.0


@dataclass
class BallState:
    x: float = 0.0
    y: float = 0.0
    vx: float = 0.0
    vy: float = 0.0


class Command(NamedTuple):
    """One agent command; x/y are the numeric arguments of Table-style
    turn(x), dash(x), kick(x, y) forms."""
    kind: str
    x: float = 0.0
    y: float = 0.0
    issued_cycle: int = -1


def turn(angle, cycle=-1):
    return Command("turn", float(angle), 0.0, cycle)


def dash(power, cycle=-1):
    return Command("dash", float(power), 0.0, cycle)


def kick(power, angle, cycle=-1):
    return Command("kick", float(power), float(angle), cycle)


def catch(cycle=-1):
    return Command("catch", 0.0, 0.0, cycle)


# kind -> the (min, max) ranges of its x and y arguments; None leaves the
# argument as sent
_ARGUMENT_RANGES = {"turn": (TURN_RANGE, None), "dash": (DASH_RANGE, None),
                    "kick": (KICK_POWER_RANGE, KICK_ANGLE_RANGE),
                    "catch": (None, None)}
_NUMBER_TYPES = frozenset((float, int))  # bool is refused: it is not int


class Ack(NamedTuple):
    """Submission receipt: whether the command was taken, the post-clamp
    form, and a note: "" when taken as sent, "clamped" or "stale"."""
    accepted: bool
    command: Command
    note: str = ""


@dataclass
class MatchEvent:
    cycle: int
    kind: str                 # one of EVENT_KINDS
    agent: str | None = None
    agent2: str | None = None
    team: str | None = None
    effective: bool | None = None
    kick_cycle: int | None = None

    def to_dict(self):
        """The event as the log writes it: its row gives the cycle."""
        d = {"kind": self.kind}
        if self.agent is not None:
            d["agent"] = self.agent
        if self.agent2 is not None:
            d["agent2"] = self.agent2
        if self.team is not None:
            d["team"] = self.team
        if self.effective is not None:
            d["effective"] = self.effective
        if self.kick_cycle is not None:
            d["kick_cycle"] = self.kick_cycle
        return d


@dataclass
class MatchLog:
    config: FieldConfig
    agents: list = field(default_factory=list)  # (id, team) pairs
    events: list = field(default_factory=list)
    # one row per cycle in the log's layout: x, y, heading and speed per
    # agent in `agents` order, then the ball's x, y, vx and vy
    per_cycle_states: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    score: tuple = (0, 0)
    outcome: str = "draw"
    valid: bool = True
    error: dict | None = None  # why an invalid log stopped: type, message, cycle

    def ball_x(self):
        """The ball's x at the end of every cycle."""
        return self.per_cycle_states[:, -4]


def _nearest_holder(points, bx, by):
    """Id in possession among (id, x, y) points: nearest within kickable
    range of the ball at (bx, by), ties by id."""
    best = None
    best_key = None
    for aid, x, y in points:
        d = math.hypot(x - bx, y - by)
        if d <= KICKABLE_DISTANCE and (best_key is None or d < best_key or
                                       (d == best_key and aid < best)):
            best, best_key = aid, d
    return best


def possession_timeline(log: MatchLog) -> list:
    """Holder id (or None) at the end of every cycle, recomputed from the
    logged rows so that encoding works on reloaded logs."""
    ids = [aid for aid, _team in log.agents]
    n = 4 * len(ids)
    return [_nearest_holder(zip(ids, row[0:n:4], row[1:n:4]), row[n], row[n + 1])
            for row in log.per_cycle_states.tolist()]


class World:
    """Mutable match state plus the command queue for the current cycle;
    `snap` is the state's snapshot, retaken at the end of every step."""

    def __init__(self, config: FieldConfig, positions=None, ball=None):
        self.config = config
        self.cycle = 0
        self.score = {HOME: 0, AWAY: 0}
        self.agents = {}  # built in id order, home team first
        n = config.players_per_team
        for i in range(n):
            self.agents[AGENT_IDS[i]] = AgentState(AGENT_IDS[i], HOME,
                                                   -FIELD_LENGTH / 4,
                                                   (i - (n - 1) / 2) * 8.0, 0.0)
        for i in range(n):
            aid = AGENT_IDS[n + i]
            self.agents[aid] = AgentState(aid, AWAY,
                                          FIELD_LENGTH / 4,
                                          (i - (n - 1) / 2) * 8.0, -180.0)
        if positions:
            for aid, pos in positions.items():
                a = self.agents[aid]
                a.x, a.y = float(pos[0]), float(pos[1])
                if len(pos) > 2:
                    a.heading = normalize_heading(float(pos[2]))
        self.ball = BallState(*ball) if ball else BallState()
        b = self.ball
        start = [v for a in self.agents.values() for v in (a.x, a.y, a.heading)]
        if not all(map(math.isfinite, start + [b.x, b.y, b.vx, b.vy])):
            raise ValueError("start positions and ball must be finite")
        self._ids = sorted(self.agents)
        self._perception_counts = []   # rows still to deliver, last row first
        seq = np.random.SeedSequence(config.rng_seed)
        self._rng_cmd, self._rng_perc = [np.random.default_rng(s) for s in seq.spawn(2)]
        self._queues = {aid: [] for aid in self.agents}
        self._holder = None
        self._pending_pass = None      # (kicker_id, kick_cycle)
        self._goal_pending = False
        self.snap = self.snapshot()

    # ----- command intake -------------------------------------------------

    def submit_command(self, agent_id, command: Command, cycle: int) -> Ack:
        """Queue `command` for `agent_id` in the current cycle, stamped with
        the cycle, and return what was taken.  A command for another cycle
        is refused as "stale".  Each bounded argument is clamped as
        max(lo, min(hi, value)): -inf takes the lower bound, +inf and NaN
        the upper one, and a -0.0 power kick is taken as 0.0.  The note is
        "clamped" unless the taken (x, y) pair equals the sent one as a
        tuple, so a NaN in an argument no range bounds (a turn's y, say)
        is taken as sent with note "".  An argument that is not an int or
        float (a bool is not) is refused naming agent, kind and value."""
        queue = self._queues.get(agent_id)
        if queue is None:
            raise ValueError(f"unknown agent id {agent_id!r}")
        if cycle != self.cycle:
            return Ack(False, command, "stale")
        kind, x, y = command.kind, command.x, command.y
        if kind not in MOVEMENT_KINDS:
            raise ValueError(f"unknown command kind {kind!r}")
        if type(x) not in _NUMBER_TYPES or type(y) not in _NUMBER_TYPES:
            value = y if type(x) in _NUMBER_TYPES else x
            raise ValueError(f"agent {agent_id!r} sent {kind} with argument "
                             f"{value!r}, not an int or float")
        x_range, y_range = _ARGUMENT_RANGES[kind]
        # max(lo, min(hi, v)) as its two comparisons, in its order: a NaN
        # fails v < hi and takes hi
        if x_range is not None:
            lo, hi = x_range
            x = x if x < hi else hi
            x = x if x > lo else lo
        if y_range is not None:
            lo, hi = y_range
            y = y if y < hi else hi
            y = y if y > lo else lo
        taken = Command(kind, x, y, cycle)
        queue.append(taken)
        if (x, y) == (command.x, command.y):
            return Ack(True, taken, "")
        return Ack(True, taken, "clamped")

    # ----- perception -----------------------------------------------------

    def deliver_perceptions(self):
        """Agent id -> 0-2 references to `snap`, the state the log records
        for the previous cycle: {0,1,2} with probabilities {0.1, 0.8, 0.1}
        (long-run mean one per cycle).

        The counts are drawn from the perception stream in blocks of
        cycle_count rows, one count per agent in id order; each call takes
        one row, and a new block is drawn when the last is used up.  A block draws the same values,
        in the same order, as one draw per agent per call would."""
        snap = self.snap
        if not self._perception_counts:
            block = self._rng_perc.choice(
                3, size=(self.config.cycle_count, len(self._ids)),
                p=[0.1, 0.8, 0.1])
            self._perception_counts = block.tolist()[::-1]
        counts = self._perception_counts.pop()
        return {aid: [snap] * k for aid, k in zip(self._ids, counts)}

    # ----- cycle stepping -------------------------------------------------

    def step(self):
        """Advance one cycle; returns the events it produced."""
        events = []
        cycle = self.cycle

        if self._goal_pending:
            self.ball = BallState()
            self._goal_pending = False

        # execute one movement command per agent, a seeded choice among
        # duplicates; catch takes the slot but has no effect
        agents, queues = self.agents, self._queues
        executed = 0
        for aid in self._ids:
            queue = queues[aid]
            if not queue:
                continue
            cmd = queue[0] if len(queue) == 1 else \
                queue[int(self._rng_cmd.integers(len(queue)))]
            executed += 1
            kind, a = cmd.kind, agents[aid]
            # headings fold into [-180, 180) as normalize_heading does
            if kind == "turn":
                a.heading = (a.heading + cmd.x + 180.0) % 360.0 - 180.0
                events.append(MatchEvent(cycle, "turn", aid))
            elif kind == "dash":
                a.speed = cmd.x * DASH_GAIN
                events.append(MatchEvent(cycle, "move", aid))
            elif kind == "kick":
                ball = self.ball
                effective = math.hypot(a.x - ball.x, a.y - ball.y) <= \
                    KICKABLE_DISTANCE
                if effective:
                    rad = math.radians(
                        (a.heading + cmd.y + 180.0) % 360.0 - 180.0)
                    impulse = cmd.x * KICK_GAIN
                    ball.vx += impulse * math.cos(rad)
                    ball.vy += impulse * math.sin(rad)
                    self._pending_pass = (aid, cycle)
                events.append(
                    MatchEvent(cycle, "kick", aid, None, None, effective))
        if executed == 0:
            events.append(MatchEvent(cycle, "idle"))

        # agent motion with speed decay; clamps as max(lo, min(hi, v))
        half_l, half_w = FIELD_LENGTH / 2, FIELD_WIDTH / 2
        for a in agents.values():
            speed = a.speed
            if speed != 0.0:
                rad = math.radians(a.heading)
                x = a.x + speed * math.cos(rad)
                x = x if x < half_l else half_l
                a.x = x if x > -half_l else -half_l
                y = a.y + speed * math.sin(rad)
                y = y if y < half_w else half_w
                a.y = y if y > -half_w else -half_w
                speed *= PLAYER_DECAY
                a.speed = 0.0 if abs(speed) < 1e-9 else speed

        # ball motion, goal-line test on the swept segment
        ball = self.ball
        bx0, by0 = ball.x, ball.y
        bx1, by1 = bx0 + ball.vx, by0 + ball.vy
        goal_team = None
        if bx0 < half_l <= bx1:
            line_x, team = half_l, HOME
        elif bx1 <= -half_l < bx0:
            line_x, team = -half_l, AWAY
        else:
            line_x = None
        if line_x is not None:
            t = (line_x - bx0) / (bx1 - bx0)
            y_cross = by0 + t * (by1 - by0)
            if abs(y_cross) <= GOAL_WIDTH / 2:
                goal_team = team
                bx1, by1 = line_x, y_cross
        if goal_team:
            self.score[goal_team] += 1
            self.ball = BallState(bx1, by1, 0.0, 0.0)
            self._goal_pending = True
            self._holder = None
            self._pending_pass = None
            events.append(MatchEvent(cycle, "goal", None, None, goal_team))
        else:
            bx1 = bx1 if bx1 < half_l else half_l
            ball.x = bx1 if bx1 > -half_l else -half_l
            by1 = by1 if by1 < half_w else half_w
            ball.y = by1 if by1 > -half_w else -half_w
            ball.vx *= BALL_DECAY
            ball.vy *= BALL_DECAY
            self._update_possession(cycle, events)

        for queue in queues.values():
            if queue:
                queue.clear()
        self.cycle += 1
        self.snap = self.snapshot()
        return events

    def _update_possession(self, cycle, events):
        b = self.ball
        holder = _nearest_holder([(a.id, a.x, a.y) for a in self.agents.values()], b.x, b.y)
        if holder is not None and holder != self._holder:
            events.append(MatchEvent(cycle, "possession_change", agent=holder))
            if self._pending_pass:
                kicker, kick_cycle = self._pending_pass
                if holder != kicker and \
                        self.agents[holder].team == self.agents[kicker].team:
                    events.append(MatchEvent(cycle, "pass_completed",
                                             agent=kicker, agent2=holder,
                                             kick_cycle=kick_cycle))
                self._pending_pass = None
        self._holder = holder

    def snapshot(self):
        """Copies of the agent states (sorted by id) and of the ball."""
        b = self.ball
        return ([AgentState(a.id, a.team, a.x, a.y, a.heading, a.speed)
                 for a in self.agents.values()],
                BallState(b.x, b.y, b.vx, b.vy))


def run_match(home_policy, away_policy, config: FieldConfig,
              positions=None, ball=None) -> MatchLog:
    """Run cycle_count cycles and collect the full log.

    Policies expose act(agent_id, perceptions, cycle) returning a list of
    Commands or None; a policy of None idles its team.  `perceptions`
    holds 0-2 references to the world's snapshot of the previous cycle;
    the log holds no snapshot, only a row of its numbers per cycle.  If a
    cycle raises, the partial log is returned flagged invalid, with the
    exception's type and message and the cycle in `error`.
    """
    world = World(config, positions=positions, ball=ball)
    log = MatchLog(config=config,
                   agents=[(aid, world.agents[aid].team) for aid in world._ids])
    seats = []  # (agent id, policy's act) in id order; idle teams have none
    for aid in world._ids:
        policy = home_policy if world.agents[aid].team == HOME else away_policy
        if policy is not None:
            seats.append((aid, policy.act))
    deliver, submit, step = \
        world.deliver_perceptions, world.submit_command, world.step
    events = log.events
    states = np.empty((config.cycle_count, 4 * len(log.agents) + 4))
    try:
        for cycle in range(config.cycle_count):
            perceptions = deliver()
            for aid, act in seats:
                cmds = act(aid, perceptions[aid], cycle)
                if cmds is None:
                    continue
                for cmd in cmds:
                    submit(aid, cmd, cycle)
            events.extend(step())
            agents, b = world.snap
            row = [v for a in agents for v in (a.x, a.y, a.heading, a.speed)]
            states[cycle] = row + [b.x, b.y, b.vx, b.vy]
    except Exception as err:
        log.valid = False
        log.error = {"type": type(err).__name__, "message": str(err),
                     "cycle": world.cycle}
    log.per_cycle_states = states[:world.cycle]  # the cycles that completed
    log.score = (world.score[HOME], world.score[AWAY])
    log.outcome = _outcome(*log.score)
    return log


def _outcome(home_goals, away_goals) -> str:
    """What a match with this score is: home_win, away_win or draw."""
    if home_goals > away_goals:
        return "home_win"
    return "away_win" if home_goals < away_goals else "draw"


# ----- serialization -------------------------------------------------------

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def log_to_jsonl(log: MatchLog) -> str:
    """Serialize a MatchLog as JSON Lines: header, one positional row per
    cycle, closing score line.  A state array that is not 4 values
    per agent plus 4 wide, or an event on a cycle with no row, raises
    ValueError giving both widths, or the cycle and the cycle count.  Floats
    carry 6 decimals: '%.6f' reads back as round(x, 6), and a -0.000000
    is written as 0.000000, so that identical matches serialize
    byte-for-byte identically and no value loads as -0.0."""
    states = log.per_cycle_states
    width = 4 * len(log.agents) + 4
    if states.ndim != 2 or states.shape[1] != width:
        raise ValueError(f"per_cycle_states has shape {states.shape}, but "
                         f"{len(log.agents)} agents take rows of {width} values")
    header = {"schema_version": SCHEMA_VERSION, "config": asdict(log.config),
              "agents": log.agents}
    lines = [_dumps(header)]
    events_by_cycle = {}
    for e in log.events:
        if not 0 <= e.cycle < len(states):
            raise ValueError(f"event cycle {e.cycle!r} is not one of the "
                             f"log's {len(states)} cycles")
        events_by_cycle.setdefault(e.cycle, []).append(e.to_dict())
    # a row's floats in one '%' operation; its event list closes it
    row_format = "[" + "%.6f," * width
    for cycle, values in enumerate(states.tolist()):
        row = (row_format % tuple(values)).replace("-0.000000", "0.000000")
        lines.append(row + _dumps(events_by_cycle.get(cycle, [])) + "]")
    tail = {"score": list(log.score), "valid": log.valid}
    if not log.valid:
        tail["error"] = log.error
    lines.append(_dumps(tail))
    return "\n".join(lines) + "\n"


def save_match_log(log: MatchLog, path):
    text = log_to_jsonl(log)  # before open: a refused log makes no file
    with open(path, "w") as fh:
        fh.write(text)


_CONFIG_KEYS = sorted(f.name for f in fields(FieldConfig))


def _refuse_constant(name):
    raise ValueError(f"{name} is not a number a match log can hold")


# json.loads' decoder, bound once, except that NaN and Infinity are refused
_loads = json.JSONDecoder(parse_constant=_refuse_constant).decode


def _header_agents(header) -> list:
    """The header's [id, team] pairs as tuples, refused unless each is a
    pair of strings, every id is one letter of AGENT_IDS, no id repeats
    and every team is home or away."""
    agents = header["agents"]
    if not (isinstance(agents, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, str) for v in pair) for pair in agents)):
        raise ValueError(f"header agents must be a list of [id, team] "
                         f"pairs, got {agents!r}")
    ids = [aid for aid, _team in agents]
    for aid in ids:
        if len(aid) != 1 or aid not in AGENT_IDS:
            raise ValueError(f"header agent id {aid!r} is not one letter "
                             f"of {AGENT_IDS!r}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"header agents repeat an id: {ids!r}")
    for aid, team in agents:
        if team not in (HOME, AWAY):
            raise ValueError(f"header agent {aid!r} has team {team!r}, "
                             f"neither {HOME!r} nor {AWAY!r}")
    return [tuple(pair) for pair in agents]


def _check_tail(tail):
    """Refuse a closing line unless score is two non-negative integers,
    valid is a bool and an invalid log's error is an object."""
    score, valid = tail["score"], tail["valid"]
    if not (isinstance(score, list) and len(score) == 2 and all(
            type(goals) is int and goals >= 0 for goals in score)):
        raise ValueError(f"score must be two non-negative integers, "
                         f"got {score!r}")
    if type(valid) is not bool:
        raise ValueError(f"valid must be true or false, got {valid!r}")
    if not valid and not isinstance(tail.get("error"), dict):
        raise ValueError(f"an invalid log's error must be an object, "
                         f"got {tail.get('error')!r}")


# an event's team and effective as World.step writes them (bool is not
# int, so an effective of 1 is refused)
_EVENT_TEAMS = frozenset((None, HOME, AWAY))
_EFFECTIVE_TYPES = frozenset((bool, type(None)))


def _check_event(event: MatchEvent, agents: frozenset):
    """Refuse an event no match writes: a list or object value, a kind
    outside EVENT_KINDS, an agent or agent2 outside `agents` (the roster's
    ids and None), an effective that is not a bool, a team other than home
    or away, or a kick_cycle that is not an int in [0, the event's
    cycle]."""
    for name, value in vars(event).items():
        if isinstance(value, (list, dict)):
            raise ValueError(f"event {name} {value!r:.60} is not a string, "
                             f"number, bool or null")
    if event.kind not in EVENT_KINDS:
        raise ValueError(f"event kind {event.kind!r} is not one of "
                         f"{sorted(EVENT_KINDS)}")
    for name, aid in (("agent", event.agent), ("agent2", event.agent2)):
        if aid not in agents:
            raise ValueError(f"event {name} {aid!r} is not in the roster "
                             f"{sorted(agents - {None})}")
    if type(event.effective) not in _EFFECTIVE_TYPES:
        raise ValueError(f"event effective must be true or false, "
                         f"got {event.effective!r}")
    if event.team not in _EVENT_TEAMS:
        raise ValueError(f"event team {event.team!r} is neither {HOME!r} "
                         f"nor {AWAY!r}")
    kick_cycle = event.kick_cycle
    if kick_cycle is not None and not (
            type(kick_cycle) is int and 0 <= kick_cycle <= event.cycle):
        raise ValueError(f"event kick_cycle {kick_cycle!r} is not an integer "
                         f"in [0, {event.cycle}]")


def load_match_log(path) -> MatchLog:
    """The MatchLog a file of log_to_jsonl's lines holds.  A line that is
    not JSON, a header config whose keys are not FieldConfig's, header
    agents that are not [id, team] pairs of unique one-letter AGENT_IDS
    ids and home or away teams, a closing line that _check_tail refuses,
    a log marked valid that does not hold exactly cycle_count cycle rows
    or an invalid one that holds more, a cycle row that is not a list of
    4 numbers per agent, 4 ball numbers and an event list (neither a bool
    nor NaN or Infinity is a number here), an event that _check_event
    refuses, and a missing or unexpected field (an event's cycle among
    them) raise ValueError naming the file and the line.  The log holds
    the header's roster, the rows' numbers as one (cycles, 4n + 4) float
    array, each event with its row's cycle and the score's outcome."""
    lines, numbers = [], []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                lines.append(_loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(f"match log {path} line {number} is not valid "
                                 f"JSON: {err.msg} (column {err.colno})") from err
            except ValueError as err:
                raise ValueError(f"match log {path} line {number}: {err}") from err
            numbers.append(number)
    if not lines:
        raise ValueError(f"empty match log {path}")
    header, tail = lines[0], lines[-1]
    version = header.get("schema_version") if isinstance(header, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"match log {path}: unsupported schema_version "
                         f"{version!r}, this code reads {SCHEMA_VERSION}")
    if len(lines) < 2 or not isinstance(tail, dict):
        raise ValueError(f"match log {path} has no closing score line")
    index = 0  # the line being read, named if a field is missing or unexpected
    try:
        config = header["config"]
        if sorted(config) != _CONFIG_KEYS:
            raise ValueError(f"header config keys {sorted(config)} are not "
                             f"{_CONFIG_KEYS}")
        log = MatchLog(config=FieldConfig(**config),
                       agents=_header_agents(header))
        width = 4 * len(log.agents) + 5
        index = len(lines) - 1
        _check_tail(tail)
        rows, cycles = len(lines) - 2, log.config.cycle_count
        if rows > cycles or (tail["valid"] and rows != cycles):
            raise ValueError(f"a log marked valid={tail['valid']} with "
                             f"cycle_count {cycles} holds {rows} cycle rows")
        log.score = tuple(tail["score"])
        log.outcome = _outcome(*log.score)
        log.valid = tail["valid"]
        log.error = tail.get("error")
        states, events = [], log.events
        agents = frozenset([None, *(aid for aid, _team in log.agents)])
        for index in range(1, len(lines) - 1):
            row = lines[index]
            if not isinstance(row, list) or len(row) != width:
                raise ValueError(f"a cycle row must be a list of {width} "
                                 f"values, got {row!r:.60}")
            values = row[:-1]
            if not _NUMBER_TYPES.issuperset(map(type, values)):
                k, v = next((k, v) for k, v in enumerate(values)
                            if type(v) not in _NUMBER_TYPES)
                raise ValueError(f"cycle row value {k} must be a number, "
                                 f"got {v!r:.60}")
            states.append(values)
            for ed in row[-1]:
                event = MatchEvent(index - 1, **ed)
                # _check_event's tests inline; a kick_cycle, or a list or
                # object value, which no set can hold, goes to it
                try:
                    known = (event.kind in EVENT_KINDS
                             and event.agent in agents
                             and event.agent2 in agents
                             and event.team in _EVENT_TEAMS
                             and type(event.effective) in _EFFECTIVE_TYPES
                             and event.kick_cycle is None)
                except TypeError:
                    known = False
                if not known:
                    _check_event(event, agents)
                events.append(event)
    except (KeyError, TypeError, ValueError) as err:
        what = f"missing field {err}" if isinstance(err, KeyError) else str(err)
        raise ValueError(f"match log {path} line {numbers[index]}: {what}") from err
    log.per_cycle_states = np.array(states, dtype=float).reshape(len(states), width - 1)
    return log
