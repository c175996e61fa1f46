"""Encodes match logs as DNA-style letter strings.

A game sequence has one letter per aggregation window: the id of the
agent that held possession for a strict majority of the window's cycles,
or '-' when nobody did (ball in motion or loose).  A player sequence
maps the same windows to that player's dominant action letter:

    A  turn    C  move/dash    G  kick    T  pass (kick that reached
                                             a teammate)

with '-' wherever the player was not the possession holder or executed
no movement command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simulator import MatchLog, possession_timeline

# the play alphabet: every module that reads or writes letters imports it
ACTIONS = "ACGT"
IDLE = "-"
ALPHABET = ACTIONS + IDLE

SYMBOL_ACTIONS = {
    "A": "turn-toward-ball",
    "C": "move-toward-ball",
    "G": "kick-toward-goal",
    "T": "pass-toward-teammate",
    IDLE: "idle",
}

# tie priority when a window has equally frequent actions: scoring
# actions dominate
_PRIORITY = {"G": 3, "T": 2, "C": 1, "A": 0}

SCHEMA_HEADER = "# schema_version=1"


@dataclass(frozen=True)
class GameSequence:
    game_id: str
    letters: str
    window_cycles: int

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class PlayerSequence:
    player_id: str
    game_id: str
    letters: str

    def __len__(self):
        return len(self.letters)


def _window_count(cycles: int, window_cycles: int) -> int:
    return math.ceil(cycles / window_cycles)


def encode_game(log: MatchLog, window_cycles: int, game_id: str = "0") -> GameSequence:
    if window_cycles < 1:
        raise ValueError("window_cycles must be >= 1")
    if not len(log.per_cycle_states):
        raise ValueError("cannot encode an empty match log")
    timeline = possession_timeline(log)
    letters = []
    for w in range(_window_count(len(timeline), window_cycles)):
        chunk = timeline[w * window_cycles:(w + 1) * window_cycles]
        counts = {}
        for holder in chunk:
            if holder is not None:
                counts[holder] = counts.get(holder, 0) + 1
        best = max(counts, key=lambda h: (counts[h], h)) if counts else None
        if best is not None and counts[best] * 2 > len(chunk):
            letters.append(best)
        else:
            letters.append(IDLE)
    return GameSequence(game_id, "".join(letters), window_cycles)


def _pass_kick_cycles(log: MatchLog) -> set:
    """(kicker, cycle) pairs whose kick reached a teammate."""
    return {(e.agent, e.kick_cycle) for e in log.events
            if e.kind == "pass_completed"}


def encode_player(log: MatchLog, game: GameSequence, player_id: str) -> PlayerSequence:
    if player_id not in dict(log.agents):
        raise ValueError(f"unknown player id {player_id!r}")
    passes = _pass_kick_cycles(log)
    # letter of each executed movement command, indexed by cycle
    actions_by_cycle = {}
    for e in log.events:
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
        if game_letter != player_id:
            letters.append(IDLE)
            continue
        window_letters = []
        for cycle in range(t * w, (t + 1) * w):
            window_letters.extend(actions_by_cycle.get(cycle, ()))
        if not window_letters:
            letters.append(IDLE)
            continue
        counts = {}
        for letter in window_letters:
            counts[letter] = counts.get(letter, 0) + 1
        letters.append(max(counts, key=lambda s: (counts[s], _PRIORITY[s])))
    return PlayerSequence(player_id, game.game_id, "".join(letters))


def decode_symbol(symbol: str) -> str:
    """Inverse action lookup; raises on anything outside the alphabet."""
    try:
        return SYMBOL_ACTIONS[symbol]
    except KeyError:
        raise ValueError(f"symbol {symbol!r} outside alphabet {ALPHABET}") from None


# ----- FASTA-style text ------------------------------------------------------

def sequences_to_fasta(entries) -> str:
    """entries: iterable of GameSequence / PlayerSequence objects."""
    lines = [SCHEMA_HEADER]
    for seq in entries:
        if isinstance(seq, GameSequence):
            lines.append(f">game:{seq.game_id} window={seq.window_cycles}")
        elif isinstance(seq, PlayerSequence):
            lines.append(f">player:{seq.player_id}@game:{seq.game_id}")
        else:
            raise TypeError(f"cannot serialize {type(seq).__name__}")
        lines.append(seq.letters)
    return "\n".join(lines) + "\n"


def parse_fasta(text: str) -> list:
    """Return (header, letters) pairs; headers keep their '>' stripped."""
    entries = []
    header = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == SCHEMA_HEADER:
            continue
        if line.startswith("#"):
            raise ValueError(f"unsupported FASTA schema header {line!r}")
        if line.startswith(">"):
            header = line[1:]
            entries.append((header, ""))
        elif header is None:
            raise ValueError("sequence data before any '>' header")
        else:
            head, letters = entries[-1]
            entries[-1] = (head, letters + line)
    return entries


def write_fasta(entries, path):
    with open(path, "w") as fh:
        fh.write(sequences_to_fasta(entries))


def read_fasta(path) -> list:
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_fasta(text)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
