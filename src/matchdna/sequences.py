"""Encodes match logs as DNA-style letter strings.

A game sequence has one letter per aggregation window: the id of the
agent that held possession for a strict majority of the window's cycles,
or '-' when nobody did (ball in motion or loose).  A player sequence
maps the same windows to that player's dominant action letter:

    A  turn    C  move/dash    G  kick    T  pass (kick that reached
                                             a teammate)

with '-' wherever the player was not the possession holder or executed
no movement command.

encode_player reads the log's events in one pass: each of the player's
executed commands counts once, into window cycle // window_cycles, where
the game letter of that window is the player.  An event whose cycle lies
outside the log raises ValueError naming the cycle.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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

# executed command kind -> letter; a kick that reached a teammate is T
_KIND_LETTERS = {"turn": "A", "move": "C", "kick": "G"}

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


def encode_game(log: MatchLog, window_cycles: int, game_id: str = "0") -> GameSequence:
    if window_cycles < 1:
        raise ValueError("window_cycles must be >= 1")
    if not len(log.per_cycle_states):
        raise ValueError("cannot encode an empty match log")
    timeline = possession_timeline(log)
    letters = []
    for start in range(0, len(timeline), window_cycles):
        chunk = timeline[start:start + window_cycles]
        # only the most common entry can hold a strict majority
        holder, held = Counter(chunk).most_common(1)[0]
        letters.append(holder if holder is not None and 2 * held > len(chunk)
                       else IDLE)
    return GameSequence(game_id, "".join(letters), window_cycles)


def encode_player(log: MatchLog, game: GameSequence, player_id: str) -> PlayerSequence:
    if player_id not in dict(log.agents):
        raise ValueError(f"unknown player id {player_id!r}")
    cycles, w, holders = len(log.per_cycle_states), game.window_cycles, game.letters
    played, pass_kicks = [], set()  # (cycle, kind) in held windows
    for e in log.events:
        if e.agent != player_id:
            continue
        if not 0 <= e.cycle < cycles:
            raise ValueError(f"event cycle {e.cycle} is outside the log's "
                             f"{cycles} cycles")
        if e.kind == "pass_completed":
            pass_kicks.add(e.kick_cycle)
        elif e.kind in _KIND_LETTERS and holders[e.cycle // w] == player_id:
            played.append((e.cycle, e.kind))
    counts = defaultdict(Counter)  # held window -> letter -> commands
    for cycle, kind in played:
        passed = kind == "kick" and cycle in pass_kicks
        counts[cycle // w]["T" if passed else _KIND_LETTERS[kind]] += 1
    letters = [IDLE] * len(holders)
    for window, window_counts in counts.items():
        letters[window] = max(window_counts,
                              key=lambda s: (window_counts[s], _PRIORITY[s]))
    return PlayerSequence(player_id, game.game_id, "".join(letters))


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
