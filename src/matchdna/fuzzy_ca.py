"""One-dimensional fuzzy cellular automata with bounded-sum rule semantics.

A state is a 1-D float array with every cell in [0, 1].  Each cell updates
synchronously from its 3-cell neighborhood (left, self, right) using one of
16 local rules expressible with fuzzy OR and fuzzy NOT:

    fuzzy OR :  a + b  ->  min(1, a + b)     (bounded sum)
    fuzzy NOT:  a      ->  1 - a

The array has a null boundary: the missing neighbor beyond either end reads
as 0.  Rule numbers follow the usual decimal naming of 3-neighborhood next
state functions; only the 16 OR/NOT-expressible ones are supported and any
other number is rejected.

One table, _RULE_TABLE, gives a rule number its meaning: (uses_left,
uses_self, uses_right, complemented), NaN if unsupported.  Everything reads
it through _rule_masks, the one place a rule number is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

# base rule (an OR of neighbors) -> complemented counterpart (its NOT)
COMPLEMENT_OF = {0: 255, 170: 85, 204: 51, 238: 17, 240: 15, 250: 5, 252: 3, 254: 1}

SUPPORTED_RULES = frozenset(COMPLEMENT_OF) | frozenset(COMPLEMENT_OF.values())

DEFAULT_TOLERANCE = 1e-9
MAX_PERIOD = 32  # longest cycle terminal_states' probe looks for

# On crisp 0/1 inputs a rule's output for neighborhood (l, s, r) is bit
# 4l + 2s + r of its number, so a base rule reads left when bit 4 is set
# (only l is 1), self when bit 2 is and right when bit 1 is
_RULE_TABLE = np.full((256, 4), np.nan)
for _base, _complement in COMPLEMENT_OF.items():
    _RULE_TABLE[[_base, _complement], :3] = [(_base >> bit) & 1 for bit in (4, 2, 1)]
    _RULE_TABLE[[_base, _complement], 3] = (0, 1)


def _rule_masks(rules) -> tuple[np.ndarray, np.ndarray]:
    """(numbers, masks) of a rule number or array of them: the numbers as
    int64 and their _RULE_TABLE rows packed mask first, shape
    (4,) + numbers.shape.  A number that is not an integer (a bool is
    not) or has no supported row is refused, naming the first one."""
    numbers = np.asarray(rules)
    if numbers.dtype.kind not in "iu" or not isinstance(rules, np.ndarray):
        # numpy would truncate a float and read a bool in a list as 0 or 1
        for value in np.asarray(rules, dtype=object).flat:
            if isinstance(value, (bool, np.bool_)) or \
                    not isinstance(value, (int, np.integer)):
                raise ValueError(f"rule number {value!r} is not an integer")
    numbers = numbers.astype(np.int64, copy=False)
    in_range = (numbers >= 0) & (numbers < len(_RULE_TABLE))
    masks = np.take(_RULE_TABLE.T, np.where(in_range, numbers, 0), axis=1)
    bad = ~in_range | np.isnan(masks[3])
    if bad.any():
        raise ValueError(f"unsupported rule number {numbers[bad][0]}; expected "
                         f"one of {sorted(SUPPORTED_RULES)}")
    return numbers, masks


class RuleSet:
    """A rule assignment, precompiled to neighbor masks.

    Wraps a rule vector (n,), one rule number per cell, or a rule matrix
    (m, n) whose row i is the rule vector of state row i; a matrix steps
    an (m, n) batch only.  Either way repeated stepping is a handful of
    vectorized array operations.  A rule number that is not an integer (a
    bool is not) or not supported is refused, naming the first one.
    """

    def __init__(self, rules):
        numbers, masks = _rule_masks(rules)
        if numbers.ndim not in (1, 2) or numbers.shape[-1] == 0:
            raise ValueError("rule vector must have at least one cell")
        self._numbers = numbers
        self._masks = masks  # (left, self, right, complemented) masks
        # np.where would convert the float mask on every apply
        self._complemented = masks[3].astype(bool)
        self.n = numbers.shape[-1]

    @classmethod
    def coerce(cls, rules) -> "RuleSet":
        return rules if isinstance(rules, RuleSet) else cls(rules)

    @property
    def rules(self) -> list:
        """The rule numbers: a list per cell, or a list of rows."""
        return self._numbers.tolist()

    @property
    def is_matrix(self) -> bool:
        return self._numbers.ndim == 2

    def take(self, rows) -> "RuleSet":
        """The rule rows that step the state rows a boolean mask selects,
        sliced from the compiled masks; a rule vector steps every row, so
        it is returned as is."""
        if not self.is_matrix:
            return self
        part = object.__new__(RuleSet)
        part.n = self.n
        part._numbers = self._numbers[rows]
        # compress keeps each mask contiguous, which apply steps faster
        # than the strided result of self._masks[:, rows]
        part._masks = np.compress(rows, self._masks, axis=1)
        part._complemented = np.compress(rows, self._complemented, axis=0)
        return part

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"RuleSet({self.rules})"

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One synchronous update. Accepts a 1-D state or a 2-D batch
        (rows are independent states); a rule matrix needs a batch with
        one row per rule row."""
        state = np.asarray(state, dtype=float)
        batch = state.ndim == 2
        s = state if batch else state[np.newaxis, :]
        if s.shape[1] != self.n:
            raise ValueError(f"state has {s.shape[1]} cells, rule vector has {self.n}")
        if self.is_matrix and (not batch or len(s) != len(self._numbers)):
            raise ValueError(f"a {len(self._numbers)}-row rule matrix needs a "
                             f"batch of {len(self._numbers)} states, got "
                             f"shape {state.shape}")
        left = np.zeros(s.shape)
        left[:, 1:] = s[:, :-1]
        right = np.zeros(s.shape)
        right[:, :-1] = s[:, 1:]
        uses_left, uses_self, uses_right = self._masks[:3]
        nxt = np.minimum(1.0, left * uses_left + s * uses_self + right * uses_right)
        nxt = np.where(self._complemented, 1.0 - nxt, nxt)
        return nxt if batch else nxt[0]

    def dependency_matrix(self) -> np.ndarray:
        """Boolean n x n matrix; row i marks the cells rule i reads.

        Complemented rules read the same neighbors as their base rule.
        Neighbors beyond the array ends are dropped (null boundary).
        """
        if self.is_matrix:
            raise ValueError("dependency_matrix needs a single rule vector")
        uses_left, uses_self, uses_right = self._masks[:3].astype(bool)
        # cell i reads i-1 below the diagonal and i+1 above it
        return (np.diag(uses_left[1:], -1) | np.diag(uses_self)
                | np.diag(uses_right[:-1], 1))


def check_unit_interval(values, what: str):
    """Raise ValueError unless every value lies in [0, 1]; NaN does not."""
    values = np.asarray(values, dtype=float)
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError(f"{what} must lie in [0, 1]")


def eval_rule(rule: int, left: float, self_state: float, right: float) -> float:
    """Next value of one cell under `rule` for neighborhood (left, self, right).

    Inputs must lie in [0, 1]; pass 0.0 for a neighbor beyond the boundary.
    """
    for name, v in (("left", left), ("self", self_state), ("right", right)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} value {v} outside [0, 1]")
    uses_l, uses_s, uses_r, comp = _rule_masks(rule)[1].tolist()
    total = uses_l * left + uses_s * self_state + uses_r * right
    out = min(1.0, total)
    return 1.0 - out if comp else out


def dependency_matrix(rules) -> np.ndarray:
    """Neighbor-dependency matrix of a rule vector (see RuleSet.dependency_matrix)."""
    return RuleSet.coerce(rules).dependency_matrix()


@dataclass
class Terminal:
    """How a trajectory ended.

    kind is 'fixed_point' (state index of the fixed state), 'cycle'
    (start index and period of the revisited segment) or 'truncated'
    (no convergence within max_steps).
    """
    kind: str
    index: int = -1
    start: int = -1
    period: int = 0
    steps: int = 0


@dataclass
class Trajectory:
    states: np.ndarray  # shape (T+1, n); row 0 is the initial state
    terminal: Terminal

    @property
    def attractor(self) -> np.ndarray:
        """Representative terminal state: the fixed point, or the
        lexicographically smallest state of the cycle, or the last state
        when truncated."""
        if self.terminal.kind == "fixed_point":
            return self.states[self.terminal.index]
        if self.terminal.kind == "cycle":
            start = self.terminal.start
            return _lexmin(self.states[start:start + self.terminal.period, None])[0]
        return self.states[-1]

    @property
    def converged(self) -> bool:
        return self.terminal.kind != "truncated"


def _lexmin(stack):
    """Cycle representative of every row: the lexicographically smallest
    of the k states stacked in a (k, m, n) array, compared as raw floats.
    Ties keep the earliest, as min(states, key=tuple) does."""
    best = stack[0]
    rows = np.arange(best.shape[0])
    for s in stack[1:]:
        differ = best != s
        col = differ.argmax(axis=1)  # first differing cell, 0 if none
        smaller = differ[rows, col] & (s[rows, col] < best[rows, col])
        best = np.where(smaller[:, None], s, best)
    return best


def evolve(state, rules, max_steps: int = 1000) -> Trajectory:
    """Iterate a state until it fixes, revisits a prior state, or runs out.

    A new state revisits a recorded one when no cell differs by more than
    DEFAULT_TOLERANCE (sup norm), the test terminal_states uses.
    Revisiting the latest state is a fixed point; revisiting an earlier
    one closes a cycle starting at the earliest such state.  Otherwise
    the trajectory is truncated after `max_steps` updates.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rs = RuleSet.coerce(rules)
    cur = np.asarray(state, dtype=float)
    if cur.ndim != 1:
        raise ValueError("evolve expects a single 1-D state")
    if cur.shape[0] != rs.n:
        raise ValueError(f"state has {cur.shape[0]} cells, rule vector has {rs.n}")
    check_unit_interval(cur, "state values")

    states = np.array([cur])  # rows [0, t) are recorded
    for t in range(1, max_steps + 1):
        nxt = rs.apply(states[t - 1])
        near = np.abs(states[:t] - nxt).max(axis=1) <= DEFAULT_TOLERANCE
        if near[t - 1]:
            return Trajectory(states[:t], Terminal("fixed_point", index=t - 1))
        if near.any():
            start = int(np.argmax(near))
            return Trajectory(states[:t], Terminal("cycle", start=start, period=t - start))
        if t == len(states):  # grow by doubling, not max_steps up front
            states = np.concatenate([states, np.empty_like(states)])
        states[t] = nxt
    return Trajectory(states[:max_steps + 1], Terminal("truncated", steps=max_steps))


def _orbit(rs: RuleSet, state: np.ndarray):
    """The successors s(1), s(2), ... of a batch, stepped on demand."""
    while True:
        state = rs.apply(state)
        yield state


def _probe(first: np.ndarray, later):
    """The period probe of a batch at s(T) = `first`, with s(T+1), s(T+2),
    ... drawn from the iterable `later`.  A row's first j <= MAX_PERIOD
    with s(T+j) within DEFAULT_TOLERANCE of s(T) closes its cycle,
    represented by the lexmin of s(T)..s(T+j-1); a row with no such j is
    truncated and keeps s(T).  Returns (terminals, converged)."""
    out = first.copy()
    found = np.zeros(len(first), dtype=bool)
    stack = [first]
    for s in islice(later, MAX_PERIOD):
        hit = ~found & (np.abs(s - first).max(axis=1) <= DEFAULT_TOLERANCE)
        if hit.any():
            out[hit] = _lexmin(np.stack(stack)[:, hit])
            found |= hit
        if found.all():
            break
        stack.append(s)
    return out, found


def terminal_states(patterns: np.ndarray, rules,
                    max_steps: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Terminal representative for every row of a pattern batch.

    `rules` is one rule vector (n,) for every row, or an (m, n) rule
    matrix with one rule vector per pattern row, so many rule vectors
    step together as one batch.  Whole-batch stepping: fixed points and
    period-2 cycles are detected as they occur and their rows leave the
    batch; rows still live after max_steps are probed for cycles up to
    MAX_PERIOD.  Anything longer counts as truncated.  Returns
    (terminals, converged); cycle rows are represented by the
    lexicographically smallest state of the cycle, truncated rows by
    their last state.

    A row whose orbit repeats bit for bit leaves the batch as soon as
    the repeat is seen (Brent's checkpoint: s(t-1) is compared with the
    state s(a) kept since step a, and the checkpoint moves on whenever
    t-1-a reaches a power of two).  From a on the row is periodic with
    period p = t-1-a, so every fixed-point and 2-cycle test it would
    meet before max_steps repeats one it has already failed, and its
    max_steps probe is read off the p states of its cycle.  The result
    is exactly the one stepping to max_steps would give; rows that never
    repeat exactly, such as drifting near-cycles, step to max_steps.
    """
    rs = RuleSet.coerce(rules)
    cur = np.array(patterns, dtype=float)
    if cur.ndim != 2:
        raise ValueError("terminal_states expects a 2-D pattern batch")
    check_unit_interval(cur, "patterns")
    out = cur.copy()
    converged = np.zeros(cur.shape[0], dtype=bool)
    live = np.arange(cur.shape[0])  # pattern row of each batch row
    prev = None
    mark, mark_step, span = cur, 0, 1  # Brent checkpoint s(a), a, next move
    for t in range(1, max_steps + 1):
        if not live.size:
            break
        nxt = rs.apply(cur)  # s(t); cur is s(t-1), prev s(t-2)
        fixed = np.abs(nxt - cur).max(axis=1) <= DEFAULT_TOLERANCE
        out[live[fixed]] = nxt[fixed]
        done = fixed
        if prev is not None:
            # s(t+1) == s(t-1) means a 2-cycle through s(t)
            cyc2 = ~fixed & (np.abs(nxt - prev).max(axis=1) <= DEFAULT_TOLERANCE)
            if cyc2.any():
                out[live[cyc2]] = _lexmin(np.stack([cur[cyc2], nxt[cyc2]]))
                done = fixed | cyc2
        converged[live[done]] = True
        lag = t - 1 - mark_step
        if lag:
            # s(t-1) == s(a) bit for bit: from a on the row runs round the
            # lag states s(a)..s(t-2), so its probe is read off them
            rep = ~done & (cur == mark).all(axis=1)
            if rep.any():
                start = mark[rep]
                cycle = np.stack([start, *islice(_orbit(rs.take(rep), start),
                                                 lag - 1)])
                phase = (max_steps - mark_step) % lag  # s(max_steps)'s index
                later = (cycle[(phase + j) % lag] for j in count(1))
                out[live[rep]], converged[live[rep]] = _probe(
                    cycle[phase], later)
                done = done | rep
        prev, cur = cur, nxt
        if lag == span:
            mark, mark_step, span = prev, t - 1, 2 * span
        if done.any():
            keep = ~done
            live, prev, cur, mark, rs = (live[keep], prev[keep], cur[keep],
                                         mark[keep], rs.take(keep))
    if live.size:
        out[live], converged[live] = _probe(cur, _orbit(rs, cur))
    return out, converged


def parse_rule_vector(text: str) -> list[int]:
    """Parse '238,254,238,252' into a validated rule list."""
    rules = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    _rule_masks(rules)
    return rules


def format_rule_vector(rules) -> str:
    return ",".join(str(int(r)) for r in RuleSet.coerce(rules).rules)
