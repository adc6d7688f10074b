"""Elementary Nielsen moves and move words.

A move acts on an ordered n-tuple of group elements:

* ``R(i, j, s)``  -- entry i becomes ``g_i * g_j**s``
* ``L(i, j, s)``  -- entry i becomes ``g_j**s * g_i``
* ``I(j)``        -- entry j becomes ``g_j**-1``

Indices are 1-based, matching the text syntax ``"R+:i,j"`` / ``"L-:i,j"`` /
``"I:j"`` used by the CLI and DOT labels. ``move_set(n)`` returns all
``4*n*(n-1) + n`` moves in a frozen, documented order (R before L before I;
(i, j) lexicographic; + before -), e.g. for n = 2::

    R+:1,2  R-:1,2  R+:2,1  R-:2,1  L+:1,2  L-:1,2  L+:2,1  L-:2,1  I:1  I:2

Walk counts and exports depend on this order bit-for-bit, so it must not
change.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import UsageError
from .groups import Group, State


@dataclass(frozen=True, slots=True)
class Move:
    kind: str  # 'R', 'L' or 'I'
    i: int     # 1-based; 0 for I moves
    j: int     # 1-based
    sign: int  # +1 or -1; 0 for I moves

    def __post_init__(self):
        if self.kind in ("R", "L"):
            if self.i < 1 or self.j < 1:
                raise UsageError("move indices are 1-based")
            if self.i == self.j:
                raise UsageError(f"{self.kind} move requires i != j")
            if self.sign not in (1, -1):
                raise UsageError("move sign must be +1 or -1")
        elif self.kind == "I":
            if self.j < 1:
                raise UsageError("move indices are 1-based")
            if self.i != 0 or self.sign != 0:
                raise UsageError("I moves carry only a j index")
        else:
            raise UsageError(f"unknown move kind {self.kind!r}")

    def text(self) -> str:
        if self.kind == "I":
            return f"I:{self.j}"
        return f"{self.kind}{'+' if self.sign > 0 else '-'}:{self.i},{self.j}"

    def __str__(self) -> str:
        return self.text()


def R(i: int, j: int, sign: int = 1) -> Move:
    return Move("R", i, j, sign)


def L(i: int, j: int, sign: int = 1) -> Move:
    return Move("L", i, j, sign)


def I(j: int) -> Move:
    return Move("I", 0, j, 0)


def parse_move(text: str) -> Move:
    """Inverse of Move.text()."""
    try:
        head, _, tail = text.partition(":")
        if head == "I":
            return I(int(tail))
        kind, sign = head[0], head[1:]
        if kind in ("R", "L") and sign in ("+", "-"):
            i_s, j_s = tail.split(",")
            return Move(kind, int(i_s), int(j_s), 1 if sign == "+" else -1)
    except (ValueError, IndexError):
        pass
    raise UsageError(f"cannot parse move {text!r}; expected forms R+:i,j L-:i,j I:j")


def move_inverse(move: Move) -> Move:
    if move.kind == "I":
        return move
    return Move(move.kind, move.i, move.j, -move.sign)


@functools.lru_cache(maxsize=None)
def move_set(n: int) -> tuple[Move, ...]:
    if n < 1:
        raise UsageError("move_set requires n >= 1")
    out = []
    for kind in ("R", "L"):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    out.append(Move(kind, i, j, 1))
                    out.append(Move(kind, i, j, -1))
    out.extend(I(j) for j in range(1, n + 1))
    return tuple(out)


def apply_move(group: Group, state: State, move: Move) -> State:
    """Apply one move; exactly one entry of the tuple changes."""
    if move.j > len(state) or (move.kind != "I" and move.i > len(state)):
        raise UsageError(f"move {move} out of range for tuple length {len(state)}")
    if move.kind == "I":
        j = move.j - 1
        return state[:j] + (group.inv(state[j]),) + state[j + 1 :]
    i, j = move.i - 1, move.j - 1
    h = state[j] if move.sign > 0 else group.inv(state[j])
    new = group.mul(state[i], h) if move.kind == "R" else group.mul(h, state[i])
    return state[:i] + (new,) + state[i + 1 :]


MoveWord = tuple[Move, ...]


def eval_word(group: Group, state: State, word) -> State:
    """Left-to-right fold of apply_move; the empty word is the identity."""
    for move in word:
        state = apply_move(group, state, move)
    return state


def word_to_text(word) -> list[str]:
    return [m.text() for m in word]
