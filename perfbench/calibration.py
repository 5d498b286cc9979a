"""A fixed reference program that measures how fast the host runs Python now.

On a shared host the best time of the same op moves by a fifth from one
quarter of an hour to the next, for every op alike.  The worker times
``reference()`` before every round, and the runner scales the op and set-up
times of a run by ``REFERENCE_S`` over the reference's best time in that run
(``run.host_scale``): a timing metric reads as it would on a host that runs
the reference in ``REFERENCE_S`` seconds.

The reference does what lammu's hot paths do (tokenize, parse by recursive
descent into small objects, substitute, print) but imports no lammu code, so
a change to lammu cannot move it.  It must never change: a different
reference rescales every timing metric.
"""

from __future__ import annotations

import gc
import time

# CPU seconds of one reference() call at its best in a run on a shared 2-core
# Linux host (Python 3.11.7; 5.0-5.9 ms over an afternoon): the unit of the
# scaled timings.
REFERENCE_S = 0.0055


class Leaf:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _text(depth: int, k: int) -> str:
    if depth == 0:
        return f"v{k % 7}"
    op = "+*-"[k % 3]
    return f"({_text(depth - 1, 2 * k)} {op} {_text(depth - 1, 2 * k + 1)})"


def _tokens(text: str) -> list[str]:
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c == " ":
            i += 1
        elif c in "()+*-":
            out.append(c)
            i += 1
        else:
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _parse(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok != "(":
        return Leaf(tok), pos + 1
    left, pos = _parse(tokens, pos + 1)
    op = tokens[pos]
    right, pos = _parse(tokens, pos + 1)
    return Node(op, left, right), pos + 1


def _subst(t, name: str, by):
    if isinstance(t, Leaf):
        return by if t.name == name else t
    return Node(t.op, _subst(t.left, name, by), _subst(t.right, name, by))


def _print(t) -> str:
    if isinstance(t, Leaf):
        return t.name
    return f"({_print(t.left)} {t.op} {_print(t.right)})"


TEXT = _text(9, 1)
NAMES = ("v1", "v2", "v3", "v4", "v5")
# Each substitution shortens a two-letter name to "w".
EXPECTED = sum(len(TEXT) - TEXT.count(n) for n in NAMES)


def reference() -> float:
    """CPU seconds of one run of the reference program, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        total = 0
        for name in NAMES:
            tree, _ = _parse(_tokens(TEXT), 0)
            total += len(_print(_subst(tree, name, Leaf("w"))))
        took = time.process_time() - start
    finally:
        if enabled:
            gc.enable()
    if total != EXPECTED:
        raise RuntimeError("the reference program computed a wrong result")
    return took
