"""Substitution algorithms and the five reduction rules.

Rules: the computational rules ``beta`` and ``mu``, and the simplification
rules ``renaming``, ``erasing`` and ``eta_mu``.  Redex positions are paths of
child indices (Abs/Mu body = 0, App fun = 0, arg = 1).  Fresh names are drawn
deterministically from the identifiers of the term at hand, so reduction is a
pure function.

``iter_redexes`` finds redexes lazily, leftmost-outermost first, by a preorder
walk with an explicit stack: ``normalize`` takes its first item and
``redexes`` lists them all.  ``step`` checks only the redex it is given.  The
substitutions hand back every subterm in which the substituted variable or
name is not free as it is, so one step walks the term a bounded number of
times instead of rescanning each subterm for free variables.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .syntax import (Abs, App, Mu, Term, Var, all_identifiers, free_names,
                     free_term_vars, fresh)

RULES = ("beta", "mu", "renaming", "erasing", "eta_mu")

Position = tuple[int, ...]


class FreshnessViolation(Exception):
    pass


class NotARedex(Exception):
    pass


@dataclass
class ReductionTrace:
    initial: Term
    steps: list[tuple[Position, str, Term]] = field(default_factory=list)
    fuel_exhausted: bool = False

    @property
    def final(self) -> Term:
        return self.steps[-1][2] if self.steps else self.initial


def subterm_at(m: Term, pos: Position) -> Term:
    return _spine(m, pos)[-1]


def _spine(m: Term, pos: Position) -> list[Term]:
    """The subterms on the way from ``m`` down to position ``pos``, both
    ends included."""
    out = [m]
    for i in pos:
        if isinstance(m, (Abs, Mu)) and i == 0:
            m = m.body
        elif isinstance(m, App) and i == 0:
            m = m.fun
        elif isinstance(m, App) and i == 1:
            m = m.arg
        else:
            raise IndexError(f"no subterm at {pos}")
        out.append(m)
    return out


def replace_at(m: Term, pos: Position, new: Term) -> Term:
    spine = _spine(m, pos)
    for parent, i in zip(reversed(spine[:-1]), reversed(pos)):
        if isinstance(parent, Abs):
            new = Abs(parent.var, new)
        elif isinstance(parent, Mu):
            new = Mu(parent.bound, parent.named, new)
        elif i == 0:
            new = App(new, parent.arg)
        else:
            new = App(parent.fun, new)
    return new


def _subst(m: Term, x: str, n: Term | None, g: str | None = None) -> Term:
    """The one capture-avoiding walk behind the three substitutions.

    With ``g`` None it is M[N/x] for the variable ``x``.  With ``g`` given,
    every free named subterm [x]P becomes [g](P N), or [g]P when ``n`` is
    None.  A binder that would capture a free identifier of N, or ``g``, is
    renamed, but only where ``x`` is free under it.  Subterms in which ``x``
    is not free come back as they are, so a walk that renames no binder
    costs time linear in M."""
    # x is a variable or a name; the None in the other slot matches nothing
    var, name = (x, None) if g is None else (None, x)
    free = free_term_vars if g is None else free_names
    # the identifiers a binder must not keep over a free occurrence of x
    fvn = free_term_vars(n) if n is not None else set()
    fnn = free_names(n) if n is not None else set()
    if g is not None:
        fnn.add(g)

    def go(m: Term) -> Term:
        if isinstance(m, Var):
            return n if m.name == var else m
        if isinstance(m, App):
            f, a = go(m.fun), go(m.arg)
            return m if f is m.fun and a is m.arg else App(f, a)
        if isinstance(m, Abs):
            if m.var == var:
                return m
            if m.var in fvn:
                # capture: rename the binder, but only where x occurs
                if x not in free(m):
                    return m
                y2 = fresh(all_identifiers(m) | fvn | {x}, m.var)
                m = Abs(y2, _subst(m.body, m.var, Var(y2)))
            body = go(m.body)
            return m if body is m.body else Abs(m.var, body)
        if isinstance(m, Mu):
            if m.bound == name:
                return m
            if m.bound in fnn:
                if x not in free(m):
                    return m
                d2 = fresh(all_identifiers(m) | fnn | {x}, m.bound)
                named = d2 if m.named == m.bound else m.named
                m = Mu(d2, named, _subst(m.body, m.bound, None, d2))
            body = go(m.body)
            if m.named == name:
                return Mu(m.bound, g, body if n is None else App(body, n))
            return m if body is m.body else Mu(m.bound, m.named, body)
        raise TypeError(f"not a term: {m!r}")

    return go(m)


def subst_term(m: Term, x: str, n: Term) -> Term:
    """Capture-avoiding M[N/x]."""
    return _subst(m, x, n)


def subst_structural(m: Term, a: str, n: Term, g: str) -> Term:
    """M[N.g/a]: every subterm named a becomes the same subterm applied to N,
    renamed g.  Requires ``g`` fresh for M and N and distinct from ``a``."""
    if g == a or g in free_names(m) | free_names(n):
        raise FreshnessViolation(f"{g} is not fresh for this substitution")
    return _subst(m, a, n, g)


def rename_name(m: Term, g: str, b: str) -> Term:
    """M[b/g]: retarget every free named occurrence [g] to [b]."""
    return _subst(m, g, None, b)


def _is_erasable(m: Term) -> bool:
    return (isinstance(m, Mu) and m.named == m.bound
            and m.bound not in free_names(m.body))


# rule -> does the term at hand match its left-hand side?
_REDEX = {
    "beta": lambda m: isinstance(m, App) and isinstance(m.fun, Abs),
    "mu": lambda m: isinstance(m, App) and isinstance(m.fun, Mu),
    "renaming": lambda m: isinstance(m, Mu) and isinstance(m.body, Mu),
    "erasing": _is_erasable,
    "eta_mu": lambda m: isinstance(m, Mu),
}


def iter_redexes(m: Term, enabled: set[str]) -> Iterator[tuple[Position, str]]:
    """Enabled redex positions, leftmost-outermost first, found lazily.

    A preorder walk with an explicit stack, so it stops at the first redex
    the caller takes and does not recurse on deep terms."""
    checks = [(rule, _REDEX[rule]) for rule in RULES if rule in enabled]
    stack: list[tuple[Term, tuple | None]] = [(m, None)]
    while stack:
        t, path = stack.pop()
        for rule, matches in checks:
            if matches(t):
                yield _position(path), rule
        if isinstance(t, (Abs, Mu)):
            stack.append((t.body, (0, path)))
        elif isinstance(t, App):
            stack.append((t.arg, (1, path)))
            stack.append((t.fun, (0, path)))


def _position(path: tuple | None) -> Position:
    """The position of a walker path, a linked list (index, parent)."""
    out = []
    while path is not None:
        i, path = path
        out.append(i)
    return tuple(reversed(out))


def redexes(m: Term, enabled: set[str]) -> list[tuple[Position, str]]:
    """All enabled redex positions, leftmost-outermost first."""
    return list(iter_redexes(m, enabled))


def _contract(m: Term, rule: str, whole: Term) -> Term:
    """Contract the redex ``m``; fresh names avoid every identifier of
    ``whole``, the term that contains it."""
    if rule == "beta":
        return subst_term(m.fun.body, m.fun.var, m.arg)
    if rule == "mu":
        red, n = m.fun, m.arg
        g = fresh(all_identifiers(whole), "g")
        body = subst_structural(red.body, red.bound, n, g)
        if red.named == red.bound:
            # the outer named occurrence is itself transformed
            return Mu(g, g, App(body, n))
        return Mu(g, red.named, body)
    if rule == "renaming":
        inner = m.body
        new_named = m.named if inner.named == inner.bound else inner.named
        new_body = rename_name(inner.body, inner.bound, m.named)
        return Mu(m.bound, new_named, new_body)
    if rule == "erasing":
        return m.body
    if rule == "eta_mu":
        avoid = all_identifiers(whole)
        x = fresh(avoid, "x")
        g = fresh(avoid | {x}, "g")
        body = subst_structural(m.body, m.bound, Var(x), g)
        if m.named == m.bound:
            return Abs(x, Mu(g, g, App(body, Var(x))))
        return Abs(x, Mu(g, m.named, body))
    raise ValueError(f"unknown rule: {rule!r}")


def step(m: Term, at: Position, rule: str) -> Term:
    """Contract exactly the redex ``(at, rule)`` in ``m``."""
    try:
        sub = subterm_at(m, at)
    except IndexError:
        raise NotARedex(f"no subterm at {at}") from None
    if rule not in _REDEX or not _REDEX[rule](sub):
        raise NotARedex(f"{rule} does not apply at {at}")
    return replace_at(m, at, _contract(sub, rule, m))


def normalize(m: Term, enabled: set[str], fuel: int = 1000) -> ReductionTrace:
    """Repeatedly contract the leftmost-outermost redex until none remain or
    fuel runs out."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    trace = ReductionTrace(m)
    cur = m
    for _ in range(fuel):
        first = next(iter_redexes(cur, enabled), None)
        if first is None:
            return trace
        pos, rule = first
        cur = step(cur, pos, rule)
        trace.steps.append((pos, rule, cur))
    if next(iter_redexes(cur, enabled), None) is not None:
        trace.fuel_exhausted = True
    return trace


def format_position(pos: Position) -> str:
    return ".".join(map(str, pos)) if pos else "-"


def format_trace(trace: ReductionTrace) -> str:
    from .grammar import print_term
    lines = [f"- start ~> {print_term(trace.initial)}"]
    for pos, rule, term in trace.steps:
        lines.append(f"{format_position(pos)} {rule} ~> {print_term(term)}")
    if trace.fuel_exhausted:
        lines.append("! fuel exhausted")
    return "\n".join(lines)
