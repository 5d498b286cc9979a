"""Substitution algorithms and the five reduction rules.

Rules: the computational rules ``beta`` and ``mu``, and the simplification
rules ``renaming``, ``erasing`` and ``eta_mu``.  Redex positions are paths of
child indices (Abs/Mu body = 0, App fun = 0, arg = 1).  Fresh names are drawn
deterministically from the identifiers of the term at hand, so reduction is a
pure function.
"""

from __future__ import annotations

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
    for i in pos:
        if isinstance(m, (Abs, Mu)) and i == 0:
            m = m.body
        elif isinstance(m, App) and i == 0:
            m = m.fun
        elif isinstance(m, App) and i == 1:
            m = m.arg
        else:
            raise IndexError(f"no subterm at {pos}")
    return m


def replace_at(m: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    i, rest = pos[0], pos[1:]
    if isinstance(m, Abs) and i == 0:
        return Abs(m.var, replace_at(m.body, rest, new))
    if isinstance(m, Mu) and i == 0:
        return Mu(m.bound, m.named, replace_at(m.body, rest, new))
    if isinstance(m, App) and i == 0:
        return App(replace_at(m.fun, rest, new), m.arg)
    if isinstance(m, App) and i == 1:
        return App(m.fun, replace_at(m.arg, rest, new))
    raise IndexError(f"no subterm at {pos}")


def rename_name(m: Term, g: str, b: str) -> Term:
    """M[b/g]: retarget every free named occurrence [g] to [b].

    Stops at rebindings of ``g``; capture-avoiding with respect to ``b``.
    """
    if g not in free_names(m):
        return m
    if isinstance(m, Var):
        return m
    if isinstance(m, Abs):
        return Abs(m.var, rename_name(m.body, g, b))
    if isinstance(m, App):
        return App(rename_name(m.fun, g, b), rename_name(m.arg, g, b))
    if isinstance(m, Mu):
        if m.bound == g:
            return m
        if m.bound == b:
            b2 = fresh(all_identifiers(m) | {g, b}, m.bound)
            named = b2 if m.named == m.bound else m.named
            return rename_name(Mu(b2, named, rename_name(m.body, m.bound, b2)), g, b)
        named = b if m.named == g else m.named
        return Mu(m.bound, named, rename_name(m.body, g, b))
    raise TypeError(f"not a term: {m!r}")


def subst_term(m: Term, x: str, n: Term) -> Term:
    """Capture-avoiding M[N/x]."""
    fvn = free_term_vars(n)
    fnn = free_names(n)

    def go(m: Term) -> Term:
        if x not in free_term_vars(m):
            return m
        if isinstance(m, Var):
            return n
        if isinstance(m, App):
            return App(go(m.fun), go(m.arg))
        if isinstance(m, Abs):
            if m.var in fvn:
                y2 = fresh(all_identifiers(m) | fvn | {x}, m.var)
                return Abs(y2, go(subst_term(m.body, m.var, Var(y2))))
            return Abs(m.var, go(m.body))
        if isinstance(m, Mu):
            if m.bound in fnn:
                a2 = fresh(all_identifiers(m) | fnn, m.bound)
                named = a2 if m.named == m.bound else m.named
                return Mu(a2, named, go(rename_name(m.body, m.bound, a2)))
            return Mu(m.bound, m.named, go(m.body))
        raise TypeError(f"not a term: {m!r}")

    return go(m)


def subst_structural(m: Term, a: str, n: Term, g: str) -> Term:
    """M[N.g/a]: every subterm named a becomes the same subterm applied to N,
    renamed g.  Requires ``g`` fresh for M and N and distinct from ``a``."""
    if g == a or g in free_names(m) | free_names(n):
        raise FreshnessViolation(f"{g} is not fresh for this substitution")
    fvn = free_term_vars(n)
    fnn = free_names(n)

    def go(m: Term) -> Term:
        if a not in free_names(m):
            return m
        if isinstance(m, Var):
            return m
        if isinstance(m, App):
            return App(go(m.fun), go(m.arg))
        if isinstance(m, Abs):
            if m.var in fvn:
                y2 = fresh(all_identifiers(m) | fvn, m.var)
                return Abs(y2, go(subst_term(m.body, m.var, Var(y2))))
            return Abs(m.var, go(m.body))
        if isinstance(m, Mu):
            if m.bound == a:
                return m
            if m.bound in fnn or m.bound == g:
                d2 = fresh(all_identifiers(m) | fnn | {a, g}, m.bound)
                named = d2 if m.named == m.bound else m.named
                m = Mu(d2, named, rename_name(m.body, m.bound, d2))
            if m.named == a:
                return Mu(m.bound, g, App(go(m.body), n))
            return Mu(m.bound, m.named, go(m.body))
        raise TypeError(f"not a term: {m!r}")

    return go(m)


def _matches(m: Term, rule: str) -> bool:
    if rule == "beta":
        return isinstance(m, App) and isinstance(m.fun, Abs)
    if rule == "mu":
        return isinstance(m, App) and isinstance(m.fun, Mu)
    if rule == "renaming":
        return isinstance(m, Mu) and isinstance(m.body, Mu)
    if rule == "erasing":
        return (isinstance(m, Mu) and m.named == m.bound
                and m.bound not in free_names(m.body))
    if rule == "eta_mu":
        return isinstance(m, Mu)
    raise ValueError(f"unknown rule: {rule!r}")


def redexes(m: Term, enabled: set[str]) -> list[tuple[Position, str]]:
    """All enabled redex positions, leftmost-outermost first."""
    out: list[tuple[Position, str]] = []

    def walk(m: Term, pos: Position) -> None:
        for rule in RULES:
            if rule in enabled and _matches(m, rule):
                out.append((pos, rule))
        if isinstance(m, (Abs, Mu)):
            walk(m.body, pos + (0,))
        elif isinstance(m, App):
            walk(m.fun, pos + (0,))
            walk(m.arg, pos + (1,))

    walk(m, ())
    return out


def _contract(m: Term, rule: str, avoid: set[str]) -> Term:
    if rule == "beta":
        return subst_term(m.fun.body, m.fun.var, m.arg)
    if rule == "mu":
        red, n = m.fun, m.arg
        g = fresh(avoid | all_identifiers(m), "g")
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
        x = fresh(avoid | all_identifiers(m), "x")
        g = fresh(avoid | all_identifiers(m) | {x}, "g")
        body = subst_structural(m.body, m.bound, Var(x), g)
        if m.named == m.bound:
            return Abs(x, Mu(g, g, App(body, Var(x))))
        return Abs(x, Mu(g, m.named, body))
    raise ValueError(f"unknown rule: {rule!r}")


def step(m: Term, at: Position, rule: str) -> Term:
    """Contract exactly the redex ``(at, rule)`` in ``m``."""
    if (at, rule) not in redexes(m, {rule}):
        raise NotARedex(f"{rule} does not apply at {at}")
    sub = subterm_at(m, at)
    return replace_at(m, at, _contract(sub, rule, all_identifiers(m)))


def normalize(m: Term, enabled: set[str], fuel: int = 1000) -> ReductionTrace:
    """Repeatedly contract the leftmost-outermost redex until none remain or
    fuel runs out."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    trace = ReductionTrace(m)
    cur = m
    for _ in range(fuel):
        rs = redexes(cur, enabled)
        if not rs:
            return trace
        pos, rule = rs[0]
        cur = step(cur, pos, rule)
        trace.steps.append((pos, rule, cur))
    if redexes(cur, enabled):
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
