"""Substitution algorithms and the five reduction rules.

Rules: the computational rules ``beta`` and ``mu``, and the simplification
rules ``renaming``, ``erasing`` and ``eta_mu`` (the mu rule after one
eta-expansion).  Redex positions are paths of child indices (Abs/Mu body = 0,
App fun = 0, arg = 1).  Fresh names are drawn deterministically from the
identifiers of the term at hand, so reduction is a pure function.

One preorder walk over a zipper finds redexes, leftmost-outermost first: it
lists them for ``iter_redexes``, and ``normalize`` resumes it after each
contraction at p.  Nodes before p in preorder that are not ancestors of p are
unchanged and hold no redex; the rebuilt ancestors keep their constructor and
their child's, so beta, mu, renaming and eta_mu can newly match only at p's
parent, and erasing at any ``mu a.[a]`` ancestor.  So the next redex is the
first such ancestor, top-down, or else the first redex at or after p.
``step`` checks only the redex it is given, with the walk's own match.  The
substitutions hand back every subterm in which the substituted variable or
name is not free as it is, so one step walks the term a bounded number of
times instead of rescanning each subterm for free variables.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .syntax import (Abs, App, Mu, Term, Var, all_identifiers, free_names,
                     free_term_vars, fresh)

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
    return _rebuild(_spine(m, pos)[:-1], pos, new)


def _rebuild(parents: list[Term], path, new: Term) -> Term:
    """Rebuild ``parents`` in place over ``new`` along ``path``; the root."""
    for j in reversed(range(len(parents))):
        parent = parents[j]
        kind = type(parent)
        if kind is App:
            new = App(new, parent.arg) if path[j] == 0 else App(parent.fun, new)
        elif kind is Abs:
            new = Abs(parent.var, new)
        else:
            new = Mu(parent.bound, parent.named, new)
        parents[j] = new
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


# rule -> (the constructor of its left-hand side, the rest of the match,
# given the term and a free-name memo for ``_free_names``)
_REDEX = {
    "beta": (App, lambda m, names: isinstance(m.fun, Abs)),
    "mu": (App, lambda m, names: isinstance(m.fun, Mu)),
    "renaming": (Mu, lambda m, names: isinstance(m.body, Mu)),
    "erasing": (Mu, lambda m, names: m.named == m.bound
                and m.bound not in _free_names(m.body, names)),
    "eta_mu": (Mu, lambda m, names: True),
}

RULES = tuple(_REDEX)


def _free_names(m: Term, memo: dict) -> frozenset[str]:
    """``free_names(m)`` without recursion, memoized in ``memo`` by node id;
    the memo keeps each node, so no id is reused while it lives."""
    todo = [m]
    while todo:
        t = todo.pop()
        kids = ((t.fun, t.arg) if isinstance(t, App) else
                () if isinstance(t, Var) else (t.body,))
        if any(id(c) not in memo for c in kids):
            todo += (t, *kids)
            continue
        out = frozenset().union(*(memo[id(c)][1] for c in kids))
        if isinstance(t, Mu):
            out = (out | {t.named}) - {t.bound}
        memo[id(t)] = (t, out)
    return memo[id(m)][1]


class _Walk:
    """A preorder walk over a zipper: the focus, its ancestors ``parents``
    (root first) and the child indices ``path`` taken at them.  ``names``
    is the walk's free-name memo."""

    def __init__(self, m: Term, enabled: set[str]):
        self.checks: dict[type, list] = {App: [], Mu: []}
        for rule in (r for r in RULES if r in enabled):
            self.checks[_REDEX[rule][0]].append((rule, _REDEX[rule][1]))
        self.focus, self.parents, self.path = m, [], []
        self.erasing = "erasing" in enabled
        self.names: dict[int, tuple[Term, frozenset[str]]] = {}

    def walk(self) -> Iterator[str]:
        """Each enabled redex from the focus on, in preorder; the focus is
        on a redex when its rule is yielded."""
        checks, names = self.checks, self.names
        parents, path, t = self.parents, self.path, self.focus
        while True:
            for rule, test in checks.get(type(t), ()):
                if test(t, names):
                    self.focus = t
                    yield rule
            if isinstance(t, (App, Abs, Mu)):
                parents.append(t)
                path.append(0)
                t = t.fun if isinstance(t, App) else t.body
                continue
            # a leaf: on to the argument of the nearest App entered by its fun
            while parents and (path[-1] or not isinstance(parents[-1], App)):
                parents.pop()
                path.pop()
            if not parents:
                return
            path[-1] = 1
            t = parents[-1].arg

    def resume(self) -> str | None:
        """After a contraction at the focus, move the focus onto the next
        redex and give its rule, or None (see the module docstring)."""
        k = len(self.parents)
        for j in range(0 if self.erasing else max(k - 1, 0), k):
            a = self.parents[j]
            rule = next((r for r, test in self.checks.get(type(a), ())
                         if test(a, self.names)), None)
            if rule is not None:
                self.focus = self.parents[j]
                del self.parents[j:], self.path[j:]
                return rule
        return next(self.walk(), None)


def iter_redexes(m: Term, enabled: set[str]) -> Iterator[tuple[Position, str]]:
    """Enabled redex positions, leftmost-outermost first, found lazily and
    without recursion."""
    w = _Walk(m, enabled)
    for rule in w.walk():
        yield tuple(w.path), rule


def redexes(m: Term, enabled: set[str]) -> list[tuple[Position, str]]:
    """All enabled redex positions, leftmost-outermost first."""
    return list(iter_redexes(m, enabled))


def _contract(m: Term, rule: str, whole: Term) -> Term:
    """Contract the redex ``m``; fresh names avoid every identifier of
    ``whole``, the term that contains it, so ``g`` needs no freshness check
    in ``subst_structural``."""
    if rule == "beta":
        return subst_term(m.fun.body, m.fun.var, m.arg)
    if rule == "mu":
        red, n = m.fun, m.arg
        g = fresh(all_identifiers(whole), "g")
        body = _subst(red.body, red.bound, n, g)
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
    # eta_mu: mu a.[b]M becomes \x.(mu a.[b]M) x, whose body mu contracts
    x = fresh(all_identifiers(whole), "x")
    return Abs(x, _contract(App(m, Var(x)), "mu", whole))


def step(m: Term, at: Position, rule: str) -> Term:
    """Contract exactly the redex ``(at, rule)`` in ``m``."""
    try:
        *parents, sub = _spine(m, at)
    except IndexError:
        raise NotARedex(f"no subterm at {at}") from None
    if rule not in _REDEX or not (isinstance(sub, _REDEX[rule][0])
                                  and _REDEX[rule][1](sub, {})):
        raise NotARedex(f"{rule} does not apply at {at}")
    return _rebuild(parents, at, _contract(sub, rule, m))


def normalize(m: Term, enabled: set[str], fuel: int = 1000) -> ReductionTrace:
    """Repeatedly contract the leftmost-outermost redex until none remain or
    fuel runs out."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    trace = ReductionTrace(m)
    w = _Walk(m, enabled)
    rule = next(w.walk(), None)
    for _ in range(fuel):
        if rule is None:
            return trace
        w.focus = _contract(w.focus, rule, m)
        m = _rebuild(w.parents, w.path, w.focus)
        trace.steps.append((tuple(w.path), rule, m))
        rule = w.resume()
    trace.fuel_exhausted = rule is not None
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
