"""Substitution algorithms and the five reduction rules.

Rules: the computational rules ``beta`` and ``mu``, and the simplification
rules ``renaming``, ``erasing`` and ``eta_mu`` (the mu rule after one
eta-expansion).  Redex positions are paths of child indices (Abs/Mu body = 0,
App fun = 0, arg = 1).  Fresh names are drawn deterministically from the
identifiers of the term at hand, so reduction is a pure function.

One preorder walk over a zipper (Huet, *The Zipper*, JFP 1997) finds
redexes, leftmost-outermost first: it lists them for ``iter_redexes``, and
``normalize`` resumes it after each contraction at p.  Nodes before p in
preorder that are not ancestors of p are unchanged and hold no redex; the
ancestors keep their constructor and their child's, so beta, mu, renaming
and eta_mu can newly match only at p's parent, and erasing at any
``mu a.[a]`` ancestor.  So the next redex is the first such ancestor,
top-down, or else the first redex at or after p.  ``step`` checks only the
redex it is given, with the walk's own match.

A contraction leaves the ancestors of p stale: one is rebuilt over its new
child only when the walk climbs out of it or ``resume`` tests it, and the
rest once at the end, for ``final``.  The trace keeps each step's position,
rule and contractum, from which ``ReductionTrace.terms`` replays the whole
terms.  Fresh names avoid the whole term's identifiers, read off the zipper
as the redex's and each ancestor's own names and off-path child's.

Substitution walks one path at a time, down each chain of nodes with one
child to walk, and rebuilds the chain bottom-up in one loop; only an
application of two compound terms waits on its explicit stack, so it takes
terms of any depth.  It hands back every subterm in which the substituted
variable or name is not free as it is, and scans the argument for
identifiers a binder could capture only when it meets a binder.

A variable holds no redex, binds nothing and has no children, so both walks
handle a variable child where they meet it: substitution at its
application, and the redex walk by going on to the argument.
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
    """What ``normalize`` did: each step as ``(position, rule, contractum)``,
    the redex's position and the term that replaced it there; the normal
    form, or the term the fuel left, ``final``; whether a redex was left."""
    initial: Term
    steps: list[tuple[Position, str, Term]] = field(default_factory=list)
    fuel_exhausted: bool = False
    final: Term | None = None

    def terms(self) -> Iterator[Term]:
        """The whole term after each step, replayed from ``initial``."""
        m = self.initial
        for pos, _, contractum in self.steps:
            m = replace_at(m, pos, contractum)
            yield m


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
    parents = _spine(m, pos)[:-1]
    for j in reversed(range(len(parents))):
        new = _over(parents[j], pos[j], new)
    return new


def _over(parent: Term, i: int, new: Term) -> Term:
    """``parent`` with ``new`` for its child ``i``."""
    kind = type(parent)
    if kind is App:
        return App(new, parent.arg) if i == 0 else App(parent.fun, new)
    if kind is Abs:
        return Abs(parent.var, new)
    return Mu(parent.bound, parent.named, new)


_DONE = object()    # on _subst's stack: the frame under it has its results


def _subst(m: Term, x: str, n: Term | None, g: str | None = None) -> Term:
    """The one capture-avoiding walk behind the three substitutions.

    With ``g`` None it is M[N/x] for the variable ``x``.  With ``g`` given,
    every free named subterm [x]P becomes [g](P N), or [g]P when ``n`` is
    None.  A binder that would capture a free identifier of N, or ``g``, is
    renamed, but only where ``x`` is free under it.  Subterms in which ``x``
    is not free come back as they are, so a walk that renames no binder
    costs time linear in M.

    The walk goes down one path at a time, so no depth of M is too deep.
    From a subterm it goes down while the node has one child to walk (an
    abstraction, a mu, or an application with a variable child, which is
    substituted when the path is rebuilt) and keeps the nodes in ``path``.
    It stops at a variable, at a binder returned as it is, or at an
    application of two compound terms, which alone goes on the stack: as
    ``t, path, _DONE, arg, fun``, rebuilt from its children's results.  Then
    the path is rebuilt bottom-up in one loop.  The identifiers a binder
    must not keep over x, N's free variables or N's free names and ``g``,
    are computed when the walk first meets an abstraction or a mu that does
    not bind x; a body without binders costs no scan of N.  A renamed
    binder's body is renamed by a nested call, which meets no capture,
    since the new name occurs nowhere in M."""
    # x is a variable or a name; the None in the other slot matches nothing
    var, name = (x, None) if g is None else (None, x)
    free = free_term_vars if g is None else free_names
    fvn = fnn = None
    out: list[Term] = []
    todo: list = [m]
    while todo:
        t = todo.pop()
        if t is _DONE:
            path, t = todo.pop(), todo.pop()
            a, f = out.pop(), out.pop()
            cur = t if f is t.fun and a is t.arg else App(f, a)
        else:
            path = []
            while True:
                kind = type(t)
                if kind is App:
                    if type(t.fun) is Var:
                        below = t.arg
                    elif type(t.arg) is Var:
                        below = t.fun
                    else:
                        todo += (t, path, _DONE, t.arg, t.fun)
                        break
                elif kind is Var:
                    break
                elif kind is Abs:
                    if t.var == var:
                        break
                    if fvn is None:
                        fvn = free_term_vars(n) if n is not None else set()
                    if t.var in fvn:
                        # capture: rename the binder, but only where x occurs
                        if x not in free(t):
                            break
                        y2 = fresh(all_identifiers(t) | fvn | {x}, t.var)
                        t = Abs(y2, _subst(t.body, t.var, Var(y2)))
                    below = t.body
                elif kind is Mu:
                    if t.bound == name:
                        break
                    if fnn is None:
                        fnn = free_names(n) if n is not None else set()
                        if g is not None:
                            fnn.add(g)
                    if t.bound in fnn:
                        if x not in free(t):
                            break
                        d2 = fresh(all_identifiers(t) | fnn | {x}, t.bound)
                        named = d2 if t.named == t.bound else t.named
                        t = Mu(d2, named, _subst(t.body, t.bound, None, d2))
                    below = t.body
                else:
                    raise TypeError(f"not a term: {t!r}")
                path.append(t)
                t = below
            if kind is App:
                continue
            cur = n if kind is Var and t.name == var else t
        for p in reversed(path):
            kind = type(p)
            if kind is App:
                f, a = p.fun, p.arg
                if type(f) is Var:
                    if f.name == var:
                        f = n
                    cur = p if f is p.fun and cur is a else App(f, cur)
                else:
                    if a.name == var:
                        a = n
                    cur = p if cur is f and a is p.arg else App(cur, a)
            elif kind is Abs:
                cur = p if cur is p.body else Abs(p.var, cur)
            elif p.named == name:
                cur = Mu(p.bound, g, cur if n is None else App(cur, n))
            else:
                cur = p if cur is p.body else Mu(p.bound, p.named, cur)
        out.append(cur)
    return out[0]


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
    (root first) and the child indices ``path`` taken at them.  Each of
    ``parents[:stale]`` still holds its child from before the contractions
    under it (see the module docstring).  ``names`` is the free-name memo."""

    def __init__(self, m: Term, enabled: set[str]):
        self.checks: dict[type, list] = {App: [], Mu: []}
        for rule in (r for r in RULES if r in enabled):
            self.checks[_REDEX[rule][0]].append((rule, _REDEX[rule][1]))
        self.focus, self.parents, self.path, self.stale = m, [], [], 0
        self.erasing = "erasing" in enabled
        self.names: dict[int, tuple[Term, frozenset[str]]] = {}

    def walk(self) -> Iterator[str]:
        """Each enabled redex from the focus on, in preorder; the focus is
        on a redex when its rule is yielded, and on the whole term when the
        walk ends.  A walk is not resumed after a contraction."""
        checks, names, stale = self.checks, self.names, self.stale
        parents, path, t = self.parents, self.path, self.focus
        while True:
            kind = type(t)
            if kind is App and type(t.fun) is Var:
                # no rule matches here, nor in the variable: on to the argument
                parents.append(t)
                path.append(1)
                t = t.arg
                continue
            for rule, test in checks.get(kind, ()):
                if test(t, names):
                    self.focus, self.stale = t, stale
                    yield rule
            if kind is App or kind is Abs or kind is Mu:
                parents.append(t)
                path.append(0)
                t = t.fun if kind is App else t.body
                continue
            # a leaf: up to the nearest App entered by its fun, rebuilding each
            # stale ancestor over the subterm t left, and on to its argument
            while parents and (path[-1] or not isinstance(parents[-1], App)):
                p, i = parents.pop(), path.pop()
                t = _over(p, i, t) if len(parents) < stale else p
            if not parents:
                self.focus, self.stale = t, 0
                return
            if len(parents) <= stale:
                stale = len(parents) - 1
                parents[-1] = App(t, parents[-1].arg)
            path[-1] = 1
            t = parents[-1].arg

    def settle(self, lo: int) -> Term:
        """Rebuild the stale ancestors from depth ``lo``, at most ``stale``,
        down; the node at depth ``lo``, the whole term for 0."""
        parents, k = self.parents, self.stale
        new = parents[k] if k < len(parents) else self.focus
        for j in reversed(range(lo, k)):
            new = parents[j] = _over(parents[j], self.path[j], new)
        self.stale = lo
        return new

    def identifiers(self) -> set[str]:
        """``all_identifiers`` of the whole term, read off the zipper, where a
        stale ancestor differs from its rebuilt self only on the path."""
        out, kids = set(), [self.focus]
        for p, i in zip(self.parents, self.path):
            if type(p) is App:
                kids.append(p.fun if i else p.arg)
            else:
                out.update((p.var,) if type(p) is Abs else (p.bound, p.named))
        return out | all_identifiers(*kids)

    def resume(self) -> str | None:
        """After a contraction at the focus, move the focus onto the next
        redex and give its rule, or None (see the module docstring)."""
        k = len(self.parents)
        lo = 0 if self.erasing else max(k - 1, 0)
        self.settle(lo)
        for j in range(lo, k):
            a = self.parents[j]
            rule = next((r for r, test in self.checks.get(type(a), ())
                         if test(a, self.names)), None)
            if rule is not None:
                self.focus = a
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


def _contract(m: Term, rule: str, ids) -> Term:
    """Contract the redex ``m``; fresh names avoid ``ids()``, every
    identifier of the term that contains it, so ``g`` needs no freshness
    check in ``subst_structural``."""
    if rule == "beta":
        return subst_term(m.fun.body, m.fun.var, m.arg)
    if rule == "mu":
        red, n = m.fun, m.arg
        g = fresh(ids(), "g")
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
    avoid = ids()
    x = fresh(avoid, "x")
    return Abs(x, _contract(App(m, Var(x)), "mu", lambda: avoid))


def step(m: Term, at: Position, rule: str) -> Term:
    """Contract exactly the redex ``(at, rule)`` in ``m``."""
    try:
        sub = subterm_at(m, at)
    except IndexError:
        raise NotARedex(f"no subterm at {at}") from None
    if rule not in _REDEX or not (isinstance(sub, _REDEX[rule][0])
                                  and _REDEX[rule][1](sub, {})):
        raise NotARedex(f"{rule} does not apply at {at}")
    return replace_at(m, at, _contract(sub, rule, lambda: all_identifiers(m)))


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
            break
        w.focus = _contract(w.focus, rule, w.identifiers)
        w.stale = len(w.parents)
        trace.steps.append((tuple(w.path), rule, w.focus))
        rule = w.resume()
    trace.fuel_exhausted = rule is not None
    trace.final = w.settle(0)
    return trace


def format_position(pos: Position) -> str:
    return ".".join(map(str, pos)) if pos else "-"


def format_trace(trace: ReductionTrace) -> str:
    from .grammar import print_term
    lines = [f"- start ~> {print_term(trace.initial)}"]
    for (pos, rule, _), term in zip(trace.steps, trace.terms()):
        lines.append(f"{format_position(pos)} {rule} ~> {print_term(term)}")
    if trace.fuel_exhausted:
        lines.append("! fuel exhausted")
    return "\n".join(lines)
