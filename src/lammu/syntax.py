"""Abstract syntax of lambda-mu terms.

Terms are immutable.  Term variables and names (context variables) live in
disjoint namespaces: a variable ``x`` and a name ``x`` never compare equal
because they can only appear in distinct positions.  ``Mu(a, b, body)`` is the
fused form "mu a.[b] body"; the pseudo-terms "mu a.M" and "[b]M" are never
materialized on their own.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    """Base class for lambda-mu terms."""


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Abs(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Mu(Term):
    bound: str      # the name bound by mu; binds in body and in the named slot
    named: str      # the name inside [...]
    body: Term


def free_term_vars(m: Term) -> set[str]:
    if isinstance(m, Var):
        return {m.name}
    if isinstance(m, Abs):
        return free_term_vars(m.body) - {m.var}
    if isinstance(m, App):
        return free_term_vars(m.fun) | free_term_vars(m.arg)
    if isinstance(m, Mu):
        return free_term_vars(m.body)
    raise TypeError(f"not a term: {m!r}")


def free_names(m: Term) -> set[str]:
    if isinstance(m, Var):
        return set()
    if isinstance(m, Abs):
        return free_names(m.body)
    if isinstance(m, App):
        return free_names(m.fun) | free_names(m.arg)
    if isinstance(m, Mu):
        out = free_names(m.body)
        out.add(m.named)
        out.discard(m.bound)
        return out
    raise TypeError(f"not a term: {m!r}")


def all_identifiers(m: Term) -> set[str]:
    """Every variable and name occurring in ``m``, bound or free, found by
    one walk with an explicit stack that adds into a single set."""
    out: set[str] = set()
    todo = [m]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.arg, t.fun)
        elif isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Abs, Mu)):
            out.update((t.var,) if isinstance(t, Abs) else (t.bound, t.named))
            todo.append(t.body)
        else:
            raise TypeError(f"not a term: {t!r}")
    return out


def alpha_eq(m: Term, n: Term) -> bool:
    """Equality up to renaming of bound term variables and bound names."""

    def go(m, n, vm, vn, nm, nn, depth):
        if type(m) is not type(n):
            return False
        if isinstance(m, Var):
            return vm.get(m.name, m.name) == vn.get(n.name, n.name)
        if isinstance(m, Abs):
            return go(m.body, n.body,
                      {**vm, m.var: depth}, {**vn, n.var: depth},
                      nm, nn, depth + 1)
        if isinstance(m, App):
            return (go(m.fun, n.fun, vm, vn, nm, nn, depth)
                    and go(m.arg, n.arg, vm, vn, nm, nn, depth))
        if isinstance(m, Mu):
            nm2 = {**nm, m.bound: depth}
            nn2 = {**nn, n.bound: depth}
            if nm2.get(m.named, m.named) != nn2.get(n.named, n.named):
                return False
            return go(m.body, n.body, vm, vn, nm2, nn2, depth + 1)
        raise TypeError(f"not a term: {m!r}")

    return go(m, n, {}, {}, {}, {}, 0)


def fresh(avoid: set[str], hint: str) -> str:
    """First of hint, hint', hint'', ... not in ``avoid``."""
    c = hint
    while c in avoid:
        c += "'"
    return c
