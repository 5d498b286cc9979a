"""Abstract syntax of lambda-mu terms.

Terms are immutable: frozen dataclasses with slots, built by the
``__init__`` that ``slot_init`` writes, so a node holds its fields and no
instance dict.  Term variables and names (context variables) live in
disjoint namespaces: a variable ``x`` and a name ``x`` never compare equal
because they can only appear in distinct positions.  ``Mu(a, b, body)``
is the fused form "mu a.[b] body"; the pseudo-terms "mu a.M" and "[b]M" are
never materialized on their own.

The walks below keep their own stacks and take an application spine in one
loop turn, handling a variable child where they meet it.
"""

from __future__ import annotations

from dataclasses import dataclass


def slot_init(cls):
    """Give a frozen slotted dataclass an ``__init__`` that fills each slot by
    its descriptor (``App.fun.__set__``), not by ``object.__setattr__``.
    The base class's slots are caches, not fields (a type's printed text
    and iu check); they start as None."""
    names = cls.__match_args__
    caches = cls.__mro__[1].__slots__   # of Term or TypeExpr
    scope = {f"_{n}": getattr(cls, n).__set__ for n in names + caches}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _{n}(self, {n})\n" for n in names)
         + "".join(f"    _{n}(self, None)\n" for n in caches), scope)
    cls.__init__ = scope["__init__"]
    return cls


class Term:
    """Base class for lambda-mu terms."""

    __slots__ = ()


@slot_init
@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@slot_init
@dataclass(frozen=True, slots=True)
class Abs(Term):
    var: str
    body: Term


@slot_init
@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@slot_init
@dataclass(frozen=True, slots=True)
class Mu(Term):
    bound: str      # the name bound by mu; binds in body and in the named slot
    named: str      # the name inside [...]
    body: Term


def free_term_vars(m: Term) -> set[str]:
    """The free term variables of ``m``, found by one walk with an explicit
    stack.  Entering a binder that is not already in scope adds its name to
    ``bound`` and pushes the name under the body, so popping it ends the
    scope."""
    out: set[str] = set()
    bound: set[str] = set()
    todo: list = [m]
    while todo:
        t = todo.pop()
        kind = type(t)
        while kind is App:      # down the spine, to its head
            a = t.arg
            if type(a) is Var:
                if a.name not in bound:
                    out.add(a.name)
            else:
                todo.append(a)
            t = t.fun
            kind = type(t)
        if kind is Var:
            if t.name not in bound:
                out.add(t.name)
        elif kind is Abs:
            if t.var not in bound:
                bound.add(t.var)
                todo.append(t.var)
            todo.append(t.body)
        elif kind is Mu:
            todo.append(t.body)
        elif kind is str:
            bound.discard(t)
        else:
            raise TypeError(f"not a term: {t!r}")
    return out


def free_names(m: Term) -> set[str]:
    """The free names of ``m``, walked as ``free_term_vars`` walks."""
    out: set[str] = set()
    bound: set[str] = set()
    todo: list = [m]
    while todo:
        t = todo.pop()
        kind = type(t)
        while kind is App:      # down the spine, to its head
            if type(t.arg) is not Var:
                todo.append(t.arg)
            t = t.fun
            kind = type(t)
        if kind is Mu:
            if t.named != t.bound and t.named not in bound:
                out.add(t.named)
            if t.bound not in bound:
                bound.add(t.bound)
                todo.append(t.bound)
            todo.append(t.body)
        elif kind is Abs:
            todo.append(t.body)
        elif kind is str:
            bound.discard(t)
        elif kind is not Var:
            raise TypeError(f"not a term: {t!r}")
    return out


def all_identifiers(*ms: Term) -> set[str]:
    """Every variable and name occurring in the terms ``ms``, bound or free,
    found by one walk with an explicit stack that adds into a single set."""
    out: set[str] = set()
    todo = list(ms)
    while todo:
        t = todo.pop()
        kind = type(t)
        while kind is App:      # down the spine, to its head
            a = t.arg
            if type(a) is Var:
                out.add(a.name)
            else:
                todo.append(a)
            t = t.fun
            kind = type(t)
        if kind is Var:
            out.add(t.name)
        elif kind is Abs:
            out.add(t.var)
            todo.append(t.body)
        elif kind is Mu:
            out.add(t.bound)
            out.add(t.named)
            todo.append(t.body)
        else:
            raise TypeError(f"not a term: {t!r}")
    return out


def alpha_eq(m: Term, n: Term) -> bool:
    """Equality up to renaming of bound term variables and bound names.

    One walk over both terms with an explicit stack.  A bound identifier
    maps to the number of binders around its binder; entering a binder
    pushes what its name mapped to before, and popping that restores it."""
    vm, nm, vn, nn = {}, {}, {}, {}     # variables and names of m, of n
    depth = 0
    todo: list = [(m, n)]
    while todo:
        m, n = todo.pop()
        if m is None:                # the end of a scope; n is its undo
            depth -= 1
            for scope, key, old in n:
                if old is None:
                    del scope[key]
                else:
                    scope[key] = old
            continue
        kind = type(m)
        if kind is not type(n):
            return False
        if kind is App:
            todo += ((m.arg, n.arg), (m.fun, n.fun))
            continue
        if kind is Var:
            if vm.get(m.name, m.name) != vn.get(n.name, n.name):
                return False
            continue
        if kind is Abs:
            sm, sn, km, kn = vm, vn, m.var, n.var
        elif kind is Mu:
            sm, sn, km, kn = nm, nn, m.bound, n.bound
        else:
            raise TypeError(f"not a term: {m!r}")
        todo.append((None, ((sm, km, sm.get(km)), (sn, kn, sn.get(kn)))))
        sm[km] = sn[kn] = depth
        depth += 1
        if kind is Mu and nm.get(m.named, m.named) != nn.get(n.named, n.named):
            return False
        todo.append((m.body, n.body))
    return True


def fresh(avoid: set[str], hint: str) -> str:
    """First of hint, hint', hint'', ... not in ``avoid``."""
    c = hint
    while c in avoid:
        c += "'"
    return c
