"""Type expressions for the three type languages, with canonical forms and the preorder.

One syntax tree serves three languages:

* ``curry``  -- type variables, ``bot``, arrows (``bot`` never left of an arrow)
* ``strict`` -- type variables and arrows whose left side is an intersection
* ``iu``     -- strict types extended with unions; intersections of unions are
  allowed, unions of intersections are not

``top`` is the empty intersection and ``bot`` the empty union.  Types are
slotted frozen dataclasses built by ``syntax.slot_init``, as terms are.
A type caches its printed text and whether it is an iu type, each filled on
first use, in slots of ``TypeExpr`` that are not fields: ``==``, ``hash``,
``repr`` and ``match`` ignore them, and a copy starts without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .syntax import slot_init


class TypeExpr:
    """Base class for type expressions; its slots are the cached facts."""

    __slots__ = ("_text", "_iu")

    def __reduce__(self):   # rebuilt by __init__, so with empty caches
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


@slot_init
@dataclass(frozen=True, slots=True, repr=False)
class TVar(TypeExpr):
    name: str

    def __repr__(self):
        return f"TVar({self.name})"


@slot_init
@dataclass(frozen=True, slots=True, repr=False)
class Arrow(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def __repr__(self):
        return f"Arrow({self.left!r}, {self.right!r})"


@slot_init
@dataclass(frozen=True, slots=True, repr=False)
class Inter(TypeExpr):
    parts: tuple[TypeExpr, ...]

    def __repr__(self):
        return "Inter(%s)" % ", ".join(repr(p) for p in self.parts)


@slot_init
@dataclass(frozen=True, slots=True, repr=False)
class Union(TypeExpr):
    parts: tuple[TypeExpr, ...]

    def __repr__(self):
        return "Union(%s)" % ", ".join(repr(p) for p in self.parts)


# The maximal and minimal elements.  ``Bottom`` doubles as the curry-language
# type constant; the language checks keep the readings apart.
Top = Inter(())
Bottom = Union(())


def inter_parts(t: TypeExpr) -> tuple[TypeExpr, ...]:
    """View ``t`` as an intersection; a single strict type is a 1-intersection."""
    return t.parts if isinstance(t, Inter) else (t,)


def union_parts(t: TypeExpr) -> tuple[TypeExpr, ...]:
    """View ``t`` as a union; a single non-union type is a 1-union."""
    return t.parts if isinstance(t, Union) else (t,)


def _wf_curry(t: TypeExpr) -> bool:
    if isinstance(t, TVar):
        return True
    if t == Bottom:
        return True
    if isinstance(t, Arrow):
        return t.left != Bottom and _wf_curry(t.left) and _wf_curry(t.right)
    return False


def _wf_iu_s(t: TypeExpr, unions: bool = True) -> bool:
    """Is ``t`` a strict type of the iu language, or with ``unions`` false,
    of the strict language (which is iu without unions)?"""
    if isinstance(t, TVar):
        return True
    if isinstance(t, Union):
        # no union of intersections, but unions of unions are fine
        return unions and all(not isinstance(p, Inter) and _wf_iu_s(p)
                              for p in t.parts)
    if isinstance(t, Arrow):
        return _wf_iu_i(t.left, unions) and _wf_iu_s(t.right, unions)
    return False


def _wf_iu_i(t: TypeExpr, unions: bool = True) -> bool:
    if isinstance(t, Inter):
        return all(_wf_iu_s(p, unions) for p in t.parts)
    return _wf_iu_s(t, unions)


def well_formed(t: TypeExpr, language: str) -> bool:
    """Does ``t`` belong to the given type language?"""
    if language == "curry":
        return _wf_curry(t)
    if language == "strict":
        return _wf_iu_i(t, unions=False)
    if language == "iu":
        if isinstance(t, TypeExpr) and t._iu is None:
            TypeExpr._iu.__set__(t, _wf_iu_i(t))
        return isinstance(t, TypeExpr) and t._iu
    raise ValueError(f"unknown type language: {language!r}")


def is_strict(t: TypeExpr) -> bool:
    """Is ``t`` a strict iu type (i.e. not a top-level intersection)?"""
    return not isinstance(t, Inter) and _wf_iu_s(t)


def _dedup(parts: list[TypeExpr]) -> list[TypeExpr]:
    out: list[TypeExpr] = []
    for p in parts:
        if not any(_leq(p, q) and _leq(q, p) for q in out):
            out.append(p)
    return out


@lru_cache(maxsize=1 << 18)
def canonicalize(t: TypeExpr) -> TypeExpr:
    """Flatten, deduplicate (up to the induced equivalence) and sort.

    Idempotent and equivalence-preserving.  Singleton intersections and unions
    collapse; ``top`` members of intersections and ``bot`` members of unions
    are dropped.
    """
    if isinstance(t, TVar):
        return t
    if isinstance(t, Arrow):
        return Arrow(canonicalize(t.left), canonicalize(t.right))
    if isinstance(t, (Inter, Union)):
        kind = type(t)
        flat: list[TypeExpr] = []
        for p in t.parts:
            p = canonicalize(p)
            flat.extend(p.parts if isinstance(p, kind) else [p])
        flat = _dedup(sorted(flat, key=repr))
        if len(flat) == 1:
            return flat[0]
        return kind(tuple(flat))
    raise TypeError(f"not a type expression: {t!r}")


@lru_cache(maxsize=1 << 18)
def _leq(a: TypeExpr, b: TypeExpr) -> bool:
    """The preorder on canonical forms.

    Elimination-style rules first (both are invertible), then the
    introduction-style choices, then atoms.  Arrows compare by equivalence on
    both sides; there is no co/contravariant arrow rule.
    """
    if isinstance(b, Inter):
        return all(_leq(a, p) for p in b.parts)
    if isinstance(a, Union):
        return all(_leq(p, b) for p in a.parts)
    if isinstance(a, Inter):
        return any(_leq(p, b) for p in a.parts)
    if isinstance(b, Union):
        return any(_leq(a, p) for p in b.parts)
    if isinstance(a, TVar):
        return a == b
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return (_leq(a.left, b.left) and _leq(b.left, a.left)
                and _leq(a.right, b.right) and _leq(b.right, a.right))
    return False


def subtype(a: TypeExpr, b: TypeExpr) -> bool:
    """Decide ``a <= b`` in the generated preorder, modulo equivalence."""
    return _leq(canonicalize(a), canonicalize(b))


def type_equiv(a: TypeExpr, b: TypeExpr) -> bool:
    if a is b:
        return True
    ca, cb = canonicalize(a), canonicalize(b)
    return _leq(ca, cb) and _leq(cb, ca)


def subexpressions(t: TypeExpr) -> Iterable[TypeExpr]:
    """All sub-type-expressions of ``t`` (including ``t``)."""
    yield t
    if isinstance(t, Arrow):
        yield from subexpressions(t.left)
        yield from subexpressions(t.right)
    elif isinstance(t, (Inter, Union)):
        for p in t.parts:
            yield from subexpressions(p)
