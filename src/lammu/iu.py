"""Intersection-union typing: derivation checker, admissible constructions,
bounded search and certificates.

Derivations are explicit trees over six rules:

* ``InterE``       variable lookup, projecting one component of its environment type
* ``InterI``       intersection introduction (n components, n != 1)
* ``ArrowI``       abstraction
* ``ArrowE``       application against a union of arrows (n >= 1 branches)
* ``UnionE_named`` context switch ``mu a.[b] M`` targeting an environment name b
* ``UnionE_self``  context switch ``mu b.[b] M`` targeting its own bound name

plus the admissible wrappers ``Thin`` (restrict environments to the free
variables and names) and ``Weaken`` (strengthen the left environment, widen
the right one).  Types in a node are compared up to the equivalence induced by
the preorder, except variable lookup, which projects components as written.

``check_derivation`` is the one statement of these rules.  The search returns
only derivations it accepts, and the constructions turn a derivation it
accepts into another it accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product, repeat
from json.encoder import encode_basestring_ascii as _json_str

from .syntax import Abs, App, Mu, Term, Var, free_names, free_term_vars
from .typelang import (Arrow, Bottom, Inter, Top, TypeExpr, Union,
                       canonicalize, env_leq_left, env_leq_right, inter_parts,
                       is_strict, subexpressions, subtype, type_equiv,
                       union_parts, well_formed)

RULES = ("InterE", "InterI", "ArrowI", "ArrowE",
         "UnionE_named", "UnionE_self", "Thin", "Weaken")


@dataclass
class Judgment:
    """``gamma |- term : ty | delta``.  Judgments share environment dicts
    (a premise often holds its conclusion's), so treat ``gamma`` and ``delta``
    as read-only: extend one as ``{**gamma, x: t}``, never in place."""
    gamma: dict[str, TypeExpr]
    term: Term
    ty: TypeExpr
    delta: dict[str, TypeExpr]


@dataclass
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()


def _where(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "root"


class InvalidNode(Exception):
    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(f"invalid node at {_where(path)}: {reason}")
        self.path = path
        self.reason = reason


class PreconditionViolation(Exception):
    pass


class MalformedCertificate(Exception):
    """A certificate node lacks a field or has one of the wrong JSON type."""

    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(f"certificate node at {_where(path)}: {reason}")


def _env_equiv(a: dict[str, TypeExpr], b: dict[str, TypeExpr]) -> bool:
    return a is b or a == b or (
        set(a) == set(b) and all(type_equiv(a[k], b[k]) for k in a))


def _check_node(d: Derivation, path: tuple[int, ...], envs_ok: dict) -> None:
    j = d.conclusion

    def bad(reason: str):
        raise InvalidNode(path, reason)

    if not well_formed(j.ty, "iu"):
        bad("type outside the intersection-union language")
    for role, env in (("gamma", j.gamma), ("delta", j.delta)):
        if (role, id(env)) not in envs_ok:
            if not all(well_formed(t, "iu") for t in env.values()):
                bad("type outside the intersection-union language")
            if role == "delta" and not all(map(is_strict, env.values())):
                bad("right environment entries must be strict")
            envs_ok[role, id(env)] = env

    if d.rule == "InterE":
        if not isinstance(j.term, Var):
            bad("variable lookup applies to variables only")
        if d.premises:
            bad("variable lookup takes no premises")
        if j.term.name not in j.gamma:
            bad(f"variable {j.term.name} not in environment")
        if j.ty not in inter_parts(j.gamma[j.term.name]):
            bad("type is not a component of the environment entry")
        return

    if d.rule == "InterI":
        parts = j.ty.parts if isinstance(j.ty, Inter) else None
        if parts is None:
            bad("conclusion must be an intersection")
        if len(parts) == 1:
            bad("intersection introduction excludes exactly one premise")
        if len(d.premises) != len(parts):
            bad("one premise per component required")
        for p, t in zip(d.premises, parts):
            if not type_equiv(p.conclusion.ty, t):
                bad("premise type does not match its component")
            if p.conclusion.term != j.term:
                bad("premises must type the same term")
            if not (_env_equiv(p.conclusion.gamma, j.gamma)
                    and _env_equiv(p.conclusion.delta, j.delta)):
                bad("premises must share the conclusion environments")
        return

    if d.rule == "ArrowI":
        if not isinstance(j.term, Abs):
            bad("arrow introduction applies to abstractions")
        if not isinstance(j.ty, Arrow):
            bad("conclusion must be an arrow")
        if len(d.premises) != 1:
            bad("arrow introduction takes one premise")
        p = d.premises[0].conclusion
        want_gamma = {**j.gamma, j.term.var: j.ty.left}
        if p.term != j.term.body:
            bad("premise must type the body")
        if not type_equiv(p.ty, j.ty.right):
            bad("premise type must be the arrow target")
        if not (_env_equiv(p.gamma, want_gamma) and _env_equiv(p.delta, j.delta)):
            bad("premise environment must bind the abstracted variable")
        return

    if d.rule == "ArrowE":
        if not isinstance(j.term, App):
            bad("arrow elimination applies to applications")
        if len(d.premises) < 2:
            bad("arrow elimination needs a function premise and n >= 1 argument premises")
        fprem = d.premises[0].conclusion
        if fprem.term != j.term.fun:
            bad("first premise must type the function")
        fparts = union_parts(fprem.ty)
        if not fparts or not all(isinstance(p, Arrow) for p in fparts):
            bad("function premise must carry a union of arrows")
        if len(d.premises) != len(fparts) + 1:
            bad("one argument premise per union branch required")
        for arrow, ap in zip(fparts, d.premises[1:]):
            a = ap.conclusion
            if a.term != j.term.arg:
                bad("argument premises must type the argument")
            if not type_equiv(a.ty, arrow.left):
                bad("argument premise does not match the arrow source")
        rights = Union(tuple(p.right for p in fparts))
        if not type_equiv(j.ty, rights):
            bad("conclusion must be the union of the arrow targets")
        for p in d.premises:
            c = p.conclusion
            if not (_env_equiv(c.gamma, j.gamma) and _env_equiv(c.delta, j.delta)):
                bad("premises must share the conclusion environments")
        return

    if d.rule in ("UnionE_named", "UnionE_self"):
        if not isinstance(j.term, Mu):
            bad("union elimination applies to context switches")
        if len(d.premises) != 1:
            bad("union elimination takes one premise")
        p = d.premises[0].conclusion
        if p.term != j.term.body:
            bad("premise must type the body")
        if isinstance(j.ty, Inter):
            bad("union elimination concludes a strict type")
        if d.rule == "UnionE_named":
            if j.term.named == j.term.bound:
                bad("the named slot refers to the bound name; use the self variant")
            if j.term.named not in j.delta:
                bad(f"name {j.term.named} not in environment")
            target = j.delta[j.term.named]
        else:
            if j.term.named != j.term.bound:
                bad("the named slot differs from the bound name; use the named variant")
            target = j.ty
        if not (_env_equiv(p.gamma, j.gamma)
                and _env_equiv(p.delta, {**j.delta, j.term.bound: j.ty})):
            bad("premise environment must bind the freed name")
        if not subtype(p.ty, target):
            bad("premise type must lie below the target union")
        return

    if d.rule in ("Thin", "Weaken"):
        verb = "thinning" if d.rule == "Thin" else "weakening"
        if len(d.premises) != 1:
            bad(f"{verb} takes one premise")
        p = d.premises[0].conclusion
        if p.term != j.term or not type_equiv(p.ty, j.ty):
            bad(f"{verb} preserves the term and type")
        if d.rule == "Thin":
            want = thin(d.premises[0]).conclusion
            if not (_env_equiv(j.gamma, want.gamma)
                    and _env_equiv(j.delta, want.delta)):
                bad("environments must be restricted to the free variables and names")
        elif not env_leq_left(j.gamma, p.gamma):
            bad("conclusion left environment must lie below the premise's")
        elif not env_leq_right(p.delta, j.delta):
            bad("premise right environment must lie below the conclusion's")
        return

    bad(f"unknown rule {d.rule!r}")


def check_derivation(d: Derivation) -> None:
    """Validate every node; raises InvalidNode at the first violation."""
    # the environment dicts that passed in this walk, by role and id; holding
    # them keeps their ids from being reused while it lasts
    envs_ok: dict = {}

    def walk(d: Derivation, path: tuple[int, ...]) -> None:
        _check_node(d, path, envs_ok)
        for i, p in enumerate(d.premises):
            walk(p, path + (i,))

    walk(d, ())


# -- admissible constructions -------------------------------------------------

def thin(d: Derivation) -> Derivation:
    j = d.conclusion
    fv, fn = free_term_vars(j.term), free_names(j.term)
    g = {x: t for x, t in j.gamma.items() if x in fv}
    dl = {a: t for a, t in j.delta.items() if a in fn}
    if g == j.gamma and dl == j.delta:
        return d
    return Derivation("Thin", Judgment(g, j.term, j.ty, dl), (d,))


def weaken(d: Derivation, gamma: dict[str, TypeExpr],
           delta: dict[str, TypeExpr]) -> Derivation:
    j = d.conclusion
    if not env_leq_left(gamma, j.gamma):
        raise PreconditionViolation("new left environment is not below the old one")
    if not env_leq_right(j.delta, delta):
        raise PreconditionViolation("old right environment is not below the new one")
    if gamma == j.gamma and delta == j.delta:
        return d
    return Derivation("Weaken", Judgment(gamma, j.term, j.ty, delta), (d,))


# -- bounded search -----------------------------------------------------------

@dataclass
class SearchBudget:
    """Three settings, then the report of the last search, which ``derive``
    zeroes on entry.  Nothing reads ``max_width``; the benchmark sets it."""
    max_depth: int = 8
    max_width: int = 4
    max_nodes: int = 200_000
    exhausted: bool = field(default=False, init=False)
    nodes: int = field(default=0, init=False)


class _NodeCap(Exception):
    """The search reached ``max_nodes``; it stops at once."""


def _universe(gamma, ty, delta) -> list[TypeExpr]:
    seen: dict[TypeExpr, None] = {Top: None, Bottom: None}
    for t in [ty, *gamma.values(), *delta.values()]:
        seen.update(dict.fromkeys(subexpressions(t)))
    return list(seen)


class _Searcher:
    def __init__(self, universe: list[TypeExpr], budget: SearchBudget):
        self.budget = budget
        self.strict = [t for t in universe if is_strict(t)]
        witnesses = list(universe)
        for pair in combinations([t for t in self.strict if t != Bottom], 2):
            if len(witnesses) > 32:
                break
            witnesses.append(canonicalize(Inter(pair)))
        self.witnesses = witnesses[:32]
        # the pool is cut at 32: a search that draws on it can miss a witness
        self.witnesses_cut = len(witnesses) > 32
        self.memo: dict[tuple, tuple[int, Derivation | None]] = {}

    def goal(self, gamma: dict[str, TypeExpr], term: Term, ty: TypeExpr,
             delta: dict[str, TypeExpr], depth: int) -> Derivation | None:
        key = (frozenset(gamma.items()), term, ty, frozenset(delta.items()))
        if key in self.memo:
            d0, res = self.memo[key]
            if res is not None or d0 >= depth:
                return res
        res = self._attempt(gamma, term, ty, delta, depth)
        self.memo[key] = (depth, res)
        return res

    def _attempt(self, gamma, term, ty, delta, depth) -> Derivation | None:
        if depth <= 0:
            self.budget.exhausted = True
            return None
        self.budget.nodes += 1
        if self.budget.nodes > self.budget.max_nodes:
            self.budget.exhausted = True
            raise _NodeCap
        j = Judgment(gamma, term, ty, delta)

        if isinstance(ty, Inter):
            prems = []
            for part in ty.parts:
                p = self.goal(gamma, term, part, delta, depth - 1)
                if p is None:
                    return None
                prems.append(p)
            return Derivation("InterI", j, tuple(prems))

        if isinstance(term, Var):
            if term.name in gamma and ty in inter_parts(gamma[term.name]):
                return Derivation("InterE", j)
            return None

        if isinstance(term, Abs):
            if not isinstance(ty, Arrow):
                return None
            g2 = {**gamma, term.var: ty.left}
            p = self.goal(g2, term.body, ty.right, delta, depth - 1)
            if p is None:
                return None
            return Derivation("ArrowI", j, (p,))

        if isinstance(term, App):
            return self._app(j, depth)

        if isinstance(term, Mu):
            return self._mu(j, depth)

        return None

    def _app(self, j: Judgment, depth: int) -> Derivation | None:
        for fun_ty in self._fun_candidates(j):
            fp = self.goal(j.gamma, j.term.fun, fun_ty, j.delta, depth - 1)
            if fp is None:
                continue
            aps = []
            for arrow in union_parts(fun_ty):
                ap = self.goal(j.gamma, j.term.arg, arrow.left, j.delta,
                               depth - 1)
                if ap is None:
                    break
                aps.append(ap)
            else:
                return Derivation("ArrowE", j, (fp, *aps))
        return None

    def _fun_candidates(self, j: Judgment):
        """Function-premise types for ``j``: unions of arrows whose targets
        make up the goal ``A = j.ty``.  A variable only derives components of its
        environment entry, so only those are tried.  Any other head gets
        ``W -> A`` for every witness ``W``; one that is not an abstraction
        (which only derives arrows) also gets ``W1 -> B1 \\/ ... \\/ Wn -> Bn``
        when ``A`` is a union of n >= 2 parts ``Bi``, none an intersection.
        """
        fun = j.term.fun
        if isinstance(fun, Var):
            entry = j.gamma.get(fun.name)
            if entry is None:
                return
            for c in inter_parts(entry):
                parts = union_parts(c)
                if (parts and all(isinstance(p, Arrow) for p in parts)
                        and type_equiv(Union(tuple(p.right for p in parts)),
                                       j.ty)):
                    yield c
            return
        if self.witnesses_cut:
            self.budget.exhausted = True
        for w in self.witnesses:
            yield Arrow(w, j.ty)
        bs = union_parts(j.ty)
        if (isinstance(fun, Abs) or len(bs) < 2
                or any(isinstance(b, Inter) for b in bs)):
            return
        for ws in product(self.witnesses, repeat=len(bs)):
            fun_ty = canonicalize(Union(tuple(Arrow(w, b)
                                              for w, b in zip(ws, bs))))
            if len(union_parts(fun_ty)) == len(bs):
                yield fun_ty

    def _mu(self, j: Judgment, depth: int) -> Derivation | None:
        m = j.term
        if m.named == m.bound:
            rule, target = "UnionE_self", j.ty
        else:
            if m.named not in j.delta:
                return None
            rule, target = "UnionE_named", j.delta[m.named]
        d2 = {**j.delta, m.bound: j.ty}
        candidates = dict.fromkeys([target, *union_parts(target), *self.strict])
        for t in candidates:
            if not subtype(t, target):
                continue
            p = self.goal(j.gamma, m.body, t, d2, depth - 1)
            if p is not None:
                return Derivation(rule, j, (p,))
        return None


def derive(gamma: dict[str, TypeExpr], term: Term, ty: TypeExpr,
           delta: dict[str, TypeExpr],
           budget: SearchBudget | None = None) -> Derivation | None:
    """Bounded goal-directed proof search.  Only here are its types
    canonicalized and checked: every subexpression of a canonical iu type is
    one too, so the search canonicalizes only the types it builds anew.

    Returns None when nothing is found within the budget; ``budget.exhausted``
    tells whether the depth limit, the node cap or the cut of the witness pool
    pruned any branch.  A judgment with a type outside the intersection-union
    language, or a right environment with a non-strict entry, has no
    derivation, so it gets None without a search.
    """
    budget = budget if budget is not None else SearchBudget()
    budget.exhausted, budget.nodes = False, 0
    gamma = {x: canonicalize(t) for x, t in gamma.items()}
    delta = {a: canonicalize(t) for a, t in delta.items()}
    ty = canonicalize(ty)
    if not (all(well_formed(t, "iu") for t in [ty, *gamma.values()])
            and all(map(is_strict, delta.values()))):
        return None
    searcher = _Searcher(_universe(gamma, ty, delta), budget)
    try:
        return searcher.goal(gamma, term, ty, delta, budget.max_depth)
    except _NodeCap:
        return None


# -- certificates -------------------------------------------------------------

def derivation_to_json(d: Derivation) -> str:
    """The certificate text of ``d``: what ``json.dumps`` gives, with
    ``indent=2`` and ASCII escapes, for nested objects whose keys are
    ``rule``, ``judgment`` and ``premises`` in that order, written without
    building the objects."""
    from .grammar import _print_judgment, print_env
    printed: dict[int, str] = {}   # by id: judgments share environment dicts

    def env(e: dict[str, TypeExpr]) -> str:
        return printed.get(id(e)) or printed.setdefault(id(e), print_env(e))

    def enc(d: Derivation, nl: str) -> str:
        j = d.conclusion
        judgment = _print_judgment(env(j.gamma), j.term, j.ty, env(j.delta))
        inner = nl + "    "
        premises = ("," + inner).join(map(enc, d.premises, repeat(inner)))
        premises = f"[{inner}{premises}{nl}  ]" if d.premises else "[]"
        return (f'{{{nl}  "rule": {_json_str(d.rule)},{nl}  "judgment": '
                f'{_json_str(judgment)},{nl}  "premises": {premises}{nl}}}')

    return enc(d, "\n")


def derivation_from_json(text: str) -> Derivation:
    """Decode a certificate; keys other than ``rule``, ``judgment`` and
    ``premises`` are ignored.  Raises MalformedCertificate when a node is not
    an object with a string ``rule``, a string ``judgment`` and, if present,
    a list of ``premises``."""
    from .grammar import _shared_judgment
    envs: dict = {}   # environment texts parsed so far, for _shared_judgment

    def dec(obj, path: tuple[int, ...]) -> Derivation:
        if not isinstance(obj, dict):
            raise MalformedCertificate(
                path, f"expected an object, not {type(obj).__name__}")
        for key in ("rule", "judgment"):
            if key not in obj:
                raise MalformedCertificate(path, f"missing field {key!r}")
            if not isinstance(obj[key], str):
                raise MalformedCertificate(path, f"field {key!r} must be a string")
        premises = obj.get("premises", [])
        if not isinstance(premises, list):
            raise MalformedCertificate(path, "field 'premises' must be a list")
        gamma, term, ty, delta = _shared_judgment(obj["judgment"], envs)
        return Derivation(obj["rule"], Judgment(gamma, term, ty, delta),
                          tuple(dec(p, path + (i,))
                                for i, p in enumerate(premises)))

    return dec(json.loads(text), ())


def embed_simple(d: Derivation) -> Derivation:
    """The identity: ``check_simple`` already builds intersection-union
    derivations with the n = 1 rules, so a simple derivation needs no
    translation.  Kept so that code which embeds ``check_simple`` results
    before checking or encoding them keeps working."""
    return d
