"""Intersection-union typing: derivation checker, admissible constructions,
bounded search and certificates.

Derivations are explicit trees over six rules:

* ``InterE``       variable lookup, one component of its entry up to equivalence
* ``InterI``       intersection introduction (n components, n != 1)
* ``ArrowI``       abstraction
* ``ArrowE``       application against a union of arrows (n >= 1 branches)
* ``UnionE_named`` context switch ``mu a.[b] M`` targeting an environment name b
* ``UnionE_self``  context switch ``mu b.[b] M`` targeting its own bound name

Types in a node are compared up to the equivalence induced by the preorder.
Thinning and weakening are admissible, not rules: ``under`` rebuilds a
derivation under thinner or stronger environments.  It is also where every
derivation built after the fact gets its premises' terms and all environments.

``_premise`` states what each rule gives its premises: their terms and
environments, and their types where the rule fixes them.  ``under``, the
search, the checker and the certificate codec all read it, so a certificate
holds the root's judgment and, per node, the rule, the premise count and the
type where the parent's rule does not fix it.  ``check_derivation`` adds what
each rule asks of its node.  The search returns only derivations it accepts,
and the constructions turn a derivation it accepts into another it accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product
from json.encoder import encode_basestring_ascii as _json_str

from .syntax import Abs, App, Mu, Term, Var, all_identifiers
from .typelang import (Arrow, Bottom, Inter, Top, TypeExpr, Union,
                       canonicalize, inter_parts, is_strict, subexpressions,
                       subtype, type_equiv, union_parts, well_formed)

RULES = ("InterE", "InterI", "ArrowI", "ArrowE", "UnionE_named", "UnionE_self")


@dataclass(slots=True)
class Judgment:
    """``gamma |- term : ty | delta``.  Judgments share environment dicts
    (a premise often holds its conclusion's), so treat ``gamma`` and ``delta``
    as read-only: extend one as ``{**gamma, x: t}``, never in place."""
    gamma: dict[str, TypeExpr]
    term: Term
    ty: TypeExpr
    delta: dict[str, TypeExpr]


@dataclass(slots=True)
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
    """A certificate, or one of its nodes, is not of the written form."""

    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(f"certificate node at {_where(path)}: {reason}")


def _env_equiv(a: dict[str, TypeExpr], b: dict[str, TypeExpr]) -> bool:
    return a is b or a == b or (
        set(a) == set(b) and all(type_equiv(a[k], b[k]) for k in a))


def _is_component(t: TypeExpr, entry: TypeExpr) -> bool:
    """Is ``t`` equivalent to a component of ``entry``?"""
    parts = inter_parts(entry)
    return t in parts or any(type_equiv(t, p) for p in parts)


# What a premise is told when its term, its type or its environments are
# not those its rule gives it; ArrowE's premise 0 types the function.
_PREMISE_REASONS = {
    "InterI": ("premises must type the same term",
               "premise type does not match its component",
               "premises must share the conclusion environments"),
    "ArrowI": ("premise must type the body",
               "premise type must be the arrow target",
               "premise environment must bind the abstracted variable"),
    "ArrowE": ("argument premises must type the argument",
               "argument premise does not match the arrow source",
               "premises must share the conclusion environments"),
    "UnionE_named": ("premise must type the body", None,
                     "premise environment must bind the freed name"),
}
_PREMISE_REASONS["UnionE_self"] = _PREMISE_REASONS["UnionE_named"]


def _check_node(d: Derivation, ok: dict) -> None:
    """Check the node ``d``; InvalidNode with an empty path if it fails.
    Its shape comes first, then each premise against what ``_premise`` says
    the rule gives it, then the rule's own conditions."""
    j, rule, n = d.conclusion, d.rule, len(d.premises)
    m, ty = j.term, j.ty

    def bad(reason: str):
        raise InvalidNode((), reason)

    if not well_formed(ty, "iu"):
        bad("type outside the intersection-union language")
    for role, env in (("gamma", j.gamma), ("delta", j.delta)):
        if (role, id(env)) not in ok:
            if not all(well_formed(t, "iu") for t in env.values()):
                bad("type outside the intersection-union language")
            # an iu type is strict unless it is an intersection
            if role == "delta" and Inter in map(type, env.values()):
                bad("right environment entries must be strict")
            ok[role, id(env)] = env

    if rule == "InterE":
        if not isinstance(m, Var):
            bad("variable lookup applies to variables only")
        if n:
            bad("variable lookup takes no premises")
    elif rule == "InterI":
        if not isinstance(ty, Inter):
            bad("conclusion must be an intersection")
        if len(ty.parts) == 1:
            bad("intersection introduction excludes exactly one premise")
        if n != len(ty.parts):
            bad("one premise per component required")
    elif rule == "ArrowI":
        if not isinstance(m, Abs):
            bad("arrow introduction applies to abstractions")
        if not isinstance(ty, Arrow):
            bad("conclusion must be an arrow")
        if n != 1:
            bad("arrow introduction takes one premise")
    elif rule == "ArrowE":
        if not isinstance(m, App):
            bad("arrow elimination applies to applications")
        if n < 2:
            bad("arrow elimination needs a function premise and n >= 1 argument premises")
    elif rule in ("UnionE_named", "UnionE_self"):
        if not isinstance(m, Mu):
            bad("union elimination applies to context switches")
        if n != 1:
            bad("union elimination takes one premise")
    else:
        bad(f"unknown rule {rule!r}")

    ty0 = d.premises[0].conclusion.ty if n else None
    why_term, why_type, why_env = _PREMISE_REASONS.get(rule, (None,) * 3)
    for i, p in enumerate(d.premises):
        c = p.conclusion
        gamma, term, fixed, delta = _premise(rule, j, i, ty0)
        if c.term != term:
            bad(why_term if i or rule != "ArrowE"
                else "first premise must type the function")
        if fixed is not None and not type_equiv(c.ty, fixed):
            bad(why_type)
        for role, got, want in (("gamma", c.gamma, gamma),
                                ("delta", c.delta, delta)):
            # a dict equal to the rule's holds checked types: the node's, an
            # iu arrow's source or the strict type of a context switch
            if got is want or got == want:
                ok[role, id(got)] = got
            elif not _env_equiv(got, want):
                bad(why_env)

    if rule == "InterE":
        if m.name not in j.gamma:
            bad(f"variable {m.name} not in environment")
        if not _is_component(ty, j.gamma[m.name]):
            bad("type is not a component of the environment entry")
    elif rule == "ArrowE":
        fparts = union_parts(ty0)
        if not fparts or not all(isinstance(p, Arrow) for p in fparts):
            bad("function premise must carry a union of arrows")
        if n != len(fparts) + 1:
            bad("one argument premise per union branch required")
        if not type_equiv(ty, Union(tuple(p.right for p in fparts))):
            bad("conclusion must be the union of the arrow targets")
    elif rule in ("UnionE_named", "UnionE_self"):
        if isinstance(ty, Inter):
            bad("union elimination concludes a strict type")
        if rule == "UnionE_named":
            if m.named == m.bound:
                bad("the named slot refers to the bound name; use the self variant")
            if m.named not in j.delta:
                bad(f"name {m.named} not in environment")
            target = j.delta[m.named]
        else:
            if m.named != m.bound:
                bad("the named slot differs from the bound name; use the named variant")
            target = ty
        if not subtype(ty0, target):
            bad("premise type must lie below the target union")


def check_derivation(d: Derivation) -> None:
    """Validate every node in preorder, on an explicit stack, so any depth;
    raises InvalidNode at the first violation, with its path.  One identity
    memo per walk keeps the environment dicts that passed, by role, so a
    shared one is checked once, and so does a premise's dict that equals the
    one its rule gives it; no failure is kept."""
    ok: dict = {}
    stack = [(d, None, 0)]   # a node, its parent's entry, its index there
    while stack:
        entry = d, _, _ = stack.pop()
        try:
            _check_node(d, ok)
        except InvalidNode as e:
            path = ()
            while entry[1] is not None:
                path, entry = (entry[2], *path), entry[1]
            raise InvalidNode(path, e.reason) from None
        stack += reversed([(p, entry, i) for i, p in enumerate(d.premises)])


# -- admissible constructions -------------------------------------------------

def under(d: Derivation, gamma: dict[str, TypeExpr],
          delta: dict[str, TypeExpr]) -> Derivation:
    """``d`` rebuilt top-down at its root's term under ``gamma`` and
    ``delta``, whatever its own environments and the terms below its root:
    each premise gets the term and environments that ``_premise`` gives it.
    So it thins (the new environments may drop what ``d`` does not use),
    weakens (they may add bindings, strengthen a left entry by components,
    reorder them and widen a right entry) and gives a construction its terms
    and environments.  PreconditionViolation if a lookup gets a term that is
    not a variable, or ``gamma`` leaves it unbound, or its entry has no
    component equivalent to the lookup's type; ``delta`` must bind every
    switch target, no lower."""
    def go(d, gamma, term, _, delta):   # a _premise tuple; its type unused
        ty = d.conclusion.ty
        if d.rule == "InterE":
            if type(term) is not Var:
                raise PreconditionViolation("a lookup of a non-variable")
            if not _is_component(ty, gamma.get(term.name, Top)):
                raise PreconditionViolation(f"the new entry of {term.name} "
                                            "has no component for its lookup")
        j = Judgment(gamma, term, ty, delta)
        return Derivation(d.rule, j, tuple(go(p, *_premise(d.rule, j, i))
                                           for i, p in enumerate(d.premises)))
    return go(d, gamma, d.conclusion.term, None, delta)


def _premise(rule: str, j: Judgment, i: int,
             fun_ty: TypeExpr | None = None) -> tuple:
    """(gamma, term, type, delta) of premise ``i`` of a ``rule`` node at
    ``j``: the environments as ``under`` says, the term, and the type where
    the rule fixes it, else None.  ``fun_ty`` is the type of premise 0.  A
    rule that does not fit ``j`` keeps the conclusion's term and dicts."""
    gamma, m, ty, delta = j.gamma, j.term, j.ty, j.delta
    fixed = None
    if rule == "ArrowI" and type(ty) is Arrow:
        fixed = ty.right
        if type(m) is Abs:
            gamma, m = {**gamma, m.var: ty.left}, m.body
    elif rule == "InterI" and type(ty) is Inter and i < len(ty.parts):
        fixed = ty.parts[i]
    elif rule.startswith("UnionE") and type(m) is Mu:
        m, delta = m.body, {**delta, m.bound: ty}
    elif rule == "ArrowE":
        arrow = union_parts(fun_ty)[i - 1:i] if i else ()
        fixed = arrow[0].left if arrow and type(arrow[0]) is Arrow else None
        if type(m) is App:
            m = m.arg if i else m.fun
    return gamma, m, fixed, delta


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
            return self._node("InterI", j, depth)
        if isinstance(term, Var):
            if term.name in gamma and ty in inter_parts(gamma[term.name]):
                return Derivation("InterE", j)
        elif isinstance(term, Abs):
            if isinstance(ty, Arrow):
                return self._node("ArrowI", j, depth)
        elif isinstance(term, App):
            return self._node("ArrowE", j, depth, self._fun_candidates(j))
        elif isinstance(term, Mu):
            return self._mu(j, depth)
        return None

    def _node(self, rule: str, j: Judgment, depth: int,
              types=(None,)) -> Derivation | None:
        """The first ``rule`` node at ``j`` whose premises all have
        derivations, trying each of ``types`` in turn as the type of premise
        0 where the rule fixes none; each premise's goal is ``_premise``'s."""
        for ty0 in types:
            n = (len(j.ty.parts) if rule == "InterI" else
                 1 + len(union_parts(ty0)) if rule == "ArrowE" else 1)
            premises = []
            for i in range(n):
                gamma, term, fixed, delta = _premise(rule, j, i, ty0)
                p = self.goal(gamma, term, ty0 if fixed is None else fixed,
                              delta, depth - 1)
                if p is None:
                    break
                premises.append(p)
            else:
                return Derivation(rule, j, tuple(premises))
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
        candidates = dict.fromkeys([target, *union_parts(target), *self.strict])
        return self._node(rule, j, depth,
                          (t for t in candidates if subtype(t, target)))


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
    """The certificate text of ``d``: a JSON object with the root's judgment,
    as ``lammu`` prints it, and the nodes in preorder, one a line, each
    ``[rule, premise count]``, with its type added where that is not ``==``
    to the one its parent's rule fixes.  Premise terms and environments
    follow from the rules, so they are not written.  Any depth.  Raises
    ValueError for a variable or name that would not read back, such as
    ``mu`` or ``Ab``."""
    from .grammar import _is_identifier, print_judgment, print_type
    j = d.conclusion
    ids = all_identifiers(j.term).union(j.gamma, j.delta)
    if not all(map(_is_identifier, ids)):
        bad = min(x for x in ids if not _is_identifier(x))
        raise ValueError(f"{bad!r} cannot be written as a variable or name")
    nodes, stack = [], [(d, j.ty)]   # a node, the type its parent fixes
    while stack:
        d, fixed = stack.pop()
        ty, ps = d.conclusion.ty, d.premises
        typed = "" if ty is fixed or ty == fixed else ", " + _json_str(
            print_type(ty))
        nodes.append(f"[{_json_str(d.rule)}, {len(ps)}{typed}]")
        stack += [(ps[i], _premise(d.rule, d.conclusion, i,
                                   ps[0].conclusion.ty)[2])
                  for i in reversed(range(len(ps)))]
    root = _json_str(print_judgment(j.gamma, j.term, j.ty, j.delta))
    return (f'{{\n  "judgment": {root},\n  "nodes": [\n    '
            + ",\n    ".join(nodes) + "\n  ]\n}")


def derivation_from_json(text: str) -> Derivation:
    """Decode a certificate that ``derivation_to_json`` wrote; other keys
    are ignored.  The root's judgment fails as ``parse_judgment`` fails.  A
    premise gets its term and environments from its parent's rule, and its
    node's type or else the one that rule fixes.  Any depth.
    MalformedCertificate names the node's path, for a text of the old format
    (a judgment per node) or one that departs from the written form."""
    from .grammar import LanguageViolation, ParseError, _decode, parse_judgment
    obj = json.loads(text)
    if type(obj) is dict and "rule" in obj:
        raise MalformedCertificate((), "old format, with a judgment per "
                                   "node; re-create it with check-iu --cert")
    if not (type(obj) is dict and type(obj.get("judgment")) is str
            and type(obj.get("nodes")) is list):
        raise MalformedCertificate((), "expected an object with a string "
                                   "'judgment' and a list 'nodes'")
    gamma, term, fixed, delta = parse_judgment(obj["judgment"])
    nodes, stack = obj["nodes"], []   # stack: open nodes, premises so far

    def bad(reason: str):   # at the node that comes next
        path = [len(kids) for _, kids, _ in stack]
        raise MalformedCertificate(
            tuple(n - 1 for n in path[:-1]) + tuple(path[-1:]), reason)

    for k, node in enumerate(nodes):
        # the root's fields come from its judgment, so it has no type
        if not (type(node) is list and len(node) in ((2, 3) if stack else (2,))
                and list(map(type, node)) == [str, int, str][:len(node)]
                and node[1] >= 0):
            bad("expected [rule, count] or, below the root, [rule, count, "
                "type], with strings and a count of 0 or more")
        rule, n, *ty = node
        if stack:
            up, kids, _ = stack[-1]
            gamma, term, fixed, delta = _premise(
                up.rule, up.conclusion, len(kids),
                kids[0].conclusion.ty if kids else None)
        if ty:
            try:
                fixed = _decode(ty[0], (), "iu")
            except (ParseError, LanguageViolation) as e:
                bad(f"type {ty[0]!r}: {e}")
        elif fixed is None:
            bad("no type, and the parent's rule fixes none")
        d = Derivation(rule, Judgment(gamma, term, fixed, delta))
        if stack:
            kids.append(d)
        stack.append((d, [], n))
        while stack and len(stack[-1][1]) == stack[-1][2]:
            done, kids, _ = stack.pop()
            done.premises = tuple(kids)
        if not stack and k + 1 < len(nodes):
            raise MalformedCertificate(
                (), f"{len(nodes) - k - 1} entries past the end of the tree")
    if stack or not nodes:
        bad("missing: the node list ends before the counts do")
    return done


def embed_simple(d: Derivation) -> Derivation:
    """The identity, as ``check_simple`` builds iu derivations; kept for
    code that embeds its results before checking or encoding them."""
    return d
