"""Simple (Curry-with-bottom) typing for lambda-mu terms.

One constraint engine serves both checking and inference: each subterm gets a
type, constraints are emitted in checking order and solved incrementally by
first-order unification, so a failure points at the first violated rule.
"""

from __future__ import annotations

from .iu import Derivation, Judgment, under
from .syntax import Abs, App, Mu, Term, Var, free_term_vars
from .typelang import Arrow, TVar, TypeExpr, well_formed

# Every simple rule is an intersection-union rule with n = 1, so checking
# builds ``iu.Derivation`` trees directly.
SimpleJudgment = Judgment


class CheckFailure(Exception):
    def __init__(self, rule: str, detail: str):
        super().__init__(f"rule ({rule}): {detail}")
        self.rule = rule
        self.detail = detail


class UntypableError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _is_meta(t: TypeExpr) -> bool:
    return isinstance(t, TVar) and t.name.startswith("?")


class _Solver:
    """Incremental first-order unification with occurs check."""

    def __init__(self):
        self.subst: dict[str, TypeExpr] = {}
        self.counter = 0

    def meta(self) -> TVar:
        self.counter += 1
        return TVar(f"?{self.counter}")

    def resolve(self, t: TypeExpr) -> TypeExpr:
        while _is_meta(t) and t.name in self.subst:
            t = self.subst[t.name]
        return t

    def occurs(self, name: str, t: TypeExpr) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.name == name
        if isinstance(t, Arrow):
            return self.occurs(name, t.left) or self.occurs(name, t.right)
        return False

    def unify(self, a: TypeExpr, b: TypeExpr, rule: str, detail: str) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if _is_meta(a):
            if self.occurs(a.name, b):
                raise CheckFailure(rule, f"occurs check: {detail}")
            self.subst[a.name] = b
            return
        if _is_meta(b):
            self.unify(b, a, rule, detail)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, rule, detail)
            self.unify(a.right, b.right, rule, detail)
            return
        raise CheckFailure(rule, f"type clash: {detail}")


def _walk(s: _Solver, term: Term, gamma: dict[str, TypeExpr],
          delta: dict[str, TypeExpr], goal: TypeExpr,
          free_delta: dict[str, TypeExpr] | None) -> Derivation:
    """Emit and solve constraints; ``free_delta`` collects types for free
    names when inferring (None means free names must already be in delta).
    The tree's types still hold unsolved metavariables until ``_freeze``."""
    j = Judgment(gamma, term, goal, delta)
    if isinstance(term, Var):
        if term.name not in gamma:
            raise CheckFailure("Ax", f"variable {term.name} not in environment")
        s.unify(gamma[term.name], goal, "Ax", f"variable {term.name}")
        return Derivation("InterE", j)
    if isinstance(term, Abs):
        a, b = s.meta(), s.meta()
        s.unify(goal, Arrow(a, b), "->I", "abstraction needs an arrow type")
        gamma2 = {**gamma, term.var: a}
        prem = _walk(s, term.body, gamma2, delta, b, free_delta)
        return Derivation("ArrowI", j, (prem,))
    if isinstance(term, App):
        a = s.meta()
        pf = _walk(s, term.fun, gamma, delta, Arrow(a, goal), free_delta)
        pa = _walk(s, term.arg, gamma, delta, a, free_delta)
        return Derivation("ArrowE", j, (pf, pa))
    if isinstance(term, Mu):
        delta2 = {**delta, term.bound: goal}
        if term.named in delta2:
            body_goal = delta2[term.named]
        elif free_delta is not None:
            body_goal = free_delta.setdefault(term.named, s.meta())
        else:
            raise CheckFailure("mu", f"free name {term.named} not in environment")
        prem = _walk(s, term.body, gamma, delta2, body_goal, free_delta)
        rule = "UnionE_self" if term.named == term.bound else "UnionE_named"
        return Derivation(rule, j, (prem,))
    raise TypeError(f"not a term: {term!r}")


def _finisher(s: _Solver, name):
    """Resolve types fully, naming the i-th unsolved metavariable ``name(i)``."""
    fill: dict[str, TypeExpr] = {}

    def final(t: TypeExpr) -> TypeExpr:
        t = s.resolve(t)
        if _is_meta(t):
            return fill.setdefault(t.name, name(len(fill)))
        if isinstance(t, Arrow):
            return Arrow(final(t.left), final(t.right))
        return t

    return final


def _freeze(final, d: Derivation) -> Derivation:
    """Resolve each node's type in ``d`` with ``final``, checking in pre-order
    that it is a curry type; the environments are left as ``_walk`` built
    them, unsolved, for ``under`` to replace."""
    j = d.conclusion
    ty = final(j.ty)
    if not well_formed(ty, "curry"):
        raise CheckFailure("types", "bot may not appear left of an arrow")
    return Derivation(d.rule, Judgment(j.gamma, j.term, ty, j.delta),
                      tuple(_freeze(final, p) for p in d.premises))


def check_simple(j: SimpleJudgment) -> Derivation:
    """Check a fully given judgment; returns its single-premise
    intersection-union derivation or raises CheckFailure naming the first
    violated rule.  The derivation holds ``j.gamma`` and ``j.delta`` at the
    root and shares dicts as ``under``'s does."""
    for t in [j.ty, *j.gamma.values(), *j.delta.values()]:
        if not well_formed(t, "curry"):
            raise CheckFailure("types", "judgment types must be curry types")
    s = _Solver()
    d = _walk(s, j.term, j.gamma, j.delta, j.ty, None)
    return under(_freeze(_finisher(s, lambda i: TVar(f"T{i + 1}")), d),
                 j.gamma, j.delta)


def infer_simple(m: Term):
    """Most general simple typing of ``m``; returns (gamma, ty, delta).

    Raises UntypableError on a clash or occurs-check failure."""
    s = _Solver()
    gamma = {x: s.meta() for x in sorted(free_term_vars(m))}
    free_delta: dict[str, TypeExpr] = {}
    goal = s.meta()
    try:
        _walk(s, m, gamma, {}, goal, free_delta)
    except CheckFailure as e:
        raise UntypableError(str(e)) from e
    final = _finisher(s, _var_name)
    g = {x: final(t) for x, t in gamma.items()}
    ty = final(goal)
    d = {a: final(t) for a, t in free_delta.items()}
    for t in [ty, *g.values(), *d.values()]:
        if not well_formed(t, "curry"):
            raise UntypableError("solution puts bot left of an arrow")
    return g, ty, d


def _var_name(i: int) -> TVar:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if i < len(letters):
        return TVar(letters[i])
    return TVar(f"A{i - len(letters) + 1}")

