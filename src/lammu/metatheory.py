"""Executable metatheory: typed-term generation and derivation transformations.

The suites exercise the two substitution lemmas, subject reduction and subject
expansion over randomly generated derivations, with one case policy.  A case
draws a derivation and rebuilds it node by node for the transformed term; a
draw that yields none is redrawn.  Any exception, in the draw or the rebuild,
is a failure (the first 20 messages are kept).  Passing cases numbered by a
multiple of 1 (substitution suites) or 5 (the other two) are searched for, at
depth 9 unless a budget is given; a miss counts against the search budget.

Generated derivations follow the convention that every binder is globally
fresh, so substitution never needs to rename on the fly and the rebuilt
derivations match the reduction output syntactically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .iu import (Derivation, Judgment, SearchBudget, check_derivation, derive,
                 weaken)
from .reduction import (redexes, rename_name, replace_at, step,
                        subst_structural, subst_term, subterm_at)
from .syntax import Abs, App, Mu, Term, Var, alpha_eq, free_term_vars
from .typelang import (Arrow, Bottom, Inter, TVar, Top, TypeExpr, Union,
                       canonicalize, inter_parts, subtype, type_equiv,
                       union_parts)


class ConstructionMiss(Exception):
    """A derivation transformation hit a shape it cannot rebuild."""


# -- the type pool and base environments --------------------------------------

_F1, _F2 = TVar("F1"), TVar("F2")
_ARROW1 = Arrow(_F1, _F2)
_ARROW2 = Arrow(_F2, _F1)
_ARROW3 = canonicalize(Arrow(Inter((_F1, _F2)), _F1))
_UNION1 = canonicalize(Union((_F1, _F2)))
_UNION2 = canonicalize(Union((_F1, _ARROW1)))
_ARROW4 = canonicalize(Arrow(_F1, _UNION1))

STRICT_POOL = (_F1, _F2, _ARROW1, _ARROW2, _ARROW3, _ARROW4, _UNION1, _UNION2)
INTER_POOL = STRICT_POOL + (Top,
                            canonicalize(Inter((_F1, _F2))),
                            canonicalize(Inter((_F1, _ARROW1))))


def base_environments() -> tuple[dict[str, TypeExpr], dict[str, TypeExpr]]:
    """A left environment with a variable for every pool type (so every goal
    has a lookup fallback) and a right environment with a few names."""
    gamma: dict[str, TypeExpr] = {}
    for i, t in enumerate(STRICT_POOL, start=1):
        gamma[f"v{i}"] = t
    gamma["w1"], gamma["w2"] = INTER_POOL[-2:]
    delta = {"k1": _UNION1, "k2": _ARROW1, "k3": _F1}
    return gamma, delta


# generator settings: depth budget, chance of offering the redex shapes, and
# how many goals gen_typed_judgment draws before giving up
MAX_FUEL = 4
REDEX_BIAS = 0.45
ATTEMPTS = 40


# -- small constructions ------------------------------------------------------

def top_typed(gamma: dict, term: Term, delta: dict) -> Derivation:
    """Any term gets the empty intersection."""
    return Derivation("InterI", Judgment(gamma, term, Top, delta))


def _var_at(gamma: dict, y: str, c: TypeExpr, delta: dict) -> Derivation:
    """The lookup of ``y`` at ``c``: one projection per component of ``c``."""
    j = Judgment(gamma, Var(y), c, delta)
    if isinstance(c, Inter):
        prems = tuple(Derivation("InterE", Judgment(gamma, Var(y), p, delta))
                      for p in c.parts)
        return Derivation("InterI", j, prems)
    return Derivation("InterE", j)


def var_typed(gamma: dict, ty: TypeExpr, delta: dict) -> Derivation | None:
    """A variable derivation at ``ty``, if some environment entry covers it."""
    for x, entry in gamma.items():
        if all(p in inter_parts(entry) for p in inter_parts(ty)):
            return _var_at(gamma, x, ty, delta)
    return None


def project(d: Derivation, ty: TypeExpr) -> Derivation:
    """Narrow a derivation to the component ``ty`` of its conclusion, through
    ``Thin``/``Weaken``, to the ``InterI`` premise that concludes ``ty``."""
    j = d.conclusion
    if j.ty == ty:
        return d
    if d.rule in ("Thin", "Weaken"):
        return _node(d, j.term, (project(d.premises[0], ty),), ty=ty)
    if d.rule == "InterI":
        for p in d.premises:
            if type_equiv(p.conclusion.ty, ty):
                return p
    raise ConstructionMiss(f"cannot project {ty!r} out of {j.ty!r}")


def _node(d: Derivation, term: Term, premises, *, rule: str | None = None,
          ty: TypeExpr | None = None, gamma: dict | None = None,
          delta: dict | None = None) -> Derivation:
    """``d``'s node rebuilt over ``term`` and ``premises``; unless they are
    given, it keeps ``d``'s rule, type and environments."""
    j = d.conclusion
    return Derivation(rule or d.rule,
                      Judgment(j.gamma if gamma is None else gamma, term,
                               j.ty if ty is None else ty,
                               j.delta if delta is None else delta),
                      tuple(premises))


def _app(fun: Derivation, *args: Derivation,
         ty: TypeExpr | None = None) -> Derivation:
    """``fun`` applied to the term its argument premises ``args`` type, under
    ``fun``'s environments; at ``ty``, by default the target of ``fun``'s
    arrow."""
    c = fun.conclusion
    return _node(fun, App(c.term, args[0].conclusion.term), (fun, *args),
                 rule="ArrowE", ty=c.ty.right if ty is None else ty)


def _apply_arrows(fun: Derivation,
                  arg_for: dict[TypeExpr, Derivation]) -> Derivation:
    """Apply ``fun``, which concludes a union of arrows, to N.

    ``arg_for`` maps each arrow (up to equivalence) to a derivation of N at
    its source; those are weakened to ``fun``'s environments."""
    c = fun.conclusion
    parts = union_parts(c.ty)
    if not parts or not all(isinstance(p, Arrow) for p in parts):
        raise ConstructionMiss("premise below the freed name is not a"
                               " nonempty union of arrows")

    def match(arrow: Arrow) -> Derivation:
        for a, dn in arg_for.items():
            if type_equiv(arrow, a):
                return weaken(dn, c.gamma, c.delta)
        raise ConstructionMiss("premise arrow matches no argument derivation")

    args = tuple(match(p) for p in parts)
    return _app(fun, *args,
                ty=canonicalize(Union(tuple(p.right for p in parts))))


# -- generator ----------------------------------------------------------------

class Generator:
    """Builds random derivations over the fixed pool, goal first."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh_var(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    def fresh_name(self) -> str:
        self.counter += 1
        return f"n{self.counter}"

    def judgment(self, gamma: dict, delta: dict,
                 goal: TypeExpr | None = None) -> Derivation | None:
        goal = goal if goal is not None else self.rng.choice(INTER_POOL)
        return self.gen(gamma, delta, canonicalize(goal), MAX_FUEL)

    def gen(self, gamma: dict, delta: dict, goal: TypeExpr,
            fuel: int) -> Derivation | None:
        if isinstance(goal, Inter):
            # all premises of an intersection introduction must type the same
            # term, so fall back to a variable that covers every component
            return var_typed(gamma, goal, delta)

        options = ["var"]
        if fuel > 0:
            options += ["mu_self", "mu_named"]
            if isinstance(goal, Arrow):
                options.append("abs")
            options.append("app")
            if self.rng.random() < REDEX_BIAS:
                options += ["beta_redex", "mu_redex", "renaming_redex"]
        self.rng.shuffle(options)
        for opt in options:
            d = getattr(self, "_gen_" + opt)(gamma, delta, goal, fuel)
            if d is not None:
                return d
        return None

    def _gen_var(self, gamma, delta, goal, fuel):
        candidates = [x for x, t in gamma.items() if goal in inter_parts(t)]
        if not candidates:
            return None
        return _var_at(gamma, self.rng.choice(candidates), goal, delta)

    def _gen_abs(self, gamma, delta, goal, fuel):
        x = self.fresh_var()
        p = self.gen({**gamma, x: goal.left}, delta, goal.right, fuel - 1)
        if p is None:
            return None
        return Derivation("ArrowI",
                          Judgment(gamma, Abs(x, p.conclusion.term), goal, delta),
                          (p,))

    def _gen_app(self, gamma, delta, goal, fuel):
        return self._gen_applied(gamma, delta, goal, fuel, fuel - 1, self.gen)

    def _gen_beta_redex(self, gamma, delta, goal, fuel):
        # the abstraction's body, not the abstraction, is one level down
        return self._gen_applied(gamma, delta, goal, fuel, fuel, self._gen_abs)

    def _gen_mu_redex(self, gamma, delta, goal, fuel):
        return self._gen_applied(gamma, delta, goal, fuel, fuel - 1,
                                 self._gen_mu_self, self._gen_mu_named)

    def _gen_applied(self, gamma, delta, goal, fuel, fun_fuel, *makers):
        """``F N`` at ``goal`` for a drawn witness W: F at W -> goal from the
        first of ``makers`` that builds one, N at W."""
        witness = self.rng.choice(INTER_POOL)
        for make in makers:
            fun = make(gamma, delta, Arrow(witness, goal), fun_fuel)
            if fun is not None:
                break
        else:
            return None
        arg = self.gen(gamma, delta, witness, fuel - 1)
        if arg is None:
            return None
        return _app(fun, arg)

    def _mu_premise_types(self, target: TypeExpr) -> list[TypeExpr]:
        out = [t for t in union_parts(target) if t != Bottom]
        if target != Bottom:
            out.append(target)
        return out

    def _gen_mu_self(self, gamma, delta, goal, fuel):
        return self._gen_mu(gamma, delta, goal, fuel, None)

    def _gen_mu_named(self, gamma, delta, goal, fuel):
        if not delta:
            return None
        return self._gen_mu(gamma, delta, goal, fuel,
                            self.rng.choice(sorted(delta)))

    def _gen_mu(self, gamma, delta, goal, fuel, b):
        """``mu a.[b] M`` at ``goal`` for a fresh a; ``b`` None targets a."""
        choices = self._mu_premise_types(goal if b is None else delta[b])
        if not choices:
            return None
        a = self.fresh_name()
        t = self.rng.choice(choices)
        p = self.gen(gamma, {**delta, a: goal}, t, fuel - 1)
        if p is None:
            return None
        rule, b = ("UnionE_self", a) if b is None else ("UnionE_named", b)
        return Derivation(rule, Judgment(gamma, Mu(a, b, p.conclusion.term),
                                         goal, delta), (p,))

    def _gen_renaming_redex(self, gamma, delta, goal, fuel):
        a = self.fresh_name()
        d2 = {**delta, a: goal}
        choices = self._mu_premise_types(goal)
        if not choices:
            return None
        for maker in (self._gen_mu_named, self._gen_mu_self):
            inner = maker(gamma, d2, self.rng.choice(choices), fuel - 1)
            if inner is not None:
                break
        else:
            return None
        if not subtype(inner.conclusion.ty, goal):
            return None
        return Derivation("UnionE_self",
                          Judgment(gamma, Mu(a, a, inner.conclusion.term),
                                   goal, delta), (inner,))


def gen_typed_judgment(rng: random.Random) -> Derivation:
    """A random checked derivation over the base environments."""
    gen = Generator(rng)
    gamma, delta = base_environments()
    for _ in range(ATTEMPTS):
        d = gen.judgment(gamma, delta)
        if d is not None:
            return d
    raise ConstructionMiss("generator exhausted its attempts")


# -- term substitution lemma --------------------------------------------------

def subst_derivation(dM: Derivation, x: str, dN: Derivation) -> Derivation:
    """From G,x:C |- M : A | D and G |- N : C | D build G |- M[N/x] : A | D."""
    n_term = dN.conclusion.term

    def go(d: Derivation) -> Derivation:
        j = d.conclusion
        gamma = {y: t for y, t in j.gamma.items() if y != x}
        term = subst_term(j.term, x, n_term)
        if d.rule == "InterE" and isinstance(j.term, Var) and j.term.name == x:
            return weaken(project(dN, j.ty), gamma, j.delta)
        if isinstance(j.term, Abs) and j.term.var == x:
            raise ConstructionMiss("binder shadows the substituted variable")
        return _node(d, term, map(go, d.premises), gamma=gamma)

    return go(dM)


# -- structural substitution lemma --------------------------------------------

def struct_subst_derivation(dM: Derivation, alpha: str,
                            arg_for: dict[TypeExpr, Derivation], g: str,
                            new_union: TypeExpr) -> Derivation:
    """From G |- M : C | a:U(Ai->Bi),D and G |- N : Ai | D for each i, build
    G |- M[N.g/a] : C | g:U(Bi),D.

    ``arg_for`` maps each arrow of the union to a derivation of N at its
    source; ``new_union`` is the union of the targets."""
    n_term = next(iter(arg_for.values())).conclusion.term

    def go(d: Derivation) -> Derivation:
        j = d.conclusion
        term = subst_structural(j.term, alpha, n_term, g)
        delta = {**{b: t for b, t in j.delta.items() if b != alpha}, g: new_union}
        if isinstance(j.term, Mu) and j.term.bound == alpha:
            raise ConstructionMiss("binder shadows the substituted name")
        if d.rule == "UnionE_named" and j.term.named == alpha:
            app = _apply_arrows(go(d.premises[0]), arg_for)
            return _node(d, term, (app,), delta=delta)
        return _node(d, term, map(go, d.premises), delta=delta)

    return go(dM)


# -- renaming a free name inside a derivation ---------------------------------

def rename_name_derivation(d: Derivation, g: str, b: str) -> Derivation:
    """Retarget every context switch aimed at ``g`` to ``b``, dropping ``g``
    from the environments.  Sound whenever ``g``'s type lies below ``b``'s."""
    def go(d: Derivation) -> Derivation:
        j = d.conclusion
        if isinstance(j.term, Mu) and j.term.bound == g:
            raise ConstructionMiss("binder shadows the renamed name")
        delta = {a: t for a, t in j.delta.items() if a != g}
        term = rename_name(j.term, g, b)
        rule = d.rule
        if rule in ("UnionE_named", "UnionE_self") and j.term.named == g:
            rule = "UnionE_self" if b == j.term.bound else "UnionE_named"
        return _node(d, term, map(go, d.premises), rule=rule, delta=delta)

    return go(d)


def rename_var_derivation(d: Derivation, y: str, x: str) -> Derivation:
    """Give the free variable ``y`` the new name ``x`` (keeping y's binding
    around unused, so environments only grow)."""

    def go(d: Derivation) -> Derivation:
        j = d.conclusion
        if y not in j.gamma:
            raise ConstructionMiss(f"{y} is not in the environment")
        gamma = {**j.gamma, x: j.gamma[y]}
        term = subst_term(j.term, y, Var(x))
        return _node(d, term, map(go, d.premises), gamma=gamma)

    return go(d)


# -- subject reduction, constructively ----------------------------------------

def _unwrap(d: Derivation) -> Derivation:
    while d.rule in ("Thin", "Weaken"):
        d = d.premises[0]
    return d


def _sr_local_beta(d: Derivation, expected: Term) -> Derivation:
    j = d.conclusion
    node = _unwrap(d)
    if node.rule != "ArrowE" or not isinstance(j.term.fun, Abs):
        raise ConstructionMiss("not an application of an abstraction")
    fun = _unwrap(node.premises[0])
    if fun.rule != "ArrowI" or len(node.premises) != 2:
        raise ConstructionMiss("the function premise is not a single arrow")
    out = subst_derivation(fun.premises[0], j.term.fun.var, node.premises[1])
    if not type_equiv(out.conclusion.ty, j.ty):
        raise ConstructionMiss("contractum type drifted")
    if out.conclusion.ty != j.ty:
        out = _node(out, out.conclusion.term, out.premises, ty=j.ty)
    return out


def _sr_local_mu(d: Derivation, expected: Term) -> Derivation:
    j = d.conclusion
    node = _unwrap(d)
    if node.rule != "ArrowE" or not isinstance(j.term.fun, Mu):
        raise ConstructionMiss("not an application of a context switch")
    fun = _unwrap(node.premises[0])
    if fun.rule not in ("UnionE_named", "UnionE_self"):
        raise ConstructionMiss("the function premise is not a context switch node")
    red = j.term.fun
    arg_for = dict(zip(union_parts(fun.conclusion.ty), node.premises[1:]))
    g = expected.bound
    hat = struct_subst_derivation(fun.premises[0], red.bound, arg_for, g, j.ty)
    if red.named == red.bound:
        app = _apply_arrows(hat, arg_for)
        return _node(d, Mu(g, g, app.conclusion.term), (app,), rule="UnionE_self")
    return _node(d, Mu(g, red.named, hat.conclusion.term), (hat,),
                 rule="UnionE_named")


def _sr_local_renaming(d: Derivation, expected: Term) -> Derivation:
    j = d.conclusion
    node = _unwrap(d)
    if node.rule not in ("UnionE_named", "UnionE_self"):
        raise ConstructionMiss("not a context switch node")
    inner = _unwrap(node.premises[0])
    if inner.rule not in ("UnionE_named", "UnionE_self"):
        raise ConstructionMiss("the body is not a context switch node")
    renamed = rename_name_derivation(inner.premises[0], j.term.body.bound,
                                     j.term.named)
    rule = "UnionE_self" if expected.named == expected.bound else "UnionE_named"
    return _node(d, expected, (renamed,), rule=rule)


_SR_LOCAL = {"beta": _sr_local_beta, "mu": _sr_local_mu,
             "renaming": _sr_local_renaming}


def sr_step(d: Derivation, pos: tuple[int, ...], rule: str) -> Derivation:
    """Rebuild ``d`` after contracting the redex at ``pos``.  On the way it
    passes ``Thin``/``Weaken`` and rebuilds each premise of an ``InterI``
    node (one with none types the contractum at top).  Under any wrappers
    the redex is typed by ``ArrowE`` over ``ArrowI`` (beta) or over a
    context switch (mu), or by a context switch over one (renaming)."""
    whole = step(d.conclusion.term, pos, rule)
    expected = subterm_at(whole, pos)
    local = _SR_LOCAL[rule]

    def go(d: Derivation, pos: tuple[int, ...]) -> Derivation:
        j = d.conclusion
        if d.rule == "InterI":
            return _node(d, replace_at(j.term, pos, expected),
                         (go(p, pos) for p in d.premises))
        if not pos:
            return local(d, expected)
        i, rest = pos[0], pos[1:]
        if d.rule in ("Thin", "Weaken"):
            p = go(d.premises[0], pos)
            return _node(d, p.conclusion.term, (p,))
        if d.rule == "ArrowE" and i == 1:
            prems = (d.premises[0], *(go(p, rest) for p in d.premises[1:]))
        elif d.rule in ("ArrowI", "ArrowE", "UnionE_named", "UnionE_self") and i == 0:
            prems = (go(d.premises[0], rest), *d.premises[1:])
        else:
            raise ConstructionMiss(f"no premise {i} under rule {d.rule}")
        # premise i types the child at i: the function, or the first argument
        return _node(d, replace_at(j.term, (i,), prems[i].conclusion.term), prems)

    out = go(d, pos)
    if out.conclusion.term != whole:
        raise ConstructionMiss("rebuilt term differs from the reduction output")
    return out


# -- subject expansion, constructively ----------------------------------------
# Each se_* maps (d, rng, gen) to (exp, red, rule): exp reduces by rule at the
# root to red, at d's type.  It draws its fresh identifiers from the case's
# generator gen and its choices from the case's stream rng.

_TOP_ARGS = (Abs("q0", App(Var("q0"), Var("q0"))), Var("v1"))


def se_beta_vacuous(d: Derivation, rng: random.Random,
                    gen: Generator) -> tuple[Derivation, Derivation, str]:
    """Wrap M as (\\x.M)Q with x unused; Q only needs the empty intersection."""
    j = d.conclusion
    fresh = "b" + gen.fresh_var()
    q = rng.choice(_TOP_ARGS)
    inner = weaken(d, {**j.gamma, fresh: Top}, j.delta)
    fun = _node(d, Abs(fresh, j.term), (inner,), rule="ArrowI",
                ty=Arrow(Top, j.ty))
    return _app(fun, top_typed(j.gamma, q, j.delta)), d, "beta"


def se_beta_var(d: Derivation, rng: random.Random,
                gen: Generator) -> tuple[Derivation, Derivation, str]:
    """Wrap M as (\\x.M[x/y])y, abstracting a used free variable y."""
    j = d.conclusion
    used = sorted(free_term_vars(j.term))
    if not used:
        raise ConstructionMiss("no free variable to abstract")
    y = rng.choice(used)
    fresh = "b" + gen.fresh_var()
    c = j.gamma[y]
    renamed = rename_var_derivation(d, y, fresh)
    fun = _node(d, Abs(fresh, renamed.conclusion.term), (renamed,),
                rule="ArrowI", ty=Arrow(c, j.ty))
    return _app(fun, _var_at(j.gamma, y, c, j.delta)), d, "beta"


def _covering_name(s: TypeExpr, delta: dict,
                   alpha: str) -> tuple[str, dict]:
    """The first name of ``delta`` whose type lies above ``s``, and ``delta``;
    if there is none, the new name e<alpha> and ``delta`` extended with it."""
    if isinstance(s, Inter):
        raise ConstructionMiss("needs a strict premise type")
    beta = next((b for b, w in sorted(delta.items()) if subtype(s, w)), None)
    if beta is not None:
        return beta, delta
    return "e" + alpha, {**delta, "e" + alpha: s}


def se_mu_named(d: Derivation, rng: random.Random,
                gen: Generator) -> tuple[Derivation, Derivation, str]:
    """Wrap M as (mu a.[b]M)Q with a unused; reduces to mu g.[b]M."""
    j = d.conclusion
    alpha, gname = "m" + gen.fresh_name(), "g" + gen.fresh_name()
    beta, delta = _covering_name(j.ty, j.delta, alpha)
    b_goal = _F1
    fun_ty = Arrow(Top, b_goal)
    inner = weaken(d, j.gamma, {**delta, alpha: fun_ty})
    fun = _node(d, Mu(alpha, beta, j.term), (inner,), rule="UnionE_named",
                ty=fun_ty, delta=delta)
    exp = _app(fun, top_typed(j.gamma, rng.choice(_TOP_ARGS), delta))
    red_inner = weaken(d, j.gamma, {**delta, gname: b_goal})
    red = _node(fun, Mu(gname, beta, j.term), (red_inner,), ty=b_goal)
    return exp, red, "mu"


def se_mu_self(d: Derivation, rng: random.Random,
               gen: Generator) -> tuple[Derivation, Derivation, str]:
    """Wrap an arrow-typed M as (mu a.[a]M)y; reduces to mu g.[g](M y)."""
    j = d.conclusion
    if not isinstance(j.ty, Arrow):
        raise ConstructionMiss("needs an arrow-typed subject")
    u = j.ty
    arg = var_typed(j.gamma, u.left, j.delta)
    if arg is None:
        raise ConstructionMiss("no variable for the arrow source")
    alpha, gname = "m" + gen.fresh_name(), "g" + gen.fresh_name()
    inner = weaken(d, j.gamma, {**j.delta, alpha: u})
    fun = _node(d, Mu(alpha, alpha, j.term), (inner,), rule="UnionE_self")
    exp = _app(fun, weaken(arg, j.gamma, j.delta))
    d2 = {**j.delta, gname: u.right}
    app = _app(weaken(d, j.gamma, d2), weaken(arg, j.gamma, d2))
    red = _node(fun, Mu(gname, gname, app.conclusion.term), (app,),
                ty=u.right)
    return exp, red, "mu"


def se_renaming(d: Derivation, rng: random.Random,
                gen: Generator) -> tuple[Derivation, Derivation, str]:
    """Wrap M as mu a.[b](mu g.[b]M) with g unused; renames to mu a.[b]M."""
    j = d.conclusion
    alpha, gname = "m" + gen.fresh_name(), "g" + gen.fresh_name()
    beta, delta = _covering_name(j.ty, j.delta, alpha)
    b_goal = _F1
    d_in = {**delta, alpha: b_goal}
    inner_body = weaken(d, j.gamma, {**d_in, gname: j.ty})
    inner = _node(d, Mu(gname, beta, j.term), (inner_body,),
                  rule="UnionE_named", delta=d_in)
    exp = _node(inner, Mu(alpha, beta, inner.conclusion.term), (inner,),
                ty=b_goal, delta=delta)
    red = _node(exp, Mu(alpha, beta, j.term), (weaken(d, j.gamma, d_in),))
    return exp, red, "renaming"


# -- suites -------------------------------------------------------------------

@dataclass
class SuiteReport:
    name: str
    run: int = 0
    fail: int = 0
    budget_miss: int = 0
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"SUITE {self.name} RUN {self.run} FAIL {self.fail} "
                f"BUDGET_MISS {self.budget_miss}")

    def render(self) -> str:
        lines = [f"  case: {m}" for m in self.failures]
        lines.append(self.summary())
        return "\n".join(lines)


def _run(name: str, seed: int, cases: int, budget: SearchBudget | None,
         every: int, case) -> SuiteReport:
    """Run ``cases`` cases of ``case(rng)``, which gives the judgment to
    search or None, under the policy in the module docstring."""
    rng = random.Random(seed)
    report = SuiteReport(name)
    budget = SearchBudget(max_depth=9) if budget is None else budget
    while report.run < cases:
        try:
            j = case(rng)
        except Exception as e:
            report.run += 1
            report.fail += 1
            if len(report.failures) < 20:
                report.failures.append(f"{name}: {e}")
            continue
        if j is None:
            continue
        report.run += 1
        if report.run % every == 0 and derive(j.gamma, j.term, j.ty, j.delta,
                                              budget) is None:
            report.budget_miss += 1
    return report


def suite_term_subst(seed: int = 0, cases: int = 300,
                     budget: SearchBudget | None = None) -> SuiteReport:
    """G,x:C |- M : A | D and G |- N : C | D give G |- M[N/x] : A | D."""
    gamma0, delta0 = base_environments()

    def case(rng: random.Random) -> Judgment | None:
        gen = Generator(rng)
        c = rng.choice(INTER_POOL)
        dN = gen.judgment(gamma0, delta0, goal=c)
        if dN is None:
            return None
        x = "s" + gen.fresh_var()
        dM = gen.judgment({**gamma0, x: c}, delta0)
        if dM is None:
            return None
        out = subst_derivation(dM, x, dN)
        check_derivation(out)
        if out.conclusion.term != subst_term(dM.conclusion.term, x,
                                             dN.conclusion.term):
            raise ConstructionMiss("substituted term mismatch")
        if not type_equiv(out.conclusion.ty, dM.conclusion.ty):
            raise ConstructionMiss("type not preserved")
        return out.conclusion

    return _run("term-subst", seed, cases, budget, 1, case)


def suite_struct_subst(seed: int = 0, cases: int = 300,
                       budget: SearchBudget | None = None) -> SuiteReport:
    """G |- M : C | a:U(Ai->Bi),D and G |- N : Ai | D give
    G |- M[N.g/a] : C | g:U(Bi),D."""
    gamma0, delta0 = base_environments()
    u_alpha = canonicalize(Union((_ARROW1, _ARROW2)))
    new_union = canonicalize(Union((_F2, _F1)))
    # a single N must take every arrow source, so use the variable whose
    # entry intersects them all
    lefts = [a.left for a in union_parts(u_alpha)]
    n_var = next(x for x, t in gamma0.items()
                 if all(left in inter_parts(t) for left in lefts))
    arg_for = {arrow: _var_at(gamma0, n_var, arrow.left, delta0)
               for arrow in union_parts(u_alpha)}

    def case(rng: random.Random) -> Judgment | None:
        gen = Generator(rng)
        alpha = "a" + gen.fresh_name()
        dM = gen.judgment(gamma0, {**delta0, alpha: u_alpha})
        if dM is None:
            return None
        g = "g" + gen.fresh_name()
        out = struct_subst_derivation(dM, alpha, arg_for, g, new_union)
        check_derivation(out)
        if out.conclusion.term != subst_structural(dM.conclusion.term, alpha,
                                                   Var(n_var), g):
            raise ConstructionMiss("substituted term mismatch")
        return out.conclusion

    return _run("struct-subst", seed, cases, budget, 1, case)


def suite_subject_reduction(seed: int = 0, cases: int = 500,
                            budget: SearchBudget | None = None) -> SuiteReport:
    """Every beta, mu or renaming step preserves the derived judgment."""
    enabled = {"beta", "mu", "renaming"}

    def case(rng: random.Random) -> Judgment | None:
        d = gen_typed_judgment(rng)
        rs = redexes(d.conclusion.term, enabled)
        if not rs:
            return None
        outs = []
        for pos, rule in rs:
            try:
                outs.append(sr_step(d, pos, rule))
                check_derivation(outs[-1])
            except Exception as e:
                raise ConstructionMiss(f"{rule} at {pos}: {e}") from e
        return outs[0].conclusion

    return _run("subject-reduction", seed, cases, budget, 5, case)


def suite_subject_expansion(seed: int = 0, cases: int = 500,
                            budget: SearchBudget | None = None) -> SuiteReport:
    """Every beta, mu or renaming expansion preserves the derived judgment."""
    gamma0, delta0 = base_environments()

    def case(rng: random.Random) -> Judgment | None:
        gen = Generator(rng)
        goal = rng.choice(STRICT_POOL)
        d = gen.judgment(gamma0, delta0, goal=goal)
        if d is None:
            return None
        flavors = ["beta_vacuous", "mu_named", "renaming"]
        if free_term_vars(d.conclusion.term):
            flavors.append("beta_var")
        if isinstance(goal, Arrow):
            flavors.append("mu_self")
        flavor = rng.choice(flavors)
        # built per case, so the names perfbench/tracer.py rebinds are used
        expand = {"beta_vacuous": se_beta_vacuous, "beta_var": se_beta_var,
                  "mu_named": se_mu_named, "mu_self": se_mu_self,
                  "renaming": se_renaming}[flavor]
        try:
            exp, red, rule = expand(d, rng, gen)
            check_derivation(exp)
            check_derivation(red)
            stepped = step(exp.conclusion.term, (), rule)
            if not alpha_eq(stepped, red.conclusion.term):
                raise ConstructionMiss("expansion does not reduce to the subject")
            if not type_equiv(exp.conclusion.ty, red.conclusion.ty):
                raise ConstructionMiss("type not preserved by expansion")
        except Exception as e:
            raise ConstructionMiss(f"{flavor}: {e}") from e
        return exp.conclusion

    return _run("subject-expansion", seed, cases, budget, 5, case)


# -- the erasing counterexample -----------------------------------------------

def demo_erasing_failure() -> dict:
    """The erasing rule breaks subject reduction in this system.

    With x:A1 the term mu a.[a]x takes the union A1 u A2, the erasing step
    rewrites it to plain x, and a variable can only take components of its
    environment entry (and intersections of them), never a wider union.
    """
    a1, a2 = TVar("A1"), TVar("A2")
    u = canonicalize(Union((a1, a2)))
    gamma = {"x": a1}
    term = Mu("a", "a", Var("x"))
    before = Derivation(
        "UnionE_self", Judgment(gamma, term, u, {}),
        (Derivation("InterE", Judgment(gamma, Var("x"), a1, {"a": u})),))
    check_derivation(before)
    rs = redexes(term, {"erasing"})
    reduced = step(term, rs[0][0], rs[0][1])
    found = derive(gamma, reduced, u, {}, SearchBudget(max_depth=8))
    return {
        "judgment_before": before.conclusion,
        "derivation_before": before,
        "step": rs[0],
        "term_after": reduced,
        "search_found_after": found is not None,
        # the only rules that fit a bare variable are projection and
        # intersection introduction, which is what var_typed tries
        "derivable_after": var_typed(gamma, u, {}) is not None,
    }
