import hashlib
import json
import random
import re
from importlib import resources
from pathlib import Path

import pytest

from conftest import (_cert_dict, _reference_decode, random_iu_type,
                      random_term, random_type)
from lammu.grammar import (LanguageViolation, ParseError, parse_judgment,
                           parse_term, parse_type, print_judgment, print_term,
                           print_type)
from lammu.iu import (Derivation, InvalidNode, Judgment, MalformedCertificate,
                      PreconditionViolation, SearchBudget, check_derivation,
                      derivation_from_json, derivation_to_json, derive,
                      embed_simple, under)
from lammu.metatheory import (ConstructionMiss, base_environments,
                              gen_typed_judgment, project)
from lammu.simple import (SimpleJudgment, UntypableError, check_simple,
                          infer_simple)
from lammu.syntax import Abs, App, Mu, Var, free_names, free_term_vars
from lammu.typelang import (Arrow, Inter, Top, TVar, Union, canonicalize,
                            inter_parts, subexpressions, type_equiv,
                            union_parts, well_formed)

A, B = TVar("A"), TVar("B")
AB = Inter((A, B))


def var_node(gamma, x, ty, delta=None):
    return Derivation("InterE", Judgment(dict(gamma), Var(x), ty,
                                         dict(delta or {})))


def _compact(d):
    """The certificate object of ``d``, built as the format describes it:
    the oracle for the writer.  A premise's type is left out where it equals
    the one its parent's rule fixes: the arrow's target below ``ArrowI``,
    component i below ``InterI``, and the source of the function premise's
    arrow i below an ``ArrowE`` argument premise i."""
    def fixed(n, i):
        ty = n.conclusion.ty
        if n.rule == "ArrowI":
            return ty.right
        if n.rule == "InterI":
            return ty.parts[i]
        if n.rule == "ArrowE" and i:
            return union_parts(n.premises[0].conclusion.ty)[i - 1].left
        return None

    j = d.conclusion
    nodes, todo = [], [(d, j.ty)]
    while todo:
        n, ty = todo.pop()
        nodes.append([n.rule, len(n.premises)])
        if n.conclusion.ty != ty:
            nodes[-1].append(print_type(n.conclusion.ty))
        todo += [(p, fixed(n, i))
                 for i, p in reversed(list(enumerate(n.premises)))]
    return {"judgment": print_judgment(j.gamma, j.term, j.ty, j.delta),
            "nodes": nodes}


def _layout(obj):
    """The text of a certificate object: one node per line."""
    return ('{\n  "judgment": ' + json.dumps(obj["judgment"])
            + ',\n  "nodes": [\n    '
            + ",\n    ".join(map(json.dumps, obj["nodes"])) + "\n  ]\n}")


def _chain(n):
    """``n`` one-premise nodes over the lookup x:A |- x : A |, all at that
    judgment, for the writer tests.  Their rule name, ``Chain``, is no rule:
    the writer never checks a derivation."""
    d = var_node({"x": A}, "x", A)
    for _ in range(n):
        d = Derivation("Chain", d.conclusion, (d,))
    return d


def _reordered(t):
    """``t`` with its intersection and union components in reverse order."""
    parts = [Union(p.parts[::-1]) if isinstance(p, Union) else p
             for p in inter_parts(t)[::-1]]
    return parts[0] if len(parts) == 1 else Inter(tuple(parts))


def _readme_derivations():
    """Derivations of the judgments the README checks, in either system."""
    ds = []
    for text in ("|- \\x.mu a.[a](x (\\y.mu b.[a] y)) : ((A -> B) -> A) -> A |",
                 "|- \\x.\\y.x : A -> B -> A |"):
        ds.append(check_simple(SimpleJudgment(*parse_judgment(text, "curry"))))
    for text, depth in (("|- mu d.[d](\\x.mu b.[d] x) : A \\/ (A -> B) |", 6),
                        ("x:A /\\ B |- x : A |", 8),
                        ("x:A |- mu a.[a] x : A \\/ B |", 8)):
        d = derive(*parse_judgment(text), SearchBudget(max_depth=depth))
        assert d is not None, text
        ds.append(d)
    return ds


class TestValidNodes:
    def test_variable_projection(self):
        check_derivation(var_node({"x": AB}, "x", A))
        check_derivation(var_node({"x": AB}, "x", B))

    def test_variable_projection_up_to_equivalence(self):
        # B \/ A is a component of x's entry written in another order
        check_derivation(var_node({"x": Union((A, B))}, "x", Union((B, A))))
        check_derivation(var_node({"x": Inter((Union((A, B)), Arrow(A, B)))},
                                  "x", Union((B, A))))

    def test_intersection_introduction(self):
        d = Derivation("InterI", Judgment({"x": AB}, Var("x"), Inter((B, A)), {}),
                       (var_node({"x": AB}, "x", B), var_node({"x": AB}, "x", A)))
        check_derivation(d)

    def test_empty_intersection_types_anything(self):
        d = Derivation("InterI", Judgment({}, App(Var("x"), Var("x")), Top, {}))
        check_derivation(d)

    def test_arrow_introduction(self):
        prem = var_node({"x": A}, "x", A)
        d = Derivation("ArrowI", Judgment({}, Abs("x", Var("x")), Arrow(A, A), {}),
                       (prem,))
        check_derivation(d)

    def test_arrow_elimination_single_branch(self):
        gamma = {"f": Arrow(A, B), "y": A}
        d = Derivation("ArrowE", Judgment(gamma, App(Var("f"), Var("y")), B, {}),
                       (var_node(gamma, "f", Arrow(A, B)),
                        var_node(gamma, "y", A)))
        check_derivation(d)

    def test_arrow_elimination_union_of_arrows(self):
        u = Union((Arrow(A, B), Arrow(B, A)))
        gamma = {"f": u, "y": AB}
        d = Derivation("ArrowE",
                       Judgment(gamma, App(Var("f"), Var("y")), Union((B, A)), {}),
                       (var_node(gamma, "f", u),
                        var_node(gamma, "y", A),
                        var_node(gamma, "y", B)))
        check_derivation(d)

    def test_union_elimination_self(self):
        u = Union((A, B))
        d = Derivation("UnionE_self",
                       Judgment({"x": A}, Mu("a", "a", Var("x")), u, {}),
                       (var_node({"x": A}, "x", A, {"a": u}),))
        check_derivation(d)

    def test_union_elimination_named(self):
        u = Union((A, B))
        d = Derivation("UnionE_named",
                       Judgment({"x": A}, Mu("a", "b", Var("x")), B, {"b": u}),
                       (var_node({"x": A}, "x", A, {"b": u, "a": B}),))
        check_derivation(d)


def node(rule, text, *premises):
    """A derivation node whose conclusion is the judgment ``text``."""
    return Derivation(rule, Judgment(*parse_judgment(text)), premises)


def twice(d):
    """Intersection introduction of ``d``'s strict type twice, over ``d`` as
    both premises: a valid node above ``d``."""
    j = d.conclusion
    return Derivation("InterI", Judgment(j.gamma, j.term, Inter((j.ty, j.ty)),
                                         j.delta), (d, d))


def reject(d, reason, path=()):
    """A case of ``test_every_rejection``: ``d`` fails with ``reason`` at
    ``path``, the root or premise 0."""
    failing = d.premises[0] if path else d
    return pytest.param(d, reason, path, id=f"{failing.rule}: {reason}")


# One node for each reason the rest of the suite never makes the checker give.
_REJECTIONS = [
    reject(var_node({"x": A}, "x", Union((AB, B))),
           "type outside the intersection-union language"),
    reject(node("InterE", "x:A |- x : A |", node("InterE", "x:A |- x : A |")),
           "variable lookup takes no premises"),
    # under a context switch, since `twice` needs a strict type
    reject(node("UnionE_self", "x:A /\\ B |- mu a.[a] x : A |",
                node("InterI", "x:A /\\ B |- x : A /\\ B | a:A",
                     node("InterE", "x:A /\\ B |- x : A | a:A"))),
           "one premise per component required", (0,)),
    reject(node("InterI", "x:A /\\ B |- x : A /\\ B |",
                node("InterE", "x:A /\\ B |- x : B |"),
                node("InterE", "x:A /\\ B |- x : A |")),
           "premise type does not match its component"),
    reject(node("InterI", "x:A /\\ B |- x : A /\\ B |",
                node("InterE", "x:A /\\ B, y:A |- x : A |"),
                node("InterE", "x:A /\\ B, y:A |- x : B |")),
           "premises must share the conclusion environments"),
    reject(node("ArrowI", "|- \\x.x : A |", node("InterE", "x:A |- x : A |")),
           "conclusion must be an arrow"),
    reject(node("ArrowI", "|- \\x.x : A -> A |"),
           "arrow introduction takes one premise"),
    reject(twice(node("ArrowI", "|- \\x.x : A -> A |",
                      node("InterE", "x:A, y:A |- y : A |"))),
           "premise must type the body", (0,)),
    reject(node("ArrowI", "|- \\x.x : A -> B |",
                node("InterE", "x:A |- x : A |")),
           "premise type must be the arrow target"),
    reject(node("ArrowI", "|- \\x.x : A -> A |",
                node("InterE", "x:A, y:B |- x : A |")),
           "premise environment must bind the abstracted variable"),
    reject(node("ArrowE", "x:A |- x : A |"),
           "arrow elimination applies to applications"),
    reject(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                node("InterE", "f:A -> B, y:A |- f : A -> B |")),
           "arrow elimination needs a function premise and n >= 1 argument "
           "premises"),
    reject(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                node("InterE", "f:A -> B, y:A |- y : A |"),
                node("InterE", "f:A -> B, y:A |- y : A |")),
           "first premise must type the function"),
    reject(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                node("InterE", "f:A -> B, y:A |- f : A -> B |"),
                node("InterE", "f:A -> B, y:A |- y : A |"),
                node("InterE", "f:A -> B, y:A |- y : A |")),
           "one argument premise per union branch required"),
    reject(twice(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                      node("InterE", "f:A -> B, y:A |- f : A -> B |"),
                      node("InterE", "f:A -> B, y:A |- f : A -> B |"))),
           "argument premises must type the argument", (0,)),
    reject(node("ArrowE", "f:A -> B, y:A /\\ B |- f y : B |",
                node("InterE", "f:A -> B, y:A /\\ B |- f : A -> B |"),
                node("InterE", "f:A -> B, y:A /\\ B |- y : B |")),
           "argument premise does not match the arrow source"),
    reject(node("ArrowE", "f:A -> B, y:A |- f y : A |",
                node("InterE", "f:A -> B, y:A |- f : A -> B |"),
                node("InterE", "f:A -> B, y:A |- y : A |")),
           "conclusion must be the union of the arrow targets"),
    reject(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                node("InterE", "f:A -> B, y:A, z:A |- f : A -> B |"),
                node("InterE", "f:A -> B, y:A, z:A |- y : A |")),
           "premises must share the conclusion environments"),
    reject(node("UnionE_self", "x:A |- mu a.[a] x : A |"),
           "union elimination takes one premise"),
    reject(node("UnionE_self", "x:A, y:A |- mu a.[a] x : A |",
                node("InterE", "x:A, y:A |- y : A | a:A")),
           "premise must type the body"),
    reject(node("UnionE_named", "x:A |- mu a.[a] x : A |",
                node("InterE", "x:A |- x : A | a:A")),
           "the named slot refers to the bound name; use the self variant"),
    reject(twice(node("UnionE_named", "x:A |- mu a.['b] x : A |",
                      node("InterE", "x:A |- x : A | a:A"))),
           "name b not in environment", (0,)),
    reject(node("UnionE_self", "x:A |- mu a.['b] x : A | 'b:A",
                node("InterE", "x:A |- x : A | a:A, 'b:A")),
           "the named slot differs from the bound name; use the named variant"),
    reject(node("UnionE_self", "x:A |- mu a.[a] x : A |",
                node("InterE", "x:A |- x : A |")),
           "premise environment must bind the freed name"),
    reject(node("UnionE_self", "x:B |- mu a.[a] x : A |",
                node("InterE", "x:B |- x : B | a:A")),
           "premise type must lie below the target union"),
    # thinning and weakening are no rules: `under` does their work
    reject(twice(node("Thin", "x:A |- x : A |",
                      node("InterE", "x:A |- x : A |"))),
           "unknown rule 'Thin'", (0,)),
    reject(twice(node("Weaken", "x:A |- x : A |",
                      node("InterE", "x:A |- x : A |"))),
           "unknown rule 'Weaken'", (0,)),
]


class TestInvalidNodes:
    def test_projection_is_structural(self):
        with pytest.raises(InvalidNode):
            check_derivation(var_node({"x": A}, "x", Union((A, B))))

    def test_unbound_variable(self):
        with pytest.raises(InvalidNode):
            check_derivation(var_node({}, "x", A))

    def test_singleton_intersection_introduction(self):
        d = Derivation("InterI", Judgment({"x": A}, Var("x"), Inter((A,)), {}),
                       (var_node({"x": A}, "x", A),))
        with pytest.raises(InvalidNode):
            check_derivation(d)

    def test_premises_must_share_the_term(self):
        d = Derivation("InterI", Judgment({"x": A, "y": B}, Var("x"), AB, {}),
                       (var_node({"x": A, "y": B}, "x", A),
                        var_node({"x": A, "y": B}, "y", B)))
        with pytest.raises(InvalidNode):
            check_derivation(d)

    def test_function_premise_must_be_arrows(self):
        gamma = {"f": A, "y": A}
        d = Derivation("ArrowE", Judgment(gamma, App(Var("f"), Var("y")), A, {}),
                       (var_node(gamma, "f", A), var_node(gamma, "y", A)))
        with pytest.raises(InvalidNode):
            check_derivation(d)

    def test_union_elimination_never_concludes_an_intersection(self):
        d = Derivation("UnionE_self",
                       Judgment({"x": AB}, Mu("a", "a", Var("x")), AB, {}),
                       (var_node({"x": AB}, "x", AB, {"a": AB}),))
        with pytest.raises(InvalidNode):
            check_derivation(d)

    def test_right_environment_entries_are_strict(self):
        with pytest.raises(InvalidNode):
            check_derivation(var_node({"x": A}, "x", A, {"a": AB}))

    def test_error_reports_the_path(self):
        d = Derivation("InterI", Judgment({}, Var("x"), Inter((A, B)), {}),
                       (var_node({}, "x", A), var_node({}, "x", B)))
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert e.value.path == (0,)

    def test_one_dict_as_both_environments_is_checked_in_each_role(self):
        # the checker remembers environments that passed, by role: one dict
        # that passes as gamma must still be tested for strictness as delta
        env = {"x": AB}
        d = Derivation("InterE", Judgment(env, Var("x"), A, env))
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.reason, e.value.path) == (
            "right environment entries must be strict", ())

    def test_no_environment_verdict_outlives_a_check(self):
        gamma = {"x": A}
        d = Derivation("InterI", Judgment(gamma, Var("x"), Inter((A, A)), {}),
                       (Derivation("InterE", Judgment(gamma, Var("x"), A, {})),
                        Derivation("InterE", Judgment(gamma, Var("x"), A, {}))))
        check_derivation(d)
        gamma["y"] = Union((AB, B))
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.reason, e.value.path) == (
            "type outside the intersection-union language", ())

    def test_a_non_iu_type_shared_by_two_nodes_fails_at_the_first(self):
        # one type object, outside iu but equivalent to A, in two dicts
        bad = Union((A, AB))
        leaf = Derivation("InterE", Judgment({"x": A, "y": bad}, Var("x"), A,
                                             {}))
        mid = Derivation("InterI", Judgment({"x": A, "y": bad}, Var("x"),
                                            Inter((A, A)), {}), (leaf, leaf))
        d = Derivation("InterI", Judgment({"x": A, "y": A}, Var("x"),
                                          Inter((A, A)), {}), (mid, mid))
        for _ in range(2):
            with pytest.raises(InvalidNode) as e:
                check_derivation(d)
            assert (e.value.reason, e.value.path) == (
                "type outside the intersection-union language", (0,))

    def test_a_type_that_passed_on_the_left_is_still_tested_on_the_right(self):
        # A /\ A is iu, so it passes as a left entry, and equivalent to the
        # root's right entry A, but it is not strict
        aa = Inter((A, A))
        leaf = Derivation("InterE", Judgment({"x": aa}, Var("x"), A,
                                             {"b": aa}))
        d = Derivation("InterI", Judgment({"x": aa}, Var("x"), aa, {"b": A}),
                       (leaf, leaf))
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.reason, e.value.path) == (
            "right environment entries must be strict", (0,))

    @pytest.mark.parametrize("d, reason, path", _REJECTIONS)
    def test_every_rejection(self, d, reason, path):
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.reason, e.value.path) == (reason, path)

    def test_every_premise_fault_fails_at_its_node(self):
        """One fault at a time in each premise of each node with premises,
        over generated and searched derivations: the node fails at its own
        path, with its rule's reason for that fault."""
        rng = random.Random(28)
        ds = [gen_typed_judgment(rng) for _ in range(200)]
        ds += _readme_derivations() + [derive(*parse_judgment(text)) for text in (
            "f:(A -> B) \\/ (B -> A), y:A /\\ B |- f y : A \\/ B |",
            "x:A /\\ B /\\ C |- x : C /\\ B /\\ A |")]
        seen = set()
        for d in ds:
            todo = [(d, ())]
            while todo:
                n, path = todo.pop()
                todo += [(p, path + (i,)) for i, p in enumerate(n.premises)]
                reasons = _PREMISE_FAULTS.get(n.rule, {})
                for i, p in enumerate(n.premises):
                    arrow_e0 = n.rule == "ArrowE" and i == 0
                    for fault, reason in reasons.items():
                        if fault == "type" and arrow_e0:
                            continue
                        if fault == "term" and arrow_e0:
                            reason = "first premise must type the function"
                        bad = _replaced(d, path + (i,), _with_fault(p, fault))
                        with pytest.raises(InvalidNode) as e:
                            check_derivation(bad)
                        assert (e.value.reason, e.value.path) == (reason, path)
                        seen.add((n.rule, i, fault))
        faults = ("term", "env", "type")
        assert seen >= {("InterI", i, f) for i in range(3) for f in faults}
        assert seen >= {("ArrowE", i, f) for i in (1, 2) for f in faults}
        assert seen >= {("ArrowI", 0, f) for f in faults} | {
            (rule, 0, f) for rule in ("ArrowE", "UnionE_named", "UnionE_self")
            for f in ("term", "env")}

    @pytest.mark.parametrize("ty", ["A", None, Var("A")])
    def test_a_conclusion_type_that_is_not_a_type(self, ty):
        with pytest.raises(InvalidNode) as e:
            check_derivation(var_node({"x": A}, "x", ty))
        assert (e.value.reason, e.value.path) == (
            "type outside the intersection-union language", ())


# The reason a node gives when premise i's term, environments or type is not
# the one its rule gives it.  ArrowE's premise 0 types the function; neither
# it nor a context switch's premise has its type fixed by the rule.
_PREMISE_FAULTS = {
    "InterI": {"term": "premises must type the same term",
               "env": "premises must share the conclusion environments",
               "type": "premise type does not match its component"},
    "ArrowI": {"term": "premise must type the body",
               "env": "premise environment must bind the abstracted variable",
               "type": "premise type must be the arrow target"},
    "ArrowE": {"term": "argument premises must type the argument",
               "env": "premises must share the conclusion environments",
               "type": "argument premise does not match the arrow source"},
    "UnionE_named": {"term": "premise must type the body",
                     "env": "premise environment must bind the freed name"},
}
_PREMISE_FAULTS["UnionE_self"] = _PREMISE_FAULTS["UnionE_named"]


def _with_fault(p, fault):
    """``p`` over its own premises, at a judgment with one fault: a fresh
    variable as its term, one binding fewer or a type no rule fixes here."""
    j = p.conclusion
    gamma, term, ty, delta = j.gamma, j.term, j.ty, j.delta
    if fault == "term":
        term = Var("fresh")
    elif fault == "type":
        ty = TVar("Fresh")
    elif gamma:
        gamma = dict(list(gamma.items())[1:])
    else:
        delta = dict(list(delta.items())[1:])
    return Derivation(p.rule, Judgment(gamma, term, ty, delta), p.premises)


def _replaced(d, path, new):
    """``d`` with its node at ``path`` replaced by ``new``."""
    if not path:
        return new
    premises = list(d.premises)
    premises[path[0]] = _replaced(premises[path[0]], path[1:], new)
    return Derivation(d.rule, d.conclusion, tuple(premises))


def _inter_chain(levels, bottom):
    """``levels`` intersection introductions of x : A /\\ A, each over the
    next and a lookup of x : A; the lowest over ``bottom`` and a lookup."""
    leaf = var_node({"x": A}, "x", A)
    j = Judgment(leaf.conclusion.gamma, Var("x"), Inter((A, A)), {})
    d = Derivation("InterI", j, (leaf, bottom))
    for _ in range(levels - 1):
        d = Derivation("InterI", j, (d, leaf))
    return d


class TestDeepDerivations:
    """The checker walks on an explicit stack, so depth is no limit."""

    def test_a_2000_level_chain_checks(self):
        check_derivation(_inter_chain(2000, var_node({"x": A}, "x", A)))

    def test_a_bad_leaf_1500_levels_down_fails_with_its_full_path(self):
        # its parent reads only its conclusion, which is right
        bad = Derivation("InterE", Judgment({"x": A}, Var("x"), A, {}),
                         (var_node({"x": A}, "x", A),))
        with pytest.raises(InvalidNode) as e:
            check_derivation(_inter_chain(1500, bad))
        assert (e.value.reason, e.value.path) == (
            "variable lookup takes no premises", (0,) * 1499 + (1,))


class TestAdmissible:
    def test_project(self):
        # the conclusion lists the components as B /\ A
        gamma = {"x": AB}
        d = Derivation("InterI", Judgment(gamma, Var("x"), Inter((B, A)), {}),
                       (var_node(gamma, "x", B), var_node(gamma, "x", A)))
        assert project(d, Inter((B, A))) is d
        assert project(d, A) is d.premises[1]
        with pytest.raises(ConstructionMiss):
            project(d, Arrow(A, B))

    @staticmethod
    def _nodes(d):
        out, stack = [], [d]
        while stack:
            out.append(stack.pop())
            stack.extend(reversed(out[-1].premises))
        return out

    def test_under_its_own_environments_rebuilds_the_same_judgments(self):
        rng = random.Random(11)
        for d in [gen_typed_judgment(rng) for _ in range(100)] + \
                _readme_derivations():
            j = d.conclusion
            before, after = self._nodes(d), self._nodes(under(d, j.gamma,
                                                              j.delta))
            assert [n.rule for n in after] == [n.rule for n in before]
            assert [n.conclusion for n in after] == \
                [n.conclusion for n in before]

    # Each environment change ``under`` must absorb, as the new (gamma, delta)
    # for a judgment ``j`` with free variables ``fv`` and names ``fn``.
    _CHANGES = {
        "thinned": lambda j, fv, fn: (
            {x: t for x, t in j.gamma.items() if x in fv},
            {a: t for a, t in j.delta.items() if a in fn}),
        "added bindings": lambda j, fv, fn: (
            {**j.gamma, "z": A}, {**j.delta, "c": B}),
        "added components": lambda j, fv, fn: (
            {x: Inter((*inter_parts(t), Arrow(A, B)))
             for x, t in j.gamma.items()}, j.delta),
        "reordered components": lambda j, fv, fn: (
            {x: _reordered(t) for x, t in j.gamma.items()}, j.delta),
        "widened right entries": lambda j, fv, fn: (
            j.gamma, {a: Union((t, Arrow(A, B))) for a, t in j.delta.items()}),
    }

    @pytest.mark.parametrize("change", list(_CHANGES))
    def test_under_thins_and_weakens(self, change):
        """``under`` rebuilds a derivation, with its term and type, under the
        environments cut to its free variables and names, or with bindings
        added, left entries strengthened by components or written in another
        order, or right entries widened."""
        rng = random.Random(31)
        for _ in range(200):
            d = gen_typed_judgment(rng)
            j = d.conclusion
            gamma, delta = self._CHANGES[change](
                j, free_term_vars(j.term), free_names(j.term))
            out = under(d, gamma, delta)
            check_derivation(out)
            assert (out.conclusion.term, out.conclusion.ty) == (j.term, j.ty)
            assert (out.conclusion.gamma, out.conclusion.delta) == (gamma,
                                                                    delta)

    @pytest.mark.parametrize("refusal", ["unbound", "no equivalent component"])
    def test_under_refuses_a_lookup_it_cannot_rebuild(self, refusal):
        """``under`` refuses a left environment that leaves a looked-up
        variable unbound or gives it no equivalent component."""
        rng = random.Random(31)
        refused = 0
        for _ in range(200):
            d = gen_typed_judgment(rng)
            j = d.conclusion
            looked_up = {n.conclusion.term.name for n in self._nodes(d)
                         if n.rule == "InterE"} & set(j.gamma)
            for x in looked_up:
                if refusal == "unbound":
                    gamma = {y: t for y, t in j.gamma.items() if y != x}
                else:
                    gamma = {**j.gamma, x: TVar("Z")}
                with pytest.raises(PreconditionViolation):
                    under(d, gamma, j.delta)
                refused += 1
        assert refused > 100

    def test_under_looks_up_an_equivalent_component(self):
        a_or_b = canonicalize(Union((A, B)))
        # a_or_b written in another order, with one more component
        stronger = Inter((Union((B, A)), Arrow(A, B)))
        looked_up = var_node({"x": a_or_b}, "x", a_or_b)
        out = under(looked_up, {"x": stronger, "y": B}, {"a": A})
        check_derivation(out)
        assert out.rule == "InterE" and not out.premises
        assert out.conclusion.gamma == {"x": stronger, "y": B}
        # A lies below A \/ B, but no lookup of x:A gives A \/ B
        with pytest.raises(PreconditionViolation):
            under(looked_up, {"x": A, "y": B}, {"a": A})

    def test_under_needs_every_used_binding(self):
        with pytest.raises(PreconditionViolation):
            under(var_node({"x": A}, "x", A), {"y": A}, {})
        with pytest.raises(PreconditionViolation):
            under(var_node({"x": A}, "x", A), {"x": B}, {})

    def test_under_refuses_a_lookup_of_a_term_that_is_not_a_variable(self):
        """A premise takes its term from its parent, so a lookup can be
        handed an application: at the root, or below an abstraction of
        one."""
        gamma = {"f": Arrow(A, A), "y": A}
        f_y = App(Var("f"), Var("y"))
        root = Derivation("InterE", Judgment(gamma, f_y, A, {}))
        below = Derivation("ArrowI", Judgment(gamma, Abs("x", f_y),
                                              Arrow(B, A), {}),
                           (var_node(gamma, "y", A),))
        for d in (root, below):
            with pytest.raises(PreconditionViolation, match="non-variable"):
                under(d, gamma, {})

    def test_under_shares_the_callers_environments(self):
        d = var_node({"x": A}, "x", A)
        gamma, delta = {"x": A, "y": B}, {"a": A}
        out = under(d, gamma, delta).conclusion
        assert out.gamma is gamma and out.delta is delta

    def test_under_gives_each_premise_its_term(self):
        """Below the root a term may be stale: each premise gets the subterm
        that its parent's rule gives it."""
        m = Abs("x", Mu("a", "a", Var("x")))
        stale = Derivation("ArrowI", Judgment({}, m, Arrow(A, A), {}), (
            Derivation("UnionE_self", Judgment({}, Var("z"), A, {}),
                       (var_node({"y": B}, "y", A),)),))
        out = under(stale, {}, {})
        check_derivation(out)
        switch = out.premises[0]
        assert switch.conclusion.term is m.body
        assert switch.premises[0].conclusion.term is m.body.body
        assert switch.premises[0].conclusion.gamma == {"x": A}


class TestSearch:
    def test_finds_variable_typings(self):
        assert derive({"x": AB}, Var("x"), A, {}) is not None
        assert derive({}, Var("x"), A, {}) is None

    def test_finds_intersection_of_arrows(self):
        d = derive({}, Abs("x", Var("x")),
                   Inter((Arrow(A, A), Arrow(B, B))), {})
        assert d is not None
        check_derivation(d)

    def test_found_derivations_check(self):
        cases = [
            "x:A /\\ (A -> B) |- x x : B |",
            "|- \\x.\\y.x : A -> B -> A |",
            "x:A |- mu a.[a] x : A \\/ B |",
            "x:A |- mu a.['b] x : B | 'b:A \\/ B",
        ]
        for text in cases:
            gamma, term, ty, delta = parse_judgment(text)
            d = derive(gamma, term, ty, delta)
            assert d is not None, text
            check_derivation(d)
            assert type_equiv(d.conclusion.ty, canonicalize(ty))

    def test_budget_exhaustion_is_reported(self):
        budget = SearchBudget(max_depth=1)
        term = parse_term("\\x.\\y.x")
        assert derive({}, term, Arrow(A, Arrow(B, A)), {}, budget) is None
        assert budget.exhausted

    def test_a_budget_reports_its_last_search(self):
        # derive zeroes the report on entry, so one budget serves many
        # searches and each report describes its own search
        judgment = parse_judgment(
            "|- mu d.[d](\\x.mu b.[d] x) : A \\/ (A -> B) |")
        budget = SearchBudget(max_depth=6, max_nodes=10)
        for _ in range(2):
            assert derive(*judgment, budget) is not None
            assert budget.nodes == 7 and not budget.exhausted
        budget = SearchBudget(max_depth=1)
        assert derive({}, parse_term("\\x.\\y.x"), Arrow(A, Arrow(B, A)), {},
                      budget) is None
        assert budget.exhausted
        assert derive(*parse_judgment("x:A |- x : A |"), budget) is not None
        assert not budget.exhausted
        with pytest.raises(TypeError):
            SearchBudget(nodes=3)

    def test_search_needs_no_second_canonicalization(self):
        # derive canonicalizes and checks its input once; the search takes
        # the subexpressions of that input as they are
        rng = random.Random(12)
        for _ in range(3_000):
            for s in subexpressions(canonicalize(random_iu_type(rng, 4))):
                assert canonicalize(s) == s
                assert well_formed(s, "iu")

    def test_witness_pool_cut_is_reported(self):
        # 40 unused bindings push the needed witness K -> B out of the pool
        # of 32, so the miss must not read as a definite "not derivable"
        unused = ", ".join(f"w{i}:C{i}" for i in range(40))
        gamma, term, ty, delta = parse_judgment(
            unused + ", z:K, x:K -> B |- (\\y.y z) x : B |")
        budget = SearchBudget()
        assert derive(gamma, term, ty, delta, budget) is None
        assert budget.exhausted
        budget = SearchBudget()
        used = {x: t for x, t in gamma.items() if x in ("z", "x")}
        assert derive(used, term, ty, delta, budget) is not None
        assert not budget.exhausted

    def test_non_strict_right_environment_has_no_derivation(self):
        # no node with an intersection in its right environment checks, so
        # the search must not report one found
        for text in ("x:A |- x : A | 'b:A/\\B", "x:A |- x : A | 'b:top"):
            assert derive(*parse_judgment(text)) is None

    def test_every_found_derivation_checks(self):
        # goals, and now and then a left environment entry, outside the
        # intersection-union language have no derivation, so nothing the
        # search returns for them may fail the checker
        rng = random.Random(9)
        gamma0, delta0 = base_environments()
        found = 0
        for _ in range(1_000):
            gamma = {x: t for x, t in gamma0.items() if rng.random() < 0.3}
            if rng.random() < 0.2:
                gamma[rng.choice(tuple(gamma0))] = random_type(rng, 2)
            delta = {a: t for a, t in delta0.items() if rng.random() < 0.5}
            term = random_term(rng, 4, tuple(gamma0), tuple(delta0))
            d = derive(gamma, term, random_type(rng, 2), delta,
                       SearchBudget(max_depth=6, max_nodes=400))
            if d is not None:
                check_derivation(d)
                found += 1
        assert found > 0

    def test_search_outcomes_are_pinned(self):
        """The certificate or miss, node count and exhaustion flag of 300
        seeded searches (see ``search_outcomes``), one a line in
        ``search_outcomes.tsv``, as the search with a separate application
        pass per union split gave them, but with the 20 goals outside the
        intersection-union language refused after 0 nodes, and with every
        search stopped at the node cap.  The verdicts alone (certificate
        and exhaustion flag) are pinned apart, as the search gave them
        before it stopped at the cap.  Both digests, over the whole
        certificates, check the table."""
        h, verdicts = hashlib.sha256(), hashlib.sha256()
        lines = []
        for line, cert, nodes, exhausted in search_outcomes():
            lines.append(line)
            h.update(f"{cert}\0{nodes}\0{exhausted}\0".encode())
            verdicts.update(f"{cert}\0{exhausted}\0".encode())
        table = [line for line in SEARCH_TABLE.read_text("utf-8").splitlines()
                 if not line.startswith("#")]
        differ = [f"pinned {want!r}, got {got!r}"
                  for want, got in zip(table, lines) if want != got]
        assert differ[:3] == [] and len(table) == len(lines)
        assert verdicts.hexdigest() == (
            "45702b108c06483007dee8e05a596c4e7f831ae55d9bc65ae1a4ed194799fc70")
        assert h.hexdigest() == (
            "6ac51bd2f82a4a5c99fbde70efdee21a424b62faa219e51c1eea86f529db8f6a")


SEARCH_TABLE = Path(__file__).with_name("search_outcomes.tsv")


def search_outcomes():
    """300 seeded searches, each as its table line (index, judgment,
    certificate sha256 or ``miss``, nodes, exhaustion flag, tab-separated),
    its certificate text or None, its node count and its exhaustion flag.
    Environments are random subsets of the base environments, so terms
    meet unbound variable heads and mu named slots outside the right
    environment, and the universes are small enough for pair intersections
    to join the witness pool; every third goal need not be in the
    intersection-union language."""
    rng = random.Random(5)
    gamma0, delta0 = base_environments()
    for i in range(300):
        gamma = {x: t for x, t in gamma0.items() if rng.random() < 0.3}
        delta = {a: t for a, t in delta0.items() if rng.random() < 0.5}
        term = random_term(rng, 4, tuple(gamma0), tuple(delta0))
        ty = random_type(rng, 2) if i % 3 == 2 else random_iu_type(rng, 2)
        budget = SearchBudget(max_depth=6, max_nodes=400)
        d = derive(gamma, term, ty, delta, budget)
        assert budget.nodes <= budget.max_nodes + 1
        cert = None if d is None else json.dumps(_cert_dict(d), indent=2)
        digest = "miss" if cert is None else hashlib.sha256(
            cert.encode()).hexdigest()
        line = "\t".join((str(i), print_judgment(gamma, term, ty, delta),
                          digest, str(budget.nodes),
                          "exhausted" if budget.exhausted else "-"))
        yield line, cert, budget.nodes, budget.exhausted


def _outcome(decode, text):
    """What ``decode`` gives, or the type, text and span of its error."""
    try:
        return decode(text)
    except (ParseError, LanguageViolation) as e:
        return type(e), str(e), getattr(e, "span", None)


def _fixed_terms(d):
    """(premise term, the conclusion subterm its rule fixes) over ``d``."""
    for n in TestAdmissible._nodes(d):
        m = n.conclusion.term
        for i, p in enumerate(n.premises):
            if n.rule == "ArrowE":
                yield p.conclusion.term, m.arg if i else m.fun
            elif n.rule in ("ArrowI", "UnionE_named", "UnionE_self"):
                yield p.conclusion.term, m.body
            else:
                yield p.conclusion.term, m


def _subterms(m):
    out, stack = [], [m]
    while stack:
        out.append(stack.pop())
        t = out[-1]
        stack += ([t.fun, t.arg] if isinstance(t, App)
                  else [t.body] if isinstance(t, (Abs, Mu)) else [])
    return out


def _cert(judgment, *nodes):
    return json.dumps({"judgment": judgment, "nodes": list(nodes)})


def _arrow_chain(n):
    """The derivation of ``y:A |- \\x1. ... \\xn.y : A -> ... -> A |``."""
    term, ty = Var("y"), A
    for i in range(n, 0, -1):
        term, ty = Abs(f"x{i}", term), Arrow(A, ty)
    return check_simple(SimpleJudgment({"y": A}, term, ty, {}))


@pytest.fixture(scope="module")
def corpus():
    """600 generated derivations, 200 check_simple ones and the README's."""
    rng = random.Random(22)
    ds = [gen_typed_judgment(rng) for _ in range(600)]
    simple = []
    while len(simple) < 200:
        term = random_term(rng)
        try:
            gamma, ty, delta = infer_simple(term)
        except UntypableError:
            continue
        simple.append(check_simple(SimpleJudgment(gamma, term, ty, delta)))
    return ds + simple + _readme_derivations()


class TestCertificates:
    def test_json_round_trip(self):
        d = derive({"x": AB}, Var("x"), Inter((B, A)), {})
        text = derivation_to_json(d)
        back = derivation_from_json(text)
        check_derivation(back)
        assert back.rule == d.rule
        assert type_equiv(back.conclusion.ty, d.conclusion.ty)

    @pytest.mark.parametrize("ident", ["mu", "Ab", "top", " x", "x\n", "x y",
                                       "'b", "²"])
    def test_an_identifier_that_would_not_read_back_is_refused(self, ident):
        # printed, \mu.mu, \Ab.Ab, \top.top and the others do not parse, or
        # read back as other tokens; the writer names the identifier instead
        # of writing a certificate that cannot be decoded, whether it is a
        # variable, a name or an entry
        for gamma, term, delta in (
                ({}, Abs(ident, Var(ident)), {}),
                ({}, Abs("x", Mu(ident, ident, Var("x"))), {}),
                ({ident: A}, Abs("x", Var("x")), {}),
                ({}, Abs("x", Var("x")), {ident: A})):
            d = derive(gamma, term, Arrow(A, A), delta)
            assert d is not None
            check_derivation(d)
            with pytest.raises(ValueError, match=re.escape(repr(ident))):
                derivation_to_json(d)

    def test_premises_share_their_conclusions_environments(self, corpus):
        # as under gives them: each premise holds its conclusion's dicts,
        # but for the binding an abstraction or a context switch adds
        for d in corpus:
            for n in TestAdmissible._nodes(
                    derivation_from_json(derivation_to_json(d))):
                j = n.conclusion
                for p in n.premises:
                    c = p.conclusion
                    assert (c.gamma is j.gamma) == (n.rule != "ArrowI")
                    assert (c.delta is j.delta) == (
                        not n.rule.startswith("UnionE"))

    def test_decodes_share_no_environment_dict(self):
        text = derivation_to_json(
            derive({"x": AB}, Var("x"), Inter((B, A)), {"b": A}))
        first, second = derivation_from_json(text), derivation_from_json(text)
        assert first == second
        for n1, n2 in zip(TestAdmissible._nodes(first),
                          TestAdmissible._nodes(second), strict=True):
            assert n1.conclusion.gamma is not n2.conclusion.gamma
            assert n1.conclusion.delta is not n2.conclusion.delta
        first.conclusion.gamma["y"] = B
        first.conclusion.delta.clear()
        third = derivation_from_json(text)
        assert second == third
        assert third.conclusion.gamma == {"x": AB}
        assert third.conclusion.delta == {"b": A}
        check_derivation(third)

    @pytest.mark.parametrize("bad", [
        "x:(A /\\ B) \\/ A, y:B |- y : B |",   # a binding outside iu
        "y:B |- y : (A /\\ B) \\/ A |",        # a goal type outside iu
        "y:B, x:A, y:B |- y : B |",            # a name bound twice
        "y:B |- y : B | 'b:A, 'b:B",           # the same, on the right
        "y:B |- y : B | ) (",                  # input after the judgment
        "y:B |- y : B",                        # no right environment
    ])
    def test_a_root_that_fails_fails_alike_every_time(self, bad):
        def outcome(decode, text):
            with pytest.raises((ParseError, LanguageViolation)) as e:
                decode(text)
            return type(e.value), str(e.value), getattr(e.value, "span", None)

        def cert(judgment):
            return _cert(judgment, ["InterE", 0])

        want = outcome(parse_judgment, bad)
        assert outcome(derivation_from_json, cert(bad)) == want
        assert outcome(derivation_from_json, cert(bad)) == want
        # a good certificate with the bad text's other bindings
        derivation_from_json(cert("x:A, y:B |- y : B | 'b:A"))
        assert outcome(derivation_from_json, cert(bad)) == want

    @pytest.mark.parametrize("ty", [
        "A", "A -> B", "(A \\/ B) /\\ (A -> B)", "top", "bot -> A"])
    def test_a_goal_type_a_node_type_and_an_entry_of_one_text_decode_alike(
            self, ty):
        for judgment in (f"|- y : {ty} |", f"x:{ty} |- x : {ty} |"):
            d = derivation_from_json(_cert(judgment, ["InterE", 0]))
            assert d.conclusion.ty == parse_type(ty)
        assert d.conclusion.gamma == {"x": d.conclusion.ty}
        d = derivation_from_json(_cert(f"x:{ty} |- mu a.[a] x : {ty} |",
                                       ["UnionE_self", 1], ["InterE", 0, ty]))
        assert d.premises[0].conclusion.ty == d.conclusion.ty

    def test_decoding_gives_back_the_derivation_the_old_text_gave(self,
                                                                  corpus):
        for d in corpus:
            back = derivation_from_json(derivation_to_json(d))
            assert back == d
            assert back == _reference_decode(json.dumps(_cert_dict(d)))
            check_derivation(back)
            # every premise holds the very term object its rule fixes
            for premise_term, fixed in _fixed_terms(back):
                assert premise_term is fixed

    def test_a_mutated_root_decodes_as_parse_judgment_reads_it(self, corpus):
        def read(text):
            return Judgment(*parse_judgment(text))

        rng = random.Random(2024)
        alphabet = "xyab AB().\\:,|->/'[]mu"
        mismatches = []
        for _ in range(2000):
            obj = json.loads(derivation_to_json(rng.choice(corpus)))
            j = obj["judgment"]
            k = rng.randrange(len(j) + 1)
            c = rng.choice(alphabet)
            j = obj["judgment"] = rng.choice([j[:k] + c + j[k:],
                                              j[:k] + c + j[k + 1:],
                                              j[:k] + j[k + 1:]])
            want = _outcome(read, j)
            try:
                got = _outcome(derivation_from_json, json.dumps(obj))
            except MalformedCertificate:   # the nodes no longer fit the root
                got = want if type(want) is Judgment else None
            if type(got) is Derivation:
                got = got.conclusion
            if got != want:
                mismatches.append(j)
        assert mismatches == []

    def test_a_printed_subterm_parses_back_to_itself(self):
        # structurally, not up to renaming; a subterm under a mu prints its
        # free names with a tick
        rng = random.Random(5)
        ticked = 0
        for _ in range(600):
            for n in TestAdmissible._nodes(gen_typed_judgment(rng)):
                for m in _subterms(n.conclusion.term):
                    text = print_term(m)
                    ticked += "'" in text
                    assert parse_term(text) == m, text
        assert ticked

    def test_premise_terms_come_from_the_root_term(self):
        d = derivation_from_json(_cert("f:A -> B, y:A |- f  ( y ) : B |",
                                       ["ArrowE", 2], ["InterE", 0, "A -> B"],
                                       ["InterE", 0]))
        check_derivation(d)
        m = d.conclusion.term
        assert m == App(Var("f"), Var("y"))
        fun, arg = (p.conclusion.term for p in d.premises)
        assert fun is m.fun and arg is m.arg
        assert d.premises[1].conclusion.ty == A

    @pytest.mark.parametrize("judgment, nodes, reason", [
        ("x:A |- x : A -> A |", [["ArrowI", 1], ["InterE", 0]],
         "arrow introduction applies to abstractions"),
        ("|- \\x.x : A -> A |",
         [["ArrowE", 2], ["ArrowI", 1, "A -> A"], ["InterE", 0],
          ["InterE", 0]],
         "arrow elimination applies to applications"),
        ("x:A |- x : A |", [["UnionE_self", 1], ["InterE", 0, "A"]],
         "union elimination applies to context switches"),
        ("x:A |- x : A |", [["InterE", 1], ["InterE", 0, "A"]],
         "variable lookup takes no premises"),
    ])
    def test_a_rule_that_does_not_fit_the_term_is_rejected_as_before(
            self, judgment, nodes, reason):
        # its premises get the conclusion's term and dicts
        d = derivation_from_json(_cert(judgment, *nodes))
        for p in d.premises:
            assert p.conclusion.term is d.conclusion.term
            assert p.conclusion.gamma is d.conclusion.gamma
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.path, e.value.reason) == ((), reason)

    @pytest.mark.parametrize("judgment, nodes, where, reason", [
        ("x:A |- x : A /\\ A |", [["InterI", 2], ["InterE", 0], "InterE"],
         "1", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2], ["InterE", 0, "A", "A"]],
         "0", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2], ["InterE"]], "0", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2], [7, 0]], "0", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", -1]], "root", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", "2"]], "root", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2.0]], "root", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", True]], "root", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2], ["InterE", 0, ["A"]]],
         "0", "shape"),
        ("x:A |- x : A /\\ A |", [["InterI", 2, "A /\\ A"]], "root", "shape"),
        ("x:A |- x : A /\\ A |",
         [["InterI", 2], ["InterE", 0], ["InterE", 0, "A ->"]],
         "1", "type 'A ->': expected a type at 4..4"),
        ("x:A |- x : A /\\ A |",
         [["InterI", 2], ["InterE", 0], ["InterE", 0, "(A /\\ B) \\/ A"]],
         "1", "type '(A /\\\\ B) \\\\/ A': not an intersection-union type"),
        ("x:A |- x : A /\\ A |", [["InterI", 2], ["InterE", 0]],
         "1", "missing: the node list ends before the counts do"),
        ("x:A |- x : A /\\ A |", [],
         "root", "missing: the node list ends before the counts do"),
        ("x:A |- x : A /\\ A |",
         [["InterI", 2], ["InterE", 0], ["InterE", 0], ["InterE", 0], [1]],
         "root", "2 entries past the end of the tree"),
        ("f:A -> A, x:A |- f x : A |",
         [["ArrowE", 2], ["InterE", 0], ["InterE", 0]],
         "0", "no type, and the parent's rule fixes none"),
        ("|- \\x.mu a.[a] x : A -> A |",
         [["ArrowI", 1], ["UnionE_self", 1], ["InterE", 0]],
         "0.0", "no type, and the parent's rule fixes none"),
        ("|- \\x.\\y.x : A -> A -> A |",
         [["ArrowI", 1], ["ArrowI", 1], ["InterE", 0, 7]], "0.0", "shape"),
    ])
    def test_a_malformed_node_is_named_by_its_path(self, judgment, nodes,
                                                   where, reason):
        if reason == "shape":   # not a list of a string, a count and a type
            reason = ("expected [rule, count] or, below the root, [rule, "
                      "count, type], with strings and a count of 0 or more")
        with pytest.raises(MalformedCertificate) as e:
            derivation_from_json(_cert(judgment, *nodes))
        assert str(e.value) == f"certificate node at {where}: {reason}"

    def test_an_old_certificate_is_refused(self):
        text = json.dumps(_cert_dict(derive({"x": A}, Var("x"), A, {})),
                          indent=2)
        with pytest.raises(MalformedCertificate,
                           match="old format.*check-iu --cert"):
            derivation_from_json(text)

    def test_writer_matches_its_oracle(self):
        rng = random.Random(13)
        ds = [gen_typed_judgment(rng) for _ in range(600)] + _readme_derivations()
        for d in ds + [_chain(150)]:
            assert derivation_to_json(d) == _layout(_compact(d))

    def test_writer_escapes_like_json_dumps(self):
        odd = 'q"\\ \x00\x1f\x7f\n\t é λ   \U0001d400'
        leaf = Derivation(odd, Judgment({"x": TVar(odd)}, Var("x"), TVar(odd),
                                        {"b": TVar("é")}))
        ds = [leaf,
              Derivation("InterI", Judgment({}, Var("é"), Inter((A, B)), {}),
                         (leaf, var_node({}, "é", TVar('"')))),
              Derivation("Chain", leaf.conclusion,
                         (Derivation("Chain", leaf.conclusion, (leaf,)),))]
        for d in ds:
            assert derivation_to_json(d) == _layout(_compact(d))
        # a variable so named would not read back, so it is refused
        with pytest.raises(ValueError):
            derivation_to_json(var_node({}, odd, A))

    def test_writer_reaches_as_deep_as_the_reader(self):
        # past the 495 levels at which json.loads stopped on the old format
        text = derivation_to_json(_chain(600))
        assert derivation_to_json(derivation_from_json(text)) == text

    def test_writer_needs_no_recursion(self):
        # a writer that recursed per premise would overflow the default
        # recursion limit here
        text = derivation_to_json(_chain(3000))
        assert text.count('["Chain", 1') == 3000
        assert text.endswith('["InterE", 0, "A"]\n  ]\n}')

    def test_reader_needs_no_recursion(self):
        d = derivation_from_json(derivation_to_json(_chain(3000)))
        depth = 0
        while d.premises:
            d, depth = d.premises[0], depth + 1
        assert (depth, d.rule) == (3000, "InterE")

    def test_an_arrow_chain_certificate_grows_linearly(self):
        # the old format wrote each node's judgment: 218,564 bytes at 100
        small, large = (len(derivation_to_json(_arrow_chain(n)))
                        for n in (100, 200))
        assert small < 5_000 and large < 2.2 * small

    def test_bundled_certificates_reencode_to_their_files(self):
        certs = resources.files("lammu").joinpath("certs")
        for path in certs.iterdir():
            text = path.read_text()
            assert text.endswith("\n")
            assert derivation_to_json(derivation_from_json(text)) == text[:-1]

    def test_right_environment_text_is_no_left_environment(self):
        # 'b:A parses as a right environment, then fails as a left one
        with pytest.raises(ParseError):
            derivation_from_json(_cert("'b:A|-x : A|", ["InterE", 0]))

    def test_tampered_certificate_fails(self):
        d = derive({"x": A}, Var("x"), A, {})
        text = derivation_to_json(d).replace(": A", ": B")
        with pytest.raises(InvalidNode):
            check_derivation(derivation_from_json(text))

    def test_embedding_the_simple_system(self):
        gamma, term, ty, delta = parse_judgment(
            "|- \\x.mu a.[a](x (\\y.mu b.[a] y)) : ((A -> B) -> A) -> A |",
            language="curry")
        sd = check_simple(SimpleJudgment(gamma, term, ty, delta))
        d = embed_simple(sd)
        check_derivation(d)
        assert d.conclusion.term == term
        assert type_equiv(d.conclusion.ty, ty)
