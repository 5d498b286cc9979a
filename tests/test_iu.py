import json

import pytest

from lammu.grammar import ParseError, parse_judgment, parse_term
from lammu.iu import (Derivation, EmptyInversion, InvalidNode, Judgment,
                      NotPureLambda, PreconditionViolation, SearchBudget,
                      check_derivation, check_strict, derivation_from_json,
                      derivation_to_json, derive, embed_simple, inter_elim,
                      invert, thin, weaken)
from lammu.simple import SimpleJudgment, check_simple
from lammu.syntax import Abs, App, Mu, Var
from lammu.typelang import (Arrow, Inter, Top, TVar, Union, canonicalize,
                            type_equiv)

A, B = TVar("A"), TVar("B")
AB = Inter((A, B))


def var_node(gamma, x, ty, delta=None):
    return Derivation("InterE", Judgment(dict(gamma), Var(x), ty,
                                         dict(delta or {})))


class TestValidNodes:
    def test_variable_projection(self):
        check_derivation(var_node({"x": AB}, "x", A))
        check_derivation(var_node({"x": AB}, "x", B))

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


class TestInversion:
    def test_variable(self):
        assert invert(Judgment({"x": AB}, Var("x"), A, {})) == []
        with pytest.raises(EmptyInversion):
            invert(Judgment({}, Var("x"), A, {}))
        with pytest.raises(EmptyInversion):
            invert(Judgment({"x": A}, Var("x"), B, {}))

    def test_abstraction(self):
        j = Judgment({}, Abs("x", Var("x")),
                     Inter((Arrow(A, A), Arrow(B, B))), {})
        prems = invert(j)
        assert [p.ty for p in prems] == [A, B]
        assert all(p.term == Var("x") for p in prems)
        with pytest.raises(EmptyInversion):
            invert(Judgment({}, Abs("x", Var("x")), A, {}))

    def test_application_and_mu_leave_witnesses_open(self):
        assert invert(Judgment({"f": Arrow(A, B), "y": A},
                               App(Var("f"), Var("y")), B, {})) == []
        assert invert(Judgment({"x": A}, Mu("a", "a", Var("x")),
                               Union((A, B)), {})) == []
        with pytest.raises(EmptyInversion):
            invert(Judgment({"x": A}, Mu("a", "b", Var("x")), A, {}))


class TestAdmissible:
    def test_inter_elim(self):
        d = Derivation("InterI", Judgment({"x": AB}, Var("x"), Inter((B, A)), {}),
                       (var_node({"x": AB}, "x", B), var_node({"x": AB}, "x", A)))
        proj = inter_elim(d, 0)
        assert proj.conclusion.ty == B
        check_derivation(proj)
        with pytest.raises(PreconditionViolation):
            inter_elim(d, 5)

    def test_thin(self):
        d = var_node({"x": A, "y": B}, "x", A, {"a": A})
        out = thin(d)
        assert out.conclusion.gamma == {"x": A}
        assert out.conclusion.delta == {}
        check_derivation(out)

    def test_weaken(self):
        d = var_node({"x": A}, "x", A)
        out = weaken(d, {"x": A, "y": B}, {"a": A})
        check_derivation(out)
        with pytest.raises(PreconditionViolation):
            weaken(d, {}, {})

    def test_weaken_shares_the_callers_environments(self):
        d = var_node({"x": A}, "x", A)
        gamma, delta = {"x": A, "y": B}, {"a": A}
        out = weaken(d, gamma, delta).conclusion
        assert out.gamma is gamma and out.delta is delta


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

    def test_strict_fragment(self):
        d = check_strict({"x": AB}, Var("x"), A)
        assert d is not None
        with pytest.raises(NotPureLambda):
            check_strict({}, Mu("a", "a", Var("x")), A)
        with pytest.raises(NotPureLambda):
            check_strict({"x": Union((A, B))}, Var("x"), A)


class TestCertificates:
    def test_json_round_trip(self):
        d = derive({"x": AB}, Var("x"), Inter((B, A)), {})
        text = derivation_to_json(d)
        back = derivation_from_json(text)
        check_derivation(back)
        assert back.rule == d.rule
        assert type_equiv(back.conclusion.ty, d.conclusion.ty)

    def test_equal_environment_texts_share_one_dict(self):
        def node(rule, ty, *premises):
            return {"rule": rule, "judgment": f"x:A /\\ B |- x : {ty} | 'b:A",
                    "premises": list(premises)}

        d = derivation_from_json(json.dumps(node(
            "InterI", "A /\\ B", node("InterE", "A"), node("InterE", "B"))))
        check_derivation(d)
        root = d.conclusion
        assert root.gamma == {"x": AB} and root.delta == {"b": A}
        for p in d.premises:
            assert p.conclusion.gamma is root.gamma
            assert p.conclusion.delta is root.delta

    def test_right_environment_text_is_no_left_environment(self):
        # 'b:A parses as a right environment, then fails as a left one
        text = json.dumps({"rule": "Weaken", "judgment": "|-x : A|'b:A",
                           "premises": [{"rule": "InterE",
                                         "judgment": "'b:A|-x : A|"}]})
        with pytest.raises(ParseError):
            derivation_from_json(text)

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
