import pytest

from lammu.grammar import parse_judgment, parse_term
from lammu.iu import check_derivation
from lammu.simple import (CheckFailure, SimpleJudgment, UntypableError,
                          check_simple, infer_simple, instance_of)
from lammu.typelang import Arrow, Bottom, TVar

A, B = TVar("A"), TVar("B")


def _check(text: str):
    gamma, term, ty, delta = parse_judgment(text, language="curry")
    return check_simple(SimpleJudgment(gamma, term, ty, delta))


class TestCheck:
    def test_peirce(self):
        d = _check("|- \\x.mu a.[a](x (\\y.mu b.[a] y)) "
                   ": ((A -> B) -> A) -> A |")
        assert d.conclusion.ty == Arrow(Arrow(Arrow(A, B), A), A)

    def test_double_negation(self):
        d = _check("|- \\y.mu a.['b](y (\\x.mu d.[a] x)) "
                   ": ((A -> bot) -> bot) -> A | 'b:bot")
        assert d.conclusion.delta == {"b": Bottom}

    def test_builds_iu_derivations(self):
        # the simple rules are the n = 1 intersection-union rules, so the
        # result checks in the iu system with no embedding step
        for text in ("|- \\x.mu a.[a](x (\\y.mu b.[a] y)) "
                     ": ((A -> B) -> A) -> A |",
                     "|- \\y.mu a.['b](y (\\x.mu d.[a] x)) "
                     ": ((A -> bot) -> bot) -> A | 'b:bot",
                     "x:A -> B, y:A |- x y : B |"):
            check_derivation(_check(text))

    def test_axiom_and_arrows(self):
        _check("x:A |- x : A |")
        _check("|- \\x.\\y.x : A -> B -> A |")
        _check("x:A -> B, y:A |- x y : B |")

    def test_rejects_wrong_type(self):
        with pytest.raises(CheckFailure):
            _check("x:A |- x : B |")

    def test_rejects_unbound_variable(self):
        with pytest.raises(CheckFailure):
            _check("|- x : A |")

    def test_rejects_free_name_outside_delta(self):
        with pytest.raises(CheckFailure):
            _check("x:A |- mu a.['b] x : A |")

    def test_accepts_free_name_in_delta(self):
        _check("x:A |- mu a.['b] x : B | 'b:A")

    def test_rejects_non_function_application(self):
        with pytest.raises(CheckFailure):
            _check("x:A, y:A |- x y : A |")


class TestInfer:
    def test_k_combinator(self):
        gamma, ty, delta = infer_simple(parse_term("\\x.\\y.x"))
        assert gamma == {} and delta == {}
        assert ty == Arrow(A, Arrow(B, A))

    def test_free_variables_get_entries(self):
        gamma, ty, delta = infer_simple(parse_term("x y"))
        assert set(gamma) == {"x", "y"}
        assert gamma["x"] == Arrow(gamma["y"], ty)

    def test_free_names_get_entries(self):
        gamma, ty, delta = infer_simple(parse_term("mu a.['b] x"))
        assert set(delta) == {"b"}
        assert delta["b"] == gamma["x"]

    def test_self_application_untypable(self):
        with pytest.raises(UntypableError):
            infer_simple(parse_term("\\x.x x"))

    def test_inferred_typing_checks(self):
        for text in ("\\x.\\y.x", "\\x.mu a.[a](x (\\y.mu b.[a] y))",
                     "\\f.\\x.f (f x)"):
            term = parse_term(text)
            gamma, ty, delta = infer_simple(term)
            check_simple(SimpleJudgment(gamma, term, ty, delta))

    def test_principality(self):
        _, general, _ = infer_simple(parse_term("\\x.x"))
        assert instance_of(general, Arrow(B, B))
        assert instance_of(general, Arrow(Arrow(A, B), Arrow(A, B)))
        assert not instance_of(general, Arrow(A, B))
