import hashlib
import json
import random

import pytest

from conftest import _cert_dict, random_term
from lammu.grammar import parse_judgment, parse_term, print_judgment
from lammu.iu import check_derivation
from lammu.simple import (CheckFailure, SimpleJudgment, UntypableError,
                          check_simple, infer_simple)
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

    def test_premises_share_their_conclusions_environments(self):
        # the root holds the caller's dicts; a premise holds its conclusion's
        # dict for each environment its rule does not extend
        gamma, term, ty, delta = parse_judgment(
            "w:B |- \\y.mu a.['b](y (\\x.mu d.[a] x)) "
            ": ((A -> bot) -> bot) -> A | 'b:bot", language="curry")
        d = check_simple(SimpleJudgment(gamma, term, ty, delta))
        assert d.conclusion.gamma is gamma and d.conclusion.delta is delta
        stack, rules = [d], set()
        while stack:
            n = stack.pop()
            rules.add(n.rule)
            for p in n.premises:
                if n.rule != "ArrowI":
                    assert p.conclusion.gamma is n.conclusion.gamma
                if not n.rule.startswith("UnionE"):
                    assert p.conclusion.delta is n.conclusion.delta
            stack.extend(n.premises)
        assert rules == {"ArrowI", "ArrowE", "InterE", "UnionE_named"}


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
        assert general == Arrow(A, A)


def _instance(t, sub: dict, rng: random.Random):
    """``t`` with each type variable replaced by a curry type drawn once per
    variable, ``bot`` among them."""
    if isinstance(t, TVar):
        if t.name not in sub:
            sub[t.name] = rng.choice((A, B, Bottom, Bottom, Arrow(A, Bottom),
                                      Arrow(A, B), Arrow(Arrow(B, Bottom), A)))
        return sub[t.name]
    if isinstance(t, Arrow):
        return Arrow(_instance(t.left, sub, rng), _instance(t.right, sub, rng))
    return t


def test_outputs_are_pinned():
    """The principal typings of 600 seeded random terms, and the certificate
    or failure message of ``check_simple`` on a random instance of each
    (which may put bot left of an arrow inside the derivation), hash to a
    fixed value."""
    rng = random.Random(17)
    h = hashlib.sha256()
    outcomes = []
    for _ in range(600):
        m = random_term(rng, 5, names=("k",))
        try:
            gamma, ty, delta = infer_simple(m)
        except UntypableError as e:
            h.update(f"untypable: {e}\n".encode())
            continue
        h.update(print_judgment(gamma, m, ty, delta).encode() + b"\n")
        sub: dict = {}
        j = SimpleJudgment(
            {x: _instance(t, sub, rng) for x, t in gamma.items()}, m,
            _instance(ty, sub, rng),
            {a: _instance(t, sub, rng) for a, t in delta.items()})
        try:
            out = json.dumps(_cert_dict(check_simple(j)), indent=2)
            outcomes.append("valid")
        except CheckFailure as e:
            out = str(e)
            outcomes.append(out)
        h.update(out.encode() + b"\n")
    assert outcomes.count("valid") > 300
    assert outcomes.count(
        "rule (types): bot may not appear left of an arrow") >= 10
    assert h.hexdigest() == (
        "6403a2fa821ebc60d935254b52f5bef4adabce8d7db07b7f31b4ede85835b502")
