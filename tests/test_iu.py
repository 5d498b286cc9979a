import hashlib
import json
import random
from importlib import resources

import pytest

from conftest import random_iu_type, random_term, random_type
from lammu.grammar import (ParseError, parse_judgment, parse_term,
                           print_judgment)
from lammu.iu import (Derivation, InvalidNode, Judgment,
                      PreconditionViolation, SearchBudget, check_derivation,
                      derivation_from_json, derivation_to_json, derive,
                      embed_simple, thin, weaken)
from lammu.metatheory import (ConstructionMiss, base_environments,
                              gen_typed_judgment, project)
from lammu.simple import SimpleJudgment, check_simple
from lammu.syntax import Abs, App, Mu, Var
from lammu.typelang import (Arrow, Inter, Top, TVar, Union, canonicalize,
                            subexpressions, type_equiv, well_formed)

A, B = TVar("A"), TVar("B")
AB = Inter((A, B))


def var_node(gamma, x, ty, delta=None):
    return Derivation("InterE", Judgment(dict(gamma), Var(x), ty,
                                         dict(delta or {})))


def _cert_dict(d):
    """The object whose ``json.dumps(..., indent=2)`` a certificate is: the
    oracle for the writer."""
    j = d.conclusion
    return {"rule": d.rule,
            "judgment": print_judgment(j.gamma, j.term, j.ty, j.delta),
            "premises": [_cert_dict(p) for p in d.premises]}


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


def reject(d, reason, wrapped=False):
    """A case of ``test_every_rejection``: ``d`` fails with ``reason``, at
    the root or, ``wrapped`` under a weakening that changes nothing, at 0."""
    case_id = f"{d.rule}: {reason}"
    if wrapped:
        return pytest.param(Derivation("Weaken", d.conclusion, (d,)),
                            reason, (0,), id=case_id)
    return pytest.param(d, reason, (), id=case_id)


# One node for each reason the rest of the suite never makes the checker give.
_REJECTIONS = [
    reject(var_node({"x": A}, "x", Union((AB, B))),
           "type outside the intersection-union language"),
    reject(node("InterE", "x:A |- x : A |", node("InterE", "x:A |- x : A |")),
           "variable lookup takes no premises"),
    reject(node("InterI", "x:A /\\ B |- x : A /\\ B |",
                node("InterE", "x:A /\\ B |- x : A |")),
           "one premise per component required", wrapped=True),
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
    reject(node("ArrowI", "|- \\x.x : A -> A |",
                node("InterE", "x:A, y:A |- y : A |")),
           "premise must type the body", wrapped=True),
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
    reject(node("ArrowE", "f:A -> B, y:A |- f y : B |",
                node("InterE", "f:A -> B, y:A |- f : A -> B |"),
                node("InterE", "f:A -> B, y:A |- f : A -> B |")),
           "argument premises must type the argument", wrapped=True),
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
    reject(node("UnionE_named", "x:A |- mu a.['b] x : A |",
                node("InterE", "x:A |- x : A | a:A")),
           "name b not in environment", wrapped=True),
    reject(node("UnionE_self", "x:A |- mu a.['b] x : A | 'b:A",
                node("InterE", "x:A |- x : A | a:A, 'b:A")),
           "the named slot differs from the bound name; use the named variant"),
    reject(node("UnionE_self", "x:A |- mu a.[a] x : A |",
                node("InterE", "x:A |- x : A |")),
           "premise environment must bind the freed name"),
    reject(node("UnionE_self", "x:B |- mu a.[a] x : A |",
                node("InterE", "x:B |- x : B | a:A")),
           "premise type must lie below the target union"),
    reject(node("Thin", "x:A |- x : B |", node("InterE", "x:A |- x : A |")),
           "thinning preserves the term and type"),
    reject(node("Thin", "x:A, y:B |- x : A |",
                node("InterE", "x:A, y:B |- x : A |")),
           "environments must be restricted to the free variables and names"),
    reject(node("Weaken", "x:A |- x : B |", node("InterE", "x:A |- x : A |")),
           "weakening preserves the term and type"),
    reject(node("Weaken", "|- x : A |", node("InterE", "x:A |- x : A |")),
           "conclusion left environment must lie below the premise's",
           wrapped=True),
    reject(node("Weaken", "x:A |- x : A |",
                node("InterE", "x:A |- x : A | 'b:A")),
           "premise right environment must lie below the conclusion's"),
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

    @pytest.mark.parametrize("d, reason, path", _REJECTIONS)
    def test_every_rejection(self, d, reason, path):
        with pytest.raises(InvalidNode) as e:
            check_derivation(d)
        assert (e.value.reason, e.value.path) == (reason, path)


class TestAdmissible:
    def test_project(self):
        # the wrapper lists the components as A /\ B, its premise as B /\ A
        gamma = {"x": AB}
        d = Derivation("InterI", Judgment(gamma, Var("x"), Inter((B, A)), {}),
                       (var_node(gamma, "x", B), var_node(gamma, "x", A)))
        wrapped = Derivation("Weaken", Judgment({"x": AB, "y": B}, Var("x"),
                                                AB, {"a": A}), (d,))
        check_derivation(wrapped)
        proj = project(wrapped, A)
        check_derivation(proj)
        assert proj.rule == "Weaken"
        assert proj.conclusion.ty == A
        assert proj.premises[0] is d.premises[1]
        with pytest.raises(ConstructionMiss):
            project(wrapped, Arrow(A, B))

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
        seeded searches, as the search with a separate application pass per
        union split gave them, but with the 20 goals outside the
        intersection-union language refused after 0 nodes, and with every
        search stopped at the node cap.  The verdicts alone (certificate
        and exhaustion flag) are pinned apart, as the search gave them
        before it stopped at the cap.  Environments are
        random subsets of the base environments, so terms meet unbound
        variable heads and mu named slots outside the right environment, and
        the universes are small enough for pair intersections to join the
        witness pool; every third goal need not be in the intersection-union
        language."""
        rng = random.Random(5)
        gamma0, delta0 = base_environments()
        h, verdicts = hashlib.sha256(), hashlib.sha256()
        for i in range(300):
            gamma = {x: t for x, t in gamma0.items() if rng.random() < 0.3}
            delta = {a: t for a, t in delta0.items() if rng.random() < 0.5}
            term = random_term(rng, 4, tuple(gamma0), tuple(delta0))
            ty = random_type(rng, 2) if i % 3 == 2 else random_iu_type(rng, 2)
            budget = SearchBudget(max_depth=6, max_nodes=400)
            d = derive(gamma, term, ty, delta, budget)
            assert budget.nodes <= budget.max_nodes + 1
            cert = None if d is None else derivation_to_json(d)
            h.update(f"{cert}\0{budget.nodes}\0{budget.exhausted}\0".encode())
            verdicts.update(f"{cert}\0{budget.exhausted}\0".encode())
        assert verdicts.hexdigest() == (
            "45702b108c06483007dee8e05a596c4e7f831ae55d9bc65ae1a4ed194799fc70")
        assert h.hexdigest() == (
            "6ac51bd2f82a4a5c99fbde70efdee21a424b62faa219e51c1eea86f529db8f6a")


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

    def test_writer_matches_json_dumps(self):
        rng = random.Random(13)
        ds = [gen_typed_judgment(rng) for _ in range(600)] + _readme_derivations()
        for d in ds:
            assert derivation_to_json(d) == json.dumps(_cert_dict(d), indent=2)

    def test_writer_escapes_like_json_dumps(self):
        odd = 'q"\\ \x00\x1f\x7f\n\t é λ \u2028 \U0001d400'
        leaf = Derivation(odd, Judgment({"x": TVar(odd)}, Var("x"), TVar(odd),
                                        {"b": TVar("é")}))
        ds = [leaf,
              Derivation("InterI", Judgment({}, Var(odd), Inter((A, B)), {}),
                         (leaf, var_node({}, "é", TVar('"')))),
              Derivation("Weaken", leaf.conclusion,
                         (Derivation("Thin", leaf.conclusion, (leaf,)),))]
        for d in ds:
            assert derivation_to_json(d) == json.dumps(_cert_dict(d), indent=2)

    def test_writer_reaches_as_deep_as_the_reader(self):
        # json.loads stops at about 495 levels; the writer must get that far
        d = var_node({"x": A}, "x", A)
        for _ in range(400):
            d = Derivation("Weaken", d.conclusion, (d,))
        text = derivation_to_json(d)
        assert derivation_to_json(derivation_from_json(text)) == text

    def test_bundled_certificates_reencode_to_their_files(self):
        certs = resources.files("lammu").joinpath("certs")
        for path in certs.iterdir():
            text = path.read_text()
            assert text.endswith("\n")
            assert derivation_to_json(derivation_from_json(text)) == text[:-1]

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
