import hashlib
import itertools
import json
import random
import re

import pytest

from conftest import _cert_dict
from lammu import metatheory
from lammu.grammar import parse_judgment, parse_type, print_judgment
from lammu.iu import (Derivation, Judgment, SearchBudget, check_derivation,
                      derivation_from_json, derivation_to_json, derive, under)
from lammu.metatheory import (INTER_POOL, ConstructionMiss, Generator,
                              base_environments, demo_erasing_failure,
                              gen_typed_judgment, se_beta_vacuous,
                              se_beta_var, sr_step,
                              struct_subst_derivation, subst_derivation,
                              suite_struct_subst, suite_subject_expansion,
                              suite_subject_reduction, suite_term_subst,
                              top_typed, var_typed)
from lammu.reduction import redexes, step, subst_structural, subst_term
from lammu.syntax import Mu, Var, alpha_eq, free_names, free_term_vars
from lammu.typelang import Inter, Top, TVar, Union, type_equiv, union_parts

A1, A2 = TVar("A1"), TVar("A2")


def _derive(text):
    return derive(*parse_judgment(text), SearchBudget(max_depth=8))


def _thinned(d):
    """``d`` under its environments cut to its free variables and names."""
    j = d.conclusion
    fv, fn = free_term_vars(j.term), free_names(j.term)
    return under(d, {x: t for x, t in j.gamma.items() if x in fv},
                 {a: t for a, t in j.delta.items() if a in fn})


def _rederived(d, gamma):
    """``d`` with its first premise derived again under ``gamma`` alone and
    taken back under its environments."""
    p = d.premises[0].conclusion
    q = under(derive(gamma, p.term, p.ty, p.delta), p.gamma, p.delta)
    return Derivation(d.rule, d.conclusion, (q, *d.premises[1:]))


# Valid derivations with parts derived under other environments and taken
# under these by ``under``, where a transform meets them: each gives the
# derivation, the transform, the term the reducer gives and the conclusion
# environments the result must have.

def _beta_under_a_strengthened_entry():
    # \x.y derived under y:A, taken under y:A /\ B; the argument y at A
    a = parse_type("A")
    gamma = {"v": parse_type("A -> A"), "y": parse_type(r"A /\ B")}
    term = parse_judgment(r"|- v ((\x.y) y) : A |")[1]
    fun = under(_derive(r"y:A |- \x.y : A -> A |"), gamma, {})
    redex = Derivation("ArrowE", Judgment(gamma, term.arg, a, {}), (
        fun, Derivation("InterE", Judgment(gamma, Var("y"), a, {}))))
    d = Derivation("ArrowE", Judgment(gamma, term, a, {}), (Derivation(
        "InterE", Judgment(gamma, Var("v"), gamma["v"], {})), redex))
    return (d, lambda: sr_step(d, (1,), "beta"), step(term, (1,), "beta"),
            gamma, {})


def _substitution_of_a_lookup_taken_under_more_bindings():
    g = {"w": parse_type("A"), "y": parse_type("A")}
    dM = under(_derive("x:A |- x : A |"), {**g, "x": parse_type("A")}, {})
    dN = _derive("w:A, y:A |- y : A |")
    return dM, lambda: subst_derivation(dM, "x", dN), Var("y"), g, {}


def _structural_substitution_thinned_and_weakened():
    a_b = parse_type(r"A /\ B")
    u = parse_type(r"(A -> B) \/ (B -> A)")
    d = under(_derive(r"y:A /\ B, w:A |- y : A /\ B |"), {"y": a_b},
              {"a": u})
    arg_for = {arrow: var_typed({"y": a_b}, arrow.left, {})
               for arrow in union_parts(u)}
    new_union = parse_type(r"A \/ B")
    return (d, lambda: struct_subst_derivation(d, "a", arg_for, "g",
                                               new_union),
            subst_structural(d.conclusion.term, "a", Var("y"), "g"),
            {"y": a_b}, {"g": new_union})


def _beta_expansion_of_a_thinned_variable():
    d = _thinned(_derive("y:A, z:B |- y : A |"))
    rng = random.Random(0)
    gamma, term, _, delta = parse_judgment(r"y:A |- (\bx1.bx1) y : A |")
    return (d, lambda: se_beta_var(d, rng, Generator(rng))[0], term, gamma,
            delta)


def _mu_over_a_rederived_switch():
    d = _rederived(_derive(r"y:A, z:B |- (mu a.[a] \x.x) y : A |"),
                   {"y": parse_type("A")})
    j = d.conclusion
    return (d, lambda: sr_step(d, (), "mu"), step(j.term, (), "mu"),
            j.gamma, j.delta)


def _renaming_over_a_rederived_switch():
    d = _rederived(_derive(r"y:A, z:B |- mu a.[a] mu b.[a] y : A |"),
                   {"y": parse_type("A")})
    j = d.conclusion
    return (d, lambda: sr_step(d, (), "renaming"),
            step(j.term, (), "renaming"), j.gamma, j.delta)


class TestGenerator:
    def test_generated_derivations_check(self):
        rng = random.Random(42)
        for _ in range(30):
            d = gen_typed_judgment(rng)
            check_derivation(d)

    def test_deterministic_per_seed(self):
        a = gen_typed_judgment(random.Random(9)).conclusion
        b = gen_typed_judgment(random.Random(9)).conclusion
        assert a.term == b.term and type_equiv(a.ty, b.ty)

    def test_base_environment_helpers(self):
        gamma, delta = base_environments()
        d = top_typed(gamma, Var("v1"), delta)
        check_derivation(d)
        assert d.conclusion.ty == Top
        for ty in gamma.values():
            w = var_typed(gamma, ty, delta)
            assert w is not None
            check_derivation(w)


class TestTransforms:
    def test_substitution_preserves_the_typing(self):
        rng = random.Random(4)
        gamma, delta = base_environments()
        for _ in range(20):
            gen = Generator(rng)
            c = rng.choice(INTER_POOL)
            dN = gen.judgment(gamma, delta, goal=c)
            if dN is None:
                continue
            x = "s" + gen.fresh_var()
            dM = gen.judgment({**gamma, x: c}, delta)
            if dM is None:
                continue
            out = subst_derivation(dM, x, dN)
            check_derivation(out)
            want = subst_term(dM.conclusion.term, x, dN.conclusion.term)
            assert out.conclusion.term == want

    def test_sr_step_preserves_term_and_type(self):
        rng = random.Random(8)
        checked = 0
        while checked < 20:
            d = gen_typed_judgment(rng)
            rs = redexes(d.conclusion.term, {"beta", "mu", "renaming"})
            if not rs:
                continue
            pos, rule = rs[0]
            out = sr_step(d, pos, rule)
            check_derivation(out)
            assert out.conclusion.term == step(d.conclusion.term, pos, rule)
            assert type_equiv(out.conclusion.ty, d.conclusion.ty)
            checked += 1

    @pytest.mark.parametrize("text, pos", [
        # the redex typed by an intersection introduction
        (r"y:A /\ B |- (\x.x) y : A /\ B |", ()),
        (r"y:A /\ B |- (\x.mu a.[a] x) y : A /\ B |", ()),
        # the redex inside an argument typed at top
        (r"w:A |- (\x.w) ((\z.z) w) : A |", (1,)),
        # thinned environments above a redex whose contraction drops y
        (r"v:A -> A, y:A, w:A, z:B |- v ((\x.w) y) : A |", (1,)),
    ])
    def test_sr_step_rebuilds_intersections_and_top(self, text, pos):
        gamma, term, ty, delta = parse_judgment(text)
        d = _thinned(derive(gamma, term, ty, delta, SearchBudget(max_depth=8)))
        out = sr_step(d, pos, "beta")
        check_derivation(out)
        assert out.conclusion.term == step(term, pos, "beta")
        assert type_equiv(out.conclusion.ty, ty)

    @pytest.mark.parametrize("envs, text, rule", [
        *((envs, text, rule) for envs in ("thinned", "weakened")
          for text, rule in (
              (r"y:A, z:B |- (\x.x) y : A |", "beta"),
              (r"y:A, z:B |- (mu a.[a] \x.x) y : A |", "mu"),
              (r"y:A, z:B |- mu a.[a] mu b.[a] y : A |", "renaming"))),
        # the redex's function derived under fewer bindings than the redex
        ("inside", r"v:A -> A, y:A, z:B |- v ((\x.x) y) : A |", "beta"),
    ])
    def test_sr_step_under_other_environments_keeps_them(self, envs, text,
                                                         rule):
        gamma, term, ty, delta = parse_judgment(text)
        d = derive(gamma, term, ty, delta, SearchBudget(max_depth=8))
        pos = ()
        if envs in ("thinned", "weakened"):
            d = _thinned(d)
        if envs == "weakened":
            j = d.conclusion
            d = under(d, {**j.gamma, "u": A1}, {**j.delta, "k": A1})
        if envs == "inside":
            # \x.x typed under y:A alone, taken under the redex's
            # environments
            pos, redex = (1,), d.premises[1]
            j = redex.conclusion
            fun = under(derive(*parse_judgment(r"y:A |- \x.x : A -> A |")),
                        j.gamma, j.delta)
            d = Derivation(d.rule, d.conclusion, (d.premises[0], Derivation(
                "ArrowE", j, (fun, redex.premises[1]))))
        check_derivation(d)
        out = sr_step(d, pos, rule)
        check_derivation(out)
        assert out.conclusion.term == step(term, pos, rule)
        assert out.conclusion.gamma == d.conclusion.gamma
        assert out.conclusion.delta == d.conclusion.delta

    @pytest.mark.parametrize("text, pos", [
        (r"x:B, y:A |- (\x.x) y : A |", ()),
        (r"v:A -> A, x:B, y:A |- v ((\x.x) y) : A |", (1,)),
        (r"x:B, y:A |- (\x.\z.x) y : C -> A |", ()),
        # the argument is the outer x
        (r"x:B, y:A |- (\x.y) x : A |", ()),
    ])
    def test_sr_step_keeps_an_outer_binding_of_the_bound_variable(self, text,
                                                                   pos):
        gamma, term, ty, delta = parse_judgment(text)
        d = derive(gamma, term, ty, delta, SearchBudget(max_depth=8))
        out = sr_step(d, pos, "beta")
        check_derivation(out)
        assert out.conclusion.term == step(term, pos, "beta")
        assert out.conclusion.gamma == gamma

    @pytest.mark.parametrize("case", [
        _beta_under_a_strengthened_entry,
        _substitution_of_a_lookup_taken_under_more_bindings,
        _structural_substitution_thinned_and_weakened,
        _beta_expansion_of_a_thinned_variable,
        _mu_over_a_rederived_switch,
        _renaming_over_a_rederived_switch,
    ])
    def test_transforms_pass_derivations_taken_under(self, case):
        d, transform, term, gamma, delta = case()
        check_derivation(d)
        out = transform()
        check_derivation(out)
        assert out.conclusion.term == term
        assert out.conclusion.gamma == gamma
        assert out.conclusion.delta == delta

    def test_substitution_at_a_lookup_of_an_equivalent_component(self):
        """x's old entry writes a part of its new entry in another order, so
        x's lookup is of a component only up to equivalence."""
        b_or_d = Union((TVar("B"), TVar("D")))
        d_or_b = Union((TVar("D"), TVar("B")))
        c = Inter((TVar("A"), b_or_d))
        lookup = Derivation("InterE", Judgment({"x": d_or_b}, Var("x"),
                                               d_or_b, {}))
        dM = under(lookup, {"y": c, "x": c}, {})
        check_derivation(dM)
        assert dM.rule == "InterE" and dM.conclusion.ty == d_or_b
        out = subst_derivation(dM, "x", var_typed({"y": c}, c, {}))
        check_derivation(out)
        assert out.conclusion.term == Var("y")
        assert out.conclusion.gamma == {"y": c}

    @pytest.mark.parametrize("text", [
        r"x:B \/ D, y:B \/ D |- x : D \/ B |",
        r"x:B \/ D, y:B \/ D |- \z.x : A -> D \/ B |",
    ])
    def test_substitution_at_a_lookup_of_an_equivalent_type(self, text):
        """x is looked up at D \\/ B (built by hand: ``derive`` would write
        B \\/ D) and y at B \\/ D, an equivalent type, so N's derivation
        takes the place of x's lookup as it is."""
        gamma, term, ty, delta = parse_judgment(text)
        b_or_d, d_or_b = parse_type(r"B \/ D"), parse_type(r"D \/ B")
        dM = Derivation("InterE", Judgment(gamma, Var("x"), d_or_b, delta))
        if term != Var("x"):
            dM = Derivation("ArrowI", Judgment(gamma, term, ty, delta), (dM,))
        dM = under(dM, gamma, delta)
        check_derivation(dM)
        dN = Derivation("InterE", Judgment({"y": b_or_d}, Var("y"), b_or_d, {}))
        out = subst_derivation(dM, "x", dN)
        check_derivation(out)
        assert out.conclusion.term == subst_term(term, "x", Var("y"))

    def test_substitution_of_a_thinned_lookup(self):
        """x's lookup, derived under x alone and taken under w too, loses x
        and keeps N's free variable w."""
        leaf = derive(*parse_judgment("x:A |- x : A |"))
        dM = under(leaf, {"x": TVar("A"), "w": TVar("A")}, {})
        dN = derive(*parse_judgment("w:A |- w : A |"))
        out = subst_derivation(dM, "x", dN)
        check_derivation(out)
        assert out.conclusion.term == Var("w")
        assert out.conclusion.gamma == {"w": TVar("A")}

    def test_each_transform_calls_the_reducer_once_for_its_root(self,
                                                                 monkeypatch):
        """Each of the three derivation transforms calls the reducer once, on
        its input's root term, and ``under`` once, and returns that ``under``
        call's output, at that reducer call's output, counting the calls of
        any transform run inside it; and none runs inside another.  So no
        transform works out a term node by node, or roots a part of its
        result."""
        opened = []   # per open transform: its input's root term, its reducer
        done = set()  # calls, its under calls

        def transform(name, fn):
            def run(d, *args):
                assert not opened, (name, "inside", len(opened))
                opened.append((d.conclusion.term, [], []))
                try:
                    out = fn(d, *args)
                finally:
                    root, calls, rooted = opened.pop()
                assert len(calls) == 1, (name, calls)
                assert calls[0][0] is root, name
                assert len(rooted) == 1, (name, len(rooted))
                assert out is rooted[0], name
                assert out.conclusion.term is calls[0][1], name
                done.add(name)
                return out
            return run

        def reducer(fn):
            def run(m, *args):
                out = fn(m, *args)
                for _, calls, _ in opened:
                    calls.append((m, out))
                return out
            return run

        def rooting(d, gamma, delta):
            out = under(d, gamma, delta)
            for _, _, rooted in opened:
                rooted.append(out)
            return out

        for name in ("subst_derivation", "struct_subst_derivation",
                     "sr_step"):
            monkeypatch.setattr(metatheory, name,
                                transform(name, getattr(metatheory, name)))
        for name in ("subst_term", "subst_structural", "step"):
            monkeypatch.setattr(metatheory, name,
                                reducer(getattr(metatheory, name)))
        monkeypatch.setattr(metatheory, "under", rooting)
        budget = SearchBudget(max_depth=1)
        for suite, cases in ((suite_term_subst, 40), (suite_struct_subst, 40),
                             (suite_subject_reduction, 200),
                             (suite_subject_expansion, 60)):
            report = suite(seed=3, cases=cases, budget=budget)
            assert report.fail == 0, report.failures
        # a redex inside an argument typed at top
        gamma, term, ty, delta = parse_judgment(r"w:A |- (\x.w) ((\z.z) w) : A |")
        metatheory.sr_step(derive(gamma, term, ty, delta), (1,), "beta")
        assert done == {"subst_derivation", "struct_subst_derivation",
                        "sr_step"}

    @pytest.mark.parametrize("text, transform, want", [
        # capture: the reducer renames a binder, and the result binds the new
        # name
        (r"x:A, y:A |- \y.x : B -> A |",
         lambda d: subst_derivation(d, "x", _derive("y:A |- y : A |")),
         r"y:A |- \y'.y : B -> A |"),
        (r"y:A |- (\x.\y.x) y : B -> A |", lambda d: sr_step(d, (), "beta"),
         r"y:A |- \y'.y : B -> A |"),
        (r"x:A |- mu a.['k] mu g.[g] mu k.[g] x : A | k:A",
         lambda d: sr_step(d, (), "renaming"),
         r"x:A |- mu a.['k] mu k'.['k] x : A | k:A"),
        # shadowing: below a binder of the substituted variable or name,
        # nothing changes
        (r"x:B |- \x.x : A -> A |",
         lambda d: subst_derivation(d, "x", _derive("w:B |- w : B |")),
         r"|- \x.x : A -> A |"),
        (r"x:A |- mu a.['k] mu g.[g] mu g.[g] x : A | k:A",
         lambda d: sr_step(d, (), "renaming"),
         r"x:A |- mu a.['k] mu g.[g] x : A | k:A"),
    ], ids=["subst-capture", "sr-capture", "renaming-capture", "subst-shadow",
            "renaming-shadow"])
    def test_transforms_take_the_reducers_term_across_binders(self, text,
                                                               transform,
                                                               want):
        out = transform(_derive(text))
        check_derivation(out)
        j = out.conclusion
        assert print_judgment(j.gamma, j.term, j.ty, j.delta) == want

    def test_renaming_a_switch_taken_under_more_bindings(self):
        # mu c.['b] mu g.[g] mu a.[g] x taken under y too; the renaming step
        # retargets the context switch mu a.[g] x to b under those
        # environments
        d = _derive("x:A1 |- mu c.['b] mu g.[g] mu a.[g] x : A1 | b:A1")
        wider = under(d, {"x": A1, "y": A2}, d.conclusion.delta)
        out = sr_step(wider, (), "renaming")
        check_derivation(out)
        assert out.rule == "UnionE_named"
        assert out.premises[0].rule == "UnionE_named"
        assert out.premises[0].premises[0].rule == "InterE"
        assert out.conclusion.gamma == wider.conclusion.gamma
        assert out.conclusion.delta == {"b": A1}
        assert out.conclusion.term == Mu("c", "b", Mu("a", "b", Var("x")))

    def test_beta_expansion(self):
        rng = random.Random(5)
        gamma, delta = base_environments()
        d = var_typed(gamma, gamma["v1"], delta)
        exp, red, rule = se_beta_vacuous(d, rng, Generator(rng))
        check_derivation(exp)
        assert rule == "beta"
        assert alpha_eq(step(exp.conclusion.term, (), rule),
                        red.conclusion.term)


class TestSuites:
    def test_term_subst_small(self):
        report = suite_term_subst(seed=3, cases=40)
        assert report.run == 40
        assert report.fail == 0

    def test_struct_subst_small(self):
        report = suite_struct_subst(seed=3, cases=40)
        assert report.run == 40
        assert report.fail == 0

    def test_subject_reduction_small(self):
        report = suite_subject_reduction(seed=3, cases=60)
        assert report.fail == 0

    def test_subject_expansion_small(self):
        report = suite_subject_expansion(seed=3, cases=60)
        assert report.fail == 0

    def test_output_is_pinned(self, monkeypatch):
        """The derivations the four suites check at seed 3, their summaries
        and the generated derivations for seeds 0-99 hash to a fixed value, so
        a change to a construction or to the order of random draws fails.
        Each derivation is hashed as its text in the old certificate format,
        which spells out every node's judgment; a second digest pins the
        certificates ``derivation_to_json`` writes for them."""
        h, certs = hashlib.sha256(), hashlib.sha256()
        checked = []

        def check_and_record(d):
            checked.append(d)
            h.update(json.dumps(_cert_dict(d), indent=2).encode() + b"\n")
            check_derivation(d)

        monkeypatch.setattr(metatheory, "check_derivation", check_and_record)
        for suite, cases in ((suite_term_subst, 40), (suite_struct_subst, 40),
                             (suite_subject_reduction, 60),
                             (suite_subject_expansion, 60)):
            h.update(suite(seed=3, cases=cases).summary().encode() + b"\n")
        generated = [gen_typed_judgment(random.Random(seed))
                     for seed in range(100)]
        for d in generated:
            h.update(json.dumps(_cert_dict(d), indent=2).encode() + b"\n")
        assert len(checked) == 348
        assert h.hexdigest() == ("9955b37bbfb8d04f7a8be4f0e9650df5"
                                 "18fc4f8e0fed586aeed3d0d347c86739")
        # each construction's environments come from its root's alone
        assert all(d == under(d, d.conclusion.gamma, d.conclusion.delta)
                   for d in checked)
        for d in checked + generated:
            text = derivation_to_json(d)
            assert derivation_from_json(text) == d
            certs.update(text.encode() + b"\n")
        assert certs.hexdigest() == ("bf947386782dfffa803d321c867b418b"
                                     "26a7be680782b0a4995b8f3088c0971b")

    def test_suite_budget_keeps_its_node_cap(self):
        report = suite_term_subst(seed=1, cases=5,
                                  budget=SearchBudget(max_nodes=1))
        assert report.summary() == "SUITE term-subst RUN 5 FAIL 0 BUDGET_MISS 4"

    def test_a_definite_miss_is_a_failure(self, monkeypatch):
        # a search that returns None with no limit reached has missed a
        # judgment the case just derived
        searched = []

        def miss(gamma, term, ty, delta, budget):
            searched.append(print_judgment(gamma, term, ty, delta))

        monkeypatch.setattr(metatheory, "derive", miss)
        report = suite_term_subst(seed=1, cases=5)
        assert report.summary() == "SUITE term-subst RUN 5 FAIL 5 BUDGET_MISS 0"
        assert report.failures == [f"term-subst: definite miss: {j}"
                                   for j in searched]

    def test_report_rendering(self):
        report = suite_term_subst(seed=1, cases=5)
        assert report.summary() == "SUITE term-subst RUN 5 FAIL 0 BUDGET_MISS 0"
        assert report.summary() in report.render()


class TestSuiteFailures:
    """The case loop's failure path, with checks and draws made to raise."""

    @pytest.fixture
    def flaky_check(self, monkeypatch):
        """Every third ``check_derivation`` call raises."""
        calls = itertools.count(1)

        def check(d):
            if next(calls) % 3 == 0:
                raise ConstructionMiss("flaky check")
            check_derivation(d)

        monkeypatch.setattr(metatheory, "check_derivation", check)

    @pytest.mark.usefixtures("flaky_check")
    @pytest.mark.parametrize("suite, summary, kept, label", [
        (suite_term_subst, "SUITE term-subst RUN 30 FAIL 10 BUDGET_MISS 0",
         10, r"term-subst: "),
        (suite_subject_reduction,
         "SUITE subject-reduction RUN 30 FAIL 21 BUDGET_MISS 0", 20,
         r"subject-reduction: (beta|mu|renaming) at \([0-9, ]*\): "),
        (suite_subject_expansion,
         "SUITE subject-expansion RUN 30 FAIL 15 BUDGET_MISS 0", 15,
         r"subject-expansion: (beta_vacuous|beta_var|mu_named|mu_self"
         r"|renaming): "),
    ])
    def test_failures_are_counted_and_labelled(self, suite, summary, kept,
                                               label):
        report = suite(seed=3, cases=30)
        assert report.summary() == summary
        assert len(report.failures) == kept
        for message in report.failures:
            assert re.fullmatch(label + "flaky check", message), message

    def test_a_draw_that_raises_is_one_failure(self, monkeypatch):
        raised = []

        def gen_once(rng):
            if not raised:
                raised.append(True)
                raise ConstructionMiss("generator exhausted its attempts")
            return gen_typed_judgment(rng)

        monkeypatch.setattr(metatheory, "gen_typed_judgment", gen_once)
        report = suite_subject_reduction(seed=3, cases=10)
        assert report.summary() == \
            "SUITE subject-reduction RUN 10 FAIL 1 BUDGET_MISS 0"
        assert report.failures == [
            "subject-reduction: generator exhausted its attempts"]


class TestErasingDemo:
    def test_counterexample(self):
        rep = demo_erasing_failure()
        before = rep["derivation_before"]
        check_derivation(before)
        j = rep["judgment_before"]
        assert type_equiv(j.ty, Union((A1, A2)))
        assert rep["step"][1] == "erasing"
        assert rep["term_after"] == Var("x")
        assert not rep["derivable_after"]
        assert not rep["search_found_after"]
        assert derive(j.gamma, rep["term_after"], j.ty, j.delta) is None
