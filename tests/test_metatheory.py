import hashlib
import itertools
import random
import re

import pytest

from lammu import metatheory
from lammu.grammar import parse_judgment
from lammu.iu import (Derivation, Judgment, SearchBudget, check_derivation,
                      derivation_to_json, derive, weaken)
from lammu.metatheory import (INTER_POOL, ConstructionMiss, Generator,
                              base_environments, demo_erasing_failure,
                              gen_typed_judgment, rename_name_derivation,
                              se_beta_vacuous, sr_step, subst_derivation,
                              suite_struct_subst, suite_subject_expansion,
                              suite_subject_reduction, suite_term_subst,
                              top_typed, var_typed)
from lammu.reduction import redexes, step, subst_term
from lammu.syntax import Mu, Var, alpha_eq
from lammu.typelang import Top, TVar, Union, type_equiv

A1, A2 = TVar("A1"), TVar("A2")


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
    ])
    def test_sr_step_rebuilds_intersections_and_top(self, text, pos):
        gamma, term, ty, delta = parse_judgment(text)
        d = derive(gamma, term, ty, delta, SearchBudget(max_depth=8))
        assert d is not None
        out = sr_step(d, pos, "beta")
        check_derivation(out)
        assert out.conclusion.term == step(term, pos, "beta")
        assert type_equiv(out.conclusion.ty, ty)

    def test_renaming_keeps_wrapper_rules(self):
        # mu a.['g] x under a Weaken wrapper; renaming g to b retargets the
        # context switch and leaves the wrapper a Weaken node
        delta = {"g": A1, "b": A1}
        node = Derivation(
            "UnionE_named", Judgment({"x": A1}, Mu("a", "g", Var("x")), A2, delta),
            (Derivation("InterE",
                        Judgment({"x": A1}, Var("x"), A1, {**delta, "a": A2})),))
        wrapped = weaken(node, {"x": A1, "y": A2}, delta)
        out = rename_name_derivation(wrapped, "g", "b")
        check_derivation(out)
        assert out.rule == "Weaken"
        assert out.conclusion.term == Mu("a", "b", Var("x"))

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
        """The certificates the four suites check at seed 3, their summaries
        and the generated derivations for seeds 0-99 hash to a fixed value, so
        a change to a construction or to the order of random draws fails."""
        h = hashlib.sha256()
        checked = []

        def check_and_record(d):
            checked.append(d)
            h.update(derivation_to_json(d).encode() + b"\n")
            check_derivation(d)

        monkeypatch.setattr(metatheory, "check_derivation", check_and_record)
        for suite, cases in ((suite_term_subst, 40), (suite_struct_subst, 40),
                             (suite_subject_reduction, 60),
                             (suite_subject_expansion, 60)):
            h.update(suite(seed=3, cases=cases).summary().encode() + b"\n")
        for seed in range(100):
            d = gen_typed_judgment(random.Random(seed))
            h.update(derivation_to_json(d).encode() + b"\n")
        assert len(checked) == 348
        assert h.hexdigest() == ("ac15a4d84c1f8a8bf5ddf1b1036830ba"
                                 "5b473291fe83e89a25f2054cdafffa23")

    def test_suite_budget_keeps_its_node_cap(self):
        report = suite_term_subst(seed=1, cases=5,
                                  budget=SearchBudget(max_nodes=1))
        assert report.summary() == "SUITE term-subst RUN 5 FAIL 0 BUDGET_MISS 4"

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
