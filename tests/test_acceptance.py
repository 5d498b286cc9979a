"""End-to-end acceptance checks, one test per shipped guarantee.

Each test asserts both the outcome and a wall-clock bound.  The subtype
comparison uses an independent oracle: the reflexive-transitive closure of
the generating axioms computed by fixpoint over an enumerated universe.
"""

import random
import time
from importlib import resources

import pytest

from conftest import random_iu_type, random_pure_term, random_term
from lammu.grammar import parse_judgment, parse_term, parse_type, print_term, print_type
from lammu.iu import (SearchBudget, check_derivation, derivation_from_json,
                      derive, embed_simple)
from lammu.metatheory import (demo_erasing_failure, suite_struct_subst,
                              suite_subject_expansion, suite_subject_reduction,
                              suite_term_subst)
from lammu.simple import (SimpleJudgment, UntypableError, check_simple,
                          infer_simple)
from lammu.syntax import alpha_eq, free_names
from lammu.typelang import (Arrow, Bottom, Inter, Top, TVar, Union,
                            canonicalize, subexpressions, subtype, type_equiv,
                            well_formed)


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def _load_cert(name):
    text = resources.files("lammu").joinpath(f"certs/{name}.json").read_text()
    return derivation_from_json(text)


def test_peirce_reproduction():
    with Timer() as t:
        gamma, term, ty, delta = parse_judgment(
            "|- \\x.mu a.[a](x (\\y.mu b.[a] y)) : ((A -> B) -> A) -> A |",
            language="curry")
        d = check_simple(SimpleJudgment(gamma, term, ty, delta))
        assert d.conclusion.term == term and d.conclusion.ty == ty
        cert = _load_cert("peirce")
        check_derivation(cert)
        assert cert.conclusion.term == term
        assert type_equiv(cert.conclusion.ty, ty)
        assert cert.conclusion.gamma == {} and cert.conclusion.delta == {}
        # node for node, the certificate is the embedding of the checked tree
        assert derivation_from_json(
            resources.files("lammu").joinpath("certs/peirce.json").read_text()
        ).rule == embed_simple(d).rule

        def same_shape(a, b):
            assert a.rule == b.rule
            assert a.conclusion.term == b.conclusion.term
            assert type_equiv(a.conclusion.ty, b.conclusion.ty)
            assert len(a.premises) == len(b.premises)
            for pa, pb in zip(a.premises, b.premises):
                same_shape(pa, pb)

        same_shape(cert, embed_simple(d))
    assert t.elapsed < 1


def test_double_negation_reproduction():
    with Timer() as t:
        gamma, term, ty, delta = parse_judgment(
            "|- \\y.mu a.['b](y (\\x.mu d.[a] x)) : ((A -> bot) -> bot) -> A "
            "| 'b:bot", language="curry")
        check_simple(SimpleJudgment(gamma, term, ty, delta))
        assert free_names(term) == {"b"}
        assert delta["b"] == Bottom
        cert = _load_cert("dne")
        check_derivation(cert)
        assert cert.conclusion.term == term
        assert type_equiv(cert.conclusion.ty, ty)
    assert t.elapsed < 1


def test_no_choice_reproduction():
    with Timer() as t:
        term = parse_term("mu d.[d](\\x.mu b.[d] x)")
        a = TVar("A")
        ab = Arrow(a, TVar("B"))
        both = Union((a, ab))
        found = derive({}, term, both, {}, SearchBudget(max_depth=6))
        assert found is not None
        check_derivation(found)
        assert type_equiv(found.conclusion.ty, canonicalize(both))
        assert derive({}, term, a, {}, SearchBudget(max_depth=6)) is None
        assert derive({}, term, ab, {}, SearchBudget(max_depth=6)) is None
        cert = _load_cert("no_choice")
        check_derivation(cert)
        assert cert.conclusion.term == term
    assert t.elapsed < 10


def test_subject_reduction_suite():
    with Timer() as t:
        report = suite_subject_reduction(seed=2024, cases=500)
    assert report.run == 500
    assert report.fail == 0, report.failures
    assert report.budget_miss == 0
    assert report.summary() == ("SUITE subject-reduction RUN 500 FAIL 0"
                                " BUDGET_MISS 0")
    assert t.elapsed < 300


def test_subject_expansion_suite():
    with Timer() as t:
        report = suite_subject_expansion(seed=2024, cases=500)
    assert report.run == 500
    assert report.fail == 0, report.failures
    assert report.summary() == ("SUITE subject-expansion RUN 500 FAIL 0"
                                " BUDGET_MISS 1")
    assert t.elapsed < 300


@pytest.mark.parametrize("suite", [suite_term_subst, suite_struct_subst])
def test_substitution_lemma_suites(suite):
    with Timer() as t:
        report = suite(seed=2024, cases=300)
    assert report.run == 300
    assert report.fail == 0, report.failures
    assert report.summary() == f"SUITE {report.name} RUN 300 FAIL 0 BUDGET_MISS 0"
    assert report.budget_miss <= 0.05 * report.run
    if report.budget_miss:
        doubled = suite(seed=2024, cases=300,
                        budget=SearchBudget(max_depth=18, max_width=8))
        assert doubled.budget_miss == 0
    assert t.elapsed < 300


def test_erasing_failure_demo():
    with Timer() as t:
        rep = demo_erasing_failure()
        check_derivation(rep["derivation_before"])
        assert rep["step"][1] == "erasing"
        assert not rep["derivable_after"]
        assert not rep["search_found_after"]
    assert t.elapsed < 30


def _closure_universe(size=210):
    rng = random.Random(2024)
    seen = {}
    while len(seen) < size:
        t = canonicalize(random_iu_type(rng, 3))
        if not well_formed(t, "iu"):
            continue
        for s in subexpressions(t):
            if well_formed(s, "iu"):
                seen.setdefault(canonicalize(s), None)
    return list(seen)


def _closure(universe):
    """Reflexive-transitive closure of the generating axioms, as bit rows."""
    idx = {t: i for i, t in enumerate(universe)}
    n = len(universe)
    row = [1 << i for i in range(n)]

    # unconditional axioms: intersection projection, union injection
    for i, t in enumerate(universe):
        if isinstance(t, Inter):
            for p in t.parts:
                row[i] |= 1 << idx[p]
        if isinstance(t, Union):
            for p in t.parts:
                row[idx[p]] |= 1 << i

    changed = True
    while changed:
        changed = False
        for i, a in enumerate(universe):
            for j, b in enumerate(universe):
                if row[i] >> j & 1:
                    continue
                ok = False
                if isinstance(b, Inter):
                    ok = all(row[i] >> idx[p] & 1 for p in b.parts)
                if not ok and isinstance(a, Union):
                    ok = all(row[idx[p]] >> j & 1 for p in a.parts)
                if not ok and isinstance(a, Arrow) and isinstance(b, Arrow):
                    al, bl = idx[a.left], idx[b.left]
                    ar, br = idx[a.right], idx[b.right]
                    ok = (row[al] >> bl & 1 and row[bl] >> al & 1
                          and row[ar] >> br & 1 and row[br] >> ar & 1)
                if ok:
                    row[i] |= 1 << j
                    changed = True
        for k in range(n):
            for i in range(n):
                if row[i] >> k & 1 and row[i] | row[k] != row[i]:
                    row[i] |= row[k]
                    changed = True
    return row


def test_subtype_agrees_with_closure_oracle():
    with Timer() as t:
        universe = _closure_universe()
        assert len(universe) >= 200
        row = _closure(universe)
        for i, a in enumerate(universe):
            for j, b in enumerate(universe):
                assert subtype(a, b) == bool(row[i] >> j & 1), \
                    f"{print_type(a)} <= {print_type(b)}"
    assert t.elapsed < 60


def test_conservativity():
    rng = random.Random(2024)
    with Timer() as t:
        # union-free fragment: on pure lambda terms with strict types, every
        # derivation the search finds uses strict types only, at every node
        checked = 0
        found = 0
        while checked < 200:
            term = random_pure_term(rng, depth=3)
            try:
                gamma, ty, delta = infer_simple(term)
            except UntypableError:
                continue
            if not all(well_formed(x, "strict") for x in [ty, *gamma.values()]):
                continue
            checked += 1
            d = derive(gamma, term, ty, {}, SearchBudget(max_depth=8))
            if d is None:
                continue
            check_derivation(d)
            found += 1
            todo = [d]
            while todo:
                node = todo.pop()
                j = node.conclusion
                assert all(well_formed(x, "strict") for x in
                           [j.ty, *j.gamma.values(), *j.delta.values()])
                todo.extend(node.premises)
        assert found > 0

        # simple system judgments embed as single-branch derivations
        embedded = 0
        while embedded < 200:
            term = random_term(rng, depth=3)
            try:
                gamma, ty, delta = infer_simple(term)
            except UntypableError:
                continue
            sd = check_simple(SimpleJudgment(gamma, term, ty, delta))
            d = embed_simple(sd)
            check_derivation(d)
            assert d.conclusion.term == term
            embedded += 1
    assert t.elapsed < 120


def test_top_typability():
    rng = random.Random(2024)
    with Timer() as t:
        for _ in range(100):
            term = random_term(rng, depth=3)
            gamma = {"u": TVar("A"), "v": Arrow(TVar("A"), TVar("B"))}
            delta = {"k": TVar("A")} if rng.random() < 0.5 else {}
            d = derive(gamma, term, Top, delta)
            assert d is not None
            assert d.rule == "InterI" and d.premises == ()
            check_derivation(d)
    assert t.elapsed < 10


def test_parser_round_trip():
    rng = random.Random(2024)
    with Timer() as t:
        for _ in range(1000):
            m = random_term(rng)
            assert alpha_eq(parse_term(print_term(m)), m)
        done = 0
        while done < 1000:
            ty = canonicalize(random_iu_type(rng))
            if not well_formed(ty, "iu"):
                continue
            assert parse_type(print_type(ty)) == ty
            done += 1
    assert t.elapsed < 30
