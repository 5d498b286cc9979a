import copy
import pickle
import random
from dataclasses import make_dataclass

import pytest

from conftest import check_node_contract, random_iu_type, random_type
from lammu.grammar import print_type
from lammu.typelang import (Arrow, Bottom, Inter, Top, TVar, Union,
                            canonicalize, inter_parts, is_strict,
                            subexpressions, subtype, type_equiv, union_parts,
                            well_formed)

A, B, C = TVar("A"), TVar("B"), TVar("C")


class TestWellFormed:
    def test_curry_allows_bottom_but_not_left_of_arrow(self):
        assert well_formed(Bottom, "curry")
        assert well_formed(Arrow(A, Bottom), "curry")
        assert not well_formed(Arrow(Bottom, A), "curry")
        assert not well_formed(Top, "curry")
        assert not well_formed(Inter((A, B)), "curry")
        assert not well_formed(Union((A, B)), "curry")

    def test_strict_is_union_free(self):
        assert well_formed(A, "strict")
        assert well_formed(Arrow(A, B), "strict")
        assert well_formed(Arrow(Inter((A, B)), C), "strict")
        assert well_formed(Inter((A, Arrow(A, B))), "strict")
        assert well_formed(Top, "strict")
        assert not well_formed(Union((A, B)), "strict")
        assert not well_formed(Bottom, "strict")
        assert not well_formed(Arrow(A, Inter((A, B))), "strict")

    def test_iu_unions_never_hold_intersections_directly(self):
        assert well_formed(Union((A, Arrow(A, B))), "iu")
        assert well_formed(Inter((Union((A, B)), C)), "iu")
        assert well_formed(Union((A, Union((B, C)))), "iu")
        assert not well_formed(Union((Inter((A, B)), C)), "iu")

    def test_strict_predicate(self):
        assert is_strict(A)
        assert is_strict(Arrow(Inter((A, B)), C))
        assert not is_strict(Inter((A, B)))
        assert not is_strict(Top)


class TestCanonicalize:
    def test_flattens_and_dedups(self):
        t = Inter((A, Inter((A, B))))
        assert canonicalize(t) == canonicalize(Inter((A, B)))

    def test_singleton_collapse(self):
        assert canonicalize(Inter((A,))) == A
        assert canonicalize(Union((Arrow(A, B),))) == Arrow(A, B)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            t = random_type(rng)
            c = canonicalize(t)
            assert canonicalize(c) == c

    def test_order_insensitive(self):
        assert canonicalize(Inter((A, B))) == canonicalize(Inter((B, A)))
        assert canonicalize(Union((A, B))) == canonicalize(Union((B, A)))


class TestSubtype:
    def test_reflexive_on_random_types(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_iu_type(rng)
            assert subtype(t, t)

    def test_top_and_bottom_are_extremes(self):
        for t in (A, Arrow(A, B), Inter((A, B)), Union((A, B))):
            assert subtype(t, Top)
            assert subtype(Bottom, t)
        assert not subtype(Top, A)
        assert not subtype(A, Bottom)

    def test_projection_and_injection(self):
        assert subtype(Inter((A, B)), A)
        assert subtype(Inter((A, B)), B)
        assert subtype(A, Union((A, B)))
        assert subtype(Inter((A, B)), Union((B, C)))
        assert not subtype(A, Inter((A, B)))
        assert not subtype(Union((A, B)), A)

    def test_intro_and_elim(self):
        assert subtype(Inter((A, B, C)), Inter((B, C)))
        assert subtype(Union((A, B)), Union((A, B, C)))

    def test_no_arrow_covariance(self):
        assert not subtype(Arrow(A, Inter((A, B))), Arrow(A, A))
        assert not subtype(Arrow(Union((A, B)), C), Arrow(A, C))

    def test_arrow_congruence_up_to_equivalence(self):
        assert subtype(Arrow(Inter((A, A)), B), Arrow(A, B))
        assert subtype(Arrow(Inter((A, B)), C), Arrow(Inter((B, A)), C))

    def test_atoms_unrelated(self):
        assert not subtype(A, B)

    def test_transitive_on_random_types(self):
        rng = random.Random(13)
        pool = [random_iu_type(rng, 2) for _ in range(25)]
        for a in pool:
            for b in pool:
                for c in pool:
                    if subtype(a, b) and subtype(b, c):
                        assert subtype(a, c)


class TestEquiv:
    def test_commutative_and_idempotent(self):
        assert type_equiv(Inter((A, B)), Inter((B, A)))
        assert type_equiv(Union((A, B)), Union((B, A)))
        assert type_equiv(Inter((A, A, B)), Inter((A, B)))

    def test_equiv_inside_arrows(self):
        assert type_equiv(Arrow(Inter((A, B)), C), Arrow(Inter((B, A)), C))

    def test_distinct_types_not_equiv(self):
        assert not type_equiv(A, Union((A, B)))
        assert not type_equiv(Inter((A, B)), Union((A, B)))


def test_helpers():
    assert inter_parts(Inter((A, B))) == (A, B)
    assert inter_parts(A) == (A,)
    assert union_parts(Union((A, B))) == (A, B)
    t = Arrow(Inter((A, B)), C)
    subs = set(subexpressions(t))
    assert {t, Inter((A, B)), A, B, C} <= subs


def _parts_repr(self):
    return f"{type(self).__name__}(%s)" % ", ".join(map(repr, self.parts))


# plain @dataclass(frozen=True) copies of the type classes, with their own
# reprs, the reference for their contract
_REFERENCE = {
    TVar: make_dataclass("TVar", ["name"], frozen=True, repr=False,
                         namespace={"__repr__": lambda t: f"TVar({t.name})"}),
    Arrow: make_dataclass(
        "Arrow", ["left", "right"], frozen=True, repr=False,
        namespace={"__repr__": lambda t: f"Arrow({t.left!r}, {t.right!r})"}),
    Inter: make_dataclass("Inter", ["parts"], frozen=True, repr=False,
                          namespace={"__repr__": _parts_repr}),
    Union: make_dataclass("Union", ["parts"], frozen=True, repr=False,
                          namespace={"__repr__": _parts_repr}),
}


def test_types_keep_the_frozen_dataclass_contract():
    rng = random.Random(19)
    samples = [random_type(rng) for _ in range(60)]
    samples += [A, Arrow(A, B), Inter((A, B)), Union((A, B)), Top, Bottom,
                Arrow(left=A, right=Inter(parts=(A,)))]
    check_node_contract(samples, _REFERENCE)


def _fresh(t):
    """An equal type built anew, node by node, so it holds no cached fact."""
    if isinstance(t, TVar):
        return TVar(t.name)
    if isinstance(t, Arrow):
        return Arrow(_fresh(t.left), _fresh(t.right))
    return type(t)(tuple(map(_fresh, t.parts)))


def _samples(seed):
    rng = random.Random(seed)
    return [random_type(rng) for _ in range(300)] + [Top, Bottom, A]


class TestCachedFacts:
    """A type keeps its printed text and its iu check once computed; no
    answer may depend on whether it was asked before."""

    def test_print_type_is_the_same_each_time_and_for_a_fresh_copy(self):
        for t in _samples(23):
            first = print_type(t)
            assert print_type(t) == first == print_type(_fresh(t))

    @pytest.mark.parametrize("language", ["curry", "strict", "iu"])
    def test_well_formed_agrees_with_a_fresh_copy(self, language):
        for t in _samples(31):
            want = well_formed(_fresh(t), language)
            assert well_formed(t, language) == want
            assert well_formed(t, language) == want

    def test_copies_start_empty_and_print_and_check_as_the_original(self):
        for t in _samples(37):
            text, iu = print_type(t), well_formed(t, "iu")
            for c in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                      copy.deepcopy(t)):
                assert c == t and c is not t
                assert (c._text, c._iu) == (None, None)
                assert (print_type(c), well_formed(c, "iu")) == (text, iu)

    @pytest.mark.parametrize("thing", ["A", None, 3, ("A",), Arrow(A, "B")])
    def test_what_is_not_a_type_is_in_no_language_and_does_not_print(
            self, thing):
        for language in ("curry", "strict", "iu"):
            assert not well_formed(thing, language)
        with pytest.raises(TypeError):
            print_type(thing)
