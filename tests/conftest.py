"""Shared random generators for the property tests, the node contract, and
the old certificate format (a judgment per node), which tests keep as a
reference: a derivation's old text pins the derivation itself."""

import copy
import json
import pickle
import random
from dataclasses import FrozenInstanceError, fields

import pytest

from lammu.grammar import parse_judgment, print_judgment
from lammu.iu import Derivation, Judgment
from lammu.syntax import Abs, App, Mu, Term, Var
from lammu.typelang import (Arrow, Bottom, Inter, Top, TVar, TypeExpr, Union,
                            well_formed)

ATOMS = (TVar("A"), TVar("B"), TVar("C"), Top, Bottom)


def _cert_dict(d):
    """The object whose ``json.dumps(..., indent=2)`` was the certificate of
    ``d`` in the old format: its rule, its judgment as ``lammu`` prints it
    and its premises, at every node."""
    j = d.conclusion
    return {"rule": d.rule,
            "judgment": print_judgment(j.gamma, j.term, j.ty, j.delta),
            "premises": [_cert_dict(p) for p in d.premises]}


def _reference_decode(text):
    """An old-format certificate decoded by parsing every node's judgment."""
    def dec(obj):
        return Derivation(obj["rule"], Judgment(*parse_judgment(obj["judgment"])),
                          tuple(dec(p) for p in obj.get("premises", [])))
    return dec(json.loads(text))


def random_type(rng: random.Random, depth: int = 3) -> TypeExpr:
    """An arbitrary type tree; not necessarily well formed for any language."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(ATOMS)
    r = rng.random()
    if r < 0.45:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    parts = tuple(random_type(rng, depth - 1)
                  for _ in range(rng.choice((0, 2, 2, 3))))
    return Inter(parts) if r < 0.72 else Union(parts)


def random_iu_type(rng: random.Random, depth: int = 3) -> TypeExpr:
    """Rejection-sample until the tree is in the intersection-union language."""
    while True:
        t = random_type(rng, depth)
        if well_formed(t, "iu"):
            return t


def random_term(rng: random.Random, depth: int = 4,
                term_vars: tuple[str, ...] = ("u", "v"),
                names: tuple[str, ...] = ()) -> Term:
    if depth == 0 or (rng.random() < 0.3 and term_vars):
        return Var(rng.choice(term_vars))
    r = rng.random()
    if r < 0.35:
        x = f"x{rng.randrange(8)}"
        return Abs(x, random_term(rng, depth - 1, term_vars + (x,), names))
    if r < 0.7:
        return App(random_term(rng, depth - 1, term_vars, names),
                   random_term(rng, depth - 1, term_vars, names))
    a = f"a{rng.randrange(8)}"
    b = rng.choice(names + (a, a))
    return Mu(a, b, random_term(rng, depth - 1, term_vars, names + (a,)))


def random_pure_term(rng: random.Random, depth: int = 4,
                     term_vars: tuple[str, ...] = ("u", "v")) -> Term:
    """A random term with no control structures."""
    if depth == 0 or (rng.random() < 0.3 and term_vars):
        return Var(rng.choice(term_vars))
    if rng.random() < 0.55:
        x = f"x{rng.randrange(8)}"
        return Abs(x, random_pure_term(rng, depth - 1, term_vars + (x,)))
    return App(random_pure_term(rng, depth - 1, term_vars),
               random_pure_term(rng, depth - 1, term_vars))


def check_node_contract(samples: list, reference: dict) -> None:
    """Check that ``samples``, which hold an instance of every class that
    ``reference`` maps, behave as plain frozen dataclasses do: ``reference``
    maps each node class to a ``@dataclass(frozen=True)`` copy of it.

    A node's repr, hash and equality with every other sample agree with its
    copy's; its fields cannot be set or deleted, and it has no instance
    dict; its class takes the fields in order or by name; pickle and
    deepcopy give back an equal node."""
    def ref(x):
        if type(x) is tuple:
            return tuple(map(ref, x))
        if type(x) not in reference:
            return x
        return reference[type(x)](*(ref(getattr(x, f.name))
                                    for f in fields(x)))

    assert set(reference) <= {type(n) for n in samples}
    refs = [ref(n) for n in samples]
    for n, r in zip(samples, refs):
        cls = type(n)
        assert cls.__match_args__ == type(r).__match_args__
        assert repr(n) == repr(r)
        assert hash(n) == hash(r)
        assert [a == n for a in samples] == [b == r for b in refs]
        assert not hasattr(n, "__dict__")
        named = {f: getattr(n, f) for f in cls.__match_args__}
        assert cls(*named.values()) == cls(**named) == n
        assert cls(**named) is not n
        assert pickle.loads(pickle.dumps(n)) == n
        assert copy.deepcopy(n) == n
        for f in named:
            with pytest.raises(FrozenInstanceError):
                setattr(n, f, named[f])
            with pytest.raises(FrozenInstanceError):
                delattr(n, f)
        assert {f: getattr(n, f) for f in named} == named
