import random
from dataclasses import make_dataclass

from conftest import check_node_contract, random_term
from lammu.syntax import (Abs, App, Mu, Var, all_identifiers, alpha_eq,
                          free_names, free_term_vars, fresh)


def test_free_term_vars():
    m = App(Abs("x", App(Var("x"), Var("y"))), Var("z"))
    assert free_term_vars(m) == {"y", "z"}
    assert free_term_vars(Mu("a", "a", Var("x"))) == {"x"}


def test_free_names():
    m = Mu("a", "b", App(Var("x"), Mu("c", "a", Var("y"))))
    assert free_names(m) == {"b"}
    assert free_names(Mu("a", "a", Var("x"))) == set()


def test_all_identifiers_covers_bound_and_free():
    m = Mu("a", "b", Abs("x", Var("y")))
    assert {"a", "b", "x", "y"} <= all_identifiers(m)


class TestAlphaEq:
    def test_bound_variable_renaming(self):
        assert alpha_eq(Abs("x", Var("x")), Abs("y", Var("y")))
        assert alpha_eq(Mu("a", "a", Var("x")), Mu("b", "b", Var("x")))

    def test_free_variables_matter(self):
        assert not alpha_eq(Var("x"), Var("y"))
        assert not alpha_eq(Mu("a", "b", Var("x")), Mu("a", "c", Var("x")))

    def test_binding_structure_matters(self):
        assert not alpha_eq(Abs("x", Abs("y", Var("x"))),
                            Abs("x", Abs("y", Var("y"))))

    def test_mixed_shapes_differ(self):
        assert not alpha_eq(Abs("x", Var("x")), Var("x"))
        assert not alpha_eq(App(Var("x"), Var("y")), Var("x"))

    def test_crossed_binders(self):
        a = Mu("a", "b", Mu("b", "a", Var("x")))
        b = Mu("c", "b", Mu("d", "c", Var("x")))
        assert alpha_eq(a, b)


def test_fresh_avoids_collisions():
    x = fresh({"x", "x'"}, "x")
    assert x not in {"x", "x'"}
    assert fresh(set(), "y") == "y"


def _free(m, var: bool) -> set[str]:
    """The free variables (or names) of ``m``, by the definition."""
    if isinstance(m, Var):
        return {m.name} if var else set()
    if isinstance(m, App):
        return _free(m.fun, var) | _free(m.arg, var)
    if isinstance(m, Abs):
        return _free(m.body, var) - ({m.var} if var else set())
    return _free(m.body, var) if var else (_free(m.body, var)
                                           | {m.named}) - {m.bound}


def _alpha_eq(m, n, vm, vn, nm, nn, depth=0) -> bool:
    """``alpha_eq`` by the definition: bound identifiers map to the number
    of binders around their binder."""
    if type(m) is not type(n):
        return False
    if isinstance(m, Var):
        return vm.get(m.name, m.name) == vn.get(n.name, n.name)
    if isinstance(m, App):
        return (_alpha_eq(m.fun, n.fun, vm, vn, nm, nn, depth)
                and _alpha_eq(m.arg, n.arg, vm, vn, nm, nn, depth))
    if isinstance(m, Abs):
        return _alpha_eq(m.body, n.body, {**vm, m.var: depth},
                         {**vn, n.var: depth}, nm, nn, depth + 1)
    nm, nn = {**nm, m.bound: depth}, {**nn, n.bound: depth}
    return (nm.get(m.named, m.named) == nn.get(n.named, n.named)
            and _alpha_eq(m.body, n.body, vm, vn, nm, nn, depth + 1))


def test_walks_agree_with_the_definitions():
    # one pool for binders and free identifiers, so binders shadow each
    # other and capture free occurrences
    rng = random.Random(5)
    pool = ("x0", "x1", "a0", "a1")
    for _ in range(3000):
        m = random_term(rng, 6, pool, pool)
        n = random_term(rng, 3, pool, pool) if rng.random() < 0.5 else m
        assert free_term_vars(m) == _free(m, True)
        assert free_names(m) == _free(m, False)
        assert alpha_eq(m, n) == _alpha_eq(m, n, {}, {}, {}, {})


def _chain(leaf: str, var: str, name: str, depth: int = 10_000):
    """``depth`` levels of abstractions, applications of f and mus around
    the variable ``leaf``."""
    m = Var(leaf)
    for i in range(depth):
        m = (Abs(f"{var}{i % 2}", m) if i % 3 == 0 else App(Var("f"), m)
             if i % 3 == 1 else Mu(f"{name}{i % 2}", "k", m))
    return m


def test_walks_take_deep_terms():
    m = _chain("z", "x", "a")
    assert free_term_vars(m) == {"f", "z"}
    assert free_names(m) == {"k"}
    assert all_identifiers(m) == {"x0", "x1", "f", "a0", "a1", "k", "z"}
    assert alpha_eq(m, _chain("z", "y", "b"))
    assert not alpha_eq(m, _chain("w", "y", "b"))


# plain @dataclass(frozen=True) copies of the term classes, the reference
# for their contract
_REFERENCE = {Var: make_dataclass("Var", ["name"], frozen=True),
              Abs: make_dataclass("Abs", ["var", "body"], frozen=True),
              App: make_dataclass("App", ["fun", "arg"], frozen=True),
              Mu: make_dataclass("Mu", ["bound", "named", "body"],
                                 frozen=True)}


def test_terms_keep_the_frozen_dataclass_contract():
    rng = random.Random(19)
    samples = [random_term(rng, depth=3, names=("b",)) for _ in range(60)]
    samples += [Var("x"), Abs("x", Var("x")), App(Var("x"), Var("y")),
                Mu("a", "b", Var("x")), Mu(bound="a", named="b", body=Var("x"))]
    check_node_contract(samples, _REFERENCE)
