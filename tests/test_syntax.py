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
