import hashlib
import random

import pytest

from conftest import random_term
from lammu.grammar import parse_term, print_term
from lammu.reduction import (RULES, FreshnessViolation, NotARedex,
                             ReductionTrace, format_position, format_trace,
                             iter_redexes, normalize, redexes, rename_name,
                             replace_at, step, subst_structural, subst_term,
                             subterm_at)
from lammu.syntax import (Abs, App, Mu, Var, alpha_eq, free_names,
                          free_term_vars)


class TestSubstitution:
    def test_plain_substitution(self):
        m = App(Var("x"), Abs("y", Var("x")))
        assert subst_term(m, "x", Var("z")) == App(Var("z"), Abs("y", Var("z")))

    def test_capture_avoiding(self):
        m = Abs("y", App(Var("x"), Var("y")))
        out = subst_term(m, "x", Var("y"))
        assert alpha_eq(out, Abs("z", App(Var("y"), Var("z"))))

    def test_structural_substitution_rewrites_named_subterms(self):
        m = Mu("d", "a", Var("p"))
        out = subst_structural(m, "a", Var("n"), "g")
        assert out == Mu("d", "g", App(Var("p"), Var("n")))

    def test_structural_substitution_skips_other_names(self):
        m = Mu("d", "b", Var("p"))
        assert subst_structural(m, "a", Var("n"), "g") == m

    def test_rename_name(self):
        assert rename_name(Mu("a", "g", Var("x")), "g", "b") == \
            Mu("a", "b", Var("x"))
        bound = Mu("g", "g", Var("x"))
        assert rename_name(bound, "g", "b") == bound


class TestBeta:
    def test_identity(self):
        m = parse_term("(\\x.x) y")
        assert step(m, (), "beta") == Var("y")

    def test_capture_avoidance(self):
        m = App(Abs("x", Abs("y", App(Var("x"), Var("y")))), Var("y"))
        out = step(m, (), "beta")
        assert alpha_eq(out, Abs("z", App(Var("y"), Var("z"))))


class TestMu:
    def test_vacuous(self):
        m = App(Mu("a", "b", Var("x")), Var("y"))
        out = step(m, (), "mu")
        assert alpha_eq(out, Mu("g", "b", Var("x")))

    def test_inner_named_occurrence(self):
        m = App(Mu("a", "b", Mu("c", "a", Var("x"))), Var("y"))
        out = step(m, (), "mu")
        assert alpha_eq(out, Mu("g", "b", Mu("c", "g", App(Var("x"), Var("y")))))

    def test_self_named(self):
        m = App(Mu("a", "a", Var("x")), Var("y"))
        out = step(m, (), "mu")
        assert alpha_eq(out, Mu("g", "g", App(Var("x"), Var("y"))))


class TestRenaming:
    def test_basic(self):
        m = Mu("a", "b", Mu("g", "d", Var("x")))
        assert step(m, (), "renaming") == Mu("a", "d", Var("x"))

    def test_inner_self_named(self):
        m = Mu("a", "b", Mu("g", "g", Var("x")))
        assert step(m, (), "renaming") == Mu("a", "b", Var("x"))

    def test_inner_names_outer(self):
        m = Mu("a", "b", Mu("g", "a", Var("x")))
        assert step(m, (), "renaming") == Mu("a", "a", Var("x"))


class TestErasing:
    def test_erases_vacuous_self_naming(self):
        m = Mu("a", "a", Var("x"))
        assert step(m, (), "erasing") == Var("x")

    def test_needs_no_free_occurrence(self):
        m = Mu("a", "a", Mu("c", "a", Var("x")))
        assert redexes(m, {"erasing"}) == []


class TestEtaMu:
    def test_expands_to_abstraction(self):
        m = Mu("a", "b", Var("y"))
        out = step(m, (), "eta_mu")
        assert alpha_eq(out, Abs("z", Mu("g", "b", Var("y"))))

    def test_self_named(self):
        m = Mu("a", "a", Var("y"))
        out = step(m, (), "eta_mu")
        assert alpha_eq(out, Abs("z", Mu("g", "g", App(Var("y"), Var("z")))))


class TestEngine:
    def test_redexes_leftmost_outermost(self):
        m = App(Abs("x", Var("x")), App(Abs("y", Var("y")), Var("z")))
        assert redexes(m, {"beta"}) == [((), "beta"), ((1,), "beta")]

    def test_disabled_rules_do_not_fire(self):
        m = App(Mu("a", "a", Var("x")), Var("y"))
        assert redexes(m, {"beta"}) == []

    def test_step_rejects_non_redex(self):
        with pytest.raises(NotARedex):
            step(Var("x"), (), "beta")

    def test_positions(self):
        m = App(Abs("x", Var("x")), Var("y"))
        assert subterm_at(m, (0,)) == Abs("x", Var("x"))
        assert subterm_at(m, (0, 0)) == Var("x")
        assert replace_at(m, (1,), Var("z")) == App(Abs("x", Var("x")), Var("z"))

    def test_normalize_reaches_normal_form(self):
        m = parse_term("(\\x.\\y.x) u v")
        trace = normalize(m, {"beta"})
        assert trace.final == Var("u")
        assert not trace.fuel_exhausted

    def test_normalize_fuel_exhaustion(self):
        omega = parse_term("(\\x.x x) (\\x.x x)")
        trace = normalize(omega, {"beta"}, fuel=5)
        assert trace.fuel_exhausted
        assert len(trace.steps) == 5

    def test_mu_spine_normalizes(self):
        m = parse_term("(mu a.[a] x) y z")
        trace = normalize(m, {"beta", "mu", "renaming"})
        assert alpha_eq(trace.final, Mu("g", "g", App(App(Var("x"), Var("y")),
                                                      Var("z"))))

    def test_trace_formatting(self):
        m = parse_term("(\\x.x) y")
        trace = normalize(m, {"beta"})
        text = format_trace(trace)
        assert text.splitlines()[0] == f"- start ~> {print_term(m)}"
        assert "beta ~> y" in text
        assert format_position(()) == "-"
        assert format_position((0, 1)) == "0.1"


def random_open_term(rng, depth, variables="xyz", names="abc"):
    """Terms with free variables and reused binder names, so substitutions
    meet capture."""
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice(variables))
    k = rng.random()

    def sub():
        return random_open_term(rng, depth - 1, variables, names)

    if k < 0.3:
        return Abs(rng.choice(variables), sub())
    if k < 0.7:
        return App(sub(), sub())
    return Mu(rng.choice(names), rng.choice(names), sub())


RULE_SETS = [{rule} for rule in RULES] + [
    {"beta", "mu", "renaming"}, {"beta", "mu", "renaming", "erasing"},
    set(RULES)]


class TestLinearSteps:
    def test_substitutions_return_untouched_terms(self):
        m = App(Abs("x", Var("x")), Mu("a", "b", App(Var("y"), Var("z"))))
        assert subst_term(m, "x", Var("w")) is m
        assert subst_term(m, "q", Var("w")) is m
        assert subst_structural(m, "a", Var("w"), "g") is m
        assert subst_structural(m, "c", Var("w"), "g") is m

    def test_untouched_siblings_are_shared(self):
        left = Abs("x", Var("x"))
        m = App(left, Var("y"))
        out = subst_term(m, "y", Var("z"))
        assert out == App(left, Var("z")) and out.fun is left

    def test_capture_sets_are_computed_at_a_binder(self, monkeypatch):
        """A substitution scans its argument for the identifiers a binder
        could capture only when it meets a binder, once per kind."""
        from lammu import reduction
        calls = []
        for name in ("free_term_vars", "free_names"):
            fn = getattr(reduction, name)
            monkeypatch.setattr(reduction, name,
                                lambda m, fn=fn, name=name:
                                calls.append(name) or fn(m))
        fifty = parse_term("\\f.\\x." + "f (" * 49 + "f x" + ")" * 49)
        step(App(parse_term("\\x.f (f x)"), fifty), (), "beta")
        assert calls == []
        out = step(parse_term("(\\x.\\y.x) z"), (), "beta")
        assert (out, calls) == (Abs("y", Var("z")), ["free_term_vars"])
        calls.clear()
        step(parse_term("(mu a.[a] mu b.[a] x) z"), (), "mu")
        assert calls == ["free_names"]

    def test_step_rejects_positions_outside_the_term(self):
        m = App(Abs("x", Var("x")), Var("y"))
        with pytest.raises(NotARedex):
            step(m, (5,), "beta")
        with pytest.raises(NotARedex):
            step(Var("x"), (0,), "beta")
        with pytest.raises(NotARedex):
            step(m, (1,), "beta")

    def test_deep_chain_has_no_redexes(self):
        m = Var("x")
        for _ in range(10_000):
            m = App(Var("f"), m)
        assert redexes(m, {"beta", "mu"}) == []
        assert next(iter_redexes(m, set(RULES)), None) is None

    def test_deep_chain_reduces_at_its_bottom(self):
        m = App(Abs("x", Var("x")), Var("y"))
        for _ in range(10_000):
            m = App(Var("f"), m)
        bottom = (1,) * 10_000
        trace = normalize(m, {"beta"})
        assert [(pos, rule) for pos, rule, _ in trace.steps] == \
            [(bottom, "beta")]
        assert subterm_at(trace.final, bottom) == Var("y")

    def test_erasing_on_a_deep_chain_is_linear(self):
        # mu a9999.[a9999] ... mu a0.[a0] x: every mu is an erasing redex.
        # The positions are checked as the walk yields them: all 10,000 of
        # them at once would hold 50 million indices.
        m = Var("x")
        for i in range(10_000):
            m = Mu(f"a{i}", f"a{i}", m)
        found = 0
        for depth, (pos, rule) in enumerate(iter_redexes(m, {"erasing"})):
            assert pos == (0,) * depth and rule == "erasing"
            found += 1
        assert found == 10_000
        trace = normalize(m, {"erasing"}, fuel=10_001)
        assert len(trace.steps) == 10_000 and not trace.fuel_exhausted
        assert trace.final == Var("x")

    @pytest.mark.parametrize("shape", ["application chain", "mu chain"])
    def test_step_erases_above_a_deep_body(self, shape):
        # mu a.[a] B with B 3,000 levels deep: f (f ... x), or
        # mu a2999.[a2999] ... mu a0.[a0] x
        body = Var("x")
        for i in range(3_000):
            body = (App(Var("f"), body) if shape == "application chain"
                    else Mu(f"a{i}", f"a{i}", body))
        m = Mu("a", "a", body)
        assert step(m, (), "erasing") is body

    def test_iter_redexes_is_lazy_and_ordered(self):
        m = App(Abs("x", Var("x")), App(Abs("y", Var("y")), Var("z")))
        it = iter_redexes(m, {"beta"})
        assert next(it) == ((), "beta")
        assert list(it) == [((1,), "beta")]

    def test_traces_are_pinned(self):
        rng = random.Random(2024)
        h = hashlib.sha256()
        for _ in range(300):
            m = random_open_term(rng, 6)
            for enabled in RULE_SETS:
                trace = normalize(m, enabled, fuel=25)
                h.update(format_trace(trace).encode())
                h.update(b"\0")
        assert h.hexdigest() == PINNED_TRACES


PINNED_TRACES = ("052ecbffd3f5b3d24bd913a1ff6ba66f0d454d316fd5a60912f6bc41"
                 "84228731")


def test_eta_mu_traces_are_pinned():
    """``eta_mu`` alone and among other rules: the positions, rules and
    printed terms of every step, with the fresh names it picks."""
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(300):
        m = random_term(rng, 5)
        for enabled in ({"eta_mu"}, {"eta_mu", "renaming"},
                        {"eta_mu", "beta", "mu", "renaming"}):
            h.update(format_trace(normalize(m, enabled, fuel=30)).encode())
            h.update(b"\0")
    assert h.hexdigest() == ("56e9fa1a77740be2453602aa85756ae3ac830e27c8c43d68"
                             "85047848d9853a58")


def test_variable_child_shapes_are_pinned():
    """Traces on the shapes whose variable children the walks handle in
    place: mu chains, whose fresh names alternate between g and g', Church
    arithmetic, whose numerals apply a variable f, application chains, and
    an abstraction over a left spine of variables."""
    def numeral(n):
        return "(\\f.\\x." + "f (" * n + "x" + ")" * n + ")"

    church = {"add": "\\m.\\n.\\f.\\x.m f (n f x)",
              "mul": "\\m.\\n.\\f.m (n f)", "exp": "\\m.\\n.n m"}
    texts = ["(mu a.[a] x (mu b.[a] (y (mu c.[a] z)))) "
             + " ".join(f"w{i}" for i in range(k + 1)) for k in range(13)]
    texts += [f"({church[op]}) {numeral(a)} {numeral(b)}"
              for op, sizes in (("add", range(4)), ("mul", range(4)),
                                ("exp", range(1, 4)))
              for a in sizes for b in sizes]
    texts += ["f (" * (d - 1) + "f x" + ")" * (d - 1) for d in range(1, 8)]
    texts.append("(\\z.z " + " ".join(f"x{i}" for i in range(1, 51)) + ") f")
    h = hashlib.sha256()
    for text in texts:
        trace = normalize(parse_term(text), {"beta", "mu", "renaming"})
        h.update(format_trace(trace).encode())
        h.update(b"\0")
    assert h.hexdigest() == PINNED_VARIABLE_CHILD_SHAPES


PINNED_VARIABLE_CHILD_SHAPES = ("f099cf32f4c74146c45cfaa09fa39408c263bf48ebd89cf6"
                                "d32f5ccd3fed3135")


def restarting_normalize(m, enabled, fuel):
    """The reference for ``normalize``: each step looks for the first redex
    from the root again.  Gives the trace, which records each contractum as
    it stands in the new term, and the whole term after each step."""
    trace, wholes = ReductionTrace(m), []
    for _ in range(fuel):
        first = next(iter_redexes(m, enabled), None)
        if first is None:
            break
        m = step(m, *first)
        trace.steps.append((*first, subterm_at(m, first[0])))
        wholes.append(m)
    else:
        trace.fuel_exhausted = next(iter_redexes(m, enabled), None) is not None
    trace.final = m
    return trace, wholes


class TestResumedWalk:
    """``normalize`` resumes its walk after each contraction; it must take
    the steps a walk from the root would."""

    def test_random_terms(self):
        rng = random.Random(7)
        rule_sets = RULE_SETS + [{"erasing", "beta"}, {"eta_mu", "renaming"}]
        for _ in range(150):
            m = random_open_term(rng, rng.choice((7, 8)))
            for enabled in rule_sets:
                trace = normalize(m, enabled, fuel=40)
                ref, wholes = restarting_normalize(m, enabled, 40)
                assert trace == ref
                assert list(trace.terms()) == wholes
                assert format_trace(trace) == format_trace(ref)

    def test_redexes_under_a_deep_spine(self):
        # R = ((\x.x) (\z.z)) (... (((\x.x) (\z.z)) y)): contracting the
        # inner redex makes its parent a beta redex, whose contractum holds
        # the next one, all under 10,000 applications of f
        r = Var("y")
        for _ in range(15):
            r = App(App(Abs("x", Var("x")), Abs("z", Var("z"))), r)
        m = r
        for _ in range(10_000):
            m = App(Var("f"), m)
        trace = normalize(m, {"beta", "mu"}, fuel=40)
        ref, wholes = restarting_normalize(m, {"beta", "mu"}, 40)
        assert len(trace.steps) == 30 and not trace.fuel_exhausted
        # the whole terms compare as text: == on them would recurse too deep
        assert trace.steps == ref.steps
        assert [print_term(t) for t in (*trace.terms(), trace.final)] == \
            [print_term(t) for t in (*wholes, ref.final)]
        assert trace.steps[0][0] == (1,) * 10_000 + (0,)
        assert trace.steps[1][0] == (1,) * 10_000


def test_final_is_the_last_replayed_term():
    """Over random terms and every rule set, with fuel cut-offs: ``final``
    is the last term ``terms()`` replays (``initial`` for no step), and
    ``fuel_exhausted`` says whether a redex is left exactly when the steps
    used up the fuel."""
    rng = random.Random(23)
    rule_sets = RULE_SETS + [{"erasing", "beta"}, {"eta_mu", "renaming"},
                             {"eta_mu", "beta", "mu", "renaming"}]
    for _ in range(200):
        m = random_open_term(rng, rng.choice((5, 6, 7)))
        for enabled in rule_sets:
            fuel = rng.choice((1, 2, 5, 40))
            trace = normalize(m, enabled, fuel=fuel)
            replayed = [m, *trace.terms()]
            assert len(replayed) == len(trace.steps) + 1 <= fuel + 1
            assert trace.final == replayed[-1]
            left = next(iter_redexes(trace.final, enabled), None)
            assert trace.fuel_exhausted == (left is not None)
            assert left is None or len(trace.steps) == fuel


def positions(m):
    """Every subterm position of ``m``."""
    todo = [((), m)]
    while todo:
        pos, t = todo.pop()
        yield pos
        if isinstance(t, App):
            todo += ((pos + (0,), t.fun), (pos + (1,), t.arg))
        elif isinstance(t, (Abs, Mu)):
            todo.append((pos + (0,), t.body))


def test_step_accepts_exactly_the_listed_redexes():
    """``step`` contracts each pair that ``redexes`` lists, and refuses every
    other pair of a subterm position and an enabled rule."""
    rng = random.Random(11)
    for _ in range(100):
        m = random_open_term(rng, rng.choice((6, 7)))
        for enabled in RULE_SETS + [{"erasing", "beta"}]:
            listed = set(redexes(m, enabled))
            for pos in positions(m):
                for rule in enabled:
                    if (pos, rule) in listed:
                        step(m, pos, rule)
                    else:
                        with pytest.raises(NotARedex):
                            step(m, pos, rule)


# one pool for variables and names, primed like the names ``fresh`` makes, so
# every substitution meets capture by binders of either kind
IDENTS = ("x", "y", "a", "g", "x'", "y'", "a'", "g'")


def test_substitutions_are_pinned():
    """The direct outputs of the three substitutions, and whether each is
    the input itself, or the exception a call raises, on seeded random
    calls."""
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(2000):
        m = random_open_term(rng, 5, IDENTS, IDENTS)
        n = random_open_term(rng, 3, IDENTS, IDENTS)
        calls = ((subst_term, (m, rng.choice(IDENTS), n)),
                 (subst_structural, (m, rng.choice(IDENTS), n,
                                     rng.choice(IDENTS))),
                 (rename_name, (m, rng.choice(IDENTS), rng.choice(IDENTS))))
        for fn, args in calls:
            try:
                out = fn(*args)
                out = f"{out!r} {out is m}"
            except FreshnessViolation as e:
                out = f"{type(e).__name__}: {e}"
            h.update(out.encode())
            h.update(b"\0")
    assert h.hexdigest() == PINNED_SUBSTITUTIONS


PINNED_SUBSTITUTIONS = ("aa8518ff64d40e4d288e270761dd5ee4c4079c01cf5ca7ec5a2e78bf"
                        "8dd95afd")


def assert_shared(m, out, variables, names, wrap=None):
    """Every maximal subterm of ``m`` in which no substituted variable or
    name is free is the very subterm at its place in ``out``.  The
    substituted identifiers are the one given and the old name of each
    binder renamed above, whose body a nested substitution renames;
    ``wrap`` is the name whose named subterms gain an argument."""
    todo = [(m, out, variables, names)]
    while todo:
        s, o, vs, ns = todo.pop()
        if not (vs & free_term_vars(s) or ns & free_names(s)):
            assert o is s
        elif type(s) is App:
            todo += ((s.fun, o.fun, vs, ns), (s.arg, o.arg, vs, ns))
        elif type(s) is Abs:
            renamed = {s.var} if o.var != s.var else set()
            todo.append((s.body, o.body, vs - {s.var} | renamed, ns))
        elif type(s) is Mu:
            ns = ns - {s.bound} | ({s.bound} if o.bound != s.bound else set())
            body = o.body.fun if s.named == wrap and wrap in ns else o.body
            todo.append((s.body, body, vs, ns))


def test_substitutions_share_what_they_leave():
    """Over seeded random calls of the three substitutions: what no
    substitution reaches comes back as the same object."""
    rng = random.Random(32)
    for _ in range(1000):
        m = random_open_term(rng, 6, IDENTS, IDENTS)
        n = random_open_term(rng, 3, IDENTS, IDENTS)
        x, g = rng.choice(IDENTS), rng.choice(IDENTS)
        assert_shared(m, subst_term(m, x, n), {x}, set())
        assert_shared(m, rename_name(m, x, g), set(), {x})
        try:
            out = subst_structural(m, x, n, g)
        except FreshnessViolation:
            continue
        assert_shared(m, out, set(), {x}, wrap=x)


def test_beta_on_its_own_variable_shares_the_body():
    """``parse_term`` shares one ``Var`` per identifier, so ``(\\f.M) f``
    substitutes f by the very object M holds: the contractum is M."""
    rng = random.Random(5)
    texts = ["\\x.f (f x)", "m (n f)", "\\x.m f (n f x)"]
    texts += [print_term(random_open_term(rng, 6, IDENTS, IDENTS))
              for _ in range(300)]
    for text in texts:
        for f in ("f", "x", "a"):
            m = parse_term(f"(\\{f}.{text}) {f}")
            assert step(m, (), "beta") is m.fun.body


DEEP = 20_000


def test_subst_term_through_a_deep_nest_of_applications():
    """(z z) ((z z) (... z)): every application but the last has two
    compound children, each a frame of the walk, at the default recursion
    limit."""
    z = Var("z")
    m = z
    for _ in range(DEEP):
        m = App(App(z, z), m)
    out = subst_term(m, "z", Var("y"))
    assert print_term(out) == "y y (" * (DEEP - 1) + "y y y" + ")" * (DEEP - 1)


def test_subst_structural_through_a_deep_mu_chain():
    """mu b0.[a] z (mu b1.[a] z (... x)): one path of the walk."""
    m = Var("x")
    for i in reversed(range(DEEP)):
        m = Mu(f"b{i}", "a", App(Var("z"), m))
    out = subst_structural(m, "a", Var("y"), "g")
    assert print_term(out) == (
        "".join(f"mu b{i}.['g] z (" for i in range(DEEP - 1))
        + f"mu b{DEEP - 1}.['g] z x y" + ") y" * (DEEP - 1))
