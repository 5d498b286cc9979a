"""The three workloads: inputs built from the seed, one round of ops, and the
checks of each op's output against a reference that lammu does not compute.

A run is a sequence of rounds.  Round ``i`` always holds the same ops for a
given seed, so its work counters must repeat exactly from run to run.  The
rounds repeat with the workload's ``period``: round ``i + period`` runs the
same ops in the same order as round ``i``, so the runner can take each op's
best time over the run (``run.best_of_repeats``).  Every op is timed until it
returns or raises, in CPU time of the process: lammu's ops are
single-threaded and never wait, so that is their wall time, minus the
10-40 ms stalls in which a shared host runs other work.  Dozens of ops per
run hit such a stall, so wall-clock tails measured the host, not lammu.
"""

from __future__ import annotations

import hashlib
import random
import time
from importlib import resources
from types import SimpleNamespace

from lammu import cli, grammar, iu, metatheory, reduction, simple
from lammu.syntax import Abs, App, Mu, Var

clock = time.process_time


class Mismatch(Exception):
    """An op returned a result that differs from its reference."""


def call_table() -> SimpleNamespace:
    """The lammu entry points the benchmark calls; a traced run wraps them."""
    return SimpleNamespace(
        suites=dict(cli.SUITES),
        derive=iu.derive, check_derivation=iu.check_derivation,
        derivation_to_json=iu.derivation_to_json,
        derivation_from_json=iu.derivation_from_json,
        embed_simple=iu.embed_simple,
        infer_simple=simple.infer_simple, check_simple=simple.check_simple,
        gen_typed_judgment=metatheory.gen_typed_judgment,
        parse_judgment=grammar.parse_judgment, parse_term=grammar.parse_term,
        print_term=grammar.print_term, normalize=reduction.normalize)


class Round:
    """What one round did: op latencies, outcome counts and work counters."""

    def __init__(self):
        self.latencies: list[float] = []   # CPU seconds, one per sample
        self.busy = 0.0                      # CPU seconds spent inside ops
        self.ops = 0
        self.failed = 0
        self.undecided = 0
        self.mismatches: list[str] = []
        self.counters: dict[str, int] = {}
        self.digest = hashlib.sha256()

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def result(self) -> dict:
        self.counters["output_digest"] = int(self.digest.hexdigest()[:12], 16)
        return {"latencies": self.latencies, "busy": self.busy, "ops": self.ops,
                "failed": self.failed, "undecided": self.undecided,
                "mismatches": self.mismatches[:5], "counters": self.counters}


def _digest_of(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- suites -------------------------------------------------------------------

# Cases per suite in one round, in the ratio the acceptance tests use
# (500:500:300:300).  Subject reduction and expansion search every fifth case,
# so their counts stay multiples of five.
SUITE_CASES = (("subject-reduction", 5), ("subject-expansion", 5),
               ("term-subst", 3), ("struct-subst", 3))


class Suites:
    """The four metatheory suites with the CLI's budget (depth 9, width 4).

    Round i runs every suite once at the i-th suite seed drawn from the
    benchmark seed.  The suites run their cases inside one call, so a round
    gives one latency sample: its time per case.
    """

    period = 4096

    def __init__(self, seed: int, calls):
        rng = random.Random(seed)
        self.seeds = [rng.getrandbits(32) for _ in range(self.period)]
        self.calls = calls

    def digest(self) -> str:
        return _digest_of(self.seeds)

    def run_round(self, i: int, tracer=None) -> Round:
        rnd = Round()
        sub = self.seeds[i % self.period]
        for name, cases in SUITE_CASES:
            if tracer is not None:
                tracer.op = f"{i}.{name}"
            suite = self.calls.suites[name]
            budget = iu.SearchBudget(max_depth=9, max_width=4)
            start = clock()
            report = suite(seed=sub, cases=cases, budget=budget)
            rnd.busy += clock() - start
            rnd.ops += report.run
            rnd.failed += report.fail
            rnd.undecided += report.budget_miss
            for key in ("run", "fail", "budget_miss"):
                rnd.bump(f"{name}.{key}", getattr(report, key))
            rnd.digest.update(report.summary().encode())
            if report.run != cases or report.fail:
                rnd.mismatches.append(f"{report.summary()} at suite seed {sub}")
        rnd.latencies.append(rnd.busy / rnd.ops)
        return rnd


# -- certs --------------------------------------------------------------------

# Judgments from the README, with the search depth the README uses and the
# conclusion the found derivation must print.
README_JUDGMENTS = (
    ("|- mu d.[d](\\x.mu b.[d] x) : A \\/ (A -> B) |", 6,
     "|- mu d.[d] \\x.mu b.[d] x : (A -> B) \\/ A |"),
    ("x:A /\\ B |- x : A |", 8, "x:A /\\ B |- x : A |"),
    ("x:A |- mu a.[a] x : A \\/ B |", 8, "x:A |- mu a.[a] x : A \\/ B |"),
)

# The bundled certificates and the conclusion each one proves.
BUNDLED = (
    ("peirce", "|- \\x.mu a.[a] x (\\y.mu b.[a] y) : ((A -> B) -> A) -> A |"),
    ("dne", "|- \\y.mu a.['b] y (\\x.mu d.[a] x) : ((A -> bot) -> bot) -> A "
            "| 'b:bot"),
    ("no_choice", "|- mu d.[d] \\x.mu b.[d] x : (A -> B) \\/ A |"),
)


# Derivation sizes in the certs pool: (fewest nodes, most nodes, how many).
# The counts are the proportions of 9600 draws of gen_typed_judgment (seeds
# 100-107), in classes of at least 3% so that every seed fills them after
# about the same number of draws; the 0.05% of draws with more than 24 nodes
# are left out.
GEN_SIZES = ((1, 1, 135), (2, 2, 37), (3, 3, 132), (4, 5, 59), (6, 7, 64),
             (8, 8, 40), (9, 10, 49), (11, 12, 37), (13, 15, 28), (16, 24, 19))


def derivation_nodes(d) -> int:
    n, todo = 0, [d]
    while todo:
        d = todo.pop()
        n += 1
        todo.extend(d.premises)
    return n


def random_term(rng: random.Random, depth: int, vars_: tuple, names: tuple):
    """A random lambda-mu term over the free variables u and v."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(vars_))
    r = rng.random()
    if r < 0.4:
        x = f"x{rng.randrange(8)}"
        return Abs(x, random_term(rng, depth - 1, vars_ + (x,), names))
    if r < 0.8:
        return App(random_term(rng, depth - 1, vars_, names),
                   random_term(rng, depth - 1, vars_, names))
    a = f"a{rng.randrange(8)}"
    return Mu(a, rng.choice(names + (a, a)),
              random_term(rng, depth - 1, vars_, names + (a,)))


class Certs:
    """Certificate round trips: encode, decode, check_derivation, compare.

    A round holds, in a seeded order, ``gen_per_round`` generated derivations
    (gen_typed_judgment), ``simple_per_round`` terms taken through
    infer-simple and check-simple --cert, the README judgments through
    check-iu --cert, and the three bundled certificates (decode and check).

    An op's time follows the size of its derivation, and a pool drawn freely
    costs up to a tenth more or less from one seed to the next.  So the pool
    holds a fixed number of derivations of each size (GEN_SIZES), the
    generator's own proportions, and draws beyond a full size are dropped.
    """

    gen_pool = 600
    simple_pool = 200
    gen_per_round = 30
    simple_per_round = 10
    period = 20   # gen_pool / gen_per_round == simple_pool / simple_per_round

    def __init__(self, seed: int, calls):
        self.calls = calls
        self.seed = seed
        rng = random.Random(seed)
        self.generated = []
        left = [quota for _, _, quota in GEN_SIZES]
        while len(self.generated) < self.gen_pool:
            d = calls.gen_typed_judgment(rng)
            n = derivation_nodes(d)
            for k, (lo, hi, _) in enumerate(GEN_SIZES):
                if lo <= n <= hi and left[k]:
                    left[k] -= 1
                    self.generated.append(d)
        self.terms = []
        while len(self.terms) < self.simple_pool:
            term = random_term(rng, 4, ("u", "v"), ())
            try:
                simple.infer_simple(term)
            except simple.UntypableError:
                continue
            self.terms.append(term)
        self.readme = [(calls.parse_judgment(text), depth, want)
                       for text, depth, want in README_JUDGMENTS]
        self.bundled = [
            (resources.files("lammu").joinpath(f"certs/{name}.json").read_text(),
             iu.Judgment(*calls.parse_judgment(want)))
            for name, want in BUNDLED]

    def digest(self) -> str:
        return _digest_of([d.conclusion for d in self.generated] + self.terms
                          + [text for text, _ in self.bundled])

    def _ops(self, i: int) -> list:
        g, s = self.gen_per_round, self.simple_per_round
        ops = [("gen", self.generated[(i * g + k) % self.gen_pool])
               for k in range(g)]
        ops += [("simple", self.terms[(i * s + k) % self.simple_pool])
                for k in range(s)]
        ops += [("readme", r) for r in self.readme]
        ops += [("bundled", b) for b in self.bundled]
        random.Random(f"certs:{self.seed}:{i % self.period}").shuffle(ops)
        return ops

    def _round_trip(self, d, rnd: Round):
        c = self.calls
        text = c.derivation_to_json(d)
        back = c.derivation_from_json(text)
        c.check_derivation(back)
        rnd.bump("cert_bytes", len(text))
        rnd.digest.update(text.encode())
        if back.conclusion != d.conclusion:
            raise Mismatch("conclusion changed in the round trip")
        return back

    def _op(self, kind: str, item, rnd: Round) -> None:
        c = self.calls
        if kind == "gen":
            self._round_trip(item, rnd)
        elif kind == "simple":
            gamma, ty, delta = c.infer_simple(item)
            sd = c.check_simple(simple.SimpleJudgment(gamma, item, ty, delta))
            back = self._round_trip(c.embed_simple(sd), rnd)
            if back.conclusion.term != item:
                raise Mismatch("certificate proves another term")
        elif kind == "readme":
            (gamma, term, ty, delta), depth, want = item
            budget = iu.SearchBudget(max_depth=depth, max_width=4)
            d = c.derive(gamma, term, ty, delta, budget)
            if d is None:
                raise Mismatch(f"README judgment not found: {want}")
            back = self._round_trip(d, rnd).conclusion
            got = grammar.print_judgment(back.gamma, back.term, back.ty,
                                         back.delta)
            if got != want:
                raise Mismatch(f"found {got!r}, want {want!r}")
        else:
            text, want = item
            d = c.derivation_from_json(text)
            c.check_derivation(d)
            if d.conclusion != want:
                raise Mismatch("bundled certificate proves another judgment")

    def run_round(self, i: int, tracer=None) -> Round:
        rnd = Round()
        for k, (kind, item) in enumerate(self._ops(i)):
            if tracer is not None:
                tracer.op = f"{i}.{k}"
            start = clock()
            try:
                self._op(kind, item, rnd)
            except RecursionError:
                rnd.failed += 1
            except Exception as e:
                rnd.failed += 1
                rnd.mismatches.append(f"{kind}: {e!r}")
            finally:
                took = clock() - start
                rnd.busy += took
                rnd.latencies.append(took)
                rnd.ops += 1
                rnd.bump(f"{kind}.ops")
        rnd.counters["failed"] = rnd.failed
        return rnd


# -- reduce -------------------------------------------------------------------

RULES = {"beta", "mu", "renaming"}
FUEL = 1000

CHURCH = {"add": "\\m.\\n.\\f.\\x.m f (n f x)",
          "mul": "\\m.\\n.\\f.m (n f)",
          "exp": "\\m.\\n.n m"}

# One round of reduce ops: (family, first size range, second size range, count).
# Church ops take two numerals (for exp, base and exponent); mu chains take
# k, application chains their depth.  The rows marked deep reach past today's
# recursion limits (numerals and application chains deeper than about 330 do
# not parse, Church products past about 1000 raise RecursionError in
# normalize), so those ops fail today and count as failed.  The deep product
# keeps its first factor small: 4 x 260 fails after 0.3 s, 32 x 33 after
# 1.5 s and 260 x 4 after 16 s.  Mu chains stay below the limit, because
# k = 330 would take minutes today.
REDUCE_ROUND = (
    ("add", (1, 100), (1, 100), 4),
    ("add", (400, 700), (1, 20), 1),        # deep
    ("mul", (2, 10), (2, 10), 4),
    ("mul", (15, 16), (15, 16), 1),
    ("mul", (4, 4), (255, 280), 1),         # deep
    ("exp", (2, 3), (1, 3), 4),
    ("exp", (2, 2), (5, 6), 1),
    ("mu", (0, 25), None, 4),
    ("mu", (42, 46), None, 3),
    ("app", (1, 250), None, 4),
    ("app", (450, 800), None, 1),           # deep
)


def numeral_text(n: int) -> str:
    return "(\\f.\\x." + "f (" * n + "x" + ")" * n + ")"


def mu_chain_text(k: int) -> str:
    args = " ".join(f"w{i}" for i in range(k + 1))
    return f"(mu a.[a] x (mu b.[a] (y (mu c.[a] z)))) {args}"


def app_chain_text(d: int) -> str:
    """f (f (... (f x))) with d applications, as print_term writes it."""
    return "f (" * (d - 1) + "f x" + ")" * (d - 1)


def _apply_all(head, args):
    for a in args:
        head = App(head, a)
    return head


def numeral(n: int):
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Abs("f", Abs("x", body))


def mu_chain_normal_form(k: int):
    """Each mu step applies every [a]-named subterm to the next argument, so
    after k+1 steps every named subterm carries w0 ... wk."""
    ws = [Var(f"w{i}") for i in range(k + 1)]
    inner = Mu("c", "g", _apply_all(Var("z"), ws))
    middle = Mu("b", "g", _apply_all(App(Var("y"), inner), ws))
    return Mu("g", "g", _apply_all(App(Var("x"), middle), ws))


def _index(env, name):
    i = 0
    while env is not None:
        if env[0] == name:
            return i
        env, i = env[1], i + 1
    return name


def _shape(m) -> list:
    """Iterative de Bruijn form: two terms are alpha-equivalent exactly when
    their shapes are equal.  Stack-safe, so it checks outputs of any depth."""
    out, todo = [], [(m, None, None)]
    while todo:
        t, vs, ns = todo.pop()
        if isinstance(t, Var):
            out.append(("v", _index(vs, t.name)))
        elif isinstance(t, Abs):
            out.append(("abs",))
            todo.append((t.body, (t.var, vs), ns))
        elif isinstance(t, App):
            out.append(("app",))
            todo.append((t.arg, vs, ns))
            todo.append((t.fun, vs, ns))
        else:
            ns2 = (t.bound, ns)
            out.append(("mu", _index(ns2, t.named)))
            todo.append((t.body, vs, ns2))
    return out


def alpha_equal(m, n) -> bool:
    return _shape(m) == _shape(n)


class Reduce:
    """parse_term, normalize (beta, mu, renaming; fuel 1000), print_term.

    Round i holds the ops of REDUCE_ROUND in a seeded order; ``period``
    rounds are drawn and then repeat.  Each size range is sampled in
    ``count * period`` equal strata, one draw in each, and a row with two
    sizes pairs the k-th smallest first size with the (5k mod n)-th smallest
    second one (n, the row's draws, is a power of two).  So every seed covers
    the ranges and their combinations evenly, and the rows cost about the
    same for every seed; the seed moves each size within its stratum and
    deals the ops to rounds and places.
    """

    period = 4

    def __init__(self, seed: int, calls):
        self.calls = calls
        rng = random.Random(seed)
        self.rounds = [[] for _ in range(self.period)]
        for family, first, second, count in REDUCE_ROUND:
            n = count * self.period
            firsts = self._strata(rng, first, n)
            if second:
                seconds = self._strata(rng, second, n)
                sizes = [(a, seconds[5 * k % n]) for k, a in enumerate(firsts)]
            else:
                sizes = [(a, None) for a in firsts]
            rng.shuffle(sizes)
            for j, (a, b) in enumerate(sizes):
                self.rounds[j % self.period].append(self._input(family, a, b))
        for ops in self.rounds:
            rng.shuffle(ops)

    @staticmethod
    def _strata(rng, bounds, n: int) -> list[int]:
        """n sizes in bounds (inclusive), one from each of n equal strata,
        smallest first."""
        lo, hi = bounds
        return [lo + int((j + rng.random()) * (hi - lo + 1) / n)
                for j in range(n)]

    @staticmethod
    def _input(family, a, b):
        if family == "mu":
            return family, (a,), mu_chain_text(a)
        if family == "app":
            return family, (a,), app_chain_text(a)
        return family, (a, b), \
            f"({CHURCH[family]}) {numeral_text(a)} {numeral_text(b)}"

    def digest(self) -> str:
        return _digest_of(self.rounds)

    @staticmethod
    def reference(family: str, size: tuple):
        if family == "mu":
            return mu_chain_normal_form(size[0])
        a, b = size
        return numeral({"add": a + b, "mul": a * b, "exp": a ** b}[family])

    def run_round(self, i: int, tracer=None) -> Round:
        rnd = Round()
        c = self.calls
        for k, (family, size, text) in enumerate(self.rounds[i % self.period]):
            if tracer is not None:
                tracer.op = f"{i}.{k}"
            rnd.bump("grammar.bytes_in", len(text.encode()))
            trace = out = None
            start = clock()
            try:
                trace = c.normalize(c.parse_term(text), RULES, fuel=FUEL)
                out = c.print_term(trace.final)
            except RecursionError:
                rnd.bump(f"{family}.recursion_error")
            except Exception as e:
                rnd.mismatches.append(f"{family} {size}: {e!r}")
            finally:
                took = clock() - start
                rnd.busy += took
                rnd.latencies.append(took)
                rnd.ops += 1
            if out is None:
                rnd.failed += 1
                continue
            for _, rule, _ in trace.steps:
                rnd.bump(f"reduction.steps.{rule}")
            rnd.digest.update(out.encode())
            if trace.fuel_exhausted:
                rnd.undecided += 1
                continue
            ok = (out == text if family == "app"
                  else alpha_equal(trace.final, self.reference(family, size)))
            if not ok:
                rnd.failed += 1
                rnd.mismatches.append(f"{family} {size}: got {out[:80]}")
            del trace, out
        rnd.counters["failed"] = rnd.failed
        return rnd


WORKLOADS = {"suites": Suites, "certs": Certs, "reduce": Reduce}
