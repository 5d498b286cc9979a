import collections
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_cert_dict, _reference_decode, random_iu_type,
                      random_term)
from lammu.grammar import (LanguageViolation, ParseError, SourceSpan,
                           _is_identifier, _spans, _tokenize, parse_judgment,
                           parse_term, parse_type, print_judgment, print_term,
                           print_type)
from lammu.iu import (InvalidNode, MalformedCertificate, check_derivation,
                      derivation_from_json, derivation_to_json)
from lammu.metatheory import gen_typed_judgment
from lammu.syntax import Abs, App, Mu, Var, alpha_eq
from lammu.typelang import (Arrow, Bottom, Inter, Top, TVar, Union,
                            canonicalize, well_formed)

A, B = TVar("A"), TVar("B")


class TestTermParsing:
    def test_application_associates_left(self):
        assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))

    def test_abstraction_extends_right(self):
        assert parse_term("\\x.x y") == Abs("x", App(Var("x"), Var("y")))

    def test_unicode_synonyms(self):
        assert parse_term("λx.x") == parse_term("\\x.x")
        assert parse_term("μa.[a] x") == parse_term("mu a.[a] x")

    def test_mu_binds_its_own_name(self):
        assert parse_term("mu a.[a] x") == Mu("a", "a", Var("x"))
        assert parse_term("mu a.['b] x") == Mu("a", "b", Var("x"))

    def test_unbound_name_needs_tick(self):
        with pytest.raises(ParseError) as e:
            parse_term("mu a.[b] x")
        assert "'b" in str(e.value)

    def test_parse_error_has_span(self):
        with pytest.raises(ParseError) as e:
            parse_term("\\x.")
        assert e.value.span is not None

    def test_nested_control(self):
        m = parse_term("\\x.mu a.[a](x (\\y.mu b.[a] y))")
        assert m == Abs("x", Mu("a", "a", App(Var("x"),
                                              Abs("y", Mu("b", "a", Var("y"))))))


class TestTypeParsing:
    def test_arrow_right_associative(self):
        assert parse_type("A -> B -> A") == Arrow(A, Arrow(B, A))

    def test_connective_precedence(self):
        assert parse_type("A /\\ B -> A") == Arrow(Inter((A, B)), A)
        assert parse_type("A \\/ (A -> B)") == Union((A, Arrow(A, B)))

    def test_constants(self):
        assert parse_type("top") == Top
        assert parse_type("bot") == Bottom
        assert parse_type("⊤") == Top
        assert parse_type("⊥") == Bottom

    def test_unicode_connectives(self):
        assert parse_type("A ∩ B") == Inter((A, B))
        assert parse_type("A ∪ B") == Union((A, B))
        assert parse_type("A → B") == Arrow(A, B)

    def test_mixing_needs_parens(self):
        with pytest.raises(ParseError):
            parse_type("A /\\ B \\/ A")
        assert parse_type("A /\\ (B \\/ A)") == Inter((A, Union((B, A))))

    def test_language_enforcement(self):
        with pytest.raises(LanguageViolation):
            parse_type("A /\\ B", language="curry")
        with pytest.raises(LanguageViolation):
            parse_type("A \\/ B", language="strict")
        with pytest.raises(LanguageViolation):
            parse_type("(A /\\ B) \\/ A")


class TestJudgments:
    def test_full_judgment(self):
        gamma, term, ty, delta = parse_judgment(
            "x:A, y:A -> B |- y x : B | 'a:A \\/ B")
        assert gamma == {"x": A, "y": Arrow(A, B)}
        assert term == App(Var("y"), Var("x"))
        assert ty == B
        assert delta == {"a": Union((A, B))}

    def test_empty_environments(self):
        gamma, term, ty, delta = parse_judgment("|- \\x.x : A -> A |")
        assert gamma == {} and delta == {}

    def test_name_environment_needs_a_name_after_comma(self):
        for text in ("|- x : A | a:A,", "|- x : A | a:A, B:A",
                     "|- x : A | a:A, ):A"):
            with pytest.raises(ParseError) as e:
                parse_judgment(text)
            assert e.value.message.startswith("expected IDENT or TICK, found")

    def test_input_after_the_judgment_is_rejected(self):
        for text in ("|- x : A | ) ) (", "x:A |- x : A | a:A b c"):
            with pytest.raises(ParseError) as e:
                parse_judgment(text)
            assert e.value.message.startswith("expected EOF, found")

    @pytest.mark.parametrize("text, name, span", [
        ("x:A, x:B |- x : B |", "x", (5, 6)),
        ("x:A, y:B, x:A |- x : A |", "x", (10, 11)),
        ("|- x : A | 'b:A, 'b:B", "b", (17, 19)),
        ("|- x : A | b:A, 'b:B", "b", (16, 18)),
    ])
    def test_a_name_bound_twice_is_rejected(self, text, name, span):
        with pytest.raises(ParseError) as e:
            parse_judgment(text)
        assert e.value.message == f"{name} is bound twice"
        assert (e.value.span.start, e.value.span.end) == span

    def test_judgment_round_trip(self):
        text = "x:A |- mu a.[a] x : A \\/ B |"
        gamma, term, ty, delta = parse_judgment(text)
        again = parse_judgment(print_judgment(gamma, term, ty, delta))
        assert again == (gamma, term, ty, delta)


class TestRoundTrips:
    def test_terms(self):
        rng = random.Random(3)
        for _ in range(300):
            m = random_term(rng)
            assert alpha_eq(parse_term(print_term(m)), m)

    def test_terms_exactly(self):
        # not only up to renaming: the same binders, variables and names,
        # free names among them
        rng = random.Random(13)
        for _ in range(500):
            m = random_term(rng, rng.choice((3, 5, 7)), names=("b", "c"))
            assert parse_term(print_term(m)) == m

    def test_one_var_object_per_identifier(self):
        m = parse_term("\\x.x (y x) (\\y.y x) (mu a.[a] x y) x_1 x")
        leaves: dict[str, list] = {}
        todo = [m]
        while todo:
            t = todo.pop()
            if isinstance(t, Var):
                leaves.setdefault(t.name, []).append(t)
            elif isinstance(t, App):
                todo += (t.fun, t.arg)
            else:
                todo.append(t.body)
        assert {x: len(vs) for x, vs in leaves.items()} == \
            {"x": 5, "y": 3, "x_1": 1}
        for vs in leaves.values():
            assert all(v is vs[0] for v in vs)

    def test_types(self):
        rng = random.Random(5)
        for _ in range(300):
            t = canonicalize(random_iu_type(rng))
            if not well_formed(t, "iu"):
                continue
            assert parse_type(print_type(t)) == t

    def test_fixed_texture(self):
        assert print_term(parse_term("(\\x.x)(y z)")) == "(\\x.x) (y z)"
        assert print_type(parse_type("(A -> B) -> A")) == "(A -> B) -> A"
        assert print_type(parse_type("A /\\ (B \\/ A)")) == "A /\\ (B \\/ A)"


class TestDeepTerms:
    """Parsing and printing use no recursion on terms."""

    @pytest.mark.parametrize("text", [
        "f (" * 9_999 + "f x" + ")" * 9_999,
        "\\x." * 10_000 + "x",
        "mu a.[a] " * 10_000 + "x",
    ], ids=["application", "abstraction", "mu"])
    def test_round_trip_10k_deep(self, text):
        assert print_term(parse_term(text)) == text

    def test_deep_mu_scopes(self):
        text = "mu a.[a] " * 5_000 + "x (mu b.[a] y) (mu c.['d] z)"
        assert print_term(parse_term(text)) == text
        with pytest.raises(ParseError) as e:
            parse_term("(" * 5_000 + "mu a.[a] x) (mu b.[a] y)" + ")" * 4_999)
        assert "unbound name 'a'" in e.value.message


# -- the tokenizer against the one it replaced -------------------------------

# The tokenizer as it was with one named group per token kind: the reference
# for the one-group pattern and kind table that replaced it.
_REFERENCE_TOKEN = re.compile(r"""\s*(?:
    (?P<OR>\\/|∪) | (?P<AND>/\\|∩) | (?P<LAMBDA>\\|λ) | (?P<MU>μ)
  | (?P<ARROW>->|→) | (?P<TURNSTILE>\|-|⊢) | (?P<BAR>\|) | (?P<TOP>⊤)
  | (?P<BOT>⊥) | (?P<DOT>\.) | (?P<LBRACK>\[) | (?P<RBRACK>\])
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COLON>:) | (?P<COMMA>,)
  | (?P<WORD>'?\w+'*) | (?P<BAD>\S))
""", re.VERBOSE)
_REFERENCE_KEYWORDS = {"mu": "MU", "top": "TOP", "bot": "BOT"}
_REFERENCE_BAD = {"/": "stray '/'", "-": "stray '-'",
                  "'": "expected identifier after tick"}


def _reference_tokenize(text):
    toks = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        start, end = m.span(kind)
        if kind == "WORD":
            if word[0] == "'":
                kind, word = "TICK", word[1:]
            if not (word[0].isalpha() or word[0] == "_"):
                kind = "BAD"
            elif kind == "WORD":
                kind = _REFERENCE_KEYWORDS.get(word) or (
                    "TYVAR" if word[0].isupper() else "IDENT")
        if kind == "BAD":
            c = text[start]
            raise ParseError(_REFERENCE_BAD.get(c, f"unexpected character {c!r}"),
                             SourceSpan(start, start + 1))
        toks.append((kind, word, start, end))
    toks.append(("EOF", "", len(text), len(text)))
    return toks


def _spanned_tokenize(text):
    """``_tokenize`` with ``_spans`` zipped in, as (kind, text, start, end)."""
    pairs = zip(_tokenize(text), _spans(text), strict=True)
    return [(k, w, s, e) for (k, w), (s, e) in pairs]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return e.message, e.span


_LEXEMES = (*"\\/-|'.:,()[]λμ∪∩→⊢⊤⊥²_", *"0123456789", *"abxyfABCÉé",
            " ", "\t", "\xa0", "mu", "top", "bot", "mu'", "'mu", "top'",
            "λx", "xλ", "->", "|-", "/\\", "\\/")


class TestTokenizer:
    @pytest.mark.parametrize("text", [
        "mu'", "'mu", "top'", "λx", "xλ", "λx.x", "μa.[a] x", "'", "''x",
        "'²", "x'' y'", "\\/\\", "/\\/", "-->", "|--", "|-|", "a -", "",
        "  ", "x:A, 'b:B \\/ C |- \\x.mu a.['b] x : A -> B | a:A",
    ])
    def test_fixed_texts_match_the_reference(self, text):
        assert (_tokens_or_error(_spanned_tokenize, text)
                == _tokens_or_error(_reference_tokenize, text))

    @given(st.lists(st.sampled_from(_LEXEMES), max_size=16).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_random_texts_match_the_reference(self, text):
        assert (_tokens_or_error(_spanned_tokenize, text)
                == _tokens_or_error(_reference_tokenize, text))

    def test_identifiers_are_what_the_tokenizer_reads(self):
        """``_is_identifier`` decides without the tokenizer; the reference is
        the tokenizer reading ``x`` as the one token IDENT ``x``."""
        def reference(x):
            try:
                return _tokenize(x) == [("IDENT", x), ("EOF", "")]
            except ParseError:
                return False

        units = (*"abxyzAB_λμ²٣éÉǅß'0123456789 .()[]\\/-|:,#\t", "mu",
                 "top", "bot")
        rng = random.Random(31)
        texts = ["", "x", "x'", "x''", "_", "_1", "mu", "mu'", "top", "bot",
                 "topx", "λ", "λx", "xλ", "μa", "aμ", "²", "x²", "٣", "x٣",
                 "é", "É", "ǅ", "ß", "'x", "x y"]
        texts += ["".join(rng.choices(units, k=rng.randint(1, 5)))
                  for _ in range(300_000)]
        is_identifier = _is_identifier.__wrapped__    # not the cache
        wrong = [x for x in texts if is_identifier(x) != reference(x)]
        assert wrong == []
        assert sum(map(is_identifier, texts)) > 10_000


# -- pinned behaviour on a seeded corpus ---------------------------------------

# every token, its Unicode synonyms, stray characters, and identifiers whose
# first character is or is not a letter ('²' and 'Ⅻ' are alphanumeric but not
# letters, so they may not start one)
FRAGMENTS = (
    "\\", "λ", "mu", "μ", ".", "[", "]", "(", ")", ":", ",", "'", "'a", "'b",
    "/\\", "\\/", "∩", "∪", "->", "→", "top", "bot", "⊤", "⊥", "|-", "⊢", "|",
    "x", "y", "a", "b", "f", "A", "B", "x'", "a''", "_", "_1", "mu'", "topx",
    "é", "α", "Éa", "xα", "/", "-", "1", "x2", "²", "Ⅻ", "a²", "'²", "'_",
    "?", "#",
)
SPACES = ("", " ", " ", "  ", "\t", "\n", "\xa0")   # \xa0: no-break space


def _type_text(rng, d):
    r = rng.random()
    if d == 0 or r < 0.3:
        return rng.choice(("A", "B", "C", "top", "bot", "⊤", "⊥"))
    if r < 0.6:
        left = _type_text(rng, d - 1)
        arrow = rng.choice(("->", "→"))
        return f"{left} {arrow} {_type_text(rng, d - 1)}"
    op = rng.choice((" /\\ ", " \\/ ", "∩", "∪"))
    return "(" + op.join(_type_text(rng, d - 1)
                         for _ in range(rng.randint(2, 3))) + ")"


def _term_text(rng, d):
    r = rng.random()
    if d == 0 or r < 0.25:
        return rng.choice(("x", "y", "f", "z'"))
    if r < 0.45:
        return (rng.choice(("\\", "λ")) + rng.choice("xyf") + "."
                + _term_text(rng, d - 1))
    if r < 0.65:
        a = rng.choice("ab")
        ref = rng.choice((a, a, "'c", "b"))
        return f"{rng.choice(('mu ', 'μ'))}{a}.[{ref}] {_term_text(rng, d - 1)}"
    return f"{_term_text(rng, d - 1)} ({_term_text(rng, d - 1)})"


def _env_text(rng, names):
    return ", ".join(f"{rng.choice(names)}:{_type_text(rng, 2)}"
                     for _ in range(rng.randint(0, 2)))


def _corpus(n, seed=0):
    """``n`` short strings: half random fragment sequences, half terms, types
    and judgments, most of them with a fragment inserted, dropped or
    replaced."""
    rng = random.Random(seed)
    for i in range(n):
        if i % 2:
            yield "".join(rng.choice(FRAGMENTS) + rng.choice(SPACES)
                          for _ in range(rng.randint(1, 10)))
            continue
        kind = rng.randrange(3)
        if kind == 0:
            text = _term_text(rng, 3)
        elif kind == 1:
            text = _type_text(rng, 3)
        else:
            text = (f"{_env_text(rng, 'xyf')} {rng.choice(('|-', '⊢'))} "
                    f"{_term_text(rng, 3)} : {_type_text(rng, 2)} | "
                    f"{_env_text(rng, ('a', chr(39) + 'b'))}")
        if rng.random() < 0.7:
            j = rng.randrange(len(text) + 1)
            k = j + rng.randrange(3)
            text = text[:j] + rng.choice(FRAGMENTS + ("",)) + text[k:]
        yield text


def _outcome(parse, text, *args):
    try:
        return repr(parse(text, *args))
    except ParseError as e:
        return f"ParseError {e.message} {e.span.start} {e.span.end}"
    except LanguageViolation as e:
        return f"LanguageViolation {e}"


def test_corpus_outcomes_are_pinned():
    """Every string of the corpus, fed to the three parsers, gives the value,
    or the error message and span, that the character-by-character tokenizer
    and recursive term parser gave (with a name required after each comma of
    the right environment, where they raised IndexError, with input after a
    judgment rejected, where they ignored it, and with a name bound twice in
    one environment rejected, where they kept its last binding)."""
    h = hashlib.sha256()
    for i, text in enumerate(_corpus(100_000)):
        lang = ("iu", "strict", "curry")[i % 3]
        for outcome in (_outcome(parse_term, text),
                        _outcome(parse_type, text, lang),
                        _outcome(parse_judgment, text, lang)):
            h.update(f"{text}\0{outcome}\0".encode())
    assert h.hexdigest() == (
        "ff3e8ad36c8aba1a03879c9624f6b043a1efe65a07f40dfe16aa9c0b119d476b")


# -- pinned certificate decoding and checking ----------------------------------

def _iu_type_text(rng, d):
    """A ``_type_text`` that parses as an iu type."""
    while True:
        text = _type_text(rng, d)
        try:
            parse_type(text)
            return text
        except (ParseError, LanguageViolation):
            pass


def _iu_env_text(rng, names):
    """Bindings of distinct names; a tenth of them bind a name twice."""
    picked = rng.sample(names, rng.randint(0, len(names)))
    if picked and rng.random() < 0.1:
        picked.append(picked[0])
    return ", ".join(f"{n}:{_iu_type_text(rng, 2)}" for n in picked)


def _judgment_text(rng, gammas, deltas):
    """A judgment over one of the certificate's environment texts, now and
    then with a non-iu type; a tenth of them damaged: a fragment inserted,
    input added at the end, or replaced by a corpus string."""
    ty = (_iu_type_text(rng, 2) if rng.random() < 0.95
          else rng.choice(("(A /\\ B) \\/ A", "A ∪ top")))
    text = (f"{rng.choice(gammas)} {rng.choice(('|-', '|-', '⊢'))} "
            f"{_term_text(rng, 2)} : {ty} | {rng.choice(deltas)}")
    r = rng.random()
    if r < 0.06:
        j = rng.randrange(len(text) + 1)
        k = j + rng.randrange(3)
        text = text[:j] + rng.choice(FRAGMENTS + ("",)) + text[k:]
    elif r < 0.09:
        text += rng.choice((" |", " x", " | x:A", " ) (", " :A"))
    elif r < 0.1:
        text = next(_corpus(1, rng.randrange(1 << 30)))
    return text


# the rule names the corpus draws from: the six rules and two names the
# checker does not know, written out so that the corpus does not follow RULES
_CERT_RULES = ("InterE", "InterI", "ArrowI", "ArrowE", "UnionE_named",
               "UnionE_self", "Thin", "Weaken")


def _cert_tree(rng, gammas, deltas, depth):
    node = {"rule": rng.choice(_CERT_RULES),
            "judgment": _judgment_text(rng, gammas, deltas)}
    if depth and rng.random() < 0.7:
        node["premises"] = [_cert_tree(rng, gammas, deltas, depth - 1)
                            for _ in range(rng.choice((1, 1, 2, 3)))]
    return node


def _cert_corpus(n, seed=0):
    """``n`` certificate texts of the old format, a judgment per node: every
    third the text of a generated derivation, the others trees whose
    judgments draw on a few environment texts per certificate, so that texts
    repeat from node to node.  The texts
    carry the grammar corpus's synonyms, repeated names and, now and then,
    non-iu types; a tenth of the judgments are damaged or taken from the
    corpus itself."""
    rng = random.Random(seed)
    gen_rng = random.Random(seed + 1)
    for i in range(n):
        if i % 3 == 0:
            yield json.dumps(_cert_dict(gen_typed_judgment(gen_rng)), indent=2)
            continue
        gammas = [_iu_env_text(rng, "xyf") for _ in range(rng.randint(1, 3))]
        deltas = [_iu_env_text(rng, ("a", "'b"))
                  for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.1:
            gammas.append(rng.choice(("x:(A /\\ B) \\/ A", "y:A ∪ B",
                                      _env_text(rng, "xyf"))))
        yield json.dumps(_cert_tree(rng, gammas, deltas, 3))


def _mutated_corpus(n, seed=0):
    """``n`` certificate texts: encodings of generated derivations, all but
    a tenth changed once.  The root judgment becomes a ``_judgment_text``; or
    a node's rule, premise count or type is changed, dropped or added; or a
    node is removed, repeated, put in or replaced by another JSON value."""
    rng = random.Random(seed)
    gen_rng = random.Random(seed + 1)
    for _ in range(n):
        obj = json.loads(derivation_to_json(gen_typed_judgment(gen_rng)))
        nodes = obj["nodes"]
        k = rng.randrange(len(nodes))
        node = nodes[k]
        r = rng.randrange(10)
        if r == 1:
            obj["judgment"] = _judgment_text(rng, [_iu_env_text(rng, "xyf")],
                                             [_iu_env_text(rng, ("a", "'b"))])
        elif r == 2:
            node[0] = rng.choice(_CERT_RULES + (7,))
        elif r == 3:
            node[1] = rng.choice((node[1] - 1, node[1] + 1, -1, "1", 1.5,
                                  None))
        elif r == 4:
            node[2:] = [] if node[2:] else [_type_text(rng, 2)]
        elif r == 5:
            node[2:] = [rng.choice((_iu_type_text(rng, 2), _type_text(rng, 2),
                                    0))]
        elif r == 6:
            del nodes[k]
        elif r == 7:
            nodes.insert(k, list(node))
        elif r == 8:
            nodes.insert(k, [rng.choice(_CERT_RULES), rng.randrange(3)])
        elif r == 9:
            nodes[k] = rng.choice(("InterE", 0, [], ["InterE"],
                                   {"rule": "InterE"}))
        yield json.dumps(obj)


def _decoded(text):
    """(kind, detail): the decoder's error, or every node's rule and printed
    judgment, in preorder, and the checker's verdict."""
    try:
        d = derivation_from_json(text)
    except ParseError as e:
        return "ParseError", f"{e.message} {e.span.start} {e.span.end}"
    except (LanguageViolation, MalformedCertificate) as e:
        return type(e).__name__, str(e)
    todo, out = [d], []
    while todo:
        n = todo.pop()
        j = n.conclusion
        out.append(f"{n.rule} {print_judgment(j.gamma, j.term, j.ty, j.delta)}")
        todo.extend(reversed(n.premises))
    try:
        check_derivation(d)
        return "valid", "\n".join(out)
    except InvalidNode as e:
        return "invalid", "\n".join(out + [f"{e.reason} {e.path}"])


def test_mutated_certificate_outcomes_are_pinned():
    """Every certificate of the corpus decodes to the nodes, and gets the
    checker's verdict, or fails with the error message and span, that the
    decoder gave when it first read a root judgment and a flat node list."""
    h = hashlib.sha256()
    kinds = collections.Counter()
    for text in _mutated_corpus(3_000):
        kind, detail = _decoded(text)
        kinds[kind] += 1
        h.update(f"{text}\0{kind}\0{detail}\0".encode())
    assert kinds == {"MalformedCertificate": 2_026, "valid": 337,
                     "invalid": 554, "ParseError": 71, "LanguageViolation": 12}
    assert h.hexdigest() == (
        "02ea0206e21991dcbae6885a0da53a9af8f1b16674f170f1df53924101a9cc1c")


def test_checker_outcomes_are_pinned():
    """Every certificate of the corpus that decodes is accepted, or rejected
    with the reason and at the path, that the checker gave when it tested
    intersection components for strictness and knew six rules, so that a
    ``Thin`` or ``Weaken`` node is an unknown rule."""
    h = hashlib.sha256()
    decoded = rejected = 0
    for text in _cert_corpus(3_000):
        try:
            d = _reference_decode(text)
        except (ParseError, LanguageViolation):
            continue
        decoded += 1
        try:
            check_derivation(d)
            outcome = "valid"
        except InvalidNode as e:
            rejected += 1
            outcome = f"{e.reason}\0{e.path}"
        h.update(f"{text}\0{outcome}\0".encode())
    assert (decoded, rejected) == (1_737, 730)
    assert h.hexdigest() == (
        "d7e9ceab4c3ac30d2d06417cac0e2eaba004adb9b7c91dc049c742150e6743af")
