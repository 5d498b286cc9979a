"""Concrete syntax: parser and pretty-printer for terms, types and judgments.

ASCII surface syntax with Unicode synonyms:

    \\x.M   lambda        mu a.[b] M   context switch
    /\\      intersection  \\/           union
    ->      arrow         top / bot    empty intersection / union

Term variables are lowercase identifiers, type variables capitalized.  Names
are declared by a ``mu`` binding; a free name is written with a leading tick,
as in ``'b``.  Judgments read ``x:T, ... |- M : A | a:T, ...``.  Tokens
carry no positions: only a ``ParseError`` computes spans, from the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn

from .syntax import Abs, App, Mu, Term, Var
from .typelang import (Arrow, Bottom, Inter, Top, TVar, TypeExpr, Union,
                       well_formed)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


class LanguageViolation(Exception):
    pass


# One token after any whitespace; _KINDS names operators and keywords.  λ and
# μ are word characters, so they go before words; \w also matches digits and
# numerics such as '²', which may not start a word: _tokenize checks.
_TOKEN = re.compile(r"\s*([λμ]|\\/|/\\|->|\|-|'?\w+'*|\S)")
_WORD = re.compile(r"\w+'*")   # compiled once: forked processes share it

_KINDS = {"\\/": "OR", "∪": "OR", "/\\": "AND", "∩": "AND",
          "\\": "LAMBDA", "λ": "LAMBDA", "μ": "MU", "mu": "MU",
          "->": "ARROW", "→": "ARROW", "|-": "TURNSTILE", "⊢": "TURNSTILE",
          "|": "BAR", "⊤": "TOP", "top": "TOP", "⊥": "BOT", "bot": "BOT",
          ".": "DOT", "[": "LBRACK", "]": "RBRACK", "(": "LPAREN",
          ")": "RPAREN", ":": "COLON", ",": "COMMA"}
_TOKENS = {word: (kind, word) for word, kind in _KINDS.items()}
_BAD = {"/": "stray '/'", "-": "stray '-'",
        "'": "expected identifier after tick"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    """Tokens as (kind, text) and a final EOF; each word classified once."""
    toks, seen = [], _TOKENS.copy()
    for word in _TOKEN.findall(text):
        tok = seen.get(word)
        if tok is None:
            tick = word[0] == "'"
            c = word[tick:tick + 1]   # empty for a lone tick
            if not (c.isalpha() or c == "_"):
                start = _spans(text)[len(toks)][0]
                c = text[start]
                raise ParseError(_BAD.get(c, f"unexpected character {c!r}"),
                                 SourceSpan(start, start + 1))
            kind = "TICK" if tick else "TYVAR" if c.isupper() else "IDENT"
            tok = seen[word] = (kind, word[tick:])
        toks.append(tok)
    toks.append(("EOF", ""))
    return toks


@lru_cache(maxsize=1 << 12)
def _is_identifier(x: str) -> bool:
    """Whether ``_tokenize(x)`` is the one token IDENT ``x``, so ``x`` reads
    back as a variable or name: a word, not a keyword, whose first character
    is a letter or ``_`` that is neither λ nor μ, which are tokens of their
    own, nor a capital.  Cached for the certificate writer."""
    return (x not in _TOKENS and _WORD.fullmatch(x) is not None
            and (x[0].isalpha() or x[0] == "_") and x[0] not in "λμ"
            and not x[0].isupper())


def _spans(text: str) -> list[tuple[int, int]]:
    """The (start, end) of each token of ``_tokenize(text)``, EOF's last."""
    return [m.span(1) for m in _TOKEN.finditer(text)] + [(len(text),) * 2]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def accept(self, kind: str) -> bool:
        if self.toks[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, *kinds: str) -> str:
        """Consume a token of one of ``kinds`` and return its text."""
        kind, text = self.toks[self.pos]
        if kind not in kinds:
            self.fail(f"expected {' or '.join(kinds)}, found {kind}")
        self.pos += 1
        return text

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        start, end = _spans(self.text)[self.pos if at is None else at]
        raise ParseError(message, SourceSpan(start, end))

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        """One loop, no recursion.  ``stack`` holds the open binders,
        ``(Abs, x)`` and ``(Mu, a, b)``, and parentheses, ``(None, head)``
        with the application each interrupts; ``head`` is the application
        inside the innermost of them, None before its first atom."""
        toks = self.toks
        stack: list[tuple] = []
        bound: dict[str, int] = {}   # names of the open mu binders
        leaves: dict[str, Var] = {}  # one Var per identifier
        head: Term | None = None
        while True:
            kind, text = toks[self.pos]
            if kind == "IDENT":
                self.pos += 1
                arg = leaves.get(text) or leaves.setdefault(text, Var(text))
            elif kind == "LPAREN":
                self.pos += 1
                stack.append((None, head))
                head = None
                continue
            elif head is None and kind in ("LAMBDA", "MU"):
                self.pos += 1
                x = self.expect("IDENT")
                self.expect("DOT")
                if kind == "LAMBDA":
                    stack.append((Abs, x))
                    continue
                self.expect("LBRACK")
                bound[x] = bound.get(x, 0) + 1
                kind, b = toks[self.pos]
                if kind == "IDENT" and not bound.get(b):
                    self.fail(f"unbound name {b!r}; write '{b} for a free name")
                if kind not in ("IDENT", "TICK"):
                    self.fail("expected a name")
                self.pos += 1
                self.expect("RBRACK")
                stack.append((Mu, x, b))
                continue
            elif head is None:
                self.fail("expected a term")
            else:
                # the application ends, and with it every binder back to the
                # innermost open parenthesis
                while stack and stack[-1][0] is not None:
                    node, *fields = stack.pop()
                    if node is Mu:
                        bound[fields[0]] -= 1
                    head = node(*fields, head)
                if not stack:
                    return head
                self.expect("RPAREN")
                arg, head = head, stack.pop()[1]
            head = arg if head is None else App(head, arg)

    # -- types ---------------------------------------------------------------

    def type(self) -> TypeExpr:
        left = self.conjunct()
        if self.accept("ARROW"):
            return Arrow(left, self.type())
        return left

    def conjunct(self) -> TypeExpr:
        first = self.type_atom()
        op = self.toks[self.pos][0]
        if op not in ("AND", "OR"):
            return first
        parts = [first]
        while self.accept(op):
            parts.append(self.type_atom())
        if self.toks[self.pos][0] in ("AND", "OR"):
            self.fail("mixing /\\ and \\/ needs parentheses")
        return Inter(tuple(parts)) if op == "AND" else Union(tuple(parts))

    def type_atom(self) -> TypeExpr:
        kind, text = self.toks[self.pos]
        self.pos += 1
        if kind == "TYVAR":
            return TVar(text)
        if kind in ("TOP", "BOT"):
            return Top if kind == "TOP" else Bottom
        if kind == "LPAREN":
            ty = self.type()
            self.expect("RPAREN")
            return ty
        self.fail("expected a type", self.pos - 1)

    # -- judgments -----------------------------------------------------------

    def env(self, *kinds: str) -> dict[str, TypeExpr]:
        """``n:T, ...`` with each name ``n`` a token of one of ``kinds``, and
        bound once; empty unless the next token is one."""
        env: dict[str, TypeExpr] = {}
        more = self.toks[self.pos][0] in kinds
        while more:
            n = self.expect(*kinds)
            if n in env:
                self.fail(f"{n} is bound twice", self.pos - 1)
            self.expect("COLON")
            env[n] = self.type()
            more = self.accept("COMMA")
        return env

    def judgment(self):
        gamma = self.env("IDENT")
        self.expect("TURNSTILE")
        term = self.term()
        self.expect("COLON")
        ty = self.type()
        self.expect("BAR")
        delta = self.env("IDENT", "TICK")
        self.expect("EOF")
        return gamma, term, ty, delta


def parse_term(text: str) -> Term:
    p = _Parser(text)
    m = p.term()
    p.expect("EOF")
    return m


def parse_type(text: str, language: str = "iu") -> TypeExpr:
    p = _Parser(text)
    ty = p.type()
    p.expect("EOF")
    if not well_formed(ty, language):
        raise LanguageViolation(f"{text!r} is not a {language} type")
    return ty


def parse_judgment(text: str, language: str = "iu"):
    """Parse ``G |- M : A | D``; returns (gamma, term, ty, delta), with fresh
    dicts.  The pieces cut at the first ``|-``, the last ``|`` and the first
    ``:`` between them go through the ``_decode`` tables, so equal texts give
    the same type objects; a text whose pieces do not decode is parsed
    whole, for its errors and spans.  No failure is cached."""
    try:
        i, k = text.index("|-"), text.rfind("|")
        m, _, t = text[i + 2:k].partition(":")   # no term or type holds ":"
        # str.strip removes what the tokenizer's \s skips
        return (dict(_decode(text[:i].strip(), ("IDENT",), language)),
                parse_term(m), _decode(t.strip(), (), language),
                dict(_decode(text[k + 1:].strip(), ("IDENT", "TICK"),
                             language)))
    except (ValueError, ParseError, LanguageViolation):   # ValueError: no |-
        pass
    gamma, term, ty, delta = _Parser(text).judgment()
    for t in [ty, *gamma.values(), *delta.values()]:
        if not well_formed(t, language):
            raise LanguageViolation(f"type not in the {language} language: {print_type(t)}")
    return gamma, term, ty, delta


@lru_cache(maxsize=1 << 16)
def _decode(text: str, kinds: tuple[str, ...], language: str):
    """Environment text ``text`` as (name, type) pairs, each name a token of
    ``kinds``; with no ``kinds``, the type ``text`` is.  Only types of
    ``language`` enter the table; a text that does not decode raises."""
    p = _Parser(text)
    env = p.env(*kinds) if kinds else {"": p.type()}
    p.expect("EOF")
    if not all(well_formed(t, language) for t in env.values()):
        raise LanguageViolation("not an intersection-union type"
                                if language == "iu" else
                                f"not a {language} type")
    return tuple(env.items()) if kinds else env[""]


# -- printing ----------------------------------------------------------------

def print_term(m: Term) -> str:
    # One loop over a work stack of text to emit, (term, wrap_abs, wrap_app)
    # to print, and Mu nodes whose body is done, so its name leaves ``bound``.
    # A variable child of an application is text where it is met.
    if type(m) is Var:
        return m.name
    out: list[str] = []
    bound: dict[str, int] = {}
    work: list = [(m, False, False)]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is Mu:
            bound[item.bound] -= 1
            continue
        m, wrap_abs, wrap_app = item
        if isinstance(m, Var):
            out.append(m.name)
        elif isinstance(m, App):
            if wrap_app:
                out.append("(")
                work.append(")")
            f, a = m.fun, m.arg
            work.append(a.name if type(a) is Var else (a, True, True))
            if type(f) is Var:
                out += (f.name, " ")
            else:
                work += (" ", (f, True, False))
        elif isinstance(m, (Abs, Mu)):
            if wrap_abs:
                out.append("(")
                work.append(")")
            if isinstance(m, Abs):
                out.append(f"\\{m.var}.")
            else:
                bound[m.bound] = bound.get(m.bound, 0) + 1
                ref = m.named if bound.get(m.named) else f"'{m.named}"
                out.append(f"mu {m.bound}.[{ref}] ")
                work.append(m)
            work.append((m.body, False, False))
        else:
            raise TypeError(f"not a term: {m!r}")
    return "".join(out)


def print_type(t: TypeExpr) -> str:
    """The text of ``t``, cached on ``t`` alone: a deep type holds one."""
    if getattr(t, "_text", None) is None:   # also for what is not a type
        TypeExpr._text.__set__(t, _type_text(t, "top"))
    return t._text


def _type_text(t: TypeExpr, pos: str) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, (Inter, Union)):
        empty, sep = (("top", " /\\ ") if isinstance(t, Inter)
                      else ("bot", " \\/ "))
        if not t.parts:
            return empty
        s = sep.join(_type_text(p, "part") for p in t.parts)
        return f"({s})" if pos == "part" and len(t.parts) > 1 else s
    if isinstance(t, Arrow):
        s = f"{_type_text(t.left, 'arrow_left')} -> {_type_text(t.right, 'top')}"
        return f"({s})" if pos in ("arrow_left", "part") else s
    raise TypeError(f"not a type: {t!r}")


def print_env(env: dict[str, TypeExpr]) -> str:
    return ", ".join(f"{x}:{print_type(t)}" for x, t in sorted(env.items()))


def print_judgment(gamma, term, ty, delta) -> str:
    return (f"{print_env(gamma)} |- {print_term(term)} : {print_type(ty)} | "
            f"{print_env(delta)}").strip()
