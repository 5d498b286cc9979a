"""Concrete syntax: parser and pretty-printer for terms, types and judgments.

ASCII surface syntax with Unicode synonyms:

    \\x.M   lambda        mu a.[b] M   context switch
    /\\      intersection  \\/           union
    ->      arrow         top / bot    empty intersection / union

Term variables are lowercase identifiers, type variables capitalized.  Names
are declared by a ``mu`` binding; a free name is written with a leading tick,
as in ``'b``.  Judgments read ``x:T, ... |- M : A | a:T, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Abs, App, Mu, Term, Var
from .typelang import (Arrow, Inter, TVar, TypeExpr, Union, well_formed)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span
        self.expected = expected


class LanguageViolation(Exception):
    pass


_PUNCT = {
    ".": "DOT", "[": "LBRACK", "]": "RBRACK", "(": "LPAREN", ")": "RPAREN",
    ":": "COLON", ",": "COMMA",
    "λ": "LAMBDA", "μ": "MU", "∩": "AND", "∪": "OR", "→": "ARROW",
    "⊤": "TOP", "⊥": "BOT", "⊢": "TURNSTILE",
}

_KEYWORDS = {"mu": "MU", "top": "TOP", "bot": "BOT"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(_Token(_PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if c == "\\":
            if i + 1 < n and text[i + 1] == "/":
                toks.append(_Token("OR", "\\/", i, i + 2))
                i += 2
            else:
                toks.append(_Token("LAMBDA", "\\", i, i + 1))
                i += 1
            continue
        if c == "/":
            if i + 1 < n and text[i + 1] == "\\":
                toks.append(_Token("AND", "/\\", i, i + 2))
                i += 2
                continue
            raise ParseError("stray '/'", SourceSpan(i, i + 1))
        if c == "-":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(_Token("ARROW", "->", i, i + 2))
                i += 2
                continue
            raise ParseError("stray '-'", SourceSpan(i, i + 1))
        if c == "|":
            if i + 1 < n and text[i + 1] == "-":
                toks.append(_Token("TURNSTILE", "|-", i, i + 2))
                i += 2
            else:
                toks.append(_Token("BAR", "|", i, i + 1))
                i += 1
            continue
        if c == "'":
            j = i + 1
            if j >= n or not (text[j].isalpha() or text[j] == "_"):
                raise ParseError("expected identifier after tick", SourceSpan(i, i + 1))
            k = j
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            while k < n and text[k] == "'":
                k += 1
            toks.append(_Token("TICK", text[j:k], i, k))
            i = k
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                toks.append(_Token(_KEYWORDS[word], word, i, j))
            elif word[0].isupper():
                toks.append(_Token("TYVAR", word, i, j))
            else:
                toks.append(_Token("IDENT", word, i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", SourceSpan(i, i + 1))
    toks.append(_Token("EOF", "", n, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.kind}",
                             SourceSpan(t.start, t.end), frozenset({kind}))
        return self.next()

    def fail(self, message: str, expected: frozenset[str]) -> None:
        t = self.peek()
        raise ParseError(message, SourceSpan(t.start, t.end), expected)

    # -- terms ---------------------------------------------------------------

    def term(self, bound: frozenset[str]) -> Term:
        t = self.peek()
        if t.kind == "LAMBDA":
            self.next()
            x = self.expect("IDENT").text
            self.expect("DOT")
            return Abs(x, self.term(bound))
        if t.kind == "MU":
            self.next()
            a = self.expect("IDENT").text
            self.expect("DOT")
            self.expect("LBRACK")
            b = self.nameref(bound | {a})
            self.expect("RBRACK")
            return Mu(a, b, self.term(bound | {a}))
        return self.appseq(bound)

    def nameref(self, bound: frozenset[str]) -> str:
        t = self.peek()
        if t.kind == "TICK":
            return self.next().text
        if t.kind == "IDENT":
            if t.text not in bound:
                raise ParseError(
                    f"unbound name {t.text!r}; write '{t.text} for a free name",
                    SourceSpan(t.start, t.end), frozenset({"IDENT", "TICK"}))
            return self.next().text
        self.fail("expected a name", frozenset({"IDENT", "TICK"}))

    def appseq(self, bound: frozenset[str]) -> Term:
        head = self.atom(bound)
        while self.peek().kind in ("IDENT", "LPAREN"):
            head = App(head, self.atom(bound))
        return head

    def atom(self, bound: frozenset[str]) -> Term:
        t = self.peek()
        if t.kind == "IDENT":
            return Var(self.next().text)
        if t.kind == "LPAREN":
            self.next()
            m = self.term(bound)
            self.expect("RPAREN")
            return m
        self.fail("expected a term", frozenset({"IDENT", "LPAREN", "LAMBDA", "MU"}))

    # -- types ---------------------------------------------------------------

    def type(self) -> TypeExpr:
        left = self.conjunct()
        if self.accept("ARROW"):
            return Arrow(left, self.type())
        return left

    def conjunct(self) -> TypeExpr:
        first = self.type_atom()
        op = self.peek().kind
        if op not in ("AND", "OR"):
            return first
        parts = [first]
        while self.accept(op):
            parts.append(self.type_atom())
        if self.peek().kind in ("AND", "OR"):
            self.fail("mixing /\\ and \\/ needs parentheses", frozenset({op}))
        return Inter(tuple(parts)) if op == "AND" else Union(tuple(parts))

    def type_atom(self) -> TypeExpr:
        t = self.peek()
        if t.kind == "TYVAR":
            return TVar(self.next().text)
        if t.kind == "TOP":
            self.next()
            return Inter(())
        if t.kind == "BOT":
            self.next()
            return Union(())
        if t.kind == "LPAREN":
            self.next()
            ty = self.type()
            self.expect("RPAREN")
            return ty
        self.fail("expected a type", frozenset({"TYVAR", "TOP", "BOT", "LPAREN"}))

    # -- judgments -----------------------------------------------------------

    def judgment(self):
        gamma: dict[str, TypeExpr] = {}
        if self.peek().kind == "IDENT":
            while True:
                x = self.expect("IDENT").text
                self.expect("COLON")
                gamma[x] = self.type()
                if not self.accept("COMMA"):
                    break
        self.expect("TURNSTILE")
        term = self.term(frozenset())
        self.expect("COLON")
        ty = self.type()
        self.expect("BAR")
        delta: dict[str, TypeExpr] = {}
        if self.peek().kind in ("IDENT", "TICK"):
            while True:
                a = self.next().text
                self.expect("COLON")
                delta[a] = self.type()
                if not self.accept("COMMA"):
                    break
        return gamma, term, ty, delta


def parse_term(text: str) -> Term:
    p = _Parser(text)
    m = p.term(frozenset())
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
    """Parse ``G |- M : A | D``; returns (gamma, term, ty, delta)."""
    p = _Parser(text)
    gamma, term, ty, delta = p.judgment()
    for t in [ty, *gamma.values(), *delta.values()]:
        if not well_formed(t, language):
            raise LanguageViolation(f"type not in the {language} language: {print_type(t)}")
    return gamma, term, ty, delta


# -- printing ----------------------------------------------------------------

def print_term(m: Term) -> str:
    def go(m: Term, bound: frozenset[str], wrap_abs: bool, wrap_app: bool) -> str:
        if isinstance(m, Var):
            return m.name
        if isinstance(m, Abs):
            s = f"\\{m.var}.{go(m.body, bound, False, False)}"
            return f"({s})" if wrap_abs else s
        if isinstance(m, Mu):
            b2 = bound | {m.bound}
            ref = m.named if m.named in b2 else f"'{m.named}"
            s = f"mu {m.bound}.[{ref}] {go(m.body, b2, False, False)}"
            return f"({s})" if wrap_abs else s
        if isinstance(m, App):
            s = f"{go(m.fun, bound, True, False)} {go(m.arg, bound, True, True)}"
            return f"({s})" if wrap_app else s
        raise TypeError(f"not a term: {m!r}")

    return go(m, frozenset(), False, False)


def print_type(t: TypeExpr) -> str:
    def go(t: TypeExpr, pos: str) -> str:
        if isinstance(t, TVar):
            return t.name
        if isinstance(t, Inter):
            if not t.parts:
                return "top"
            s = " /\\ ".join(go(p, "part") for p in t.parts)
            return f"({s})" if pos == "part" and len(t.parts) > 1 else s
        if isinstance(t, Union):
            if not t.parts:
                return "bot"
            s = " \\/ ".join(go(p, "part") for p in t.parts)
            return f"({s})" if pos == "part" and len(t.parts) > 1 else s
        if isinstance(t, Arrow):
            s = f"{go(t.left, 'arrow_left')} -> {go(t.right, 'top')}"
            return f"({s})" if pos in ("arrow_left", "part") else s
        raise TypeError(f"not a type: {t!r}")

    return go(t, "top")


def print_env(env: dict[str, TypeExpr]) -> str:
    return ", ".join(f"{x}:{print_type(t)}" for x, t in sorted(env.items()))


def print_judgment(gamma, term, ty, delta) -> str:
    return (f"{print_env(gamma)} |- {print_term(term)} : "
            f"{print_type(ty)} | {print_env(delta)}").strip()
