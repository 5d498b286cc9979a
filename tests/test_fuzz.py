"""Random input through the command line.

Every exit code is one the README gives (0 ok, 1 invalid or not found, 2
usage or parse error, 3 budget exhausted), and no exception escapes ``main``.
Texts are built from the grammar's tokens, both as loose sequences and as
judgments, terms and types in their places; certificates are random JSON
with lammu's field names, judgments of the same kind and node lists.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from lammu.cli import main
from lammu.iu import RULES

TOKENS = ("\\", "λ", "mu", "μ", ".", "[", "]", "(", ")", ":", ",", "'",
          "'a", "'b", "/\\", "\\/", "∩", "∪", "->", "→", "top", "bot", "⊤",
          "⊥", "|-", "⊢", "|", "x", "y", "f", "a", "b", "A", "B", "x'", "_",
          "²", "/", "-", "1", "#")

soups = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(("", " "))),
                 max_size=14).map(lambda ts: "".join(t + s for t, s in ts))
types = st.recursive(
    st.sampled_from(("A", "B", "C", "A", "B", "top", "bot")),
    lambda t: st.builds("({} -> {})".format, t, t)
    | st.builds("({} /\\ {})".format, t, t)
    | st.builds("({} \\/ {})".format, t, t),
    max_leaves=4)
terms = st.recursive(
    st.sampled_from(("x", "y", "f")),
    lambda m: st.builds("(\\{}.{})".format, st.sampled_from("xyf"), m)
    | st.builds("({} {})".format, m, m)
    | st.builds("(mu a.[{}] {})".format, st.sampled_from(("a", "'c", "b")),
                m),
    max_leaves=5)
gammas = st.lists(st.tuples(st.sampled_from("xyf"), types), max_size=3,
                  unique_by=lambda b: b[0]).map(
    lambda bs: ", ".join(f"{x}:{t}" for x, t in bs))
deltas = st.lists(st.tuples(st.sampled_from(("a", "'b")), types), max_size=2,
                  unique_by=lambda b: b[0]).map(
    lambda bs: ", ".join(f"{a}:{t}" for a, t in bs))
judgments = st.builds("{} |- {} : {} | {}".format, gammas, terms, types, deltas)
texts = soups | terms | types | judgments

nodes = st.lists(st.tuples(st.sampled_from(RULES + ("Bogus",)),
                           st.integers(-1, 3)).map(list)
                 | st.tuples(st.sampled_from(RULES), st.integers(0, 3),
                             types | soups).map(list),
                 max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(RULES) | soups,
    lambda v: st.lists(v, max_size=3) | st.dictionaries(
        st.sampled_from(("judgment", "nodes", "rule", "x")), v,
        max_size=4),
    max_leaves=6)
certificates = (st.fixed_dictionaries({"judgment": judgments | soups,
                                       "nodes": nodes}).map(json.dumps)
                | json_values.map(json.dumps) | soups)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=400,
                    database=None)


def exit_code(argv, stdin):
    """``main(argv)`` with ``stdin`` as standard input; output is dropped."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdin = saved
    assert "Traceback" not in err.getvalue()
    return code


@SETTINGS
@given(texts)
def test_text_commands(text):
    for argv in (["fmt", "-"], ["reduce", "--fuel", "50", "-"],
                 ["check-simple", "-"], ["check-iu", "--depth", "3", "-"]):
        assert exit_code(argv, text) in (0, 1, 2, 3), (argv, text)


@SETTINGS
@given(certificates)
def test_verify(text):
    assert exit_code(["verify", "-"], text) in (0, 1, 2, 3), text
