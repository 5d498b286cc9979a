"""Command line front end.

Exit codes: 0 success (valid, found, suite clean), 1 failure (invalid, not
found, untypable, suite failures), 2 usage or parse errors, 3 search or fuel
budget exhausted, or input nested too deeply to decide.  An output pipe that
the reader closes (``lammu ... | head``) ends the run silently with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .grammar import (LanguageViolation, ParseError, parse_judgment,
                      parse_term, print_judgment, print_term,
                      print_type)
from .iu import (InvalidNode, MalformedCertificate, SearchBudget,
                 check_derivation, derivation_from_json, derivation_to_json,
                 derive)
from .metatheory import (demo_erasing_failure, suite_struct_subst,
                         suite_subject_expansion, suite_subject_reduction,
                         suite_term_subst)
from .reduction import RULES, format_trace, normalize
from .simple import (CheckFailure, SimpleJudgment, UntypableError,
                     check_simple, infer_simple)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SUITES = {
    "subject-reduction": suite_subject_reduction,
    "subject-expansion": suite_subject_expansion,
    "term-subst": suite_term_subst,
    "struct-subst": suite_struct_subst,
}


def _bad(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_source(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    return arg


def _write_cert(path: str | None, d) -> None:
    """Write ``d``'s certificate to ``path`` (stdout for -); no path, no-op."""
    if path == "-":
        print(derivation_to_json(d))
    elif path:
        with open(path, "w") as fh:
            fh.write(derivation_to_json(d) + "\n")


def cmd_fmt(args) -> int:
    term = parse_term(_read_source(args.term))
    print(print_term(term))
    return EXIT_OK


def cmd_reduce(args) -> int:
    term = parse_term(_read_source(args.term))
    rules = set(args.rules.split(","))
    unknown = rules - set(RULES)
    if unknown:
        _bad(f"unknown rules: {', '.join(sorted(unknown))}")
        return EXIT_USAGE
    trace = normalize(term, rules, fuel=args.fuel)
    if args.trace:
        print(format_trace(trace))
    else:
        print(print_term(trace.final))
    if trace.fuel_exhausted:
        _bad("fuel exhausted")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_check_simple(args) -> int:
    gamma, term, ty, delta = parse_judgment(_read_source(args.judgment),
                                            language="curry")
    try:
        d = check_simple(SimpleJudgment(gamma, term, ty, delta))
    except CheckFailure as e:
        _bad(f"invalid: {e}")
        return EXIT_FAIL
    print(f"valid: {print_judgment(gamma, term, ty, delta)}")
    _write_cert(args.cert, d)
    return EXIT_OK


def cmd_infer_simple(args) -> int:
    term = parse_term(_read_source(args.term))
    try:
        gamma, ty, delta = infer_simple(term)
    except UntypableError as e:
        _bad(f"untypable: {e}")
        return EXIT_FAIL
    print(print_judgment(gamma, term, ty, delta))
    return EXIT_OK


def cmd_check_iu(args) -> int:
    gamma, term, ty, delta = parse_judgment(_read_source(args.judgment))
    budget = SearchBudget(max_depth=args.depth)
    d = derive(gamma, term, ty, delta, budget)
    if d is None:
        _bad("not found" + (" (budget exhausted)" if budget.exhausted else ""))
        return EXIT_BUDGET if budget.exhausted else EXIT_FAIL
    print(f"found: {print_judgment(gamma, term, ty, delta)}")
    _write_cert(args.cert, d)
    return EXIT_OK


def _verify(text: str) -> int:
    """Decode the certificate ``text``, check it and print the verdict."""
    d = derivation_from_json(text)
    try:
        check_derivation(d)
    except InvalidNode as e:
        _bad(f"invalid: {e}")
        return EXIT_FAIL
    j = d.conclusion
    print(f"valid: {print_judgment(j.gamma, j.term, j.ty, j.delta)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cert == "-":
        return _verify(sys.stdin.read())
    with open(args.cert) as fh:
        return _verify(fh.read())


def cmd_metatheory(args) -> int:
    suite = SUITES[args.suite]
    budget = SearchBudget(max_depth=args.depth)
    report = suite(seed=args.seed, cases=args.cases, budget=budget)
    print(report.render())
    return EXIT_OK if report.fail == 0 else EXIT_FAIL


def cmd_examples(args) -> int:
    if args.name == "erasing":
        rep = demo_erasing_failure()
        j = rep["judgment_before"]
        print("before:", print_judgment(j.gamma, j.term, j.ty, j.delta))
        pos, rule = rep["step"]
        print(f"step:   {rule} at root")
        print("after:  ", print_term(rep["term_after"]), ":", print_type(j.ty),
              "under the same environments")
        if rep["derivable_after"] or rep["search_found_after"]:
            _bad("unexpectedly derivable after erasing")
            return EXIT_FAIL
        print("the reduced judgment is not derivable: erasing loses the union")
        return EXIT_OK
    name = args.name.replace("-", "_")
    cert = resources.files("lammu").joinpath(f"certs/{name}.json").read_text()
    code = _verify(cert)
    if args.cert:
        print(cert)
    return code


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lammu",
        description="workbench for reduction and typing of lambda-mu terms")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("fmt", help="parse a term and print it back")
    s.add_argument("term", nargs="?", help="term text, or - for stdin")
    s.set_defaults(func=cmd_fmt)

    s = sub.add_parser("reduce", help="normalize a term")
    s.add_argument("term", nargs="?")
    s.add_argument("--rules", default="beta,mu,renaming",
                   help="comma separated rule names (default beta,mu,renaming)")
    s.add_argument("--fuel", type=positive_int, default=1000)
    s.add_argument("--trace", action="store_true",
                   help="print every step with its position and rule")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("check-simple", help="check a judgment in the simple system")
    s.add_argument("judgment", nargs="?")
    s.add_argument("--cert", metavar="FILE",
                   help="also write the derivation certificate")
    s.set_defaults(func=cmd_check_simple)

    s = sub.add_parser("infer-simple", help="infer a principal simple typing")
    s.add_argument("term", nargs="?")
    s.set_defaults(func=cmd_infer_simple)

    s = sub.add_parser("check-iu",
                       help="search a derivation in the intersection-union system")
    s.add_argument("judgment", nargs="?")
    s.add_argument("--depth", type=non_negative_int, default=8)
    s.add_argument("--cert", metavar="FILE", help="write the found certificate")
    s.set_defaults(func=cmd_check_iu)

    s = sub.add_parser("verify", help="check a derivation certificate")
    s.add_argument("cert", help="certificate file, or - for stdin")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("metatheory", help="run a metatheory suite")
    s.add_argument("--suite", choices=sorted(SUITES), required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cases", type=non_negative_int, default=100)
    s.add_argument("--depth", type=non_negative_int, default=9)
    s.set_defaults(func=cmd_metatheory)

    s = sub.add_parser("examples", help="walk through a bundled example")
    s.add_argument("name", choices=["peirce", "dne", "no-choice", "erasing"])
    s.add_argument("--cert", action="store_true",
                   help="print the bundled certificate")
    s.set_defaults(func=cmd_examples)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, where the flush at exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):   # no file descriptor
            return EXIT_FAIL
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_FAIL
    except (ParseError, LanguageViolation, json.JSONDecodeError,
            UnicodeDecodeError) as e:
        _bad(f"parse error: {e}")
        return EXIT_USAGE
    except MalformedCertificate as e:
        _bad(f"malformed certificate: {e}")
        return EXIT_USAGE
    except OSError as e:
        _bad(str(e))
        return EXIT_USAGE
    except RecursionError:
        # terms parse and print at any depth, but substitution into deep
        # terms, certificates past json's depth limit, types nested
        # thousands deep, and typing and search on deep terms still recurse:
        # such input is neither accepted nor rejected
        _bad("undecided: input nested too deeply")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
