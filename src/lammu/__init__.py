"""A workbench for lambda-mu terms: reduction, three typing systems,
derivation certificates and executable metatheory suites."""

from .grammar import (parse_judgment, parse_term, parse_type, print_judgment,
                      print_term, print_type)
from .iu import (Derivation, Judgment, SearchBudget, check_derivation,
                 derivation_from_json, derivation_to_json, derive)
from .reduction import normalize, redexes, step
from .simple import SimpleJudgment, check_simple, infer_simple
from .syntax import Abs, App, Mu, Term, Var, alpha_eq
from .typelang import (Arrow, Bottom, Inter, TVar, Top, TypeExpr, Union,
                       canonicalize, subtype, type_equiv, well_formed)

__version__ = "0.1.0"
