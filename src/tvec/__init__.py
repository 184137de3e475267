"""Vector-indexed dependent types with untyped equality.

The package is a small kernel built around one idea: annotated terms are
checked by a syntax-directed pass, and every judgement is justified by
the behaviour of the term's erasure.  Equality types relate erased terms
and are proved by `join`, which normalizes both sides; `cast` transports
along such equations.  A second mode swaps the implicit products for
quasi-implicit ones and adds fold/unfold forms around types computed by
`ifzero`, trading strong normalization of open terms for large
eliminations while keeping closed evaluation safe.

Modules: `syntax` (terms, types, binding), `erase` (annotation removal),
`reduce` (full-beta and call-by-value), `typecheck` (the checker, both
modes), `frontend` (.tvec parsing and printing), `corpus` (worked examples
used by the tests and the self-test), `oracle` (enumeration and the
property suite), and `cli`.
"""

from .erase import erase, subst_annotated
from .frontend import (
    ParseError, ResolveError, ResolvedDef, ResolvedFile, SourceError,
    parse, parse_term, parse_type, pretty, resolve_defs,
)
from .oracle import (
    canonical_shape, enumerate_terms, run_property_suite, SuiteReport,
)
from .reduce import (
    DEFAULT_FUEL, FuelExhausted, NormalForm, Stuck, Value, eval_cbv,
    joinable, normalize,
)
from .syntax import AnnTerm, Context, Node, Ty, UnannTerm, alpha_eq
from .typecheck import Checker, Diagnostic, Failure, Inferred, Mode

__version__ = "0.1.0"

__all__ = [
    "AnnTerm", "Checker", "Context", "DEFAULT_FUEL", "Diagnostic",
    "Failure", "FuelExhausted", "Inferred", "Mode", "Node", "NormalForm",
    "ParseError", "ResolveError", "ResolvedDef", "ResolvedFile",
    "SourceError", "Stuck", "SuiteReport", "Ty", "UnannTerm", "Value",
    "alpha_eq", "canonical_shape", "enumerate_terms", "erase", "eval_cbv",
    "joinable", "normalize", "parse", "parse_term", "parse_type", "pretty",
    "resolve_defs", "run_property_suite", "subst_annotated",
]
