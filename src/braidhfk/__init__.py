"""Exact invariants of positive braid links.

Positive braid words in, exact link invariants out: number of
components, split and prime decomposition, Seifert genus, Conway and
Alexander polynomials by three independent routes (skein recursion,
reduced Burau determinant, Kauffman state sums), and the top two knot
Floer homology groups computed both by closed formula and by the skein
exact triangle.
"""

from .alexander import alexander_burau, conway, hfk_euler
from .braidword import (
    BraidWord,
    BudgetError,
    DEFAULT_BUDGET,
    LinkClass,
    ParseError,
    RangeError,
    closure_components,
    closure_genus,
    decompose,
    find_adjacent_square,
    parse_braid,
    parse_serialized,
    split_pieces,
)
from .harness import (
    BadParamsError,
    UnknownFamilyError,
    VerificationReport,
    connected_sum,
    corpus,
    disjoint_union,
    family,
    figure3,
    read_corpus_lines,
    t2,
    torus,
    verify,
    verify_all,
)
from .hfk import (
    BigradedRank,
    J,
    NegativeRankError,
    V,
    next_to_top_via_skein,
    predicted_next_to_top,
    predicted_top,
    rn_next_to_top,
)
from .kauffman import (
    ClosedBraidDiagram,
    KauffmanState,
    MultiComponentError,
    SplitDiagramError,
    bigraded_counts,
    build_diagram,
    enumerate_states,
    euler_and_top_slice,
)
from .polynomials import ConwayPoly, HalfLaurent, InexactDivisionError
from .seifert import (
    ParityError,
    SeifertMultigraph,
    euler_and_genus,
    fibered_positive,
    from_braid,
    reduced,
)

__version__ = "0.1.0"

__all__ = [
    "BadParamsError",
    "BigradedRank",
    "BraidWord",
    "BudgetError",
    "ClosedBraidDiagram",
    "ConwayPoly",
    "DEFAULT_BUDGET",
    "HalfLaurent",
    "InexactDivisionError",
    "J",
    "KauffmanState",
    "LinkClass",
    "MultiComponentError",
    "NegativeRankError",
    "ParityError",
    "ParseError",
    "RangeError",
    "SeifertMultigraph",
    "SplitDiagramError",
    "UnknownFamilyError",
    "V",
    "VerificationReport",
    "alexander_burau",
    "bigraded_counts",
    "build_diagram",
    "closure_components",
    "closure_genus",
    "connected_sum",
    "conway",
    "corpus",
    "decompose",
    "disjoint_union",
    "enumerate_states",
    "euler_and_genus",
    "euler_and_top_slice",
    "family",
    "fibered_positive",
    "figure3",
    "find_adjacent_square",
    "from_braid",
    "hfk_euler",
    "next_to_top_via_skein",
    "parse_braid",
    "parse_serialized",
    "predicted_next_to_top",
    "predicted_top",
    "read_corpus_lines",
    "reduced",
    "rn_next_to_top",
    "split_pieces",
    "t2",
    "torus",
    "verify",
    "verify_all",
]
