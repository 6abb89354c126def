"""Monotonicity testing for Boolean functions on hypergrids [n]^d.

Directed lazy-walk path tester with shift sub-tests, exact small-domain
oracles (walk pmfs, distance to monotonicity, influence, Talagrand
objective), and a seeded experiment CLI.
"""

from .errors import BudgetError, ConfigError, DomainError, FormatError
from .grid import (
    Box,
    ExplicitFunction,
    FamilySpec,
    FunctionOracle,
    GridShape,
    Point,
    doubly_flip,
    is_monotone,
    load_truth_table,
    make_family,
    restrict_to_subgrid,
    sample_subgrid,
    save_truth_table,
    tabulate,
)
from .rng import substream
from .tester import (
    FullTesterResult,
    TesterConfig,
    TesterReport,
    exact_reject_prob,
    exact_reject_prob_junta,
    line_tester_fallback,
    run_full_tester,
    run_tester,
)
from .walks import (
    WalkPmf,
    WalkSpec,
    cube_walk_closed_form,
    exact_pmf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
