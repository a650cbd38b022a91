"""Exact engine for generalized Puiseux expansions over rank-1 valued rings."""

from .coeff import (
    CoeffElem,
    FieldTower,
    WittElem,
    WittRing,
    factor_poly,
    solve_in_closure,
)
from .embed import (
    BUDGET,
    COMPLETE,
    COMPLETE_TRANSCENDENTAL,
    ExpandResult,
    LimitPartial,
    PuiseuxState,
    expand,
    init_state,
    limit_step,
    monomial_embedding,
    mu_beta_val,
    residual_equation,
    step,
)
from .errors import (
    ChainComplete,
    ChainExhausted,
    EngineError,
    IrreducibleOverRationals,
    NonUnit,
    ParseError,
    PrecisionExceeded,
    UnsupportedLimitPattern,
    ValuationIndeterminate,
    ZeroPolynomial,
)
from .groups import (
    INF,
    GroupDescriptor,
    GroupElement,
    QuadValue,
    cmp,
)
from .keypoly import (
    ChainEntry,
    KeyPolyChain,
    ValPoly,
    chain_entry,
    derivative_min_check,
    extend_chain,
    first_exponent,
    initial_chain,
    standard_expansion,
    truncated_val,
)
from .series import GenSeries, SeriesRing, eval_poly, parse_series
from .truncalg import (
    TruncationDecomposition,
    integral_dependence,
    multi_product_truncation,
    product_truncation,
    taylor_form,
)
