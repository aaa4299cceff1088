"""Offset-penalized risk localization toolkit.

Exact finite-support risk functionals, aggregation estimators built around
the offset inequality, Monte-Carlo offset/local Rademacher complexity, and
an empirical concentration lab for shifted multiplier processes, plus a CLI
harness that drives rate studies and the verification suite.
"""

from .model import (
    DiscreteDistribution,
    Dictionary,
    LossSpec,
    PredictorWeights,
    Sample,
    draw_sample,
    load_instance,
    load_instance_file,
    predict_all,
    replicate_counts,
    rng_stream,
    squared_loss,
)
from .risk import (
    BernsteinReport,
    ReferenceSolution,
    bernstein_check,
    empirical_measure,
    excess_risk,
    population_minimizer,
)
from .estimators import (
    DivergenceError,
    MidpointSolution,
    MirrorDescentTrace,
    OffsetReport,
    StarSolution,
    check_offset,
    erm,
    midpoint,
    mirror_descent,
    star,
)
from .complexity import (
    ComplexityEstimate,
    FiniteClassSpec,
    SparseBoundReport,
    SparseClassSpec,
    empirical_offset_complexity,
    local_complexity_fixed_point,
    offset_complexity_mc,
    sparse_offset_bound_check,
    star_hull_sup,
)
from .concentration import (
    ConcentrationReport,
    MultiplierSetup,
    TailReport,
    mgf_verify,
    multiplier_sup,
    self_localization_check,
    tail_verify,
)

__version__ = "0.1.0"
