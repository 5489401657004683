"""Greedy bipartite matching under adversarial arrival order: certified
priority orders, exact and constructive adversaries, instance families,
and analysis utilities."""

from .adversary import (
    DEFAULT_BUDGET,
    AdversaryResult,
    adversary_biclique,
    adversary_planted_is,
    adversary_projective,
    adversary_regular_gadget,
    worst_order_exact,
    worst_order_heuristic,
    worst_order_masked_min,
)
from .analysis import (
    AnalysisParams,
    BadSetReport,
    ExponentReport,
    IterationRecord,
    IterativeTrace,
    MonteCarloSummary,
    SafetyResult,
    bound_exponents,
    cross_check_interpretations,
    entropy,
    enumerate_bad_sets,
    is_safe,
    iterative_process,
    monte_carlo_random_pi,
)
from .certify import (
    CONSTRUCTIONS,
    GUARANTEE_FLOOR,
    BoundCertificate,
    EpsilonParams,
    build_certificate,
    build_theorem1,
    compute_eps,
    compute_m12,
    order_large_m12,
    order_m12,
    order_sort1,
    order_sort2,
    selector_dual_certificate,
    selector_lp_optimum,
)
from .core import (
    BipartiteGraph,
    GreedyOutcome,
    PerfectMatching,
    Permutation,
    align_with_matching,
    find_perfect_matching,
    greedy_match,
    max_matching,
)
from .errors import (
    AnalysisParamError,
    DimensionMismatchError,
    FamilyShapeError,
    GenerationError,
    GreedyOrderError,
    HallInfeasibleError,
    InvalidGraphError,
    MatchingNotAlignedError,
    MissingArcError,
    NoPerfectMatchingError,
    PropositionViolatedError,
    SchemaError,
    UsageError,
)
from .families import (
    FAMILIES,
    FamilySpec,
    gen_badset_chain,
    gen_biclique_half,
    gen_fano,
    gen_fig1,
    gen_hamiltonian_random,
    gen_iterative,
    gen_pg23,
    gen_planted_is,
    gen_random_regular,
    gen_regular89,
    gen_tight_regular,
    generate,
)
from .spoil import (
    CoverStep,
    PathCover,
    SpoilGraph,
    build_spoiling_graph,
    maximal_path_cover,
)

__version__ = "0.1.0"
