"""Query-biased ranking of linked-data resources.

The pipeline turns a corpus bundle (graph triples, resource texts, a search
result page, a query resource set) into a ranking: three prior beliefs over
the resources (uniform, result-page visibility, latent-text drift) are
pooled by iterated consensus, and the pooled belief biases a damped random
walk over the resource graph, serving as both teleport vector and
dangling-row fill.  Evaluation (graded-gain metrics) and crowdsourced
judgment handling (reliability, filtering, vote aggregation) ride along.
"""

from .consensus import ConsensusResult, consensual_pool
from .corpus import assemble_bundle, build_resource_text, load_bundle
from .evaluation import (
    RelevanceJudgments,
    StrategyComparison,
    compare_strategies,
    dcg,
    ndcg,
)
from .graph import ResourceGraph, TransitionOperator, build_graph
from .judgments import (
    GradeDistance,
    JudgmentRecord,
    JudgmentSet,
    filter_workers,
    format_qrels,
    krippendorff_alpha,
    load_judgments,
    load_qrels,
    majority_vote,
)
from .lsa import (
    ConvergenceError,
    ResourceTextMatrix,
    build_text_matrix,
    load_default_stopwords,
    sparse_svd,
    tokenize,
)
from .priors import build_info_need, equi_prior, hit_prior, svd_prior
from .rank import (
    STRATEGIES,
    Pipeline,
    PipelineParams,
    RankingResult,
    ldrank,
    power_rank,
    strategy,
)
from .stemmer import stem
from .types import (
    ConvergenceWarning,
    CorpusBundle,
    Distribution,
    InputFormatError,
    SerpContext,
)

__version__ = "0.1.0"

__all__ = [
    "ConsensusResult",
    "ConvergenceError",
    "ConvergenceWarning",
    "CorpusBundle",
    "Distribution",
    "GradeDistance",
    "InputFormatError",
    "JudgmentRecord",
    "JudgmentSet",
    "Pipeline",
    "PipelineParams",
    "RankingResult",
    "RelevanceJudgments",
    "ResourceGraph",
    "ResourceTextMatrix",
    "SerpContext",
    "StrategyComparison",
    "STRATEGIES",
    "TransitionOperator",
    "assemble_bundle",
    "build_graph",
    "build_info_need",
    "build_resource_text",
    "build_text_matrix",
    "compare_strategies",
    "consensual_pool",
    "dcg",
    "equi_prior",
    "filter_workers",
    "format_qrels",
    "hit_prior",
    "krippendorff_alpha",
    "ldrank",
    "load_bundle",
    "load_default_stopwords",
    "load_judgments",
    "load_qrels",
    "majority_vote",
    "ndcg",
    "power_rank",
    "sparse_svd",
    "stem",
    "strategy",
    "svd_prior",
    "tokenize",
]
