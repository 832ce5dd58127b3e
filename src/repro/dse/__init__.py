"""Design-space exploration over the Uni-STC reproduction stack.

The subsystem the paper's design walk implies but never automates:
declare a space of :class:`~repro.arch.config.UniSTCConfig` knobs and
workload cells (:mod:`~repro.dse.space`), search it with a grid /
seeded-random / evolutionary strategy (:mod:`~repro.dse.strategies`),
evaluate candidates through the parallel simulator with journaled,
resumable, fault-isolated execution (:mod:`~repro.dse.evaluate`), and
extract the Pareto frontier and knee point over {cycles, energy, area,
EED} (:mod:`~repro.dse.pareto`, :mod:`~repro.dse.campaign`).

Entry points: ``repro dse`` on the CLI, :class:`Campaign` as a
library, ``examples/design_space.py`` as a worked walk-through.  See
``docs/design_space.md``.
"""

from repro.dse.campaign import Campaign, CampaignResult, ConfigSummary, summarise
from repro.dse.evaluate import (
    CachedEvaluator,
    Evaluation,
    campaign_fingerprint,
    tile_cycle_scale,
)
from repro.dse.model import ModelEvaluation, evaluate_model_candidates, model_frontier
from repro.dse.pareto import (
    MODEL_OBJECTIVES,
    OBJECTIVES,
    dominates,
    knee_index,
    pareto_front,
    pareto_indices,
)
from repro.dse.space import DesignPoint, DesignSpace, default_space
from repro.dse.strategies import (
    EvolutionarySearch,
    GridSearch,
    RandomSearch,
    SearchStrategy,
    make_strategy,
    strategy_names,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CachedEvaluator",
    "ConfigSummary",
    "DesignPoint",
    "DesignSpace",
    "Evaluation",
    "EvolutionarySearch",
    "GridSearch",
    "MODEL_OBJECTIVES",
    "ModelEvaluation",
    "OBJECTIVES",
    "RandomSearch",
    "SearchStrategy",
    "campaign_fingerprint",
    "default_space",
    "dominates",
    "evaluate_model_candidates",
    "knee_index",
    "make_strategy",
    "model_frontier",
    "pareto_front",
    "pareto_indices",
    "strategy_names",
    "summarise",
    "tile_cycle_scale",
]
