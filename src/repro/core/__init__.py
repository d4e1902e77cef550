"""Core simulation machinery: the batched driver, kernels and the coupling."""

from .batch import BatchResult, default_max_rounds, run_batch, trial_seeds
from .coupling import CoupledPushVisitExchange, CoupledRunResult, NeighborChoices
from .kernels import KERNEL_REGISTRY
from .kernels.agent import default_agent_count
from .observers import (
    EdgeUsageObserver,
    InformedCountObserver,
    Observer,
    ObserverGroup,
)
from .results import RunResult, TrialSet
from .rng import derive_seed, make_rng

__all__ = [
    "default_agent_count",
    "BatchResult",
    "default_max_rounds",
    "run_batch",
    "trial_seeds",
    "CoupledPushVisitExchange",
    "CoupledRunResult",
    "NeighborChoices",
    "KERNEL_REGISTRY",
    "Observer",
    "ObserverGroup",
    "InformedCountObserver",
    "EdgeUsageObserver",
    "RunResult",
    "TrialSet",
    "make_rng",
    "derive_seed",
]
