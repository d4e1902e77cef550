"""Core simulation machinery: the batched driver, kernels, agents and the coupling."""

from .agents import AgentSystem, default_agent_count
from .batch import BatchResult, default_max_rounds, run_batch, trial_seeds
from .coupling import CoupledPushVisitExchange, CoupledRunResult, NeighborChoices
from .kernels import KERNEL_REGISTRY
from .observers import (
    EdgeUsageObserver,
    InformedCountObserver,
    Observer,
    ObserverGroup,
    RoundLimitGuard,
)
from .results import RoundRecord, RunResult, TrialSet
from .rng import RngFactory, derive_seed, make_rng, spawn_rngs

__all__ = [
    "AgentSystem",
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
    "RoundLimitGuard",
    "RunResult",
    "RoundRecord",
    "TrialSet",
    "RngFactory",
    "make_rng",
    "spawn_rngs",
    "derive_seed",
]
