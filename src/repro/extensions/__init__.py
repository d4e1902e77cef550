"""Extensions beyond the paper's core model.

These modules implement the settings the paper motivates or leaves as open
problems, so they can be studied empirically with the same substrate:

* :mod:`repro.extensions.multi_rumor` — many rumors injected over time and
  carried in parallel by one agent population (the setting that motivates the
  stationary-start assumption in Section 1).
* :mod:`repro.extensions.dynamic_agents` — any agent-based protocol with
  agent churn (aging/dying agents, births at a proportional rate, one-off
  failures), composable with the dynamic-topology schedules of
  :mod:`repro.graphs.dynamic` — the fault-tolerance direction suggested in
  Section 9.  Churn itself is an axis of the agent kernels; this module
  packages a churned run with its population history.
"""

from .dynamic_agents import DynamicAgentsResult, DynamicAgentsSimulation
from .multi_rumor import MultiRumorResult, MultiRumorVisitExchange, RumorInjection

__all__ = [
    "RumorInjection",
    "MultiRumorResult",
    "MultiRumorVisitExchange",
    "DynamicAgentsResult",
    "DynamicAgentsSimulation",
]
