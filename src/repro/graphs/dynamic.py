"""Dynamic-topology schedules: per-round edge/vertex activity masks.

The paper's agent-based protocols are motivated in part by robustness: agents
keep spreading the rumor when nodes crash or links fail, whereas push/pull
calls over a dead link are simply lost (Sections 1 and 9).  This module makes
failure and churn a first-class, uniformly testable axis: a
:class:`TopologySchedule` produces, for every round, which edges and vertices
of a *fixed* underlying graph are currently active.  The simulation kernels
consume these masks through their neighbor samplers — the CSR adjacency is
never rebuilt on the hot path; an interaction over an inactive edge (or with
an inactive vertex) simply does not happen that round.

Failure semantics, shared by every protocol:

* **Inactive edge** — a push/pull/exchange call sampled across it is lost, and
  an agent sampling it for its walk step stays put.
* **Inactive vertex** — all its incident edges are inactive (it neither
  initiates nor answers calls, and agents can neither enter nor leave it), and
  it hosts no interactions: agents standing on it cannot inform it, learn from
  it, or meet each other there.  Agents caught on a crashed vertex are stuck
  until it recovers — exactly the "agents can get lost on faulty nodes" worry
  from the paper's open-problems section.
* Message accounting is unchanged: transmissions lost to failures still count
  as sent (they were attempted), and completion still means "every vertex of
  the underlying graph is informed", so a permanently crashed uninformed
  vertex shows up as an incomplete trial rather than a silent success.

Determinism: a schedule's masks for round ``r`` are a pure function of
``(schedule parameters, graph, r)`` and are shared by every trial of a
batch, so every trial sees identical topologies round for round.

Mask conventions
----------------
``edge_state`` is a boolean array over *undirected* edges in the canonical
order of :meth:`repro.graphs.graph.Graph.edges` (sorted ``(u, v)`` pairs with
``u < v`` — the same order :meth:`EdgeUsageObserver.usage_array` uses);
``vertex_state`` is a boolean array over vertices.  ``None`` means
"everything active" and lets the kernels skip masking entirely, which is why a
static all-active schedule reproduces the undynamic trajectories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..specs import SpecError, parse_spec_string
from .graph import Graph, GraphError

__all__ = [
    "RoundActivity",
    "TopologySchedule",
    "StaticSchedule",
    "BernoulliEdgeFailures",
    "PeriodicLinkFlapping",
    "NodeCrashes",
    "MarkovEdgeChurn",
    "ComposedSchedule",
    "DynamicsRuntime",
    "edge_index_of",
]


@dataclass
class RoundActivity:
    """Activity masks of one round.

    ``edge_state[e]`` is True when undirected edge ``e`` (canonical
    :meth:`Graph.edges` order) is up; ``vertex_state[v]`` is True when vertex
    ``v`` is alive.  ``None`` means all-active and costs nothing downstream.
    """

    edge_state: Optional[np.ndarray] = None
    vertex_state: Optional[np.ndarray] = None

    @property
    def is_all_active(self) -> bool:
        """True when neither mask is materialized (the trivial round)."""
        return self.edge_state is None and self.vertex_state is None


_ALL_ACTIVE = RoundActivity()


def edge_index_of(graph: Graph, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Canonical edge indices of explicit ``(u, v)`` pairs.

    The index aligns with :meth:`Graph.edges` iteration order, which is how
    ``edge_state`` arrays are addressed.  Raises for pairs that are not edges.
    Reads the graph's cached slot→edge map: the CSR slot holding ``v`` in
    ``u``'s (sorted) adjacency row already knows its undirected edge id.
    """
    slot_edge_ids = graph.slot_edge_ids()
    indptr, indices = graph.indptr, graph.indices
    out = np.empty(len(pairs), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"({u}, {v}) is not an edge of {graph.name}")
        start, stop = indptr[u], indptr[u + 1]
        pos = start + np.searchsorted(indices[start:stop], v)
        if pos >= stop or int(indices[pos]) != v:
            raise GraphError(f"({u}, {v}) is not an edge of {graph.name}")
        out[i] = slot_edge_ids[pos]
    return out


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Per-round generator: a pure function of (seed, round), independent of
    access order, so replaying any round reproduces its masks exactly."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(round_index)])
    )


class TopologySchedule:
    """Produces per-round activity masks over a fixed underlying graph.

    Subclasses implement :meth:`activity`; unless documented otherwise the
    result must be a pure function of ``(graph, round_index)`` so that every
    trial of a batch, and every rerun of a cell, sees identical topologies.

    Instances may cache per-graph precomputations keyed on the graph object
    (see :meth:`_graph_state`); schedules are cheap to construct, so sweeps
    resolve a fresh schedule per cell from a spec dict rather than sharing one
    instance across graphs.
    """

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        """Masks of round ``round_index`` (rounds are numbered from 1)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # per-graph memoization helper
    # ------------------------------------------------------------------
    _bound_graph: Optional[Graph] = None
    _bound_state: Any = None

    def _graph_state(self, graph: Graph) -> Any:
        """Memoized :meth:`_build_graph_state` result for ``graph``.

        A single-slot cache keyed by object identity: schedules usually serve
        one graph per run, and holding the graph reference keeps the identity
        check sound (the id cannot be recycled while we hold it).
        """
        if self._bound_graph is not graph:
            self._bound_state = self._build_graph_state(graph)
            self._bound_graph = graph
        return self._bound_state

    def _build_graph_state(self, graph: Graph) -> Any:
        return None

    def spec(self) -> Dict[str, Any]:
        """Round-trippable dict form (the ``dynamics=`` spec format)."""
        raise NotImplementedError


class StaticSchedule(TopologySchedule):
    """A time-invariant topology: fixed masks (or all-active) every round.

    ``down_edges`` names edges by their endpoint pairs and is resolved per
    graph; ``edge_state`` / ``vertex_state`` give the masks directly.  With no
    arguments this is the trivial all-active schedule, whose masks are ``None``
    — the kernels then take exactly the code path they take with no dynamics
    at all, which is what makes the equivalence bit-exact.
    """

    def __init__(
        self,
        *,
        edge_state: Optional[Sequence[bool]] = None,
        vertex_state: Optional[Sequence[bool]] = None,
        down_edges: Optional[Sequence[Tuple[int, int]]] = None,
        down_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        if edge_state is not None and down_edges is not None:
            raise ValueError("give either edge_state or down_edges, not both")
        if vertex_state is not None and down_vertices is not None:
            raise ValueError("give either vertex_state or down_vertices, not both")
        self.edge_state = None if edge_state is None else np.asarray(edge_state, dtype=bool)
        self.vertex_state = (
            None if vertex_state is None else np.asarray(vertex_state, dtype=bool)
        )
        self.down_edges = None if down_edges is None else [tuple(e) for e in down_edges]
        self.down_vertices = None if down_vertices is None else [int(v) for v in down_vertices]

    def _build_graph_state(self, graph: Graph) -> RoundActivity:
        edge_state = self.edge_state
        if self.down_edges is not None:
            edge_state = np.ones(graph.num_edges, dtype=bool)
            edge_state[edge_index_of(graph, self.down_edges)] = False
        elif edge_state is not None and edge_state.size != graph.num_edges:
            raise ValueError("edge_state length must equal the number of edges")
        vertex_state = self.vertex_state
        if self.down_vertices is not None:
            vertex_state = np.ones(graph.num_vertices, dtype=bool)
            vertex_state[np.asarray(self.down_vertices, dtype=np.int64)] = False
        elif vertex_state is not None and vertex_state.size != graph.num_vertices:
            raise ValueError("vertex_state length must equal the number of vertices")
        return RoundActivity(edge_state=edge_state, vertex_state=vertex_state)

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        return self._graph_state(graph)

    def spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"kind": "static"}
        if self.down_edges is not None:
            spec["down_edges"] = list(self.down_edges)
        if self.down_vertices is not None:
            spec["down_vertices"] = list(self.down_vertices)
        if self.edge_state is not None:
            spec["edge_state"] = self.edge_state.tolist()
        if self.vertex_state is not None:
            spec["vertex_state"] = self.vertex_state.tolist()
        return spec


class BernoulliEdgeFailures(TopologySchedule):
    """Every round, each edge is independently down with probability ``rate``.

    The memoryless model: links fail transiently and recover by the next
    round, so broadcasts always complete eventually and the spreading-time
    degradation is a clean function of the failure rate.
    """

    def __init__(self, rate: float, *, seed: int = 0) -> None:
        if not 0.0 <= float(rate) <= 1.0:
            raise ValueError("failure rate must lie in [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        if self.rate == 0.0:
            return _ALL_ACTIVE
        rng = _round_rng(self.seed, round_index)
        return RoundActivity(edge_state=rng.random(graph.num_edges) >= self.rate)

    def spec(self) -> Dict[str, Any]:
        return {"kind": "bernoulli-edges", "rate": self.rate, "seed": self.seed}


class PeriodicLinkFlapping(TopologySchedule):
    """A fixed subset of edges flaps: down for ``down_rounds`` out of every
    ``period`` rounds (the classic misbehaving-switch pattern).

    The flapping set is either explicit (``edges`` as endpoint pairs) or a
    random ``edge_fraction`` of the graph chosen once from ``seed``.  Edge
    ``e`` of the set is down in round ``r`` when
    ``(r + phase[e]) % period < down_rounds``; with ``random_phase`` each
    flapping edge gets its own offset so the failures are not synchronized.
    """

    def __init__(
        self,
        *,
        period: int,
        down_rounds: int,
        edge_fraction: float = 0.0,
        edges: Optional[Sequence[Tuple[int, int]]] = None,
        seed: int = 0,
        random_phase: bool = True,
    ) -> None:
        if period < 1:
            raise ValueError("period must be at least 1")
        if not 0 <= down_rounds <= period:
            raise ValueError("down_rounds must lie in [0, period]")
        if not 0.0 <= float(edge_fraction) <= 1.0:
            raise ValueError("edge_fraction must lie in [0, 1]")
        self.period = int(period)
        self.down_rounds = int(down_rounds)
        self.edge_fraction = float(edge_fraction)
        self.edges = None if edges is None else [tuple(e) for e in edges]
        self.seed = int(seed)
        self.random_phase = bool(random_phase)

    def _build_graph_state(self, graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
        if self.edges is not None:
            flapping = edge_index_of(graph, self.edges)
        else:
            count = int(round(self.edge_fraction * graph.num_edges))
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x1A99])
            )
            flapping = rng.choice(graph.num_edges, size=count, replace=False)
        if self.random_phase:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x9A5E])
            )
            phases = rng.integers(0, self.period, size=flapping.size)
        else:
            phases = np.zeros(flapping.size, dtype=np.int64)
        return np.asarray(flapping, dtype=np.int64), phases

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        flapping, phases = self._graph_state(graph)
        if flapping.size == 0 or self.down_rounds == 0:
            return _ALL_ACTIVE
        edge_state = np.ones(graph.num_edges, dtype=bool)
        down = (round_index + phases) % self.period < self.down_rounds
        edge_state[flapping[down]] = False
        return RoundActivity(edge_state=edge_state)

    def spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "kind": "flapping",
            "period": self.period,
            "down_rounds": self.down_rounds,
            "seed": self.seed,
            "random_phase": self.random_phase,
        }
        if self.edges is not None:
            spec["edges"] = list(self.edges)
        else:
            spec["edge_fraction"] = self.edge_fraction
        return spec


class NodeCrashes(TopologySchedule):
    """A one-off crash event: a vertex set goes down at ``crash_round``.

    The set is either explicit (``vertices``) or a random ``fraction`` chosen
    once from ``seed``.  ``duration=None`` means the crash is permanent
    (agents on the crashed vertices are lost, and a crashed uninformed vertex
    makes the trial incomplete — the honest accounting of a fatal failure);
    a finite duration models a reboot after that many rounds.
    """

    def __init__(
        self,
        *,
        crash_round: int,
        vertices: Optional[Sequence[int]] = None,
        fraction: float = 0.0,
        seed: int = 0,
        duration: Optional[int] = None,
    ) -> None:
        if crash_round < 1:
            raise ValueError("crash_round must be at least 1")
        if not 0.0 <= float(fraction) <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if duration is not None and duration < 1:
            raise ValueError("duration must be at least 1 (or None for permanent)")
        self.crash_round = int(crash_round)
        self.vertices = None if vertices is None else [int(v) for v in vertices]
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.duration = None if duration is None else int(duration)

    def _build_graph_state(self, graph: Graph) -> np.ndarray:
        if self.vertices is not None:
            crashed = np.asarray(self.vertices, dtype=np.int64)
            if crashed.size and (crashed.min() < 0 or crashed.max() >= graph.num_vertices):
                raise GraphError("crash vertex out of range")
        else:
            count = int(round(self.fraction * graph.num_vertices))
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0xC4A5])
            )
            crashed = rng.choice(graph.num_vertices, size=count, replace=False)
        vertex_state = np.ones(graph.num_vertices, dtype=bool)
        vertex_state[crashed] = False
        return vertex_state

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        if round_index < self.crash_round:
            return _ALL_ACTIVE
        if self.duration is not None and round_index >= self.crash_round + self.duration:
            return _ALL_ACTIVE
        vertex_state = self._graph_state(graph)
        if bool(vertex_state.all()):
            return _ALL_ACTIVE
        return RoundActivity(vertex_state=vertex_state)

    def spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "kind": "node-crashes",
            "crash_round": self.crash_round,
            "seed": self.seed,
        }
        if self.vertices is not None:
            spec["vertices"] = list(self.vertices)
        else:
            spec["fraction"] = self.fraction
        if self.duration is not None:
            spec["duration"] = self.duration
        return spec


class MarkovEdgeChurn(TopologySchedule):
    """Edge churn: each edge follows an independent up/down Markov chain.

    An up edge goes down with probability ``fail_rate`` per round; a down edge
    recovers with probability ``recover_rate``.  All edges start up.  Unlike
    the memoryless Bernoulli model, failures persist for geometrically many
    rounds, which is the regime where spreading can stall behind a cut.

    The chain state at round ``r`` depends on the whole history, but every
    round's transition draws from a generator derived purely from
    ``(seed, round)``, so replaying rounds 1..r from scratch reproduces the
    exact same states regardless of access order.  The instance caches the
    last computed round and advances incrementally on the (monotone) batched
    access pattern; a restart from an earlier round recomputes forward, which
    costs one ``O(m)`` pass per replayed round.
    """

    def __init__(self, *, fail_rate: float, recover_rate: float, seed: int = 0) -> None:
        if not 0.0 <= float(fail_rate) <= 1.0:
            raise ValueError("fail_rate must lie in [0, 1]")
        if not 0.0 < float(recover_rate) <= 1.0:
            raise ValueError("recover_rate must lie in (0, 1]")
        self.fail_rate = float(fail_rate)
        self.recover_rate = float(recover_rate)
        self.seed = int(seed)
        self._state_graph: Optional[Graph] = None
        self._state_round = 0
        self._state: Optional[np.ndarray] = None

    def _step(self, graph: Graph, state: np.ndarray, round_index: int) -> np.ndarray:
        draws = _round_rng(self.seed, round_index).random(graph.num_edges)
        fails = state & (draws < self.fail_rate)
        recovers = ~state & (draws < self.recover_rate)
        return (state & ~fails) | recovers

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        if self.fail_rate == 0.0:
            return _ALL_ACTIVE
        if self._state_graph is not graph or round_index < self._state_round:
            self._state_graph = graph
            self._state_round = 0
            self._state = np.ones(graph.num_edges, dtype=bool)
        while self._state_round < round_index:
            self._state_round += 1
            self._state = self._step(graph, self._state, self._state_round)
        return RoundActivity(edge_state=self._state)

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": "edge-churn",
            "fail_rate": self.fail_rate,
            "recover_rate": self.recover_rate,
            "seed": self.seed,
        }


class ComposedSchedule(TopologySchedule):
    """Intersection of several schedules: active iff active under all of them."""

    def __init__(self, schedules: Sequence[TopologySchedule]) -> None:
        if not schedules:
            raise ValueError("ComposedSchedule needs at least one schedule")
        self.schedules = [_resolve_dynamics(s) for s in schedules]

    def activity(self, graph: Graph, round_index: int) -> RoundActivity:
        edge_state = None
        vertex_state = None
        for schedule in self.schedules:
            part = schedule.activity(graph, round_index)
            if part.edge_state is not None:
                edge_state = (
                    part.edge_state.copy() if edge_state is None
                    else edge_state & part.edge_state
                )
            if part.vertex_state is not None:
                vertex_state = (
                    part.vertex_state.copy() if vertex_state is None
                    else vertex_state & part.vertex_state
                )
        if edge_state is None and vertex_state is None:
            return _ALL_ACTIVE
        return RoundActivity(edge_state=edge_state, vertex_state=vertex_state)

    def spec(self) -> Dict[str, Any]:
        return {"kind": "compose", "schedules": [s.spec() for s in self.schedules]}


class DynamicsRuntime:
    """Per-run bridge between a schedule and a kernel's samplers.

    Expands a round's undirected-edge mask into a mask over *directed CSR
    slots* — the flat offsets the samplers index — folding vertex activity
    into both endpoints, so one gather per sample answers "did this
    interaction happen?".  The slot→edge map is built once per run; rounds
    whose activity arrays are identical objects (static schedules) reuse the
    previous expansion, so a static schedule costs one expansion total.
    """

    def __init__(self, schedule: TopologySchedule, graph: Graph) -> None:
        self.schedule = schedule
        self.graph = graph
        # Strong references keep the identity check sound (a freed array's id
        # could otherwise be recycled by the next round's allocation).
        self._last_edge: Optional[np.ndarray] = None
        self._last_vertex: Optional[np.ndarray] = None
        self._last_result: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (
            None,
            None,
        )


    def round_masks(
        self, round_index: int
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``(slot_active, vertex_state)`` of one round (``None`` = all active).

        ``slot_active`` indexes directed CSR slots and already folds in the
        activity of both endpoints of every slot.
        """
        activity = self.schedule.activity(self.graph, round_index)
        edge_state, vertex_state = activity.edge_state, activity.vertex_state
        if edge_state is None and vertex_state is None:
            return None, None
        graph = self.graph
        if edge_state is not None and edge_state.size != graph.num_edges:
            raise ValueError(
                f"edge_state has length {edge_state.size}, expected {graph.num_edges}"
            )
        if vertex_state is not None and vertex_state.size != graph.num_vertices:
            raise ValueError(
                f"vertex_state has length {vertex_state.size}, expected {graph.num_vertices}"
            )
        if edge_state is self._last_edge and vertex_state is self._last_vertex:
            return self._last_result
        slot_edge_id = graph.slot_edge_ids()
        if edge_state is not None:
            slot_active = edge_state[slot_edge_id]
        else:
            slot_active = np.ones(slot_edge_id.size, dtype=bool)
        if vertex_state is not None:
            slot_active &= vertex_state[graph.slot_sources()]
            slot_active &= vertex_state[graph.indices]
        self._last_edge = edge_state
        self._last_vertex = vertex_state
        # A round whose materialized masks leave everything active is exactly
        # the no-dynamics round: hand the kernels the maskless fast path, so a
        # static all-active schedule (and any quiet round of a dynamic one)
        # costs one O(m) check instead of per-sample masking.
        if slot_active.all() and (vertex_state is None or vertex_state.all()):
            self._last_result = (None, None)
        else:
            self._last_result = (slot_active, vertex_state)
        return self._last_result


_SCHEDULE_KINDS = {
    "static": StaticSchedule,
    "bernoulli-edges": BernoulliEdgeFailures,
    "flapping": PeriodicLinkFlapping,
    "node-crashes": NodeCrashes,
    "edge-churn": MarkovEdgeChurn,
}


def _resolve_dynamics(spec) -> Optional[TopologySchedule]:
    """Resolve a ``dynamics=`` spec into a :class:`TopologySchedule`.

    Accepts ``None`` (no dynamics), a schedule instance (returned unchanged),
    a spec dict ``{"kind": <name>, **params}`` or the equivalent CLI string
    ``"<kind>:key=value,key=value"`` (the shared grammar of
    :mod:`repro.specs`).  Kinds: ``static``, ``bernoulli-edges`` (params
    ``rate``, ``seed``), ``flapping`` (``period``, ``down_rounds``,
    ``edge_fraction`` or ``edges``, ``seed``, ``random_phase``),
    ``node-crashes`` (``crash_round``, ``fraction`` or ``vertices``, ``seed``,
    ``duration``), ``edge-churn`` (``fail_rate``, ``recover_rate``, ``seed``)
    and ``compose`` (``schedules``: a list of nested specs).

    This is the internal resolver the package itself calls; the public
    spelling is :func:`repro.scenarios.resolve_dynamics`.
    """
    if spec is None or isinstance(spec, TopologySchedule):
        return spec
    if isinstance(spec, str):
        try:
            spec = parse_spec_string(spec)
        except SpecError as exc:
            raise ValueError(f"malformed dynamics spec: {exc}") from None
    if not isinstance(spec, dict):
        raise TypeError(
            "dynamics must be None, a TopologySchedule, a spec dict or a spec string"
        )
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind == "compose":
        return ComposedSchedule([_resolve_dynamics(s) for s in params.pop("schedules")])
    try:
        cls = _SCHEDULE_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted([*_SCHEDULE_KINDS, "compose"]))
        raise ValueError(
            f"unknown dynamics kind {kind!r}; known kinds: {known}"
        ) from None
    if cls is BernoulliEdgeFailures:
        rate = params.pop("rate")
        return cls(rate, **params)
    return cls(**params)

