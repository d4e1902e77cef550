"""Result records produced by protocol runs.

A single protocol run produces a :class:`RunResult`; repeated trials of the
same configuration are aggregated into a :class:`TrialSet` by the experiment
runner.  Both are plain dataclasses so they serialize cleanly to JSON for the
EXPERIMENTS.md report generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["RunResult", "TrialSet", "RoundRecord"]


def _json_safe(value: Any, *, strict_floats: bool = False) -> Any:
    """Recursively coerce a value into plain JSON-serializable Python types.

    Run metadata flows in from numpy-heavy code (kernels, observers), so
    numpy scalars and arrays show up in ``metadata`` / ``extra`` dicts.
    ``to_dict`` normalizes them — along with tuples, which JSON cannot
    distinguish from lists — so that ``from_dict(json.loads(json.dumps(
    to_dict())))`` reconstructs an *equal* record: the result store depends
    on this round trip being lossless.

    ``strict_floats`` is the canonical-hashing mode used by
    :mod:`repro.store.keys` (the single other normalizer in the codebase —
    keep it that way): ``-0.0`` folds into ``0.0`` so the two IEEE zeros
    cannot produce distinct cell keys, and NaN/infinity are rejected because
    they have no canonical (or even standard) JSON form.
    """
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                # str(k) would round-trip {3: x} into {"3": x} — a silently
                # *different* dict that breaks the bit-identical cache
                # contract; refuse instead, like every other lossy case.
                raise TypeError(
                    f"dict keys must be strings to serialize losslessly, "
                    f"got {type(k).__name__}"
                )
        return {
            k: _json_safe(v, strict_floats=strict_floats) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(v, strict_floats=strict_floats) for v in value]
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):
        # numpy arrays and numpy scalars both expose tolist().
        return _json_safe(value.tolist(), strict_floats=strict_floats)
    if isinstance(value, float) and strict_floats:
        if math.isnan(value) or math.isinf(value):
            raise ValueError("canonical JSON must not contain NaN or infinite floats")
        return 0.0 if value == 0.0 else value
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value of type {type(value).__name__} cannot be serialized losslessly"
    )


@dataclass(frozen=True)
class RoundRecord:
    """Per-round snapshot captured by observers.

    Attributes
    ----------
    round_index:
        The round number (round 0 is the initialisation round of Section 3).
    informed_vertices:
        Number of informed vertices after this round (protocol dependent; for
        meet-exchange this stays at most 1, the source).
    informed_agents:
        Number of informed agents after this round (0 for push/push-pull).
    extra:
        Free-form protocol specific fields (e.g. messages sent this round).
    """

    round_index: int
    informed_vertices: int
    informed_agents: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one protocol run on one graph from one source.

    ``broadcast_time`` follows the paper's definitions: for push, push-pull and
    visit-exchange it is the first round by which every vertex is informed; for
    meet-exchange it is the first round by which every agent is informed.  If
    the run hit ``max_rounds`` before completing, ``completed`` is False and
    ``broadcast_time`` is ``None``.
    """

    protocol: str
    graph_name: str
    num_vertices: int
    num_edges: int
    source: int
    broadcast_time: Optional[int]
    rounds_executed: int
    completed: bool
    num_agents: int = 0
    informed_vertex_history: List[int] = field(default_factory=list)
    informed_agent_history: List[int] = field(default_factory=list)
    messages_sent: int = 0
    edge_traversals: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.completed and self.broadcast_time is None:
            raise ValueError("completed runs must record a broadcast time")
        if not self.completed and self.broadcast_time is not None:
            raise ValueError("incomplete runs must not record a broadcast time")

    @property
    def normalized_broadcast_time(self) -> Optional[float]:
        """Broadcast time divided by ``log2(n)`` — a convenient scale-free view."""
        if self.broadcast_time is None:
            return None
        return self.broadcast_time / max(math.log2(max(self.num_vertices, 2)), 1.0)

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serializable dictionary representation.

        Every field — including per-round histories, edge-traversal counts
        and free-form metadata (e.g. dynamics parameters stamped by the
        kernels) — survives the dict round trip losslessly; numpy scalars
        and tuples are normalized to plain Python types on the way out.
        """
        return _json_safe(asdict(self))

    def to_json(self) -> str:
        """Serialize the result to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Reconstruct a :class:`RunResult` from :meth:`to_dict` output."""
        return cls(**payload)


@dataclass
class TrialSet:
    """A collection of runs of the same protocol/graph/source configuration.

    ``backend`` is ``"batched"`` for trial sets stamped by the experiment
    runner (artifacts keep the field so existing store objects round-trip)
    and ``None`` for trial sets assembled by hand.
    """

    protocol: str
    graph_name: str
    num_vertices: int
    results: List[RunResult] = field(default_factory=list)
    backend: Optional[str] = None

    @property
    def store_status(self) -> Optional[tuple]:
        """``(status, cell_key)`` stamped by a store-backed runner, else None.

        ``status`` is ``"cached"`` (served from the result store) or
        ``"computed"`` (executed and persisted this run).  This is the public
        contract the benchmarks, examples and CI smoke checks read.  It
        deliberately lives outside the dataclass fields: cached and computed
        trial sets must compare equal and serialize identically — the status
        describes *how this object was obtained*, not what it contains.
        """
        return getattr(self, "_store_status", None)

    def add(self, result: RunResult) -> None:
        """Append a run result, validating that it matches the configuration."""
        if result.protocol != self.protocol:
            raise ValueError(
                f"protocol mismatch: expected {self.protocol!r}, got {result.protocol!r}"
            )
        if result.num_vertices != self.num_vertices:
            raise ValueError("all trials in a TrialSet must share the vertex count")
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def completed_results(self) -> List[RunResult]:
        """Runs that finished before their round budget."""
        return [r for r in self.results if r.completed]

    @property
    def completion_rate(self) -> float:
        """Fraction of runs that completed within the round budget."""
        if not self.results:
            return 0.0
        return len(self.completed_results) / len(self.results)

    def broadcast_times(self) -> List[int]:
        """Broadcast times of the completed runs."""
        return [r.broadcast_time for r in self.completed_results if r.broadcast_time is not None]

    def mean_broadcast_time(self) -> Optional[float]:
        """Mean broadcast time over completed runs, or None if none completed."""
        times = self.broadcast_times()
        if not times:
            return None
        return sum(times) / len(times)

    def max_broadcast_time(self) -> Optional[int]:
        """Maximum broadcast time over completed runs."""
        times = self.broadcast_times()
        return max(times) if times else None

    def min_broadcast_time(self) -> Optional[int]:
        """Minimum broadcast time over completed runs."""
        times = self.broadcast_times()
        return min(times) if times else None

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serializable dictionary representation.

        Round-trips losslessly through :meth:`from_dict`: the trial-set
        fields (including ``backend``) and *all* fields of every contained
        :class:`RunResult` — histories, metadata, edge traversals — are
        preserved exactly.  The result store's artifacts are (re)assembled
        through this pair, so losing a field here would silently truncate
        every cached result.
        """
        return {
            "protocol": self.protocol,
            "graph_name": self.graph_name,
            "num_vertices": int(self.num_vertices),
            "backend": self.backend,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        """Serialize the trial set to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TrialSet":
        """Reconstruct a :class:`TrialSet` from :meth:`to_dict` output.

        Each result re-enters through :meth:`add`, so a tampered payload
        that mixes protocols or vertex counts is rejected rather than
        silently accepted.
        """
        trials = cls(
            protocol=payload["protocol"],
            graph_name=payload["graph_name"],
            num_vertices=payload["num_vertices"],
            backend=payload.get("backend"),
        )
        for result_payload in payload["results"]:
            trials.add(RunResult.from_dict(result_payload))
        return trials

    @classmethod
    def from_json(cls, text: str) -> "TrialSet":
        """Reconstruct a :class:`TrialSet` from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_results(cls, results: Sequence[RunResult]) -> "TrialSet":
        """Build a trial set from a non-empty homogeneous result sequence."""
        if not results:
            raise ValueError("cannot build a TrialSet from an empty result list")
        first = results[0]
        trials = cls(
            protocol=first.protocol,
            graph_name=first.graph_name,
            num_vertices=first.num_vertices,
        )
        for result in results:
            trials.add(result)
        return trials
