"""Tests for result records (repro.core.results)."""

from __future__ import annotations

import json

import pytest

from repro.core.results import RunResult, TrialSet


def make_result(
    broadcast_time=7,
    completed=True,
    protocol="push",
    num_vertices=10,
    **overrides,
):
    payload = dict(
        protocol=protocol,
        graph_name="toy",
        num_vertices=num_vertices,
        num_edges=9,
        source=0,
        broadcast_time=broadcast_time,
        rounds_executed=broadcast_time or 5,
        completed=completed,
    )
    payload.update(overrides)
    return RunResult(**payload)


class TestRunResult:
    def test_completed_requires_broadcast_time(self):
        with pytest.raises(ValueError):
            make_result(broadcast_time=None, completed=True)

    def test_incomplete_must_not_have_broadcast_time(self):
        with pytest.raises(ValueError):
            make_result(broadcast_time=5, completed=False)

    def test_incomplete_result_is_valid(self):
        result = make_result(broadcast_time=None, completed=False)
        assert not result.completed
        assert result.broadcast_time is None

    def test_round_trip_dict(self):
        result = make_result(metadata={"alpha": 1.0})
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result

    def test_to_dict_is_json_serializable(self):
        text = json.dumps(make_result().to_dict())
        assert json.loads(text)["protocol"] == "push"


class TestTrialSet:
    def test_add_and_len(self):
        trials = TrialSet(protocol="push", graph_name="toy", num_vertices=10)
        trials.add(make_result())
        trials.add(make_result(broadcast_time=9))
        assert len(trials) == 2

    def test_protocol_mismatch_rejected(self):
        trials = TrialSet(protocol="push", graph_name="toy", num_vertices=10)
        with pytest.raises(ValueError):
            trials.add(make_result(protocol="pull"))

    def test_vertex_count_mismatch_rejected(self):
        trials = TrialSet(protocol="push", graph_name="toy", num_vertices=10)
        with pytest.raises(ValueError):
            trials.add(make_result(num_vertices=20))

    def test_broadcast_time_statistics(self):
        trials = TrialSet.from_results(
            [make_result(broadcast_time=t) for t in (4, 6, 8)]
        )
        assert trials.broadcast_times() == [4, 6, 8]
        assert trials.mean_broadcast_time() == pytest.approx(6.0)
        assert trials.max_broadcast_time() == 8

    def test_completion_rate_with_failures(self):
        trials = TrialSet(protocol="push", graph_name="toy", num_vertices=10)
        trials.add(make_result())
        trials.add(make_result(broadcast_time=None, completed=False))
        assert trials.completion_rate == pytest.approx(0.5)
        assert len(trials.completed_results) == 1

    def test_empty_statistics(self):
        trials = TrialSet(protocol="push", graph_name="toy", num_vertices=10)
        assert trials.mean_broadcast_time() is None
        assert trials.max_broadcast_time() is None
        assert trials.completion_rate == 0.0

    def test_from_results_rejects_empty(self):
        with pytest.raises(ValueError):
            TrialSet.from_results([])

    def test_to_dict_round_trips_counts(self):
        trials = TrialSet.from_results([make_result(), make_result(broadcast_time=3)])
        payload = trials.to_dict()
        assert payload["protocol"] == "push"
        assert len(payload["results"]) == 2

    def test_from_dict_restores_backend_and_results(self):
        trials = TrialSet.from_results([make_result(), make_result(broadcast_time=3)])
        trials.backend = "batched"
        clone = TrialSet.from_dict(trials.to_dict())
        assert clone == trials
        assert clone.backend == "batched"

    def test_json_text_round_trip(self):
        trials = TrialSet.from_results([make_result(metadata={"alpha": 0.5})])
        assert TrialSet.from_dict(json.loads(json.dumps(trials.to_dict()))) == trials

    def test_from_dict_rejects_mixed_protocols(self):
        trials = TrialSet.from_results([make_result()])
        payload = trials.to_dict()
        payload["results"][0]["protocol"] = "pull"
        with pytest.raises(ValueError):
            TrialSet.from_dict(payload)

    def test_to_dict_normalizes_numpy_metadata(self):
        import numpy as np

        result = make_result(
            metadata={
                "count": np.int64(3),
                "rate": np.float64(0.25),
                "flag": np.bool_(True),
                "mask": np.array([1, 2]),
                "pair": (1, 2),
            }
        )
        payload = result.to_dict()
        text = json.dumps(payload)  # must be JSON-serializable
        clone = RunResult.from_dict(json.loads(text))
        assert clone.metadata == {
            "count": 3,
            "rate": 0.25,
            "flag": True,
            "mask": [1, 2],
            "pair": [1, 2],
        }

    def test_to_dict_rejects_non_string_metadata_keys(self):
        # str(3) would silently round-trip {3: x} into {"3": x}; the lossless
        # contract demands a loud failure instead.
        result = make_result(metadata={3: "x"})
        with pytest.raises(TypeError):
            result.to_dict()


# ---------------------------------------------------------------------------
# property-based round-trip: the result store persists TrialSets through
# to_dict/from_dict (via JSON), so the round trip must be lossless for every
# representable record — histories, metadata, edge traversals, backend.
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

json_scalars = st.none() | st.booleans() | st.integers(-10**9, 10**9) | st.floats(
    allow_nan=False, allow_infinity=False
) | st.text(max_size=12)
metadata_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@st.composite
def run_results(draw, protocol="push", num_vertices=16):
    completed = draw(st.booleans())
    broadcast_time = draw(st.integers(0, 500)) if completed else None
    rounds = broadcast_time if completed else draw(st.integers(0, 500))
    return RunResult(
        protocol=protocol,
        graph_name=draw(st.text(max_size=10)),
        num_vertices=num_vertices,
        num_edges=draw(st.integers(1, 100)),
        source=draw(st.integers(0, num_vertices - 1)),
        broadcast_time=broadcast_time,
        rounds_executed=rounds,
        completed=completed,
        num_agents=draw(st.integers(0, 64)),
        informed_vertex_history=draw(st.lists(st.integers(0, num_vertices), max_size=6)),
        informed_agent_history=draw(st.lists(st.integers(0, 64), max_size=6)),
        messages_sent=draw(st.integers(0, 10**6)),
        edge_traversals=draw(
            st.dictionaries(st.text(max_size=8), st.integers(0, 1000), max_size=4)
        ),
        metadata=draw(st.dictionaries(st.text(max_size=8), metadata_values, max_size=4)),
    )


class TestTrialSetRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        results=st.lists(run_results(), min_size=1, max_size=4),
        backend=st.none() | st.sampled_from(["batched", "sequential"]),
    )
    def test_json_round_trip_is_lossless(self, results, backend):
        trials = TrialSet.from_results(results)
        trials.backend = backend
        payload = json.loads(json.dumps(trials.to_dict()))
        clone = TrialSet.from_dict(payload)
        assert clone == trials
        assert clone.backend == backend
        for original, restored in zip(trials.results, clone.results):
            assert restored.informed_vertex_history == original.informed_vertex_history
            assert restored.informed_agent_history == original.informed_agent_history
            assert restored.metadata == original.metadata
            assert restored.edge_traversals == original.edge_traversals
