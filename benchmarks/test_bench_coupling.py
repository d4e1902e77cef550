"""Benchmark / reproduction of the Section-5 coupling machinery (Lemmas 13/14).

The proof of Theorem 10 rests on two facts that the coupled simulator makes
machine-checkable:

* Lemma 13: ``tau_u <= C_u(t_u)`` for every vertex (exact invariant), and
* the maximum congestion of canonical walks is ``O(T_visitx)``, i.e. the ratio
  ``max_u C_u(t_u) / T_visitx`` stays bounded by a constant across sizes.

The harness runs the coupled processes on random regular graphs over a sweep
and asserts both facts.
"""

from __future__ import annotations

from repro.experiments.coupling_experiment import run_coupling_experiment


class TestShape:
    def test_lemma13_and_bounded_congestion_over_a_sweep(self, benchmark):
        def sweep():
            return run_coupling_experiment(
                sizes=(64, 128, 256), runs_per_size=3, base_seed=0
            )

        result = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Lemma 13 is exact: it must hold for every vertex of every run.
        assert result.lemma13_always_holds()
        # Theorem 10's congestion constant: empirically small on regular graphs.
        assert result.max_congestion_ratio() < 15
        # The ratio should not blow up with size (compare first vs last size).
        first = result.summaries[result.sizes[0]].max_congestion_ratio
        last = result.summaries[result.sizes[-1]].max_congestion_ratio
        assert last < 3 * max(first, 1.0)

    def test_broadcast_times_of_coupled_pair_track_each_other(self, benchmark):
        def sweep():
            return run_coupling_experiment(sizes=(128, 256), runs_per_size=3, base_seed=5)

        result = benchmark.pedantic(sweep, rounds=1, iterations=1)
        for size in result.sizes:
            summary = result.summaries[size]
            assert 0.2 < summary.mean_broadcast_ratio < 5.0
