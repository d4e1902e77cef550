"""Tests for deterministic RNG management (repro.core.rng)."""

from __future__ import annotations

import numpy as np

from repro.core.rng import derive_seed, make_rng


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_from_none_returns_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_passthrough_of_existing_generator(self):
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_from_seed_sequence(self):
        sequence = np.random.SeedSequence(99)
        generator = make_rng(sequence)
        assert isinstance(generator, np.random.Generator)


class TestDeriveSeed:
    def test_same_components_same_seed(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_different_components_differ(self):
        seeds = {
            derive_seed(1, "a", 0),
            derive_seed(1, "a", 1),
            derive_seed(1, "b", 0),
            derive_seed(2, "a", 0),
        }
        assert len(seeds) == 4

    def test_result_is_non_negative_int(self):
        seed = derive_seed(123, "experiment", 7)
        assert isinstance(seed, int)
        assert seed >= 0

