"""Tests for deterministic RNG derivation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_seed, rng_from


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_qualifier_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_root_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_in_valid_range(self):
        seed = derive_seed(123456789, "x", "y", "z")
        assert 0 <= seed < 2**63 - 1


class TestRngFrom:
    def test_same_path_same_stream(self):
        a = rng_from(3, "doc", 5).random(10)
        b = rng_from(3, "doc", 5).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_path_different_stream(self):
        a = rng_from(3, "doc", 5).random(10)
        b = rng_from(3, "doc", 6).random(10)
        assert not np.array_equal(a, b)
