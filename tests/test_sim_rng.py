"""Tests for reproducible random streams."""

from repro.sim import substream


class TestSubstream:
    def test_same_seed_and_key_reproduce(self):
        a = substream(7, "arrivals").random(5)
        b = substream(7, "arrivals").random(5)
        assert (a == b).all()

    def test_different_keys_are_independent_streams(self):
        a = substream(7, "arrivals").random(5)
        b = substream(7, "service").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = substream(1, "x").random(5)
        b = substream(2, "x").random(5)
        assert not (a == b).all()

    def test_compound_keys(self):
        a = substream(3, "server", 0).random(3)
        b = substream(3, "server", 1).random(3)
        assert not (a == b).all()
