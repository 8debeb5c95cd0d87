"""Unit tests for deterministic named random streams."""

from repro.simulation.rng import RandomStreams, derive_seed


def test_same_seed_same_sequence():
    a = RandomStreams(seed=7).get("x").random(5).tolist()
    b = RandomStreams(seed=7).get("x").random(5).tolist()
    assert a == b


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("x").random(5).tolist()
    b = RandomStreams(seed=2).get("x").random(5).tolist()
    assert a != b


def test_streams_are_independent():
    streams = RandomStreams(seed=3)
    before = streams.get("a").random(3).tolist()
    # Drawing from stream b must not perturb stream a's continuation.
    fresh = RandomStreams(seed=3)
    fresh.get("b").random(100)
    after_first = fresh.get("a").random(3).tolist()
    assert before == after_first


def test_get_returns_same_generator_instance():
    streams = RandomStreams(seed=0)
    assert streams.get("s") is streams.get("s")


def test_spawn_is_deterministic_and_distinct():
    parent = RandomStreams(seed=9)
    child1 = parent.spawn("app-1").get("x").random(3).tolist()
    child1_again = RandomStreams(seed=9).spawn("app-1").get("x").random(3).tolist()
    child2 = parent.spawn("app-2").get("x").random(3).tolist()
    assert child1 == child1_again
    assert child1 != child2


def test_derive_seed_stable_values():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_seed_property():
    assert RandomStreams(seed=11).seed == 11
