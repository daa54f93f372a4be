"""``DrawStream`` replays numpy's PCG64 ``Generator`` stream: numpy is the oracle.

Every operation is run on a stream over one Generator and, through numpy's
own methods, on a twin seeded alike.  The values must be equal and, whenever
the stream hands its Generator over, so must the two ``bit_generator.state``
dictionaries — position, buffered 32-bit half and all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import DrawStream, WeightedTable, replayed

TABLE = tuple(f"w{i}" for i in range(37))
WEIGHTS = (0.3, 0.0, 0.25, 0.05, 0.4, 0.0)
WEIGHTED = WeightedTable(range(len(WEIGHTS)), WEIGHTS)

# One value (draws nothing), tiny, just past 2**31 (Lemire rejects about every
# other draw), the last range of the 32-bit path, and the raw-32-bit range.
SPANS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31, 2**31 + 1, 2**31 + 2, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)
OPERATIONS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), SPANS),
    st.tuples(st.just("sized"), SPANS, st.integers(1, 80)),
    st.tuples(st.just("pick")),
    st.tuples(st.just("picks"), st.integers(1, 80)),
    st.tuples(st.just("sample"), st.integers(1, 60), st.integers(0, 60)),
    st.just(("weighted",)),
    st.tuples(
        st.just("handover"),
        st.sampled_from(["nothing", "normal", "choice", "shuffle", "random_k", "integers"]),
    ),
)


def apply_to_numpy(rng: np.random.Generator, op: tuple) -> object:
    kind = op[0]
    if kind == "random":
        return rng.random()
    if kind == "integers":
        return int(rng.integers(op[1], op[1] + op[2]))
    if kind == "sized":
        return rng.integers(0, op[1], size=op[2]).tolist()
    if kind == "pick":
        return str(rng.choice(TABLE))
    if kind == "picks":
        return [str(word) for word in rng.choice(TABLE, size=op[1])]
    if kind == "sample":
        return rng.choice(op[1], size=min(op[1], op[2]), replace=False).tolist()
    if kind == "weighted":
        return int(rng.choice(len(WEIGHTS), p=np.asarray(WEIGHTS) / np.sum(WEIGHTS)))
    return use_generator(rng, op[1])


def apply_to_stream(draws: DrawStream, op: tuple) -> object:
    kind = op[0]
    if kind == "random":
        return draws.random()
    if kind == "integers":
        return draws.integers(op[1], op[1] + op[2])
    if kind == "sized":
        return [draws.integers(0, op[1]) for _ in range(op[2])]
    if kind == "pick":
        return draws.pick(TABLE)
    if kind == "picks":
        return draws.picks(TABLE, op[1])
    if kind == "sample":
        return draws.sample(op[1], min(op[1], op[2]))
    if kind == "weighted":
        return draws.weighted(WEIGHTED)
    return use_generator(draws.handover(), op[1])


def use_generator(rng: np.random.Generator, how: str) -> object:
    """What a caller does with the Generator it was handed."""
    if how == "normal":
        return rng.normal(0.5, 2.0)
    if how == "choice":
        return rng.choice(40, size=3, replace=False).tolist()
    if how == "shuffle":
        items = list(range(9))
        rng.shuffle(items)
        return items
    if how == "random_k":
        return rng.random(13).tolist()
    if how == "integers":  # leaves a 32-bit half buffered for the stream to find
        return int(rng.integers(0, 1000))
    return None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    warm_up=st.integers(0, 3),
    operations=st.lists(OPERATIONS, min_size=1, max_size=120),
)
def test_stream_matches_numpy_and_hands_back_numpys_state(seed, warm_up, operations):
    twin, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for generator in (twin, rng):  # an odd count leaves a half buffered at the attach
        generator.integers(0, 10, size=warm_up)
    draws = DrawStream(rng)
    for op in operations:
        assert apply_to_stream(draws, op) == apply_to_numpy(twin, op), op
        if op[0] == "handover":
            assert rng.bit_generator.state == twin.bit_generator.state
    assert draws.handover() is rng
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.random() == twin.random()


def test_a_buffered_half_survives_doubles_and_a_block_boundary():
    twin, rng = np.random.default_rng(11), np.random.default_rng(11)
    draws = DrawStream(rng)
    # Word 0 serves its low half; 31 doubles then exhaust the first block of 32
    # words, so the next integer must come from the kept half, not a new block.
    expected = [int(twin.integers(0, 1000))] + twin.random(31).tolist()
    expected += [int(twin.integers(0, 1000)), int(twin.integers(0, 1000)), twin.random()]
    got = [draws.integers(0, 1000)] + [draws.random() for _ in range(31)]
    got += [draws.integers(0, 1000), draws.integers(0, 1000), draws.random()]
    assert got == expected
    draws.handover()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_the_rejection_loop_runs():
    class Counting(DrawStream):
        __slots__ = ("served",)

        def _next32(self) -> int:
            self.served += 1
            return super()._next32()

    twin = np.random.default_rng(3)
    draws = Counting(np.random.default_rng(3))
    draws.served = 0
    span = 2**31 + 1
    assert [draws.integers(0, span) for _ in range(400)] == twin.integers(0, span, size=400).tolist()
    assert draws.served > 600  # about two 32-bit values per accepted draw
    assert draws.picks(range(span), 50) == twin.integers(0, span, size=50).tolist()


def test_a_one_value_range_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    draws = DrawStream(rng)
    assert draws.integers(7, 8) == 7
    assert draws.pick(("only",)) == "only"
    assert draws.picks(("only",), 4) == ["only"] * 4
    assert draws.handover().bit_generator.state == before


def test_weighted_table_is_numpys_cumulative_table():
    weights = np.asarray([3.0, 0.0, 1.0, 7.0, 0.5])
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    table = WeightedTable.of(dict(zip("abcde", weights)))
    assert table.names == tuple("abcde")
    assert table.cdf == cdf.tolist()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_only_pcg64_is_replayed(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bit_generator(1)))


def test_what_numpy_serves_another_way_is_refused():
    draws = DrawStream(np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"2\*\*32"):
        draws.integers(0, 2**32 + 1)  # numpy's 64-bit path
    with pytest.raises(ValueError):
        draws.integers(5, 5)
    with pytest.raises(ValueError, match="sample"):
        draws.sample(10001, 3)  # numpy may tail-shuffle instead of Floyd
    with pytest.raises(ValueError, match="sample"):
        draws.sample(3, 4)


class TestReplayed:
    def test_a_bare_generator_is_handed_back_on_exit(self):
        twin, rng = np.random.default_rng(2), np.random.default_rng(2)
        with replayed(rng) as draws:
            assert draws.integers(0, 50) == twin.integers(0, 50)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_and_when_the_body_raises(self):
        twin, rng = np.random.default_rng(2), np.random.default_rng(2)
        with pytest.raises(RuntimeError):
            with replayed(rng) as draws:
                draws.random()
                raise RuntimeError("mid-draw")
        assert rng.random() == twin.random(2)[1]

    def test_a_stream_is_passed_through_to_its_owner(self):
        twin, rng = np.random.default_rng(4), np.random.default_rng(4)
        draws = DrawStream(rng)
        with replayed(draws) as inner:
            assert inner is draws
            first = inner.random()
        assert [first, draws.random()] == twin.random(2).tolist()
