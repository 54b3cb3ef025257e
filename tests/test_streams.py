"""AgentStreams and RawStream against numpy itself: agent i's draws must be,
bit for bit, what np.random.default_rng([seed, 0, i]) draws, and churn's words
what default_rng([seed, 2]) outputs."""

import tracemalloc

import numpy as np
import pytest

from anonlearn.streams import AHEAD, UCAP, AgentStreams, RawStream, _seed_state

SEEDS = [0, 7, 2**32 + 1, 2**70]  # one, one, two and three entropy words
TAKES = [1, 13, 200, 1, 13]


def _reference(seed, n, k=None, start=0):
    """Per-agent Generators: bases of agents start..n-1 (if k), then one
    (rounds, n) block per entry of TAKES."""
    rngs = [np.random.default_rng([seed, 0, i]) for i in range(n)]
    bases = [int(rng.integers(k)) for rng in rngs[start:]] if k else None
    return bases, [np.array([rng.random(c) for rng in rngs]).T for c in TAKES]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,lanes", [(2, AHEAD), (100, 81), (20000, 1)])
def test_take_matches_default_rng(seed, n, lanes):
    # lane widths AHEAD, one in between and 1; the takes cross refills
    assert min(AHEAD, max(1, UCAP // n)) == lanes
    streams = AgentStreams(seed, n)
    for want in _reference(seed, n)[1]:
        got = streams.take(len(want))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 2**70])
@pytest.mark.parametrize("k", [21, 2**31 + 1])
def test_integers_then_take_matches_default_rng(seed, k):
    n, start = 300, 30  # agents below start draw no base, as fixed agents
    bases, blocks = _reference(seed, n, k, start)
    streams = AgentStreams(seed, n)
    got = streams.integers(k, start)
    assert got.dtype == np.int64 and got.tolist() == bases
    for want in blocks:
        assert streams.take(len(want)).tobytes() == want.tobytes()
    if k > 2**31:
        # about half the first words are rejected: some agents settle on the
        # low half of their first output, some on its buffered upper half,
        # some on a later output
        after = [np.random.default_rng([seed, 0, i]) for i in range(start, n)]
        one_output = [np.random.default_rng([seed, 0, i]) for i in range(start, n)]
        for rng, ref in zip(after, one_output):
            rng.integers(k)
            ref.bit_generator.advance(1)
        assert {rng.bit_generator.state["has_uint32"] for rng in after} == {0, 1}
        assert any(rng.bit_generator.state["state"] != ref.bit_generator.state["state"]
                   for rng, ref in zip(after, one_output))


def test_rejects_negative_seed_k_out_of_range_and_late_integers():
    with pytest.raises(ValueError, match="seed"):
        AgentStreams(-1, 4)
    with pytest.raises(ValueError, match="k=1"):
        AgentStreams(0, 4).integers(1, 0)
    streams = AgentStreams(0, 4)
    streams.take(1)
    with pytest.raises(ValueError, match="before any take"):
        streams.integers(5, 0)


def test_warm_take_allocates_little_beyond_its_result():
    # a refill advances the lanes in place on scratch arrays made at the
    # first one: a warm take(1) at n = 20 000 (one-round lanes, a refill per
    # take) allocates its (1, n) result and small ufunc buffers, not the
    # dozens of lane-sized temporaries of the 128-bit arithmetic
    n = 20000
    streams = AgentStreams(3, n)
    streams.take(1)
    streams.take(1)
    tracemalloc.start()
    try:
        streams.take(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n


def test_takes_straddling_refills_match_default_rng():
    # lanes of L = 81 rounds at n = 100: the third and fifth take(34) straddle
    # a refill (at rounds 81 and 162), the others fit in one
    n, seed = 100, 2**32 + 1
    assert min(AHEAD, max(1, UCAP // n)) == 81
    streams = AgentStreams(seed, n)
    rngs = [np.random.default_rng([seed, 0, i]) for i in range(n)]
    for _ in range(7):
        want = np.array([rng.random(34) for rng in rngs]).T
        assert streams.take(34).tobytes() == want.tobytes()


def test_warm_take_that_fits_its_refill_copies_nothing():
    # a take within one refill is a view of the refill buffer: at n = 20 000
    # (a refill per take(1)) a warm take allocates less than its own n doubles
    n = 20000
    streams = AgentStreams(3, n)
    streams.take(1)
    streams.take(1)
    tracemalloc.start()
    try:
        streams.take(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


CHURN_SEEDS = [0, 12345, 2**40 + 3]  # one, one and two entropy words


@pytest.mark.parametrize("seed", CHURN_SEEDS)
def test_seed_state_matches_seed_sequence(seed):
    got = [int(v) for v in _seed_state([seed, 2])]
    assert got == np.random.SeedSequence([seed, 2]).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("seed", CHURN_SEEDS)
def test_raw_stream_matches_random_raw(seed):
    # reads within a block of AHEAD words, across blocks and across refills,
    # each after a peek further ahead; then a skip past every word computed
    stream, ref = RawStream([seed, 2]), np.random.default_rng([seed, 2]).bit_generator
    for count in [1, AHEAD - 2, AHEAD + 1, 5 * AHEAD, 3, 3 * AHEAD - 7]:
        ahead = stream.peek(count + AHEAD).copy()
        got = stream.peek(count).copy()
        stream.skip(count)
        want = ref.random_raw(count)
        assert got.dtype == np.uint64 and got.tolist() == want.tolist()
        assert ahead[:count].tolist() == want.tolist()
    stream.skip(5 * AHEAD)
    assert stream.peek(2).tolist() == ref.random_raw(5 * AHEAD + 2)[-2:].tolist()
