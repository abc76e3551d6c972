"""ecac.sampling against NumPy's default_rng, the reference it reproduces.

The golden lists pin seed 0's draws. A NumPy release that changed its
own stream would fail the NumPy side of these tests, while ecac's results
stay as they are.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecac.algorithms import build_algorithm
from ecac.data import Dataset
from ecac.density import SAMPLE_CAP, SAMPLE_SEED, pairwise_distance_percentiles
from ecac.errors import InvalidSpec
from ecac.optimizer import SelectionStrategy, identify_extended_centers
from ecac.pipeline import compute_centers
from ecac.sampling import Sampler

# (n, k) -> the first draws of choice(n, k, replace=False) at seed 0.
GOLDEN_CHOICE = {
    (20, 6): [4, 10, 8, 5, 0, 12],
    (20_000, 8): [17006, 1504, 330, 10220, 6155, 5394, 819, 12735],
    (10_001, 200): [6652, 8344, 3134, 4232, 1048, 9959, 4797, 1146],  # Floyd
    (10_001, 201): [9907, 8060, 3762, 8724, 3600, 9537, 5068, 1459],  # tail shuffle
    (10_001, 10_001): [676, 9968, 2323, 9370, 8460, 3595],
}
# integers(0, m) for these m in turn, from one seed-0 stream.
GOLDEN_BOUNDS = [5, 1, 7, 2, 100, 1_000_000, 3, 2**33]
GOLDEN_INTEGERS = [4, 0, 4, 1, 26, 307829, 0, 141971308]

SEEDS = st.integers(0, 2**70)


def numpy_choice(seed, n, k):
    return np.random.default_rng(seed).choice(n, size=k, replace=False)


@pytest.mark.parametrize("n, k", list(GOLDEN_CHOICE))
def test_seed_zero_choice_is_the_golden_list(n, k):
    golden = GOLDEN_CHOICE[(n, k)]
    assert Sampler(0).choice(n, k)[: len(golden)].tolist() == golden


@pytest.mark.parametrize("n, k", list(GOLDEN_CHOICE))
def test_numpy_still_draws_the_golden_choice(n, k):
    golden = GOLDEN_CHOICE[(n, k)]
    assert numpy_choice(0, n, k)[: len(golden)].tolist() == golden


def test_seed_zero_integers_are_the_golden_list():
    sampler = Sampler(0)
    assert [sampler.integer(m) for m in GOLDEN_BOUNDS] == GOLDEN_INTEGERS


def test_numpy_still_draws_the_golden_integers():
    rng = np.random.default_rng(0)
    # choice of an m-element array takes the index integers(0, m) draws.
    assert [int(rng.choice(np.arange(m))) if m < 2**20 else int(rng.integers(0, m))
            for m in GOLDEN_BOUNDS] == GOLDEN_INTEGERS


@st.composite
def choices(draw):
    """(seed, n, k) with n in 1..60,000 and k in 1..n, half of them in
    the tail-shuffle branch (n > 10,000 and k > n // 50)."""
    seed = draw(SEEDS)
    if draw(st.booleans()):
        n = draw(st.integers(10_001, 60_000))
        return seed, n, draw(st.integers(n // 50 + 1, n))
    n = draw(st.integers(1, 60_000))
    return seed, n, draw(st.integers(1, n if n <= 10_000 else n // 50))


@settings(max_examples=60, deadline=None)
@given(choices())
@example((0, 1, 1))
@example((2**64 + 3, 10_000, 10_000))
@example((2**33, 10_001, 10_001))
@example((5, 60_000, 1_200))
@example((5, 60_000, 1_201))
# Seeds of 129, 161, 200 and 257 bits: SeedSequence mixes the words
# beyond its pool into every pool word.
@example((2**128 + 5, 1_000, 10))
@example((2**160 + 3, 20_000, 15_000))
@example((2**199 + 1, 5, 5))
@example((2**256 + 9, 10_001, 300))
def test_choice_matches_numpy(case):
    seed, n, k = case
    assert np.array_equal(Sampler(seed).choice(n, k), numpy_choice(seed, n, k))


@settings(max_examples=40, deadline=None)
@given(choices())
def test_choice_without_the_final_shuffle_draws_the_same_set(case):
    seed, n, k = case
    assert np.array_equal(np.sort(Sampler(seed).choice(n, k, shuffle=False)),
                          np.sort(numpy_choice(seed, n, k)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.lists(st.integers(1, 2**40), min_size=1, max_size=30))
def test_integers_match_numpy_array_choice(seed, sizes):
    rng = np.random.default_rng(seed)
    sampler = Sampler(seed)
    for m in sizes:
        want = rng.choice(np.arange(m)) if m <= 5_000 else rng.integers(0, m)
        assert sampler.integer(m) == int(want)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 30_000), st.data())
def test_draws_after_a_choice_continue_numpy_s_stream(seed, n, data):
    # The 32-bit half left over by a choice is the next draw's low word.
    k = data.draw(st.integers(1, min(n, 2_000)))
    rng = np.random.default_rng(seed)
    rng.choice(n, size=k, replace=False)
    sampler = Sampler(seed)
    sampler.choice(n, k)
    assert [sampler.integer(m) for m in (2, 3, 1_000, 2**32, 7)] == [
        int(rng.integers(0, m)) for m in (2, 3, 1_000, 2**32, 7)
    ]


def test_the_percentile_sample_is_numpy_s():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(SAMPLE_CAP + 500, 2))
    sample = points[np.sort(np.random.default_rng(SAMPLE_SEED).choice(
        len(points), size=SAMPLE_CAP, replace=False))]
    diffs = sample[:, None, :] - sample[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))[np.triu_indices(SAMPLE_CAP, 1)]
    dists = np.sort(dists[dists > 0])
    (got,) = pairwise_distance_percentiles(Dataset(points), [0.02])
    assert got == dists[int(0.02 * dists.size)]


@pytest.mark.parametrize("seed", [-1, True, 1.5, 2.0, "3", None, np.float64(1.0)])
def test_a_bad_seed_is_invalid_spec(seed):
    with pytest.raises(InvalidSpec, match=re.escape(f"got {seed!r}")):
        Sampler(seed)


def test_a_numpy_integer_seed_is_the_same_seed():
    assert np.array_equal(Sampler(np.int64(7)).choice(50, 9), Sampler(7).choice(50, 9))


def test_library_calls_name_a_bad_seed():
    points = np.random.default_rng(1).normal(size=(40, 2))
    dataset = Dataset(points)
    with pytest.raises(InvalidSpec, match="got -1"):
        compute_centers(dataset, build_algorithm("kmeans", seed=-1), 3)
    with pytest.raises(InvalidSpec, match="got 1.5"):
        identify_extended_centers(dataset, [0, 1], 0.5, SelectionStrategy("random", seed=1.5))
    with pytest.raises(InvalidSpec, match="got True"):
        identify_extended_centers(dataset, [0, 1], 0.5, SelectionStrategy("random", seed=True))
