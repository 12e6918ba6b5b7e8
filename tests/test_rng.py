from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf.rng import SplitMix64, absorb, derive_seed, rejection_limits, stream


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_known_values_pinned():
    # Golden values: any change here breaks every persisted dataset.
    rng = SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535


def test_derive_seed_distinguishes_paths():
    seeds = {
        derive_seed(1, "set", 0),
        derive_seed(1, "set", 1),
        derive_seed(1, "table", 0),
        derive_seed(1, 0, "set"),
        derive_seed(2, "set", 0),
    }
    assert len(seeds) == 5


def test_derive_seed_deterministic():
    assert derive_seed(9, "problem", "birds-x") == derive_seed(9, "problem", "birds-x")


@given(st.integers(min_value=1, max_value=1000), st.integers())
def test_below_in_range(n, seed):
    rng = SplitMix64(seed)
    assert 0 <= rng.below(n) < n


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_shuffle_is_permutation():
    rng = SplitMix64(3)
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def _cycle_orbit(mapping, start):
    seen = [start]
    node = mapping[start]
    while node != start:
        seen.append(node)
        node = mapping[node]
    return seen


@given(st.integers())
def test_cycle_is_single_full_cycle(seed):
    rng = SplitMix64(seed)
    items = ["a", "b", "c", "d", "e"]
    mapping = rng.cycle(items)
    assert sorted(mapping) == sorted(mapping.values())
    assert len(_cycle_orbit(mapping, "a")) == len(items)


def test_cycle_uniform_over_three_elements():
    # 3 elements admit exactly two full cycles; both should appear roughly
    # equally often.
    counts = Counter()
    for seed in range(2000):
        mapping = stream(seed, "t").cycle(("x", "y", "z"))
        counts[tuple(sorted(mapping.items()))] += 1
    assert len(counts) == 2
    low, high = sorted(counts.values())
    assert low > 800


def test_cycle_needs_two_items():
    with pytest.raises(ValueError):
        SplitMix64(0).cycle(["only"])


_BOUNDS = st.lists(
    st.sampled_from([1, 2, 3, 41]) | st.integers(1, 2**64) | st.integers(2**63, 2**64),
    max_size=30,
)


def _reference_below(rng, n):
    """Uniform in [0, n) by one loop over ``next_u64``, redrawing past the last multiple of n."""
    if n == 1:
        return 0
    limit = 2**64 - 2**64 % n
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % n


def _reference_fisher_yates(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = _reference_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _reference_sattolo(rng, items):
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _reference_below(rng, i)
        out[i], out[j] = out[j], out[i]
    return dict(zip(items, out))


_SEEDS = st.integers(0, 2**64 - 1)


@given(_SEEDS, _BOUNDS)
def test_below_and_below_each_make_the_draws_of_the_reference_loop(seed, bounds):
    # Bounds past 2**63 reject about half their draws, so the redraw path runs too.
    batch, single, reference = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    expected = [_reference_below(reference, n) for n in bounds]
    assert batch.below_each(rejection_limits(bounds)) == expected
    assert [single.below(n) for n in bounds] == expected
    assert batch.next_u64() == single.next_u64() == reference.next_u64()


@pytest.mark.parametrize("length", range(13))
@given(seed=_SEEDS)
def test_shuffle_is_fisher_yates_over_the_reference_loop(length, seed):
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(length)), list(range(length))
    rng.shuffle(items)
    _reference_fisher_yates(reference, expected)
    assert items == expected
    assert rng.next_u64() == reference.next_u64()


@pytest.mark.parametrize("length", range(2, 13))
@given(seed=_SEEDS)
def test_cycle_is_sattolo_over_the_reference_loop(length, seed):
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    items = [f"g{i}" for i in range(length)]
    assert rng.cycle(items) == _reference_sattolo(reference, items)
    assert rng.next_u64() == reference.next_u64()


def test_a_bound_of_one_draws_nothing():
    rng = SplitMix64(5)
    assert rng.below_each(rejection_limits([1, 1])) == [0, 0]
    assert rng.next_u64() == SplitMix64(5).next_u64()


@pytest.mark.parametrize("bound", [0, -3])
def test_rejection_limits_refuse_a_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        rejection_limits([2, bound])


@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.text(max_size=12) | st.integers(-(2**70), 2**70), max_size=3),
    st.lists(st.text(max_size=12) | st.integers(-(2**70), 2**70), max_size=3),
)
def test_absorb_continues_derive_seed(root, head, tail):
    assert absorb(derive_seed(root, *head), *tail) == derive_seed(root, *head, *tail)
