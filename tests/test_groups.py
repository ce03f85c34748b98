import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.errors import CapacityError, DegreeOverflowError
from ergodec.groups import (
    Permutation,
    act,
    act_rows,
    check_degree,
    compose,
    enumerate_level,
    haar_sample,
    level_orbit,
    level_rows,
    ones_count,
    validate_config,
)
from ergodec.rng import substream

# chi-square 0.999 quantiles (table values) for df = cells - 1
CHI2_CRIT = {1: 10.828, 5: 20.515, 23: 49.728}


def test_compose_identity():
    g = Permutation({1: 3, 3: 2, 2: 1})
    assert compose(Permutation.identity(), g) == g
    assert compose(g, Permutation.identity()) == g


def test_compose_involution():
    s = Permutation.swap(1, 2)
    assert compose(s, s) == Permutation.identity()


def test_compose_associative_random_triples():
    rng = substream(101, 0)
    for _ in range(100):
        a = haar_sample(5, rng)
        b = haar_sample(5, rng)
        c = haar_sample(5, rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        # direct evaluation on every point, independent of dict equality
        for i in range(1, 6):
            assert left(i) == a(b(c(i)))
            assert right(i) == a(b(c(i)))


def test_inverse_roundtrip():
    rng = substream(101, 1)
    for _ in range(20):
        g = haar_sample(6, rng)
        assert compose(g, g.inverse()) == Permutation.identity()
        assert compose(g.inverse(), g) == Permutation.identity()


def test_mapping_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation({1: 2, 2: 3})


def test_haar_level_one_is_identity():
    rng = substream(3, 0)
    for _ in range(10):
        assert haar_sample(1, rng) == Permutation.identity()


def test_haar_degree_bound():
    rng = substream(3, 1)
    for _ in range(200):
        assert haar_sample(5, rng).degree <= 5


def test_haar_deterministic_per_seed():
    a = [haar_sample(6, substream(9, 4)) for _ in range(5)]
    b = [haar_sample(6, substream(9, 4)) for _ in range(5)]
    assert a == b


def test_haar_frequency_level_three():
    rng = substream(5, 0)
    draws = 60000
    counts = {}
    for _ in range(draws):
        g = haar_sample(3, rng)
        counts[g] = counts.get(g, 0) + 1
    assert len(counts) == 6
    sigma = (1 / 6 * 5 / 6 / draws) ** 0.5
    for c in counts.values():
        assert abs(c / draws - 1 / 6) <= 3 * sigma


@pytest.mark.parametrize("level,draws", [(2, 12000), (3, 60000), (4, 48000)])
def test_haar_chi_square_uniformity(level, draws):
    import math

    rng = substream(7, level)
    cells = math.factorial(level)
    counts = {g: 0 for g in enumerate_level(level)}
    for _ in range(draws):
        counts[haar_sample(level, rng)] += 1
    expected = draws / cells
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < CHI2_CRIT[cells - 1]


def test_enumerate_level_two():
    elems = list(enumerate_level(2))
    assert elems == [Permutation.identity(), Permutation.swap(1, 2)]


def test_enumerate_level_four_closure():
    elems = set(enumerate_level(4))
    assert len(elems) == 24
    for g, h in itertools.product(list(elems)[:8], repeat=2):
        assert compose(g, h) in elems


def test_enumerate_inverses_within_level():
    elems = set(enumerate_level(3))
    for g in elems:
        assert g.inverse() in elems


def test_enumerate_capacity_error():
    with pytest.raises(CapacityError):
        list(enumerate_level(9))


def test_act_identity():
    x = (1, 0, 1, 1, 0)
    assert act(Permutation.identity(), x) == x


def test_act_transposition():
    assert act(Permutation.swap(1, 2), (1, 0, 1)) == (0, 1, 1)


def test_act_moves_bit_to_image_position():
    g = Permutation({1: 3, 3: 1})
    # bit at 1 moves to 3, bit at 3 moves to 1
    assert act(g, (1, 1, 0)) == (0, 1, 1)


def test_act_compatibility_random():
    rng = substream(11, 0)
    for _ in range(1000):
        g = haar_sample(6, rng)
        h = haar_sample(6, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=16))
        assert act(compose(g, h), x) == act(g, act(h, x))


def test_act_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        act(Permutation.swap(1, 5), (1, 0))


_ONE_LINE = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 6), extra=st.integers(0, 4), data=st.data())
def test_act_rows_is_act_on_each_row(level, extra, data):
    window = level + extra
    size = data.draw(st.integers(0, 5))
    g = [data.draw(st.permutations(range(1, level + 1))) for _ in range(size)]
    x = [data.draw(st.lists(st.integers(0, 1), min_size=window, max_size=window))
         for _ in range(size)]
    g_rows = np.array(g, dtype=np.intp).reshape(size, level)
    x_rows = np.array(x, dtype=np.uint8).reshape(size, window)
    got = act_rows(g_rows, x_rows)
    assert got.dtype == np.uint8
    assert [tuple(r) for r in got.tolist()] == [
        act(Permutation.from_one_line(a), tuple(b)) for a, b in zip(g, x)]
    if extra:
        with pytest.raises(DegreeOverflowError):
            act_rows(np.tile(np.arange(1, window + 1), (size, 1)), x_rows[:, :level])


@pytest.mark.parametrize("level", range(1, 6))
def test_level_rows_are_the_enumeration_in_order(level):
    rows = level_rows(level)
    assert rows.shape == (math.factorial(level), level)
    assert [Permutation.from_one_line(r) for r in rows.tolist()] == list(enumerate_level(level))
    assert rows.tolist() == [list(p) for p in itertools.permutations(range(1, level + 1))]


@settings(max_examples=300, deadline=None)
@given(a=_ONE_LINE, b=_ONE_LINE, i=st.integers(1, 12), j=st.integers(1, 12),
       window=st.integers(0, 12))
def test_stored_degree_is_the_largest_moved_point(a, b, i, j, window):
    g, h = Permutation.from_one_line(a), Permutation.from_one_line(b)
    made = [g, Permutation.swap(i, j), g.compose(h), g.inverse(),
            pickle.loads(pickle.dumps(g))]
    for p in made:
        degree = max(p.support, default=0)
        assert p.degree == degree
        if degree > window:
            with pytest.raises(DegreeOverflowError):
                check_degree(p, window)
        else:
            check_degree(p, window)
    assert made[-1] == g


def test_validate_config_rejects_non_bits():
    with pytest.raises(ValueError):
        validate_config((0, 2, 1))


def test_ones_count_prefix():
    x = (1, 0, 1, 1, 0, 1)
    assert ones_count(x) == 4
    assert ones_count(x, 3) == 2


def test_ones_count_past_255_ones_on_uint8_bits():
    import numpy as np

    from ergodec.averaging import monomial_level_average

    x = (1, 0, 1) * 200 + (1,) * 3496  # 4096 coordinates, 200 of them 0
    bits = np.array(x, dtype=np.uint8)
    for prefix in (None, 300, 600, 4096):
        assert ones_count(bits, prefix) == ones_count(x, prefix)
        assert type(ones_count(bits, prefix)) is int
    assert ones_count(bits) == 3896
    ones = np.ones(4096, np.uint8)
    assert monomial_level_average(4096, (1,), ones) == 1
    want = monomial_level_average(600, (1, 2), x)
    assert monomial_level_average(600, (1, 2), bits) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(0, 1), min_size=6, max_size=10))
def test_level_orbit_is_the_orbit_of_the_level(level, bits):
    x = tuple(bits)  # coordinates above the level form the tail
    got = list(level_orbit(x, level))
    assert len(got) == len(set(got))
    assert set(got) == {act(k, x) for k in enumerate_level(level)}


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_haar_draws_and_compositions_equal_brute_force_permutations(level, seed):
    # haar_sample against the same stream read element by element
    new, old = substream(seed, 0), substream(seed, 0)
    g, h = haar_sample(level, new), haar_sample(level, new)
    for drawn in (g, h):
        images = old.permutation(level)
        brute = Permutation({i + 1: int(images[i]) + 1 for i in range(level)})
        assert drawn == brute and hash(drawn) == hash(brute)
    # compose against the two maps composed pointwise
    for a, b in ((g, h), (h, g), (g, g.inverse())):
        ab = a.compose(b)
        brute = Permutation({i: a(b(i)) for i in range(1, level + 1)})
        assert ab == brute and hash(ab) == hash(brute) and len({ab, brute}) == 1
        assert all(ab(i) == a(b(i)) for i in range(1, level + 2))
