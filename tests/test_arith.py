from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.arith import (
    divisors,
    iroot,
    least_rotation_period,
    min_rotation,
    mobius,
    semigroup_tail_start,
    word_least_period,
)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_iroot_floor(x, k):
    r = iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def _bisect_root(x, k):
    """Floor k-th root by bisection on r**k <= x, as a reference."""
    lo, hi = 0, 1
    while hi**k <= x:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 160, 320, 1000])
def test_iroot_against_bisection(k):
    # around exact powers, where a seed or step that is one off shows, and
    # below 2^k, where the root is 0 or 1
    cases = [1, 2, 3, 2 ** (k - 1) + 1, 2**k - 1]
    for r in (2, 3, 7, 2**20 + 7, 3**40, 10**30 + 1):
        cases += [r**k - 1, r**k, r**k + 1]
    for x in cases:
        assert iroot(x, k) == _bisect_root(x, k), (x.bit_length(), k)


def _assert_least_period(w, p):
    n = len(w)
    assert n % p == 0
    assert w == w[:p] * (n // p)
    for q in divisors(n):
        if q < p:
            assert w != w[:q] * (n // q), (w, q)


@given(st.text(alphabet="ab", min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_word_period_divides_and_repeats(w):
    _assert_least_period(w, word_least_period(w))


@given(
    st.lists(st.sampled_from(["e1", "e10", "e2", "x"]), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_word_period_on_symbol_tuples(base, k):
    # Cycle.least_period passes tuples of edge ids, whose symbols are
    # multi-character strings
    w = tuple(base) * k
    p = word_least_period(w)
    _assert_least_period(w, p)
    assert k * len(base) % p == 0 and len(base) % p == 0


def test_word_period_examples():
    assert word_least_period("abab") == 2
    assert word_least_period("aba") == 3
    assert word_least_period("aabaab") == 3
    assert word_least_period("aaaaaa") == 1
    assert word_least_period("abaaba" "ab") == 8
    assert word_least_period(("e1", "e10", "e1", "e10")) == 2


@given(st.text(alphabet="ab", min_size=1, max_size=10), st.integers(min_value=0, max_value=9))
@settings(max_examples=100, deadline=None)
def test_min_rotation_invariant(w, shift):
    rotated = w[shift % len(w) :] + w[: shift % len(w)]
    assert min_rotation(w) == min_rotation(rotated)
    assert least_rotation_period(w) == least_rotation_period(rotated)


@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_semigroup_tail_certified(gens):
    gens = sorted(gens)
    t = semigroup_tail_start(gens)
    g = 0
    for x in gens:
        g = gcd(g, x)
    assert t % g == 0
    # everything from t on (multiples of the gcd) really is reachable
    limit = t + 4 * max(gens)
    reach = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for x in gens:
            if s + x <= limit and s + x not in reach:
                reach.add(s + x)
                frontier.append(s + x)
    for value in range(t, limit + 1, g):
        assert value in reach
