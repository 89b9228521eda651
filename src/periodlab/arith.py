"""Small exact-arithmetic helpers: divisors, Möbius, integer roots, coin-problem DP.

Everything here works on plain Python integers and is pure; nothing holds
state between calls.
"""

from __future__ import annotations

from math import gcd, isqrt, log2

MOBIUS_CAP = 10**6


class ResourceLimitExceeded(Exception):
    """Raised when a computation would pass one of its named caps."""


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """Möbius function by trial division. Capped at MOBIUS_CAP."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MOBIUS_CAP:
        raise ResourceLimitExceeded(
            f"mobius horizon cap exceeded: {n} > {MOBIUS_CAP}"
        )
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer (Newton on ints).

    The seed is 2^(log2(x)/k) from x's leading bits, rounded up. One Newton
    step from any positive r lands at or above the floor root (the AM-GM
    inequality), after which the iteration decreases to it; the exact
    r**k corrections at the end make the result independent of the seed.
    """
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return isqrt(x)
    e = log2(x) / k
    q = int(e)
    if q < 53:
        r = int(2.0**e) + 1
    else:
        r = (int(2.0 ** (e - q + 52)) + 1) << (q - 52)
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        t = ((k - 1) * r + x // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def word_least_period(w) -> int:
    """Least p such that w is a repetition of its length-p prefix (p | len(w)).

    The KMP prefix function gives the longest proper border b of w, so
    n - b is the least period of w as a string; w is a repetition of its
    prefix of that length when it divides n, and primitive otherwise.
    """
    n = len(w)
    if n == 0:
        raise ValueError("empty word")
    border = [0] * n
    k = 0
    for i in range(1, n):
        c = w[i]
        while k and c != w[k]:
            k = border[k - 1]
        if c == w[k]:
            k += 1
        border[i] = k
    p = n - k
    return p if n % p == 0 else n


def least_rotation_period(w) -> int:
    """Least period of the bi-infinite repetition of w.

    Equals len(w) exactly when w is primitive (not a proper power).
    """
    return word_least_period(w)


def min_rotation(w):
    """Lexicographically least rotation of a sequence (Booth-style, simple form)."""
    n = len(w)
    doubled = tuple(w) + tuple(w)
    best = 0
    for i in range(1, n):
        if doubled[i : i + n] < doubled[best : best + n]:
            best = i
    return doubled[best : best + n]


def semigroup_tail_start(generators) -> int:
    """Certified t such that every multiple of g = gcd(generators) with value >= t
    is a nonnegative combination of the generators.

    Determined by coin-problem DP: once g-multiples form a run of length
    min(generators)/g, all later multiples are reachable.
    """
    gens = sorted(set(generators))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive")
    g = 0
    for x in gens:
        g = gcd(g, x)
    reduced = [x // g for x in gens]
    a0 = reduced[0]
    if a0 == 1:
        return g
    bound = a0 * reduced[-1] + a0  # past the Frobenius number of the reduced set
    reach = bytearray(bound + 1)
    reach[0] = 1
    for x in reduced:
        for s in range(x, bound + 1):
            if reach[s - x]:
                reach[s] = 1
    run = 0
    for s in range(bound + 1):
        run = run + 1 if reach[s] else 0
        if run == a0:
            return g * (s - a0 + 1)
    raise AssertionError("coin DP bound too small")  # unreachable by Chicken McNugget
