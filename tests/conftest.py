import math

import pytest

from gcdperm import generate_prefix, record_values

MILLION = 1_000_000


@pytest.fixture(scope="session")
def f3_million():
    """One shared million-term f_3 prefix for the heavy checks."""
    return generate_prefix(3, MILLION)


@pytest.fixture(scope="session")
def records_million():
    """All f_3 record values up to one million (plus a little headroom)."""
    return record_values(MILLION + 1000)


def _naive_prefix(a, n):
    # The definition as stated: f(1) = 1, f(2) = a, then the smallest value
    # not used so far that is coprime to the previous term.  Slot 0 is 0.
    terms = [0, 1, a]
    used = {1, a}
    low = 2
    while len(terms) <= n:
        while low in used:
            low += 1
        c = low
        while c in used or math.gcd(c, terms[-1]) != 1:
            c += 1
        used.add(c)
        terms.append(c)
    return terms[: n + 1]


@pytest.fixture(scope="session")
def naive_prefix():
    """The set-based generator naive_prefix(a, n) -> f_a(0..n), the oracle of the engine."""
    return _naive_prefix
