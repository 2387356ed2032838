"""Generation engine for the greedy coprime permutations f_a.

A sequence starts f(1) = 1, f(2) = a (seed a >= 2) and continues greedily:
f(n) is the smallest natural number that has not appeared before and is
coprime to the previous term.  The rule is total (among any run of
consecutive unused candidates one is coprime to the last term), and the
resulting map is a permutation of the naturals.

The engine keeps the state that definition names: the smallest unused value
and the set of used values above it.  Each extension scans upward from the
smallest unused value, skipping used values and values sharing a factor
with the last term.  Away from jumps the set stays small and the scan
short, so extension is O(1) amortized.  That state and the last term are
all the future depends on, so ``SequenceBuffer.resume`` starts a buffer
from a given state at any index and stores no term below it.

Generation is inherently sequential: each term depends on the one before,
but callers grow a buffer in chunks with ``extend_to``, not term by term.
Buffers take no locks and the module starts no threads or processes.

This engine is the oracle and the head simulation: ``classify.prefix_terms``
builds bulk output from a short simulated head and a tail from the records
(``records.f3_terms``) or the identity, and the tests hold the two equal.
"""

from __future__ import annotations

import math
import os

DEFAULT_MAX_TERMS = 5_000_000
MAX_TERMS_ENV = "GCDPERM_MAX_TERMS"


class LimitExceededError(RuntimeError):
    """A generation or enumeration request exceeded the configured cap."""

    @classmethod
    def terms(cls, a: int, n: int, cap: int) -> "LimitExceededError":
        """The error for a request of n terms of f_a above the term cap."""
        return cls(
            f"requested {n} terms of f_{a}; cap is {cap} (set {MAX_TERMS_ENV} to raise it)"
        )


def max_terms_cap() -> int:
    """Term cap for a buffer; override with the GCDPERM_MAX_TERMS env var.

    A value that is not a positive integer raises LimitExceededError.
    """
    raw = os.environ.get(MAX_TERMS_ENV)
    if not raw:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise LimitExceededError(f"{MAX_TERMS_ENV} must be a positive integer, got {raw!r}")
    return cap


class SequenceBuffer:
    """Materialized stretch of f_a, 1-indexed like the tables it reproduces.

    Invariants maintained by construction:

    * all assigned values are pairwise distinct;
    * gcd(f(n), f(n-1)) = 1 for every n >= 3;
    * f(n) is minimal among unused values coprime to f(n-1);
    * the used values are exactly ``1.._low - 1`` and the set ``_above``.

    A buffer built from the seed holds f(1..n).  One built by ``resume``
    starts from a given state at index ``base`` and stores no term below
    it.  ``terms`` exposes the raw store, ``terms[i] == f(base + i)``
    (slot 0 is padding when base is 0), for hot loops; treat it as
    read-only.  ``len(buffer)`` is the last index generated.
    ``head_max`` is the largest value of the given terms f(1..max(base, 2)).
    ``cap`` is the term cap read from GCDPERM_MAX_TERMS when the buffer is
    built; it bounds the indices past ``base``, not the seed.  ``pool_peak``
    is the most values ever left unused below the largest value assigned so
    far.
    """

    __slots__ = ("a", "base", "head_max", "cap", "pool_peak", "_terms", "_low", "_above")

    def __init__(self, a: int):
        if a < 2:  # a = 1 would repeat f(1) = 1
            raise ValueError(f"seed must be >= 2, got {a}")
        self.a = a
        self.cap = max_terms_cap()
        self.base = 0
        self.head_max = a
        self._terms = [0, 1, a]
        self._low = 3 if a == 2 else 2
        self._above = {a} if a > 2 else set()
        self.pool_peak = a - 2

    @classmethod
    def resume(cls, a: int, n: int, last: int, low: int, above: set[int]) -> "SequenceBuffer":
        """The buffer of f_a at index n, given f(n) = last, the smallest
        unused value low and the set of used values above it."""
        buf = cls.__new__(cls)
        buf.a = a
        buf.cap = max_terms_cap()
        buf.base = n
        buf.head_max = max(above, default=low - 1)
        buf._terms = [last]
        buf._low = low
        buf._above = above
        buf.pool_peak = buf.head_max - n
        return buf

    def __len__(self) -> int:
        return self.base + len(self._terms) - 1

    def __getitem__(self, n: int) -> int:
        first = max(self.base, 1)
        if not first <= n <= len(self):
            raise IndexError(f"index {n} outside generated range {first}..{len(self)}")
        return self._terms[n - self.base]

    def __iter__(self):
        it = iter(self._terms)
        if not self.base:
            next(it)
        return it

    def __repr__(self) -> str:
        return f"SequenceBuffer(a={self.a}, terms={len(self)})"

    @property
    def terms(self) -> list[int]:
        """Live term store with terms[i] == f(base + i); slot 0 is padding when base is 0."""
        return self._terms

    def extend(self) -> int:
        """Append and return the next term."""
        self.extend_to(len(self) + 1)
        return self._terms[-1]

    def extend_to(self, n: int) -> None:
        """Grow the buffer through index n."""
        if n <= len(self):
            return
        if n - self.base > self.cap:
            raise LimitExceededError.terms(self.a, n - self.base, self.cap)
        terms = self._terms
        above = self._above
        low = self._low
        peak = self.pool_peak
        last = terms[-1]
        gcd = math.gcd
        for i in range(len(self) + 1, n + 1):
            c = low
            while c in above or gcd(c, last) != 1:
                c += 1
            if c == low:
                low += 1
                while low in above:
                    above.remove(low)
                    low += 1
            else:
                above.add(c)
            # Unused values below the running maximum M number M - i, and
            # M = f(j) for some j <= i, so the peak is the max of f(i) - i.
            if c - i > peak:
                peak = c - i
            terms.append(c)
            last = c
        self._low = low
        self.pool_peak = peak


def generate_prefix(a: int, n: int) -> SequenceBuffer:
    """Buffer holding f_a(1..n); requires a >= 2 and n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2 (f(1)=1 and f(2)=a are fixed), got {n}")
    buf = SequenceBuffer(a)
    buf.extend_to(n)
    return buf
