"""Generation engine for the greedy coprime permutations f_a.

A sequence starts f(1) = 1, f(2) = a (seed a >= 2) and continues greedily:
f(n) is the smallest natural number that has not appeared before and is
coprime to the previous term.  The rule is total (among any run of
consecutive unused candidates one is coprime to the last term), and the
resulting map is a permutation of the naturals.

The engine keeps the unused values below the largest assigned value in a
small ordered pool.  Each extension scans the pool in ascending order and
then walks upward from the frontier, the smallest value above everything
assigned so far; values skipped on the way join the pool.  Away from jumps
the pool stays tiny, so extension is O(1) amortized.

Generation is inherently sequential: each term depends on the one before,
but callers grow a buffer in chunks with ``extend_to``, not term by term.
Buffers take no locks and the module starts no threads or processes.

This engine is the general path, for every seed, and the oracle for f_3:
bulk f_3 output is built from the records instead (``records.f3_terms``),
and the tests hold the two equal.
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
    """Materialized prefix f_a(1..n), 1-indexed like the tables it reproduces.

    Invariants maintained by construction:

    * all assigned values are pairwise distinct;
    * gcd(f(n), f(n-1)) = 1 for every n >= 3;
    * f(n) is minimal among unused values coprime to f(n-1);
    * the unused values are exactly ``pool + [frontier, frontier+1, ...)``.

    ``terms`` exposes the raw 1-indexed store (slot 0 is padding) for hot
    loops; treat it as read-only.
    """

    __slots__ = (
        "a",
        "pool_peak",
        "_terms",
        "_pool",
        "_head",
        "_frontier",
        "_cap",
    )

    def __init__(self, a: int, max_terms: int | None = None):
        if a < 2:  # a = 1 would repeat f(1) = 1
            raise ValueError(f"seed must be >= 2, got {a}")
        self.a = a
        self._cap = max_terms_cap() if max_terms is None else max_terms
        if a > self._cap:
            raise LimitExceededError(f"seed {a} exceeds the term cap {self._cap}")
        self._terms = [0, 1, a]
        if a == 2:
            self._pool = []
            self._frontier = 3
        else:
            self._pool = list(range(2, a))
            self._frontier = a + 1
        self._head = 0
        self.pool_peak = len(self._pool)

    def __len__(self) -> int:
        return len(self._terms) - 1

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self):
            raise IndexError(f"index {n} outside generated range 1..{len(self)}")
        return self._terms[n]

    def __iter__(self):
        it = iter(self._terms)
        next(it)
        return it

    def __repr__(self) -> str:
        return f"SequenceBuffer(a={self.a}, terms={len(self)})"

    @property
    def terms(self) -> list[int]:
        """Live term store with terms[n] == f(n); slot 0 is padding."""
        return self._terms

    @property
    def pool(self) -> tuple[int, ...]:
        """Unassigned values below the frontier, ascending (a snapshot)."""
        return tuple(self._pool[self._head :])

    @property
    def frontier(self) -> int:
        """Smallest value above everything assigned so far."""
        return self._frontier

    def extend(self) -> int:
        """Append and return the next term."""
        self.extend_to(len(self) + 1)
        return self._terms[-1]

    def extend_to(self, n: int) -> None:
        """Grow the prefix so that it holds at least n terms."""
        if n <= len(self):
            return
        if n > self._cap:
            raise LimitExceededError.terms(self.a, n, self._cap)
        terms = self._terms
        pool = self._pool
        head = self._head
        frontier = self._frontier
        peak = self.pool_peak
        last = terms[-1]
        gcd = math.gcd
        for _ in range(len(terms), n + 1):
            v = 0
            for j in range(head, len(pool)):
                c = pool[j]
                if gcd(c, last) == 1:
                    v = c
                    if j == head:
                        head += 1
                    else:
                        del pool[j]
                    break
            if not v:
                c = frontier
                while gcd(c, last) != 1:
                    c += 1
                if c != frontier:
                    pool.extend(range(frontier, c))
                    size = len(pool) - head
                    if size > peak:
                        peak = size
                v = c
                frontier = c + 1
            terms.append(v)
            last = v
            if head > 1024:
                del pool[:head]
                head = 0
        self._head = head
        self._frontier = frontier
        self.pool_peak = peak


def generate_prefix(a: int, n: int, max_terms: int | None = None) -> SequenceBuffer:
    """Buffer holding f_a(1..n); requires a >= 2 and n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2 (f(1)=1 and f(2)=a are fixed), got {n}")
    buf = SequenceBuffer(a, max_terms=max_terms)
    buf.extend_to(n)
    return buf
