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

This engine is the oracle, and it builds no head: ``classify.prefix_terms``
builds bulk output on the records (``records.f3_terms``), with the engine
resumed at index a for the few terms up to the classify witness, and the
tests hold it equal to ``generate_prefix``.  ``classify`` simulates that
same window past an even seed, and ``records._certified_records`` starts
its proof of the records from f_3(1..5).

``check_cap(count, what)`` is the one check of the term cap
(GCDPERM_MAX_TERMS) for every request of the package; a buffer compares
inline against the cap it read, and every refusal has one message, whose
ints ``short_int`` writes: one past 20 digits shows as its first and last
five digits and its digit count.
"""

from __future__ import annotations

import math
import os

DEFAULT_MAX_TERMS = 5_000_000
MAX_TERMS_ENV = "GCDPERM_MAX_TERMS"


class LimitExceededError(RuntimeError):
    """A generation or enumeration request exceeded the configured cap."""


# The last (d, 10^(d - 5)) that short_int formed: neighbouring values share d.
_SHORT_POWER = (0, 1)


def short_int(value: int, most: int = 20) -> str:
    """str(value) for an int >= 0 of at most ``most`` digits.  A longer one
    shows as its first and last five digits and its digit count, and is
    never converted whole."""
    global _SHORT_POWER
    if value.bit_length() <= 3 * most:
        return str(value)
    # 2^(b - 1) <= value < 2^b for b bits: the digit count is d or d + 1.
    d = int((value.bit_length() - 1) * math.log10(2)) + 1
    last, power = _SHORT_POWER
    if last != d:
        power = 10 ** (d - 5)
        _SHORT_POWER = d, power
    head = value // power
    d += head >= 10**5  # a head of six digits
    return str(value) if d <= most else f"{str(head)[:5]}...{value % 10**5:05d} ({d} digits)"


def _over_cap(what: str, cap: int) -> LimitExceededError:
    """The one message of every refusal past the term cap."""
    return LimitExceededError(f"requested {what}; cap is {short_int(cap)} "
                              f"(set {MAX_TERMS_ENV} to raise it)")


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


def check_cap(count: int, what: str) -> None:
    """Refuse a request of count items past the term cap: raise
    LimitExceededError, whose message names what was requested."""
    cap = max_terms_cap()
    if count > cap:
        raise _over_cap(what, cap)


class SequenceBuffer:
    """Materialized stretch of f_a, 1-indexed like the tables it reproduces.

    Invariants maintained by construction:

    * all assigned values are pairwise distinct;
    * gcd(f(n), f(n-1)) = 1 for every n >= 3;
    * f(n) is minimal among unused values coprime to f(n-1);
    * the used values are exactly ``1.._low - 1`` and the set ``_above``.

    A buffer built from the seed holds f(1..n).  One built by ``resume``
    starts from a given state at index ``base`` and stores no term below
    it.  ``terms`` is the term store, ``terms[i] == f(base + i)`` (slot 0
    is padding when base is 0); treat it as read-only.  ``last_index`` is
    the last index generated, and so is ``len(buffer)`` below 2**63.
    ``head_max`` is the largest value of the given terms f(1..max(base, 2)).
    ``cap`` is the term cap read from GCDPERM_MAX_TERMS when the buffer is
    built; it bounds the indices past ``base``, not the seed.  ``pool_peak``
    is the most values ever left unused below the largest value assigned so
    far.
    """

    __slots__ = ("a", "base", "head_max", "cap", "pool_peak", "terms", "_low", "_above")

    def __init__(self, a: int):
        if a < 2:  # a = 1 would repeat f(1) = 1
            raise ValueError(f"seed must be >= 2, got {a}")
        self.a = a
        self.cap = max_terms_cap()
        self._start(0, [0, 1, a], 3 if a == 2 else 2, {a} if a > 2 else set())

    @classmethod
    def resume(cls, a: int, n: int, last: int, low: int, above: set[int]) -> "SequenceBuffer":
        """The buffer of f_a at index n, given f(n) = last, the smallest
        unused value low and the set of used values above it."""
        buf = cls(a)
        buf._start(n, [last], low, above)
        return buf

    def _start(self, base: int, terms: list[int], low: int, above: set[int]) -> None:
        """Set the state at index base: the term store, low and the used values above it."""
        self.base = base
        self.terms = terms
        self._low = low
        self._above = above
        self.head_max = max(above, default=low - 1)
        self.pool_peak = self.head_max - max(base, 2)

    @property
    def last_index(self) -> int:
        """The last index generated; ``len()`` raises OverflowError from 2**63 on."""
        return self.base + len(self.terms) - 1

    def __len__(self) -> int:
        return self.last_index

    def extend(self) -> int:
        """Append and return the next term."""
        self.extend_to(len(self) + 1)
        return self.terms[-1]

    def extend_to(self, n: int) -> None:
        """Grow the buffer through index n."""
        last_index = self.last_index
        if n <= last_index:
            return
        if n - self.base > self.cap:
            raise _over_cap(f"{short_int(n - self.base)} terms of f_{short_int(self.a)}", self.cap)
        terms = self.terms
        above = self._above
        low = self._low
        peak = self.pool_peak
        last = terms[-1]
        gcd = math.gcd
        for i in range(last_index + 1, n + 1):
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
