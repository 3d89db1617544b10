"""Subsets of the cyclic group Z_n: separation, well-spread tests, reduction,
and the rotations of the canonical well-spread set made on demand.

Residues are 0-based throughout; "clockwise" means +1 mod n.  An arc of
length L starting at s is the residue window {s, s+1, ..., s+L-1} mod n.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter, sub
from typing import Iterable, Iterator

from .errors import InvalidParams, NotCoprime, NotWellSpread


@dataclass(frozen=True)
class CyclicSubset:
    """An unordered subset of Z_n, stored as a sorted residue tuple."""

    modulus: int
    elements: tuple[int, ...]

    def __init__(self, modulus: int, elements: Iterable[int]):
        if modulus < 1:
            raise InvalidParams(f"modulus must be positive, got {modulus}")
        elems = sorted(set(elements))
        if elems and not (0 <= elems[0] and elems[-1] < modulus):
            raise InvalidParams(f"residues out of range for Z_{modulus}: {elems}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "elements", tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    @classmethod
    def from_sorted(cls, modulus: int, elements: tuple[int, ...]) -> "CyclicSubset":
        """The subset with these residues, which the caller guarantees are
        sorted, distinct and inside Z_modulus; nothing is checked or sorted."""
        out = object.__new__(cls)
        object.__setattr__(out, "modulus", modulus)
        object.__setattr__(out, "elements", elements)
        return out

    def rotate(self, t: int) -> "CyclicSubset":
        """Clockwise rotation: every element shifted by +t mod n
        (`rotated_residues`)."""
        n = self.modulus
        return CyclicSubset.from_sorted(n, rotated_residues(self.elements, n, t))

    def __repr__(self) -> str:
        inner = ",".join(str(x) for x in self.elements)
        return f"{{{inner}}}/Z{self.modulus}"


def rotated_residues(es: tuple[int, ...], n: int, t: int) -> tuple[int, ...]:
    """The sorted residues es of Z_n, each shifted by +t mod n, still sorted.

    The residues from n-t upward wrap to the front, so the tuple is split
    there instead of sorted again.
    """
    t %= n
    cut = bisect_left(es, n - t)
    return tuple(map((t - n).__add__, es[cut:])) + tuple(map(t.__add__, es[:cut]))


def rotations(es: tuple[int, ...], n: int, shifts: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """`rotated_residues(es, n, t)` for each t in shifts, in order.

    Each rotation is the previous one (es before the first) moved on by the
    step d between their shifts, its residues read from a table of
    x + d mod n.  The table is rebuilt only when the step changes, so memory
    stays O(n) for any shifts, and the rotations share n int objects instead
    of each allocating its own.
    """
    row, at = es, 0
    step, table = None, ()
    for t in shifts:
        t %= n
        d = (t - at) % n
        if d != step:
            step, table = d, tuple(range(d, n)) + tuple(range(d))
        # row + d mod n, wrapping before index cut
        if len(row) > 1:
            shifted = itemgetter(*row)(table)
        else:  # itemgetter of one index returns the item, not a 1-tuple
            shifted = tuple(map(table.__getitem__, row))
        cut = bisect_left(row, n - d)
        row, at = shifted[cut:] + shifted[:cut], t
        yield row


def is_r_separated(s: CyclicSubset, r: int) -> bool:
    """Every pair x != y satisfies r <= |x - y| <= n - r (plain integer difference)."""
    if r < 1:
        raise InvalidParams(f"separation must be >= 1, got {r}")
    n = s.modulus
    es = s.elements
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            d = es[j] - es[i]  # sorted, so d > 0
            if not (r <= d <= n - r):
                return False
    return True


def is_well_spread(s: CyclicSubset) -> bool:
    """Equal-length arcs (lengths 1..n-1) contain counts of s differing by at most 1.

    Tested on the gap word instead of arc by arc.  By `is_well_spread_dual`
    this holds exactly when, for every c, the minimal arcs holding c
    members differ in length by at most 1.  At c = 2 that says every gap
    between cyclically consecutive members is q or q + 1, q = n // k (the
    gaps sum to n).  The minimal arc holding c + 1 members is then
    1 + c*q plus the number of long gaps among c consecutive gaps, so the
    lengths for every c agree within 1 exactly when the positions of the
    long gaps, a subset of Z_k, are themselves well spread.  Repeating on
    (k, those positions) is Euclid's algorithm on (n, k): O(k) list work in
    all, and no n-bit masks.
    """
    n, es = s.modulus, s.elements
    while es:
        k = len(es)
        q = n // k
        gaps = list(map(sub, es[1:], es))
        gaps.append(es[0] + n - es[-1])
        if not {q, q + 1}.issuperset(gaps):
            return False
        n, es = k, [i for i, gap in enumerate(gaps) if gap != q]
    return True


def is_well_spread_dual(s: CyclicSubset) -> bool:
    """Inclusion-minimal arcs containing exactly c elements (c = 1..|s|) have
    lengths differing by at most 1.

    A minimal arc holding exactly c elements runs from one element to the
    (c-1)-th next element, so only those |s| windows need checking per c.
    """
    n = s.modulus
    es = s.elements
    k = len(es)
    if k == 0 or k == n:
        return True
    for c in range(1, k + 1):
        lo = hi = None
        for i in range(k):
            j = (i + c - 1) % k
            length = (es[j] - es[i]) % n + 1
            if lo is None:
                lo = hi = length
            elif length < lo:
                lo = length
            elif length > hi:
                hi = length
        if hi - lo > 1:
            return False
    return True


def canonical_well_spread(n: int, k: int) -> CyclicSubset:
    """The mechanical-word witness {floor(i*n/k) : 0 <= i < k}; checked on exit."""
    if not (0 <= k <= n) or n < 1:
        raise InvalidParams(f"need 0 <= k <= n with n >= 1, got n={n} k={k}")
    s = CyclicSubset(n, (i * n // k for i in range(k)))
    if len(s) != k or not is_well_spread(s):
        raise NotWellSpread(f"canonical construction failed for n={n} k={k}: {s}")
    return s


def _prime_divisors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


class CanonicalRotations(Sequence):
    """The distinct rotations of the canonical well-spread k-subset of Z_n,
    1 <= k < n, as an immutable sequence: item u is the canonical set
    rotated by u, for u < n/gcd(n,k).  They are the labels of Q(n,k).

    An item is made the first time it is read and then kept, so every read
    returns the same object; iterating makes all missing items in one
    `rotations` pass.  The sequence equals the tuple of its items in length,
    indexing, slices (which return tuples), iteration order, == either way
    round, and hash.
    """

    __slots__ = ("canon", "_made", "_missing")

    def __init__(self, n: int, k: int):
        canon = self.canon = canonical_well_spread(n, k)
        count = n // gcd(n, k)
        # the rotations are distinct over count steps and the last one plus
        # one step is the first exactly when canon's least period is count:
        # count is a period and count/p is none for any prime p dividing it
        # (the periods are the multiples of the least one)
        es = canon.elements
        if rotated_residues(es, n, count) != es:
            raise AssertionError("base-cycle order broken: final rotation misses the start")
        if any(rotated_residues(es, n, count // p) == es for p in _prime_divisors(count)):
            raise AssertionError(f"rotations of {canon} not distinct over {count} steps")
        self._made: list[CyclicSubset | None] = [None] * count
        self._missing = count

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, i):
        made = self._made
        if isinstance(i, slice):
            return tuple(self._filled(range(*i.indices(len(made)))))
        lab = made[i]
        if lab is None:
            n = self.canon.modulus
            es = rotated_residues(self.canon.elements, n, i % len(made))
            lab = made[i] = CyclicSubset.from_sorted(n, es)
            self._missing -= 1
        return lab

    def __iter__(self) -> Iterator[CyclicSubset]:
        return iter(self._filled(range(len(self._made))))

    def _filled(self, ids: range) -> list[CyclicSubset]:
        """The items of ids, making the missing ones in one pass."""
        made = self._made
        todo = [u for u in ids if made[u] is None] if self._missing else ()
        if todo:
            n = self.canon.modulus
            for u, es in zip(todo, rotations(self.canon.elements, n, todo)):
                made[u] = CyclicSubset.from_sorted(n, es)
            self._missing -= len(todo)
        return made if ids == range(len(made)) else list(map(made.__getitem__, ids))

    def __eq__(self, other) -> bool:
        if isinstance(other, CanonicalRotations):  # the items follow from these two
            return self.canon == other.canon and len(self) == len(other)
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CanonicalRotations({self.canon.modulus}, {len(self.canon)})"

    def rotation_of(self, es: tuple[int, ...]) -> int | None:
        """The u whose item has the sorted residues es, or None; O(k).

        The canonical set {floor(i*n/k)} holds x exactly when
        (x*k - 1) mod n >= n - k.  So item u holds the residues x whose
        x*k mod n runs over the multiples of gcd(n,k) from u*k - k + gcd(n,k)
        up to u*k, mod n.  The top of that run gives u, and one comparison
        confirms it.
        """
        n, k, count = self.canon.modulus, len(self.canon), len(self._made)
        ell = n // count
        phases = {x * k % n for x in es}
        tops = [p for p in phases if (p + ell) % n not in phases]
        if len(tops) != 1:
            return None
        u = tops[0] // ell * pow(k // ell, -1, count) % count
        return u if rotated_residues(self.canon.elements, n, u) == es else None


@dataclass(frozen=True)
class CriticalParams:
    """Least positive (a, b) with a*k = b*n - 1."""

    a: int
    b: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.a, self.b)


def critical_params(n: int, k: int) -> CriticalParams:
    if not (1 <= k < n):
        raise InvalidParams(f"need 1 <= k < n, got n={n} k={k}")
    if gcd(n, k) != 1:
        raise NotCoprime(f"critical params need gcd(n,k)=1, got gcd({n},{k})={gcd(n, k)}")
    for b in range(1, k + 1):
        if (b * n - 1) % k == 0:
            return CriticalParams((b * n - 1) // k, b)
    raise AssertionError(f"no solution scanning b=1..{k} for n={n}")  # unreachable


@dataclass(frozen=True)
class ReductionStep:
    cycle_length: int
    set_size: int
    quotient: int
    remainder: int
    surviving: CyclicSubset


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    terminal: CyclicSubset


def euclid_reduce(s: CyclicSubset) -> ReductionTrace:
    """Cycle-shrinking reduction mirroring the Euclidean algorithm.

    Each step removes quotient-1 residues clockwise after every element,
    relabels the survivors, and continues with the complement on the shorter
    cycle.  Terminates when the remainder hits 0; the terminal set has
    gcd(n, |s|) elements.
    """
    n = s.modulus
    k = len(s)
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"reduction needs 1 <= |s| <= n/2, got |s|={k}, n={n}")
    if not is_well_spread(s):
        raise NotWellSpread(f"{s} is not well-spread")
    steps: list[ReductionStep] = []
    m = n
    cur = list(s.elements)
    while True:
        kk = len(cur)
        q, r = divmod(m, kk)
        # neighbouring gaps of a well-spread set are q or q+1; removal windows
        # x+1..x+q-1 therefore stay inside gaps and miss every element
        removed = set()
        for x in cur:
            for d in range(1, q):
                removed.add((x + d) % m)
        if removed & set(cur):
            raise AssertionError(f"removal hit an element; {cur} not well-spread on Z_{m}")
        survivors = sorted(x for x in range(m) if x not in removed)
        m2 = len(survivors)
        if m2 != kk + r:
            raise AssertionError(f"expected shrunken cycle {kk + r}, got {m2}")
        rank = {x: i for i, x in enumerate(survivors)}
        cur_relabeled = sorted(rank[x] for x in cur)
        if r == 0:
            terminal = CyclicSubset(m2, cur_relabeled)
            steps.append(ReductionStep(m, kk, q, r, terminal))
            break
        kept = set(cur_relabeled)
        nxt = CyclicSubset(m2, (i for i in range(m2) if i not in kept))
        if not is_well_spread(nxt):
            raise AssertionError(f"surviving set {nxt} lost well-spreadness")
        steps.append(ReductionStep(m, kk, q, r, nxt))
        m = m2
        cur = list(nxt.elements)
    if len(terminal) != gcd(n, k):
        raise AssertionError(f"terminal size {len(terminal)} != gcd({n},{k})")
    return ReductionTrace(tuple(steps), terminal)
