"""Prime encoding of itemsets.

Every item id in a universe gets a distinct prime, ascending id to ascending
prime starting at 2. An itemset then encodes to the product of its primes: a
square-free positive integer that is 1 exactly for the empty set. The payoff
is that subset queries turn into integer divisibility: q's itemset is
contained in p's itemset if and only if q divides p. Products of even modest
itemsets overflow machine words, so values are plain Python ints throughout.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, log, prod
from operator import lt
from typing import Iterable

Itemset = tuple[int, ...]
"""Canonical itemset: strictly ascending, duplicate-free item ids."""


class UnknownItemError(KeyError):
    """An item id is not covered by the prime table it was used with."""


class ForeignPrimeError(ValueError):
    """A value is not a square-free product of the table's primes."""


def as_itemset(items: Iterable[int]) -> Itemset:
    """Canonicalize arbitrary item ids: sorted tuple, duplicates dropped.

    A tuple that is already strictly ascending is returned as it is, so a
    canonical row costs one pass of comparisons and no copy.
    """
    items = tuple(items)
    if all(map(lt, items, items[1:])):
        return items
    return tuple(sorted(set(items)))


def first_n_primes(n: int) -> list[int]:
    """The first n primes, ascending.

    Sieve of Eratosthenes up to the bound p_n < n (ln n + ln ln n), which
    holds for n >= 6 (Rosser); 11 covers the first five primes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    limit = 11 if n < 6 else int(n * (log(n) + log(log(n)))) + 1
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))[:n]


class PrimeTable:
    """Bijection between one item universe and the first primes.

    Item ids are sorted ascending and paired with ascending primes, so the
    mapping is a function of the universe alone: any two builds over the same
    ids agree. Immutable after construction; safe to share between threads.
    """

    __slots__ = ("_prime_by_item", "_item_by_prime", "_item_ids", "_primes")

    def __init__(self, universe: Iterable[int]):
        ids = sorted(set(universe))
        if ids and ids[0] < 0:
            raise ValueError("item ids must be non-negative")
        primes = first_n_primes(len(ids))
        self._item_ids = tuple(ids)
        self._primes = tuple(primes)
        self._prime_by_item = dict(zip(ids, primes))
        self._item_by_prime = dict(zip(primes, ids))

    @property
    def item_ids(self) -> tuple[int, ...]:
        return self._item_ids

    @property
    def primes(self) -> tuple[int, ...]:
        return self._primes

    def prime_for(self, item: int) -> int:
        try:
            return self._prime_by_item[item]
        except KeyError:
            raise UnknownItemError(f"item {item} is not in this prime table") from None

    def item_for(self, prime: int) -> int:
        return self._item_by_prime[prime]

    def __contains__(self, item: int) -> bool:
        return item in self._prime_by_item

    def __len__(self) -> int:
        return len(self._prime_by_item)

    def __repr__(self) -> str:
        return f"PrimeTable({len(self)} items)"


def build_prime_table(universe: Iterable[int]) -> PrimeTable:
    """Assign primes to a universe of item ids (ascending id, ascending prime)."""
    return PrimeTable(universe)


def encode(items: Iterable[int], table: PrimeTable) -> int:
    """Transaction value of an itemset: the product of its items' primes.

    The empty set encodes to 1. Raises UnknownItemError when an item is
    outside the table's universe, which signals a table/universe mismatch.
    """
    try:
        return prod(map(table._prime_by_item.__getitem__, set(items)))
    except KeyError as missing:
        raise UnknownItemError(f"item {missing.args[0]} is not in this prime table") from None


def decode(value: int, table: PrimeTable) -> Itemset:
    """Invert encode: factor a square-free product of table primes.

    Each table prime is divided out at most once, so squares and primes from
    outside the table both leave a residue and raise ForeignPrimeError.
    """
    if value < 1:
        raise ValueError(f"transaction values are positive, got {value}")
    items = []
    residue = value
    for prime in table.primes:
        if residue == 1:
            break
        if residue % prime == 0:
            items.append(table.item_for(prime))
            residue //= prime
    if residue != 1:
        raise ForeignPrimeError(
            f"{value} leaves residue {residue} after dividing out table primes"
        )
    # ascending primes map to ascending ids, so items is already sorted
    return tuple(items)


def divides(q: int, p: int) -> bool:
    """True iff q divides p, i.e. q's itemset is a subset of p's itemset."""
    if q < 1 or p < 1:
        raise ValueError("transaction values are positive")
    return p % q == 0
