"""Reference miners: exhaustive enumeration and level-wise Apriori.

Both are independent of the tree-based miner and of each other, so the three
implementations can cross-check one another on any database small enough for
all of them to run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .prime_codec import Itemset, as_itemset

BRUTE_FORCE_MAX_ITEMS = 24
# Brute force tests every subset against every row, about 60 ns a pair in
# CPython, so 2**25 subset-rows take about 2 s. `pcmine compare` skips brute
# force past this much work even under the item cap: 24 items over 40,000
# rows would take hours.
BRUTE_FORCE_MAX_WORK = 2**25


class UniverseTooLargeError(ValueError):
    """Exhaustive enumeration refused: the item universe exceeds the guard."""


@dataclass(frozen=True)
class TransactionDB:
    """An in-memory transaction database.

    transactions holds (tid, itemset) pairs with tids unique and ascending;
    universe is the ascending tuple of item ids the transactions draw from.
    """

    transactions: tuple[tuple[int, Itemset], ...]
    universe: tuple[int, ...]

    def __post_init__(self):
        allowed = set(self.universe)
        if list(self.universe) != sorted(allowed):
            raise ValueError("universe must be strictly ascending")
        last_tid = 0
        for tid, items in self.transactions:
            if tid <= last_tid:
                raise ValueError(f"transaction ids must ascend, got {tid} after {last_tid}")
            last_tid = tid
            if not items:
                raise ValueError(f"transaction {tid} is empty")
            if not allowed.issuperset(items):
                raise ValueError(f"transaction {tid} uses items outside the universe")

    @classmethod
    def from_itemsets(cls, itemsets: Iterable[Iterable[int]],
                      universe: Sequence[int] | None = None) -> "TransactionDB":
        """Number itemsets 1..n; universe defaults to the union of all items."""
        rows = tuple((tid, as_itemset(items)) for tid, items in enumerate(itemsets, start=1))
        if universe is None:
            seen: set[int] = set()
            for _, items in rows:
                seen.update(items)
            universe = sorted(seen)
        return cls(transactions=rows, universe=tuple(universe))

    def itemsets(self) -> list[Itemset]:
        return [items for _, items in self.transactions]

    def __len__(self) -> int:
        return len(self.transactions)


@dataclass(frozen=True)
class BaselineResult:
    frequent: dict[Itemset, int]
    candidates_generated: int


def effective_sigma(sigma: int) -> int:
    """Normalize a support threshold; 0 counts nothing useful so it becomes 1."""
    if sigma < 0:
        raise ValueError(f"support threshold must be non-negative, got {sigma}")
    if sigma == 0:
        warnings.warn("support threshold 0 treated as 1", stacklevel=3)
        return 1
    return sigma


def _mask(items: Iterable[int], index: dict[int, int]) -> int:
    m = 0
    for item in items:
        m |= 1 << index[item]
    return m


def brute_force_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Count every non-empty subset of the universe against every transaction.

    Exponential in the universe size by construction, hence the hard cap;
    useful purely as ground truth for the other miners.
    """
    n = len(db.universe)
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise UniverseTooLargeError(
            f"{n} items would enumerate 2**{n} - 1 itemsets; "
            f"the exhaustive miner is capped at {BRUTE_FORCE_MAX_ITEMS} items"
        )
    sig = effective_sigma(sigma)
    index = {item: i for i, item in enumerate(db.universe)}
    masks = [_mask(items, index) for _, items in db.transactions]
    frequent: dict[Itemset, int] = {}
    candidates = 0
    for size in range(1, n + 1):
        for combo in combinations(db.universe, size):
            candidates += 1
            m = _mask(combo, index)
            sup = sum(1 for t in masks if t & m == m)
            if sup >= sig:
                frequent[combo] = sup
    return BaselineResult(frequent=frequent, candidates_generated=candidates)


def _join_level(level: Sequence[Itemset]) -> list[Itemset]:
    """Join a lexicographically sorted frequent level with itself.

    Two k-itemsets sharing their first k-1 items produce one (k+1)-candidate;
    sorting makes equal prefixes adjacent, so each pair is visited once.
    """
    out = []
    n = len(level)
    for i in range(n):
        a = level[i]
        prefix = a[:-1]
        for j in range(i + 1, n):
            b = level[j]
            if b[:-1] != prefix:
                break
            out.append(a + (b[-1],))
    return out


def _prune_level(joined: Iterable[Itemset], prev_frequent: set[Itemset]) -> list[Itemset]:
    """Keep candidates whose every one-smaller subset was frequent."""
    kept = []
    for cand in joined:
        if all(cand[:m] + cand[m + 1:] in prev_frequent for m in range(len(cand))):
            kept.append(cand)
    return kept


def apriori_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Level-wise join-and-prune mining with one database scan per level.

    candidates_generated counts the candidates that survive pruning at sizes
    two and up; the singleton pass is a plain frequency scan and is not
    counted.
    """
    sig = effective_sigma(sigma)
    index = {item: i for i, item in enumerate(db.universe)}
    masks = [_mask(items, index) for _, items in db.transactions]

    counts = dict.fromkeys(db.universe, 0)
    for _, items in db.transactions:
        for item in items:
            counts[item] += 1
    frequent: dict[Itemset, int] = {(i,): c for i, c in counts.items() if c >= sig}
    level: list[Itemset] = sorted(frequent)

    candidates = 0
    while level:
        pruned = _prune_level(_join_level(level), set(level))
        candidates += len(pruned)
        next_level = []
        for cand in pruned:
            m = _mask(cand, index)
            sup = sum(1 for t in masks if t & m == m)
            if sup >= sig:
                frequent[cand] = sup
                next_level.append(cand)
        level = next_level
    return BaselineResult(frequent=frequent, candidates_generated=candidates)
