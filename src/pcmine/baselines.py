"""Reference miners: exhaustive enumeration and level-wise Apriori.

Apriori reads TransactionDB.tally(), the one place duplicate rows are
collapsed, which build_tree reads too: it counts each distinct row once,
weighted by its multiplicity. Brute force scans the raw rows and reads
nothing the other two miners share, so it is the independent check: a wrong
tally makes pcminer and Apriori agree with each other and differ from it.
"""

from __future__ import annotations

import warnings
from collections import Counter, namedtuple
from itertools import combinations, groupby
from typing import Iterable, Sequence

from .prime_codec import Itemset, as_itemset

BRUTE_FORCE_MAX_ITEMS = 24
# Brute force tests every subset against every row, about 60 ns a pair in
# CPython, so 2**25 subset-rows take about 2 s. It refuses more work than this
# even under the item cap: 24 items over 40,000 rows would take hours.
BRUTE_FORCE_MAX_WORK = 2**25


class UniverseTooLargeError(ValueError):
    """Exhaustive enumeration refused: the items or the subset-row work exceed a guard."""


class TransactionDB:
    """An in-memory transaction database, read-only once built.

    rows holds each transaction's itemset in order, and a transaction's id is
    its position: transaction t is rows[t - 1]. universe is the ascending
    tuple of item ids the rows draw from. tally() is the only place duplicate
    rows are collapsed.
    """

    __slots__ = ("rows", "universe")

    def __init__(self, rows: tuple[Itemset, ...], universe: tuple[int, ...]):
        allowed = set(universe)
        if list(universe) != sorted(allowed):
            raise ValueError("universe must be strictly ascending")
        for t, items in enumerate(rows, start=1):
            if not items:
                raise ValueError(f"transaction {t} is empty")
            if not allowed.issuperset(items):
                raise ValueError(f"transaction {t} uses items outside the universe")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "universe", universe)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.universe) == (other.rows, other.universe)

    def __hash__(self):
        return hash((self.rows, self.universe))

    def __repr__(self):
        return f"TransactionDB(rows={self.rows!r}, universe={self.universe!r})"

    def __reduce__(self):  # copy and pickle through __init__, not attribute by attribute
        return self.__class__, (self.rows, self.universe)

    @classmethod
    def from_itemsets(cls, itemsets: Iterable[Iterable[int]],
                      universe: Sequence[int] | None = None) -> "TransactionDB":
        """Canonicalize itemsets into rows; transaction t is the t-th itemset.

        universe defaults to the union of all items.
        """
        rows = tuple(map(as_itemset, itemsets))
        if universe is None:
            universe = sorted(set().union(*rows))
        return cls(rows, tuple(universe))

    @property
    def transactions(self) -> tuple[tuple[int, Itemset], ...]:
        """(tid, itemset) pairs, built from rows on each read; only bench/run.py reads them."""
        return tuple(enumerate(self.rows, start=1))

    def itemsets(self) -> list[Itemset]:
        """The rows as a list, built on each call; only bench/spans.py calls it."""
        return list(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def tally(self) -> Counter[Itemset]:
        """Each distinct itemset with its number of rows, in first-occurrence order."""
        return Counter(self.rows)


BaselineResult = namedtuple("BaselineResult", "frequent candidates_generated")


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


def _count(single: Sequence[int], repeated: Sequence[tuple[int, int]], m: int) -> int:
    """Rows whose mask holds every bit of m.

    Each mask in single is one row; each (mask, k) pair in repeated is k rows.
    Rows seen once stay plain masks, so they cost what an unweighted scan
    costs; one pass over (mask, k) pairs would unpack a tuple for every row.
    """
    return (sum(1 for t in single if t & m == m)
            + sum(k for t, k in repeated if t & m == m))


def brute_force_refusal(db: TransactionDB) -> str | None:
    """Why brute_force_mine refuses db, or None when it runs."""
    n = len(db.universe)
    if n > BRUTE_FORCE_MAX_ITEMS:
        return f"{n} items exceed the {BRUTE_FORCE_MAX_ITEMS}-item enumeration guard"
    if 2**n * len(db) > BRUTE_FORCE_MAX_WORK:
        return (f"2**{n} subsets x {len(db)} rows exceed "
                f"the {BRUTE_FORCE_MAX_WORK}-subset-row work guard")
    return None


def brute_force_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Count every non-empty subset of the universe against every transaction.

    Exponential in the universe size by construction, hence the hard caps
    (see brute_force_refusal); useful purely as ground truth for the other
    miners.
    """
    refusal = brute_force_refusal(db)
    if refusal is not None:
        raise UniverseTooLargeError(f"the exhaustive miner is capped: {refusal}")
    n = len(db.universe)
    sig = effective_sigma(sigma)
    index = {item: i for i, item in enumerate(db.universe)}
    masks = [_mask(items, index) for items in db.rows]
    frequent: dict[Itemset, int] = {}
    candidates = 0
    for size in range(1, n + 1):
        for combo in combinations(db.universe, size):
            candidates += 1
            sup = _count(masks, (), _mask(combo, index))
            if sup >= sig:
                frequent[combo] = sup
    return BaselineResult(frequent=frequent, candidates_generated=candidates)


def _join_level(level: Sequence[Itemset]) -> list[Itemset]:
    """Join a lexicographically sorted frequent level with itself.

    Two k-itemsets sharing their first k-1 items produce one (k+1)-candidate.
    Sorting makes equal prefixes adjacent, so itertools.groupby on the
    (k-1)-prefix gathers them, and combinations() of each group's last items
    visits each pair once, in the order of the level.
    """
    return [prefix + pair
            for prefix, group in groupby(level, key=lambda itemset: itemset[:-1])
            for pair in combinations([itemset[-1] for itemset in group], 2)]


def _prune_level(joined: Iterable[Itemset], prev_frequent: set[Itemset]) -> list[Itemset]:
    """Keep candidates whose every one-smaller subset was frequent."""
    kept = []
    for cand in joined:
        if all(cand[:m] + cand[m + 1:] in prev_frequent for m in range(len(cand))):
            kept.append(cand)
    return kept


def apriori_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Level-wise join-and-prune mining with one database scan per level.

    The scans read db.tally(): each distinct row is tested once and counts
    as many rows as it occurs. candidates_generated counts the candidates
    that survive pruning at sizes two and up; the singleton pass is a plain
    frequency scan and is not counted.
    """
    sig = effective_sigma(sigma)
    index = {item: i for i, item in enumerate(db.universe)}
    tally = db.tally()
    single = [_mask(items, index) for items, k in tally.items() if k == 1]
    repeated = [(_mask(items, index), k) for items, k in tally.items() if k > 1]

    counts = dict.fromkeys(db.universe, 0)
    for items, k in tally.items():
        for item in items:
            counts[item] += k
    del tally  # the level scans read only the masks; this lowers their peak
    frequent: dict[Itemset, int] = {(i,): c for i, c in counts.items() if c >= sig}
    level: list[Itemset] = sorted(frequent)

    candidates = 0
    while level:
        pruned = _prune_level(_join_level(level), set(level))
        candidates += len(pruned)
        next_level = []
        for cand in pruned:
            sup = _count(single, repeated, _mask(cand, index))
            if sup >= sig:
                frequent[cand] = sup
                next_level.append(cand)
        level = next_level
    return BaselineResult(frequent=frequent, candidates_generated=candidates)
