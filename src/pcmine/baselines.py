"""Reference miners: exhaustive enumeration and level-wise Apriori.

TransactionDB's constructor is the one way a database is made, over a given
universe or the ids its rows hold, and the one place a row is made
canonical: every miner reads ascending, duplicate-free rows. It counts the
rows in one pass and checks each distinct row of that count;
TransactionDB.tally() is the count, read-only and the same mapping on every
call, and a caller copies it to change it. build_tree reads it, and so does
Apriori, which counts over a pc_tree.VerticalIndex built from it, the index
pcminer's support queries read: one bit per distinct row, weighted by its
multiplicity. The cost of sharing is that a bug in the tally or in
VerticalIndex.support() would make pcminer and Apriori agree with each
other. Brute force counts every non-empty subset of every raw row, which is
the definition of support, and reads nothing the other two miners share,
so it stays the independent check that such a bug makes them differ from;
support() itself is tested against the paper's tree walk,
PCTree.walk_support(). Brute force checks its one guard, the number of
subsets it would count, before it counts anything, so a refusal costs
nothing. Apriori builds each level in one pass, joining, pruning and
counting each candidate in turn, and checks its two guards, on row tests
and on candidates, before the level's first candidate, so a refused level
is never built.
"""

from __future__ import annotations

import warnings
from collections import Counter, namedtuple
from itertools import chain, combinations, groupby
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .pc_tree import VerticalIndex
from .prime_codec import Itemset, as_itemset, check_item_ids

# Brute force counts each non-empty subset of each row, 2**|row| - 1 of them,
# at 240-600 ns a subset in CPython. At 2**20 subsets its worst case, four
# disjoint 18-item rows at support 1 whose subsets are all distinct, takes
# about 1.3 s and 250 MB; sparse-walk's 1,000 rows hold 199,584 subsets.
BRUTE_FORCE_MAX_WORK = 2**20
# Apriori counts a candidate over a VerticalIndex of the distinct rows: an AND
# of its items' bit rows, one bit a row, and a popcount or a few, at about
# 0.26-0.46 ns a row test in CPython, so 2**31 row tests take 0.6-1.0 s. Its
# work is the join's candidates times the distinct rows, summed over the
# levels and checked before each level is joined. The heaviest input it is
# known to finish, 40000,16,0.5,1 at support 1 (65,519 candidates over 30,015
# distinct rows), needs 1.97e9 and mines in about 1.0 s with a 34 MB peak;
# dense-dup needs 1.0e7. 200000,20,0.5,1 at support 1 (182,197 distinct rows)
# is refused at its 5-item candidates, 1.8 s in, 1.5 s of it indexing the
# rows, where the candidate cap alone would let it count to its 7-item level
# for 5.5 s.
APRIORI_MAX_WORK = 2**31
# Each candidate Apriori joins costs up to about 150 bytes (a frequent one
# keeps its tuple, a slot in the next level and its entry in the frequent map)
# and 8 us of join, prune and count in CPython, however few the distinct rows,
# so the row-test guard alone admits 2**31 candidates from one row: 320 GB.
# This caps the candidates joined over all levels, checked before each join,
# near 10 MB and 0.5 s; a 26-item row at support 1 is refused at its 5-item
# candidates. The heaviest input Apriori is known to finish joins 65,519
# (40000,16,0.5,1 at support 1), dense-dup 2,497.
APRIORI_MAX_CANDIDATES = 2**16


class UniverseTooLargeError(ValueError):
    """A miner refused exponential work before starting it.

    Brute force raises it when the rows hold more non-empty subsets than
    BRUTE_FORCE_MAX_WORK, Apriori when its row tests would pass
    APRIORI_MAX_WORK or its joined candidates APRIORI_MAX_CANDIDATES, and
    pc_miner.mine() when the candidate heads bound its walk above
    pc_miner.WALK_MAX_WORK. The CLI exits 1 on it, and compare prints it as
    a note and cross-checks the miners that ran.
    """


class TransactionDB:
    """An in-memory transaction database, read-only once built.

    rows holds each transaction's itemset in order, and a transaction's id is
    its position: transaction t is rows[t - 1]. universe is the ascending
    tuple of item ids the rows draw from, by default the ids the rows hold;
    an id is a non-negative plain int, not a bool or a float equal to one,
    in the universe and in every row, checked before any two ids are
    compared. The constructor is the one way a database is made and the one
    place a row is made canonical, by as_itemset(): a row may list its items
    in any order and more than once, and a row that is already strictly
    ascending is kept as it is, while any other is sorted, without repeated
    items. It keeps tuples of what it is given, so a list passed in cannot
    change the database later and a generator is read once; a tuple of
    canonical rows is kept as it is. It counts the rows in one pass and
    checks each distinct row once, in order of first occurrence, so a
    refusal names the first transaction that holds a bad row; it counts
    again only when it has rewritten a row. That count is tally(), the one
    place duplicate rows are collapsed.
    """

    __slots__ = ("rows", "universe", "_tally")

    def __init__(self, rows: Iterable[Iterable[int]], universe: Iterable[int] | None = None):
        rows = tuple(map(tuple, rows))
        if universe is None:
            universe = sorted(check_item_ids(set().union(*rows)))
        universe = check_item_ids(tuple(universe))
        allowed = set(universe)
        if list(universe) != sorted(allowed):
            raise ValueError("universe must be strictly ascending")
        tally, canonical, plain = Counter(rows), {}, {int}
        for items in tally:
            if not items:
                raise ValueError(f"transaction {rows.index(items) + 1} is empty")
            if not allowed.issuperset(items):
                raise ValueError(
                    f"transaction {rows.index(items) + 1} uses items outside the universe")
            if not plain.issuperset(map(type, items)):  # 1.0 and True pass the line above
                item = next(item for item in items if type(item) is not int)
                raise ValueError(f"transaction {rows.index(items) + 1}: "
                                 f"item ids must be non-negative integers, got {item!r}")
            if (fixed := as_itemset(items)) is not items:
                canonical[items] = fixed
        if canonical:
            rows = tuple(canonical.get(items, items) for items in rows)
            tally = Counter(rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_tally", MappingProxyType(tally))

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

    @property
    def transactions(self) -> tuple[tuple[int, Itemset], ...]:
        """(tid, itemset) pairs, built from rows on each read; only bench/run.py reads them."""
        return tuple(enumerate(self.rows, start=1))

    def itemsets(self) -> list[Itemset]:
        """The rows as a list, built on each call; only bench/spans.py calls it."""
        return list(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def tally(self) -> Mapping[Itemset, int]:
        """Each distinct itemset with its number of rows, in first-occurrence order.

        The constructor's count, not a recount: a read-only view of a Counter,
        the same mapping on every call, in which an itemset no row holds
        reads 0. A caller that needs to change it copies it first.
        """
        return self._tally


BaselineResult = namedtuple("BaselineResult", "frequent candidates_generated")


def effective_sigma(sigma: int) -> int:
    """Normalize a support threshold; 0 counts nothing useful so it becomes 1."""
    if sigma < 0:
        raise ValueError(f"support threshold must be non-negative, got {sigma}")
    if sigma == 0:
        warnings.warn("support threshold 0 treated as 1", stacklevel=3)
        return 1
    return sigma


def brute_force_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Count every non-empty subset of every transaction: the definition of support.

    Exponential in the transaction length by construction, so it raises
    UniverseTooLargeError before counting anything when the rows hold more
    than BRUTE_FORCE_MAX_WORK non-empty subsets in all; useful purely as
    ground truth for the other miners. candidates_generated is the number of
    distinct itemsets counted.
    """
    # An exact int: a row can hold thousands of items, past any float.
    work = sum((1 << len(items)) - 1 for items in db.rows)
    if work > BRUTE_FORCE_MAX_WORK:
        raise UniverseTooLargeError(
            f"the exhaustive miner is capped: its rows hold 2**{work.bit_length() - 1} or more "
            f"subsets, past the {BRUTE_FORCE_MAX_WORK}-subset work guard")
    sig = effective_sigma(sigma)
    counts = Counter(chain.from_iterable(
        combinations(items, size) for items in db.rows for size in range(1, len(items) + 1)))
    frequent = {itemset: sup for itemset, sup in counts.items() if sup >= sig}
    return BaselineResult(frequent=frequent, candidates_generated=len(counts))


def _prefix(itemset: Itemset) -> Itemset:
    return itemset[:-1]


def _groups(level: Sequence[Itemset]) -> list[tuple[Itemset, list[int]]]:
    """Each (k-1)-prefix of a lexicographically sorted level with its last items.

    Sorting makes equal prefixes adjacent, so itertools.groupby gathers them.
    Two k-itemsets of a group join into one (k+1)-candidate, the prefix and
    a pair of last items, so combinations() of each group's last items gives
    the join, each pair once and in the order of the level.
    """
    return [(prefix, [itemset[-1] for itemset in group])
            for prefix, group in groupby(level, key=_prefix)]


def apriori_mine(db: TransactionDB, sigma: int) -> BaselineResult:
    """Level-wise join-and-prune mining with one pass per level.

    The pass joins each candidate from the level's prefix groups (_groups),
    prunes it, and counts it with VerticalIndex.support() over an index of
    db.tally(), built once in first-occurrence order: one AND of its items'
    bit rows tests every distinct row, and each counts as many rows as it
    occurs. candidates_generated counts the candidates that survive pruning
    at sizes two and up; the singletons, each universe item counted the same
    way, are not counted.

    Both guards are checked from the groups alone, before the level's first
    candidate is formed: each group of n last items joins C(n, 2). Raises
    UniverseTooLargeError when the joined candidates times the distinct
    rows, summed over the levels so far, exceed APRIORI_MAX_WORK: the pruned
    candidates of a level are at most its joined ones, so that sum bounds
    the row tests of the counts. It raises it too when the joined candidates
    alone, summed the same way, exceed APRIORI_MAX_CANDIDATES, which bounds
    the memory and the join and prune time of a database with few distinct
    rows.
    """
    sig = effective_sigma(sigma)
    index = VerticalIndex()
    for items, k in db.tally().items():
        index.add(items, k)
    support = index.support
    frequent: dict[Itemset, int] = {
        (item,): sup for item in db.universe if (sup := support((item,))) >= sig}
    level: list[Itemset] = sorted(frequent)

    distinct = len(index.counts)
    candidates = joined = work = 0
    while level:
        groups = _groups(level)
        size = sum(comb(len(lasts), 2) for _, lasts in groups)
        joined += size
        work += size * distinct
        if work > APRIORI_MAX_WORK:
            raise UniverseTooLargeError(
                f"the level-wise miner is capped: the {len(level[0]) + 1}-item candidates "
                f"bring its scans to {work} tests over {distinct} distinct rows, "
                f"past the {APRIORI_MAX_WORK}-row-test work guard")
        if joined > APRIORI_MAX_CANDIDATES:
            raise UniverseTooLargeError(
                f"the level-wise miner is capped: the {len(level[0]) + 1}-item candidates "
                f"bring its joins to {joined} candidates, "
                f"past the {APRIORI_MAX_CANDIDATES}-candidate guard")
        known, level = set(level), []
        for prefix, lasts in groups:
            for pair in combinations(lasts, 2):
                cand = prefix + pair
                # Prune: dropping either of the last two items leaves a member
                # of the level, so only the prefix's items are dropped in turn.
                if not all(cand[:m] + cand[m + 1:] in known for m in range(len(prefix))):
                    continue
                candidates += 1
                if (sup := support(cand)) >= sig:
                    frequent[cand] = sup
                    level.append(cand)
    return BaselineResult(frequent=frequent, candidates_generated=candidates)
