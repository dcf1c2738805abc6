"""Candidate-head-set miner over the prime-coded tree.

Every inserted transaction's value divides one of the tree's heads, so the
heads cover the whole database from above. Dropping infrequent items from
each head and keeping only the subset-maximal survivors yields the candidate
head set: a small antichain from which every frequent itemset is reachable by
deleting items. Mining walks that set top-down, one itemset size at a time.
A frequent candidate settles all of its subsets at once. Level k is every
k-subset of the heads that no frequent candidate covers. That is the paper's
walk, where an infrequent candidate spawns its one-smaller subsets: a
k-subset of a head is reached down any chain of spawns from that head
unless a link of the chain is frequent, and then that link covers it. Each
distinct candidate's support is evaluated at most once, which is where the
saving over level-wise joins comes from on databases whose transactions
overlap heavily.

Known frequent means covered. The frequent examined candidates, the tops,
are kept in one VerticalIndex, the cover, one bit each. A head or candidate
that a top holds is settled without a query. So no top holds another, and
since every frequent itemset lies in a candidate head, the tops are exactly
the maximal frequent itemsets of two or more items, the fact the top-down
half of Pincer-Search (Lin & Kedem, EDBT 1998) is built on; the frequent
items that no top holds are the maximal singletons. After the walk those
singletons join the cover, and its covered() enumerates the frequent family
depth first, each itemset once, so the cost of the family is linear in its
size; no set of every subset of every top is built.

A level is built from ordered runs. The heads are sorted once, each head's
k-subsets come from combinations() in lexicographic order, and a dict built
over them all drops the repeats while keeping that order. So the level's
sort merges one ascending run per head instead of sorting hash order.

The walk is exponential in the length of the candidate heads, so mine()
refuses work before it starts. Head h holds 2**|h| - |h| - 1 subsets of
two or more items, and the sum over H bounds every level, so it bounds the
candidates examined. Every frequent itemset of two or more items lies in a
candidate head, so the same sum caps the frequent family and its backfill.
Above WALK_MAX_WORK, mine() raises UniverseTooLargeError after the build and
the head set, before the first level; the CLI exits 1, and compare notes the
refusal and cross-checks the other miners. The trace costs about 94 bytes a
candidate, so the guard caps it near 800 MB.

Each evaluation is one PCTree.support() query on the candidate itemset,
which the tree answers from its vertical bit index without encoding the
candidate; the paper's pruned tree walk, PCTree.walk_support(), takes the
prime-coded value and is kept as the reference those answers are tested
against.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations
from typing import Iterable

from .baselines import UniverseTooLargeError, effective_sigma
from .pc_tree import PCTree, VerticalIndex
from .prime_codec import Itemset
# Not called here; bench/spans.py wraps pc_miner.decode and pc_miner.encode by name.
from .prime_codec import decode, encode  # noqa: F401

# Every benchmark database bounds its walk at 190,654 candidates or fewer, and
# wide-build's database at sigma 0.02 at 2,587,947; the smallest input known to
# exhaust memory in the walk bounds it at 2.39e8.
WALK_MAX_WORK = 2**23


class MiningResult(namedtuple("MiningResult", "frequent maximal examined sigma")):
    """Everything one mining run produced.

    frequent maps each frequent itemset to its absolute support; maximal
    holds the subset-maximal frequent itemsets in lexicographic order;
    examined logs the candidates whose support was evaluated, in evaluation
    order; sigma is the absolute threshold actually enforced.
    """

    __slots__ = ()

    @property
    def candidates_examined(self) -> int:
        return len(self.examined)


def candidate_head(head: Itemset, frequencies: dict[int, int], sigma: int) -> Itemset:
    """Largest all-frequent subset of a head: drop every item below threshold."""
    return tuple(item for item in head if frequencies.get(item, 0) >= sigma)


def maximal_frequent(frequent: Iterable[Itemset]) -> set[Itemset]:
    """Subset-maximal members of a family of itemsets."""
    # Largest first: a set can only be absorbed by a strictly larger one, so
    # the order among sets of one size does not matter. set() drops repeats
    # before each costs an index query; reduced heads repeat heavily. A
    # vertical index of the kept sets names those that contain it; with none
    # kept nothing absorbs, although supersets(()) is every bit.
    index, kept = VerticalIndex(), []
    for its in sorted(set(frequent), key=len, reverse=True):
        if not (kept and index.supersets(its)):
            index.add(its, 1)
            kept.append(its)
    return set(kept)


def candidate_head_set(tree: PCTree, sigma: int) -> set[Itemset]:
    """Antichain of per-head largest all-frequent subsets.

    Heads whose items are all infrequent contribute nothing; reduced heads
    contained in another reduced head are absorbed by it.
    """
    sig = effective_sigma(sigma)
    frequencies = tree.frequency_table
    reduced = (candidate_head(node.items, frequencies, sig) for node in tree.root.children)
    return maximal_frequent(filter(None, reduced))


def mine(tree: PCTree, sigma: int) -> MiningResult:
    """Enumerate every frequent itemset in the tree with its support.

    Candidates are processed level by level from the largest head size down
    to pairs, lexicographically within a level, so reruns examine the same
    candidates in the same order. Level k is built once, when the walk
    reaches it: the k-subsets of the candidate heads that no top holds, head
    by head in sorted order, then sorted, which merges the heads' ascending
    runs. A candidate is known frequent when the cover, the index of the
    tops, holds it; it is skipped without a query. The cover is empty until
    the first frequent candidate, so until then no level reads it.
    The frequent items are read from the candidate heads, not from the
    tree's frequency table a second time: each frequent item lies in the
    head of a node that holds it, candidate_head keeps it there, and the
    maximal reduction keeps a superset of that reduced head, while a
    candidate head holds no infrequent item.
    The tops are the maximal frequent itemsets of two or more items, and the
    frequent items that no top holds are the maximal singletons. Every
    frequent itemset is one of those singletons or a subset of a top, so
    once the singletons join the cover, the frequent family is what its
    covered() yields over the frequent items. Supports for the result map
    are backfilled with one fresh query per frequent itemset after the walk;
    those do not count as examinations.
    Raises UniverseTooLargeError, before the first level, when the walk
    bound, the sum of 2**|h| - |h| - 1 over the candidate heads h, exceeds
    WALK_MAX_WORK (see the module docstring).
    """
    sig = effective_sigma(sigma)
    heads = sorted(candidate_head_set(tree, sig))
    # An exact int: a head can hold thousands of items, past any float.
    bound = sum(2 ** len(head) - len(head) - 1 for head in heads)
    if bound > WALK_MAX_WORK:
        raise UniverseTooLargeError(
            f"the candidate walk is capped: its {len(heads)}-head candidate set holds "
            f"2**{bound.bit_length() - 1} or more subsets of two or more items, "
            f"past the {WALK_MAX_WORK}-candidate walk guard")
    items = sorted(set().union(*heads))  # the frequent items: H holds each of them
    tops: list[Itemset] = []  # the frequent examined candidates
    cover = VerticalIndex()  # bit b holds tops[b]
    examined: list[Itemset] = []
    for k in range(max(map(len, heads), default=0), 1, -1):
        # Only a frequent candidate of a larger level covers a head or a
        # candidate here: the heads are an antichain, and a frequent
        # candidate of this level holds only itself.
        covering = bool(tops)
        level = dict.fromkeys(chain.from_iterable(combinations(head, k) for head in heads
                                                  if not (covering and cover.supersets(head))))
        for candidate in sorted(level):
            if covering and cover.supersets(candidate):
                continue
            examined.append(candidate)
            if tree.support(candidate) >= sig:
                tops.append(candidate)
                cover.add(candidate, 1)
        del level  # build the next level only once this one is released
    singles = [(item,) for item in items if not cover.supersets((item,))]
    for single in singles:
        cover.add(single, 1)
    supports = {f: tree.support(f) for f in cover.covered(items)}
    return MiningResult(frequent=supports, maximal=tuple(sorted(tops + singles)),
                        examined=tuple(examined), sigma=sig)
