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

Known frequent means covered. The frequent singletons and the frequent
examined candidates, the tops, are kept in one VerticalIndex, the cover,
one bit each. A head or candidate that a top holds is settled without a
query. After the walk, the cover's covered() enumerates the frequent family
depth first, each itemset once, so the cost of the family is linear in its
size; no set of every subset of every top is built.

A level is built from ordered runs. The heads are sorted once, each head's
k-subsets come from combinations() in lexicographic order, and a dict built
over them all drops the repeats while keeping that order. So the level's
sort merges one ascending run per head instead of sorting hash order.

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

from .baselines import effective_sigma
from .pc_tree import PCTree, VerticalIndex
from .prime_codec import Itemset
# Not called here; bench/spans.py wraps pc_miner.decode and pc_miner.encode by name.
from .prime_codec import decode, encode  # noqa: F401


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
    # Largest first: a set can only be absorbed by a strictly larger one. A
    # vertical index of the kept sets names those that contain it; with none
    # kept nothing absorbs, although supersets(()) is every bit.
    index, kept = VerticalIndex(), []
    for its in sorted(set(frequent), key=lambda t: (-len(t), t)):
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
    reduced = []
    for node in tree.root.children:
        head = candidate_head(node.items, frequencies, sig)
        if head:
            reduced.append(head)
    return maximal_frequent(reduced)


def mine(tree: PCTree, sigma: int) -> MiningResult:
    """Enumerate every frequent itemset in the tree with its support.

    Candidates are processed level by level from the largest head size down
    to pairs, lexicographically within a level, so reruns examine the same
    candidates in the same order. Level k is built once, when the walk
    reaches it: the k-subsets of the candidate heads that no top holds, head
    by head in sorted order, then sorted, which merges the heads' ascending
    runs. A candidate is known frequent when the cover, the index of the
    tops, holds it; it is skipped without a query. Singletons hold no
    candidate, so that check starts with the first frequent candidate.
    The frequent items are read from the candidate heads, not from the
    tree's frequency table a second time: each frequent item lies in the
    head of a node that holds it, candidate_head keeps it there, and the
    maximal reduction keeps a superset of that reduced head, while a
    candidate head holds no infrequent item.
    Every frequent itemset is a frequent singleton or a subset of a frequent
    examined candidate, so the frequent family is what the cover's covered()
    yields over the frequent items, and the maximal sets are the tops that
    no other top holds. Supports for the result map are backfilled with one
    fresh query per frequent itemset after the walk; those do not count as
    examinations.
    """
    sig = effective_sigma(sigma)
    heads = sorted(candidate_head_set(tree, sig))
    items = sorted(set().union(*heads))  # the frequent items: H holds each of them
    tops = [(item,) for item in items]  # frequent singletons, then frequent examined candidates
    cover = VerticalIndex()  # bit b holds tops[b]
    for top in tops:
        cover.add(top, 1)
    singles = len(tops)
    examined: list[Itemset] = []
    for k in range(max(map(len, heads), default=0), 1, -1):
        # Only a frequent candidate of a larger level covers a head or a
        # candidate here: the heads are an antichain, a singleton holds
        # neither, and a frequent candidate of this level holds only itself.
        covering = len(tops) > singles
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
    del heads  # and release the heads before the result is built
    supports = {f: tree.support(f) for f in cover.covered(items)}
    maximal = tuple(sorted(  # the tops that no other top holds
        top for bit, top in enumerate(tops) if cover.supersets(top) == 1 << bit))
    return MiningResult(frequent=supports, maximal=maximal, examined=tuple(examined), sigma=sig)
