"""Candidate-head-set miner over the prime-coded tree.

Every inserted transaction's value divides one of the tree's heads, so the
heads cover the whole database from above. Dropping infrequent items from
each head and keeping only the subset-maximal survivors yields the candidate
head set: a small antichain from which every frequent itemset is reachable by
deleting items. Mining walks that set top-down. A frequent candidate settles
all of its subsets at once; an infrequent one (above the pair level) spawns
its one-smaller subsets as new candidates. Each distinct candidate's support
is evaluated at most once, which is where the saving over level-wise joins
comes from on databases whose transactions overlap heavily.

Each evaluation is one PCTree.support() query on the candidate itemset,
which the tree answers from its vertical bit index without encoding the
candidate; the paper's pruned tree walk, PCTree.walk_support(), takes the
prime-coded value and is kept as the reference those answers are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from .baselines import effective_sigma
from .pc_tree import PCTree
from .prime_codec import Itemset
# Not called here; bench/spans.py wraps pc_miner.decode and pc_miner.encode by name.
from .prime_codec import decode, encode  # noqa: F401


@dataclass(frozen=True)
class MiningResult:
    """Everything one mining run produced.

    frequent maps each frequent itemset to its absolute support; maximal
    holds the subset-maximal frequent itemsets in lexicographic order;
    examined logs the candidates whose support was evaluated, in evaluation
    order; sigma is the absolute threshold actually enforced.
    """

    frequent: dict[Itemset, int]
    maximal: tuple[Itemset, ...]
    examined: tuple[Itemset, ...]
    sigma: int

    @property
    def candidates_examined(self) -> int:
        return len(self.examined)


def candidate_head(head: Itemset, frequencies: dict[int, int], sigma: int) -> Itemset:
    """Largest all-frequent subset of a head: drop every item below threshold."""
    return tuple(item for item in head if frequencies.get(item, 0) >= sigma)


def _maximal_members(itemsets: Iterable[Itemset]) -> set[Itemset]:
    # Largest first: a set can only be absorbed by a strictly larger one.
    # Bit k of masks[item] is set when kept set k holds item, so the AND of
    # a candidate's masks is the kept sets that contain it (all of them for
    # the empty itemset).
    masks: dict[int, int] = {}
    kept: list[Itemset] = []
    for its in sorted(set(itemsets), key=lambda t: (-len(t), t)):
        hit = (1 << len(kept)) - 1
        for item in its:
            hit &= masks.get(item, 0)
            if not hit:
                break
        if hit:
            continue
        bit = 1 << len(kept)
        for item in its:
            masks[item] = masks.get(item, 0) | bit
        kept.append(its)
    return set(kept)


def maximal_frequent(frequent: Iterable[Itemset]) -> set[Itemset]:
    """Subset-maximal members of a family of itemsets."""
    return _maximal_members(frequent)


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
    return _maximal_members(reduced)


def _nonempty_subsets(items: Itemset):
    return chain.from_iterable(combinations(items, size) for size in range(1, len(items) + 1))


def mine(tree: PCTree, sigma: int) -> MiningResult:
    """Enumerate every frequent itemset in the tree with its support.

    Candidates are processed level by level from the largest head size down
    to pairs, lexicographically within a level, so reruns examine the same
    candidates in the same order. Supports for the result map are backfilled
    with fresh queries after the walk; those do not count as examinations.
    Every frequent itemset is a frequent singleton or a subset of a frequent
    examined candidate, so the maximal ones are found among those alone.
    """
    sig = effective_sigma(sigma)
    frequent: set[Itemset] = {
        (item,) for item, count in tree.frequency_table.items() if count >= sig
    }
    tops = list(frequent)  # frequent singletons, then frequent examined candidates
    levels: dict[int, set[Itemset]] = {}
    for head in candidate_head_set(tree, sig):
        levels.setdefault(len(head), set()).add(head)
    examined: list[Itemset] = []
    k_max = max(levels, default=0)
    for k in range(k_max, 1, -1):
        below = levels.setdefault(k - 1, set())
        for candidate in sorted(levels.pop(k, ())):
            if candidate in frequent:
                continue
            sup = tree.support(candidate)
            examined.append(candidate)
            if sup >= sig:
                tops.append(candidate)
                frequent.update(_nonempty_subsets(candidate))
            elif k > 2:
                below.update(combinations(candidate, k - 1))
    supports = {f: tree.support(f) for f in frequent}
    maximal = tuple(sorted(_maximal_members(tops)))
    return MiningResult(frequent=supports, maximal=maximal, examined=tuple(examined), sigma=sig)
