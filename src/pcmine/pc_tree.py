"""Divisibility-ordered transaction tree (PC-tree).

Each inserted transaction becomes (or bumps) one node keyed by its prime-coded
value. Every child's value divides its parent's value, so each root-to-leaf
path is a strictly descending divisibility chain and the root's children, the
heads, are the values nothing inserted so far fits under.

A repeated transaction only bumps its node's count, so build_tree() inserts
each distinct itemset of TransactionDB.tally() once, in order of first
occurrence, with its multiplicity as the count: the same tree as one insert
per row, with one placement search per distinct value.

Given the run's threshold sigma, build_tree(db, sigma) builds the tree over
the frequent items only, as FP-growth builds its prefix tree (Han, Pei &
Yin, SIGMOD 2000): it drops every item of support below sigma from each
distinct row, drops the rows left empty, and merges the rows that become
equal, in first-occurrence order, over the whole universe's prime table.
The walk cannot tell the two trees apart. Its candidate head set is the
maximal rows with their infrequent items removed, which the projection
leaves as they are; it queries only itemsets of frequent items, whose
supports a dropped item or a dropped row does not change. So examined,
frequent (in its order) and maximal are the whole tree's.

A new value goes into the first head's subtree, in creation order, that
holds a multiple or a divisor of it, below the deepest multiple there; it
becomes a new head when that subtree holds only divisors of it, or when no
subtree holds either. It then adopts the children of its new parent that
divide it. The tree keeps a vertical index over its nodes, in the manner of
MAFIA's vertical bitmaps (Burdick et al., ICDE 2001): one bit row per item,
with bit b set when the node born b holds the item, and one count per bit.
It adds one bit mask per depth, with bit b set when the node born b is that
many edges below the root, so the depth-1 mask is the heads. insert() keeps
them current and places the value from them, for a transaction of any
length. Placement asks the index for the multiples of itemset x, its
supersets(x), the nodes holding all of x's items, and for the stored
divisors of x, its subsets(x) less the root, the nodes holding no item
outside x: one XOR of every bit with the OR of the rows left in a copy of
the rows once x's items are popped, so its cost grows with the items the
tree holds, not with x; the heads among the multiples are an AND with the
depth-1 mask.
Only the index and validate() read its rows, so their format and the divisor
search sit behind it. A birth-indexed head list holds the birth of each
node's head, so which head holds a node is one lookup: only when the
earliest multiple head is not the first head are the divisors' heads looked
up, until one is older than it. The deepest multiple is found by ANDing the
multiples with the depth masks, deepest first, skipping those under other
heads, and the mask it is found in gives the new node's depth. A new head
adopts the heads among the divisors; any other parent's children are tested
one by one, and each adopted subtree moves one mask down. A node's depth
only grows, when its subtree is adopted, and never passes the item count of
its head, so over a build each node moves down at most
(longest transaction) - 1 times, and the masks take at most
(longest transaction) x (nodes) / 8 bytes, like the rows. The search needs
every children list in ascending birth (creation) order, which holds
because new nodes are appended and adopted ones deleted in place;
validate() checks that, the rows and the masks.

Counts live in the index alone: a node's count is the one at its birth, the
root is bit 0 as the empty itemset counting 0, and the item supports and
the transaction count are read from the index. Bit b is the b-th distinct
transaction in first-occurrence order, the order of TransactionDB.tally(),
so the same index can be built from the tally alone, with no placement.
support() takes an itemset and answers from the index, with no prime
arithmetic: an AND of its items' rows selects the nodes that hold them
all, and one popcount counts them. Their counts' excess over 1, split into
binary weight planes that every insert keeps current, adds one popcount
per plane, but only when the selection meets the union of the planes, the
nodes that count more than 1. A query writes nothing. Most nodes of a
sparse database count 1, so its trees have few planes or none, and most
of its queries select no repeated node and cost one popcount. The paper's
own query, walk_support(), takes a prime-coded value and stays as the
reference oracle: it sums the counts of the nodes the query value
divides, skipping a whole subtree as soon as its top value fails the
test, since descendant values divide their ancestors'. The paper's
per-node global count (the counts summed along the root path) is not
stored; neither query reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import attrgetter, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .prime_codec import Itemset, as_itemset, build_prime_table, encode

if TYPE_CHECKING:  # baselines imports this module for Apriori's VerticalIndex
    from .baselines import TransactionDB


class PCNode:
    """One distinct transaction value and where it sits in the tree."""

    __slots__ = ("value", "items", "children", "birth")

    def __init__(self, value, items, birth):
        self.value = value
        self.items = items  # cached factorization of value; must stay in agreement
        self.children: list[PCNode] = []
        self.birth = birth  # creation index and index bit; breaks placement ties

    def __repr__(self):
        return f"PCNode({self.value}, birth={self.birth})"


def _bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    bits = bin(mask)  # str.rfind beats a loop over every bit position
    top = len(bits) - 1  # the index of bit 0
    i = bits.rfind("1", 2)
    while i >= 2:
        yield top - i
        i = bits.rfind("1", 2, i)


def _mask(positions: Iterable[int]) -> int:
    """The int with the given bits set, in linear time (an OR per bit would copy it)."""
    buffer = bytearray()
    for position in positions:
        byte = position >> 3
        if byte >= len(buffer):
            buffer.extend(bytes(byte + 1 - len(buffer)))
        buffer[byte] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


class VerticalIndex:
    """Item rows and one count per bit over itemsets added in turn.

    rows[item] has bit b set when the b-th itemset added holds item, and
    counts[b] is the number of transactions that itemset stands for. add()
    and bump() take a count that is a plain int (not a bool) of at least 1,
    except an empty itemset's (a tree's root counts 0), and bump() a bit
    that some itemset holds; they refuse anything else before they change
    anything. supersets() and subsets() answer the containment queries from
    the rows alone, and covered() walks the same rows depth first to list
    every itemset that some stored itemset holds, each once. support() ANDs
    its items' rows itself and counts the hit with one popcount. The count
    weight planes (bit b of plane j is bit j of counts[b] - 1) and their
    union, the bits of the itemsets that count more than 1, are kept
    current by add() and bump(), and a query reads the planes only when its
    hit meets that union. Every query is a plain read.
    """

    __slots__ = ("rows", "counts", "_planes", "_repeated")

    def __init__(self):
        self.rows: dict[int, int] = {}
        self.counts: list[int] = []
        self._planes: list[int] = []
        self._repeated = 0  # the union of the planes

    def add(self, items: Iterable[int], count: int) -> int:
        """Give itemset items, standing for count transactions, the next bit; return it."""
        items = tuple(items)
        if type(count) is not int or count < 1 and items:
            raise ValueError(f"a count is an int of at least 1 (0 for no items), got {count!r}")
        bit = len(self.counts)
        self.counts.append(count)
        mask, rows = 1 << bit, self.rows
        for item in items:
            rows[item] = rows.get(item, 0) | mask
        if count > 1:
            self._reweigh(mask, 0, count - 1)
        return bit

    def bump(self, bit: int, count: int) -> None:
        """Count count more transactions for the itemset at bit."""
        if type(count) is not int or count < 1:
            raise ValueError(f"a bump counts an int of at least 1, got {count!r}")
        if type(bit) is not int or bit not in range(len(self.counts)):
            raise ValueError(f"no itemset was added at bit {bit!r}")
        before = self.counts[bit]
        self.counts[bit] = after = before + count
        self._reweigh(1 << bit, max(before - 1, 0), after - 1)

    def _reweigh(self, mask: int, old: int, new: int) -> None:
        """Move mask's bit from the planes of excess old over 1 to those of excess new."""
        planes = self._planes
        while len(planes) < new.bit_length():
            planes.append(0)
        flips = old ^ new
        for j in range(flips.bit_length()):
            if flips >> j & 1:
                planes[j] ^= mask
        if new and not old:  # counts only grow
            self._repeated |= mask

    def supersets(self, items: Iterable[int]) -> int:
        """Bits of the itemsets that hold every one of items; -1 (every bit) for none."""
        rows = self.rows
        hit = -1  # an item no row holds clears every bit
        for item in items:
            hit &= rows.get(item, 0)
        return hit

    def subsets(self, items: Iterable[int]) -> int:
        """Bits of the itemsets that hold no item outside items.

        The rows of the items outside are those left in a copy of the rows
        once items are popped from it: their OR is the bits to leave out,
        and one XOR with every bit takes its complement. An item that no
        row holds pops nothing, and nor does a repeat. An empty itemset,
        such as a tree's root at bit 0, is always among them.
        """
        outside = self.rows.copy()
        pop = outside.pop
        for item in items:
            pop(item, None)
        return reduce(or_, outside.values(), 0) ^ ((1 << len(self.counts)) - 1)

    def covered(self, items: Iterable[int]) -> Iterator[Itemset]:
        """Each non-empty itemset over items that some stored itemset holds, once.

        A repeated item counts once, as in support(), supersets() and
        subsets(). An itemset lists its items in the order of their first
        occurrence in items and comes right before its extensions by later
        items, depth first. Each open prefix keeps the bits of its holders
        and the positions it has yet to try on an explicit stack, so a stored
        itemset of any length stays clear of the recursion limit. The
        prefixes on the stack are the itemsets already yielded, so the stack
        costs no copies.
        """
        items = tuple(dict.fromkeys(items))
        rows = [self.rows.get(item, 0) for item in items]
        stack = [((), -1, iter(range(len(items))))]  # prefix, its holders, positions left
        while stack:
            prefix, holders, positions = stack[-1]
            for position in positions:
                hit = holders & rows[position]
                if hit:
                    itemset = prefix + (items[position],)
                    yield itemset
                    stack.append((itemset, hit, iter(range(position + 1, len(items)))))
                    break
            else:  # every extension tried: close the prefix
                stack.pop()

    def support(self, items: Iterable[int]) -> int:
        """Number of transactions that contain every one of items, or all for none.

        An item that no row holds gives 0, and a repeated item counts once.
        """
        rows = self.rows
        hit = -1  # an item no row holds clears every bit
        for item in items:
            hit &= rows.get(item, 0)
        if hit < 0:  # no items
            return sum(self.counts)
        total = hit.bit_count()
        if hit & self._repeated:  # otherwise every selected itemset counts 1
            for j, plane in enumerate(self._planes):
                total += (hit & plane).bit_count() << j
        return total


class PCTree:
    """Prime-coded transaction tree built in one pass over a database.

    The tree is meant to be fully built before it is queried; insert() must
    not run alongside anything else. _levels[d] has bit b set when the node
    born b is d edges below the root (_levels[1] is the heads), and
    _heads[b] is the birth of the head above or at the node born b (0 for
    the root). Every query is a plain read, so concurrent queries are safe.
    """

    def __init__(self, prime_table: Mapping[int, int]):
        self.prime_table = prime_table
        self.root = PCNode(None, (), birth=0)
        self.index = VerticalIndex()
        self.index.add((), 0)  # the root, so that bit b is the node born b
        self._node_by_value: dict[int, PCNode] = {}
        self._nodes = [self.root]  # by birth
        self._levels = [1]  # depth d -> bit b set when the node born b is d edges deep
        self._heads = [0]  # by birth: the birth of the node's head

    @property
    def node_count(self) -> int:
        """Number of distinct transaction values stored."""
        return len(self._node_by_value)

    def insert(self, items: Iterable[int], count: int = 1) -> None:
        """Ingest count copies of one transaction (count >= 1).

        The same tree as count single inserts, since only the first places a
        node: a value already in the tree (values are unique tree-wide) only
        bumps its node's count. A new value lands in the first root subtree,
        in creation order, that it is comparable with: below the deepest
        node there that it divides, or as a new head when that subtree only
        holds divisors of it or none is comparable. It then adopts the
        children of its new parent that divide it, as a new superset of a
        head does the head.
        """
        x = as_itemset(items)
        if not x:
            raise ValueError("empty transactions carry no pattern information")
        value = encode(x, self.prime_table)
        node = self._node_by_value.get(value)
        if node is not None:
            self.index.bump(node.birth, count)
            return

        parent, depth, moved = self._place(x, value)
        birth = self.index.add(x, count)
        node = PCNode(value, x, birth)
        siblings = parent.children
        whole_tree = parent is self.root and len(moved) == len(siblings)
        for child in moved:  # ascending birth, like siblings
            del siblings[bisect_left(siblings, child.birth, key=attrgetter("birth"))]
        node.children = moved
        siblings.append(node)
        self._node_by_value[value] = node
        self._nodes.append(node)
        head = self._heads[parent.birth] or birth  # the root's entry is 0
        self._heads.append(head)
        bit = 1 << birth
        levels = self._levels
        if whole_tree:  # the root keeps one child: everything else moves down
            levels.insert(1, bit)
            self._heads = [0] + [birth] * birth
            return
        depth += 1  # the new node's
        levels.append(0)  # room one level below the deepest node; dropped if unused
        levels[depth] |= bit
        layer = moved
        while layer:  # the adopted subtrees move down, one level at a time
            for child in layer:  # and join the new node's head
                self._heads[child.birth] = head
            moving = sum(1 << child.birth for child in layer)
            levels[depth] ^= moving
            depth += 1
            levels[depth] |= moving
            layer = [grandchild for child in layer for grandchild in child.children]
        if not levels[-1]:
            levels.pop()

    def _place(self, x: Itemset, value: int) -> tuple[PCNode, int, list[PCNode]]:
        """Parent, its depth and adopted children (ascending birth) for a new value.

        The earliest head that is a multiple takes the value unless an older
        head holds a divisor; with no such multiple, the value is a new head,
        under the root at depth 0.
        """
        root, index, levels, nodes = self.root, self.index, self._levels, self._nodes
        heads = levels[1] if len(levels) > 1 else 0
        contain = index.supersets(x)  # every multiple of value
        multiples = contain & heads
        earliest = (multiples & -multiples).bit_length() - 1  # -1 when there is none
        if earliest < 0 or nodes[earliest] is not root.children[0]:
            divisors = index.subsets(x) & ~1  # the root divides everything but is no node
            older = map(earliest.__gt__, map(self._heads.__getitem__, _bit_positions(divisors)))
            if earliest < 0 or any(older):
                return root, 0, [nodes[b] for b in _bit_positions(divisors & heads)]
        parent, depth = self._deepest_multiple(contain, earliest)
        return parent, depth, [c for c in parent.children if value % c.value == 0]

    def _deepest_multiple(self, contain: int, head_birth: int) -> tuple[PCNode, int]:
        """Deepest node of contain under the head born head_birth, and its depth.

        contain holds every multiple of the new value, and every ancestor of
        a multiple is one, so the levels are scanned from the deepest up to
        level 2, oldest first, skipping multiples under other heads; the head
        itself, at depth 1, wins when none is found.
        """
        nodes, levels, heads = self._nodes, self._levels, self._heads
        for depth in range(len(levels) - 1, 1, -1):
            found = contain & levels[depth]
            while found:
                b = (found & -found).bit_length() - 1
                if heads[b] == head_birth:
                    return nodes[b], depth
                found ^= 1 << b
        return nodes[head_birth], 1

    def heads(self) -> tuple[int, ...]:
        """Values of the root's children, in creation order."""
        return tuple(child.value for child in self.root.children)

    def support(self, items: Iterable[int]) -> int:
        """Number of ingested transactions that contain every one of items."""
        return self.index.support(items)

    def walk_support(self, value: int) -> int:
        """The paper's subtree-pruned tree walk over the nodes value divides.

        The reference oracle for support(): walk_support(encode(x)) equals
        support(x) for every itemset x over the prime table.
        """
        if value < 1:
            raise ValueError(f"transaction values are positive, got {value}")
        counts = self.index.counts
        total = 0
        stack = list(self.root.children)
        while stack:
            node = stack.pop()
            if node.value % value == 0:
                total += counts[node.birth]
                stack.extend(node.children)
            # otherwise no descendant can be a multiple either: skip the branch
        return total

    def validate(self) -> list[str]:
        """Check every tree invariant; returns one message per violation, empty when sound.

        It checks a root count of 0 and node counts of at least 1,
        divisibility chains, children in ascending birth order, tree-wide
        value uniqueness, the birth lookup, the level masks and the head
        list, then every node's cached factor set, the item rows rebuilt
        from them, and each item's support() against a tally of the counts
        of the nodes holding it, which is what walk_support() of the item's
        prime sums once the factor sets match the values.
        """
        problems = []
        counts = self.index.counts
        seen: set[int] = set()
        by_depth: list[list[int]] = []
        head_of: dict[int, int] = {}  # birth -> its head's birth, as the shape says
        stack: list[tuple[PCNode, int, int, int | None]] = [(self.root, 0, 0, None)]
        while stack:
            node, depth, head, above = stack.pop()  # above is the parent's value
            if depth == len(by_depth):
                by_depth.append([])
            by_depth[depth].append(node.birth)
            head_of[node.birth] = head
            last_birth = 0  # below every node's birth
            for child in node.children:
                if child.birth <= last_birth:
                    problems.append(f"node {child.value}: out of birth order among its siblings")
                last_birth = child.birth
                stack.append((child, depth + 1, head or child.birth, node.value))
            if node is self.root:
                if counts[node.birth]:  # the root stands for no transaction
                    problems.append(f"root: count {counts[node.birth]}, not 0")
                continue
            if above is not None:
                if above % node.value != 0:
                    problems.append(f"node {node.value} does not divide its parent {above}")
                elif node.value >= above:
                    problems.append(f"node {node.value} is not strictly below parent {above}")
            if node.birth >= len(self._nodes) or self._nodes[node.birth] is not node:
                problems.append(f"node {node.value}: not found under its birth {node.birth}")
            elif counts[node.birth] < 1:
                problems.append(f"node {node.value}: count {counts[node.birth]} < 1")
            if node.value in seen:
                problems.append(f"value {node.value} is stored in two nodes")
            else:
                seen.add(node.value)
        if self._levels != [_mask(births) for births in by_depth]:
            problems.append("level masks disagree with the nodes' depths")
        if dict(enumerate(self._heads)) != head_of:
            problems.append("head list disagrees with the tree shape")
        births: dict[int, list[int]] = {}  # item -> the births of the nodes holding it
        for node in self._nodes[1:]:
            if encode(node.items, self.prime_table) != node.value:
                problems.append(
                    f"node {node.value}: cached items {node.items} disagree with the value")
            for item in node.items:
                births.setdefault(item, []).append(node.birth)
        rows = self.index.rows
        for item in births.keys() | rows.keys():
            if rows.get(item, 0) != _mask(births.get(item, ())):
                problems.append(f"item {item}: bit row disagrees with the nodes holding it")
        for item in self.prime_table:
            walked = sum(map(counts.__getitem__, births.get(item, ())))
            if (got := self.index.support((item,))) != walked:
                problems.append(f"item {item}: support() says {got}, walk_support() says {walked}")
        return problems


def build_tree(db: TransactionDB, sigma: int = 1) -> PCTree:
    """One-pass tree construction over a database, or over its frequent items.

    Each distinct itemset of db.tally() is inserted once with its
    multiplicity, in order of first occurrence: a repeat only bumps a
    count, so the tree is the same as one insert per row. With a threshold
    sigma, the tally is first projected onto the items whose support is at
    least sigma (_frequent_tally), and a row left empty is dropped, so the
    tree is that of the projected database, over the same prime table:
    every value is the database's own code. A dropped item's support reads
    0 there, while every itemset of frequent items keeps its support, so
    mine(tree, sigma) gives the same result on either tree (see the module
    docstring). The default sigma of 1, like 0, drops nothing and builds
    the whole tree; a negative sigma raises ValueError.
    """
    if sigma < 0:
        raise ValueError(f"support threshold must be non-negative, got {sigma}")
    tree = PCTree(build_prime_table(db.universe))
    tally = db.tally()
    if sigma > 1:
        tally = _frequent_tally(tally, sigma)
    for items, count in tally.items():
        tree.insert(items, count)
    return tree


def _frequent_tally(tally: Mapping[Itemset, int], sigma: int) -> Mapping[Itemset, int]:
    """tally with every item below support sigma dropped from each itemset.

    An itemset left empty is dropped, and itemsets that become equal are
    merged, their counts summed, at the first one's place. When every item
    the tally holds is frequent, it is returned as it is.
    """
    support: dict[int, int] = {}
    get = support.get
    for items, count in tally.items():
        for item in items:
            support[item] = get(item, 0) + count
    frequent = {item for item, total in support.items() if total >= sigma}
    if len(frequent) == len(support):
        return tally
    projected: dict[Itemset, int] = {}
    keep = frequent.__contains__
    for items, count in tally.items():
        if kept := tuple(filter(keep, items)):
            projected[kept] = projected.get(kept, 0) + count
    return projected
