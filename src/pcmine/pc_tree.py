"""Divisibility-ordered transaction tree (PC-tree).

Each inserted transaction becomes (or bumps) one node keyed by its prime-coded
value. Every child's value divides its parent's value, so each root-to-leaf
path is a strictly descending divisibility chain and the root's children, the
heads, are the values nothing inserted so far fits under.

A repeated transaction only bumps its node's count, so placement depends only
on the order in which distinct values first arrive. build_tree() therefore
tallies the rows in order of first occurrence and inserts each distinct
itemset once, with its multiplicity as the count: the same tree as one insert
per row, with one placement search per distinct value.

A new value goes into the first head's subtree, in creation order, that
holds a multiple or a divisor of it, below the deepest multiple there; it
becomes a new head when that subtree holds only divisors of it, or when no
subtree holds either. It then adopts the children of its new parent that
divide it. The tree keeps a vertical index over its nodes, in the manner of
MAFIA's vertical bitmaps (Burdick et al., ICDE 2001): one bit row per item,
with bit b set when the node born b holds the item, and one bit mask per
depth, with bit b set when the node born b is that many edges below the
root, so the depth-1 mask is the heads. insert() keeps them current and
places the value from them, for a transaction of any length: the multiples
of itemset x are the nodes holding all of x's items, the heads among them
are an AND with the depth-1 mask, and the stored divisors of x are the nodes
holding no item outside x. Only when the earliest multiple head is not the
first head are the divisors walked up to their heads, until one is older
than it. The deepest multiple is found by ANDing the multiples with the
depth masks, deepest first, and the mask it is found in gives the new
node's depth. A new head adopts the heads among the divisors; any other
parent's children are tested one by one, and each adopted subtree moves one
mask down. A node's depth only grows, when its subtree is adopted, and never
passes the item count of its head, so over a build each node moves down at
most (longest transaction) - 1 times, and the masks take at most (longest
transaction) x (nodes) / 8 bytes, like the rows. The search needs every
children list in ascending birth (creation) order, which holds because new
nodes are appended and adopted ones deleted in place; validate() checks
that, the rows and the masks.

support() takes an itemset and answers from the same rows: an AND of its
items' rows selects the nodes that hold them all, and the nodes' local
counts, split into binary weight planes, add up with one popcount per plane,
with no prime arithmetic. The paper's own query, walk_support(), takes a
prime-coded value and stays as the reference oracle: it sums local counts
over nodes the query value divides, skipping a whole subtree as soon as its
top value fails the test, since descendant values divide their ancestors'
and non-divisibility propagates all the way down.

The paper's per-node global count (the local counts summed along the root
path) is not stored, because neither support() nor walk_support() reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import repeat
from operator import and_, attrgetter, or_
from typing import Iterable, Iterator

from .baselines import TransactionDB
from .prime_codec import Itemset, PrimeTable, as_itemset, build_prime_table, encode


class PCNode:
    """One distinct transaction value and where it sits in the tree."""

    __slots__ = ("value", "items", "local_count", "children", "parent", "birth")

    def __init__(self, value, items, birth, parent=None, local_count=1):
        self.value = value
        self.items = items  # cached factorization of value; must stay in agreement
        self.local_count = local_count
        self.children: list[PCNode] = []
        self.parent = parent
        self.birth = birth  # creation index; breaks placement ties deterministically

    def __repr__(self):
        return f"PCNode({self.value}, local={self.local_count})"


def _bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    bits = bin(mask)  # str.rfind beats a loop over every bit position
    top = len(bits) - 1  # the index of bit 0
    i = bits.rfind("1", 2)
    while i >= 2:
        yield top - i
        i = bits.rfind("1", 2, i)


def _mask(positions: Iterable[int]) -> int:
    """The int with exactly the given bits set, built in time linear in its size.

    OR-ing bits into a big int one at a time would copy it each time.
    """
    buffer = bytearray()
    for position in positions:
        byte = position >> 3
        if byte >= len(buffer):
            buffer.extend(bytes(byte + 1 - len(buffer)))
        buffer[byte] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


class PCTree:
    """Prime-coded transaction tree built in one pass over a database.

    The tree is meant to be fully built before it is queried; insert() must
    not run alongside anything else. The item rows and the depth masks
    (_levels[d] has bit b set when the node born b is d edges below the
    root, so _levels[0] is the root and _levels[1] the heads) are kept up
    to date by insert() itself; only the count weight planes are built
    lazily, by the first support() after an insert(), into a local that is
    published with one attribute store, so first queries racing on a fresh
    tree at worst build them twice and always read complete planes. After
    that, support(), walk_support() and the frequency table are plain reads,
    so concurrent queries are safe.
    """

    def __init__(self, prime_table: PrimeTable):
        self.prime_table = prime_table
        self.root = PCNode(None, (), birth=0)
        self.root.local_count = 0
        self.frequency_table: dict[int, int] = dict.fromkeys(prime_table.item_ids, 0)
        self.transaction_count = 0
        self._node_by_value: dict[int, PCNode] = {}
        self._nodes = [self.root]  # by birth
        self._rows: dict[int, int] = {}  # item -> bit b set when the node born b holds it
        self._levels = [1]  # depth d -> bit b set when the node born b is d edges deep
        self._planes: tuple[int, ...] | None = None  # count weight planes, by birth

    @property
    def node_count(self) -> int:
        """Number of distinct transaction values stored."""
        return len(self._node_by_value)

    def insert(self, items: Iterable[int], count: int = 1) -> None:
        """Ingest count copies of one transaction (count >= 1).

        The copies count everywhere a single insert would count once: in the
        node's local count, the frequency table and transaction_count.
        Inserting a value once with count n gives the same tree as n single
        inserts in a row, since only the first of those places a node.

        A value already present anywhere in the tree only bumps that node's
        local count (values are unique tree-wide). Otherwise the value lands
        in the first root subtree, in creation order, that it is comparable
        with: below the deepest node there that it divides, or as a new head
        when that subtree only holds divisors of it. No comparable subtree
        at all also makes it a new head. It then adopts the children of its
        new parent that divide it (this is how a new superset replaces a
        head).
        """
        if count < 1:
            raise ValueError(f"a transaction is inserted at least once, got count {count}")
        x = as_itemset(items)
        if not x:
            raise ValueError("empty transactions carry no pattern information")
        value = encode(x, self.prime_table)
        for item in x:
            self.frequency_table[item] += count
        self.transaction_count += count
        self._planes = None

        node = self._node_by_value.get(value)
        if node is not None:
            node.local_count += count
            return

        parent, depth, moved = self._place(x, value)
        birth = len(self._nodes)
        node = PCNode(value, x, birth=birth, parent=parent, local_count=count)
        siblings = parent.children
        whole_tree = parent is self.root and len(moved) == len(siblings)
        for child in moved:  # ascending birth, like siblings
            child.parent = node
            del siblings[bisect_left(siblings, child.birth, key=attrgetter("birth"))]
        node.children = moved
        siblings.append(node)
        self._node_by_value[value] = node
        self._nodes.append(node)
        bit = 1 << birth
        rows = self._rows
        for item in x:
            rows[item] = rows.get(item, 0) | bit
        levels = self._levels
        if whole_tree:  # the root keeps one child: everything else moves down
            levels.insert(1, bit)
            return
        depth += 1  # the new node's
        levels.append(0)  # room one level below the deepest node; dropped if unused
        levels[depth] |= bit
        layer = moved
        while layer:  # the adopted subtrees move down, one level at a time
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
        root, rows, levels, nodes = self.root, self._rows, self._levels, self._nodes
        heads = levels[1] if len(levels) > 1 else 0
        contain = reduce(and_, map(rows.get, x, repeat(0)))  # every multiple of value
        multiples = contain & heads
        earliest = (multiples & -multiples).bit_length() - 1  # -1 when there is none
        if earliest < 0 or nodes[earliest] is not root.children[0]:
            outside = reduce(or_, map(rows.__getitem__, rows.keys() - set(x)), 0)
            divisors = ((1 << len(nodes)) - 2) & ~outside  # bit 0 is the root
            if earliest < 0 or self._divisor_under_older_head(divisors, earliest):
                return root, 0, [nodes[b] for b in _bit_positions(divisors & heads)]
        parent, depth = self._deepest_multiple(contain, earliest)
        return parent, depth, [c for c in parent.children if value % c.value == 0]

    def _divisor_under_older_head(self, divisors: int, birth: int) -> bool:
        """Whether a node of divisors sits in the subtree of a head born before birth.

        Each divisor is walked up to its head, and a walk stops early at a
        node an earlier walk passed through, whose head has been checked.
        So every node is walked at most once.
        """
        root, seen = self.root, set()
        for node in map(self._nodes.__getitem__, _bit_positions(divisors)):
            while node.parent is not root and node not in seen:
                seen.add(node)
                node = node.parent
            if node.parent is root and node.birth < birth:
                return True
        return False

    def _deepest_multiple(self, contain: int, head_birth: int) -> tuple[PCNode, int]:
        """Deepest node of contain under the head born head_birth, and its depth.

        contain holds every multiple of the new value. Every ancestor of a
        multiple is one, so the levels are scanned from the deepest up to
        level 2, and the head itself, at depth 1, wins when none of them
        holds a multiple under it. The oldest wins ties. Multiples under
        other heads are skipped.
        """
        root, nodes, levels = self.root, self._nodes, self._levels
        for depth in range(len(levels) - 1, 1, -1):
            found = contain & levels[depth]
            while found:
                low = found & -found
                node = top = nodes[low.bit_length() - 1]
                while top.parent is not root:
                    top = top.parent
                if top.birth == head_birth:
                    return node, depth
                found ^= low
        return nodes[head_birth], 1

    def heads(self) -> tuple[int, ...]:
        """Values of the root's children, in creation order."""
        return tuple(child.value for child in self.root.children)

    def support(self, items: Iterable[int]) -> int:
        """Number of ingested transactions that contain every one of items.

        An AND of the items' rows selects the nodes holding all of them, and
        the nodes' local counts, split into binary weight planes (bit b of
        plane j is bit j of the count of the node born b), are summed as one
        popcount per plane. The planes are built on the first query after an
        insert. An item that no node holds gives 0, a repeated item counts
        once, and the empty itemset gives transaction_count.
        """
        planes = self._planes
        if planes is None:
            nodes = self._nodes
            depth = max(node.local_count for node in nodes).bit_length()
            planes = self._planes = tuple(
                _mask(b for b, node in enumerate(nodes) if node.local_count >> j & 1)
                for j in range(depth))
        rows = self._rows
        hit = -1  # every node; an item no node holds clears it
        for item in items:
            hit &= rows.get(item, 0)
        total = 0
        for j, plane in enumerate(planes):
            total += (hit & plane).bit_count() << j
        return total

    def walk_support(self, value: int) -> int:
        """The paper's subtree-pruned tree walk over the nodes value divides.

        The reference oracle for support(): walk_support(encode(x)) equals
        support(x) for every itemset x over the prime table.
        """
        if value < 1:
            raise ValueError(f"transaction values are positive, got {value}")
        total = 0
        stack = list(self.root.children)
        while stack:
            node = stack.pop()
            if node.value % value == 0:
                total += node.local_count
                stack.extend(node.children)
            # otherwise no descendant can be a multiple either: skip the branch
        return total

    def validate(self, deep: bool = True) -> list[str]:
        """Check tree invariants; returns one message per violation, empty when sound.

        The structural checks (counts, divisibility chains, children in
        ascending birth order, tree-wide value uniqueness, the birth lookup
        and the level masks) are linear in the tree. deep=True additionally
        cross-checks every node's cached factor set, rebuilds the item rows
        from the nodes' items and compares them, and checks the item
        frequency table against both support() and walk_support(). Once
        the factor sets match the values, walk_support() of an item's prime
        sums the local counts of the nodes holding the item, so one pass
        tallies it for every item at once.
        """
        problems = []
        seen: dict[int, PCNode] = {}
        local_sum = 0
        by_depth: list[list[int]] = []
        stack: list[tuple[PCNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth == len(by_depth):
                by_depth.append([])
            by_depth[depth].append(node.birth)
            last_birth = 0  # below every node's birth
            for child in node.children:
                if child.parent is not node:
                    problems.append(f"node {child.value}: parent link does not match tree shape")
                if child.birth <= last_birth:
                    problems.append(f"node {child.value}: out of birth order among its siblings")
                last_birth = child.birth
                stack.append((child, depth + 1))
            if node is self.root:
                continue
            if node.local_count < 1:
                problems.append(f"node {node.value}: local_count {node.local_count} < 1")
            local_sum += node.local_count
            if node.birth >= len(self._nodes) or self._nodes[node.birth] is not node:
                problems.append(f"node {node.value}: not found under its birth {node.birth}")
            parent = node.parent
            if parent is not self.root:
                if parent.value % node.value != 0:
                    problems.append(f"node {node.value} does not divide its parent {parent.value}")
                elif node.value >= parent.value:
                    problems.append(f"node {node.value} is not strictly below parent {parent.value}")
            if node.value in seen:
                problems.append(f"value {node.value} is stored in two nodes")
            else:
                seen[node.value] = node
        if local_sum != self.transaction_count:
            problems.append(
                f"local counts sum to {local_sum}, expected {self.transaction_count}"
            )
        if self._levels != [_mask(births) for births in by_depth]:
            problems.append("level masks disagree with the nodes' depths")
        if deep:
            births: dict[int, list[int]] = {}
            walked: Counter[int] = Counter()
            for node in seen.values():
                if encode(node.items, self.prime_table) != node.value:
                    problems.append(
                        f"node {node.value}: cached items {node.items} disagree with the value"
                    )
                for item in node.items:
                    births.setdefault(item, []).append(node.birth)
                    walked[item] += node.local_count
            for item in births.keys() | self._rows.keys():
                if self._rows.get(item, 0) != _mask(births.get(item, ())):
                    problems.append(f"item {item}: bit row disagrees with the nodes holding it")
            for item, count in self.frequency_table.items():
                for oracle, got in (("support", self.support((item,))),
                                    ("walk_support", walked[item])):
                    if got != count:
                        problems.append(
                            f"item {item}: frequency table says {count}, {oracle}() says {got}"
                        )
        return problems


def build_tree(db: TransactionDB) -> PCTree:
    """One-pass tree construction over a whole database.

    The rows are tallied first, in order of first occurrence, and each
    distinct itemset is inserted once with its multiplicity. Placement
    depends only on the order in which distinct values first arrive, and a
    repeat only bumps a count, so the tree is the same as one insert per row.
    """
    tree = PCTree(build_prime_table(db.universe))
    tally = Counter(items for _tid, items in db.transactions)  # first-occurrence order
    for items, count in tally.items():
        tree.insert(items, count)
    return tree
