"""Divisibility-ordered transaction tree (PC-tree).

Each inserted transaction becomes (or bumps) one node keyed by its prime-coded
value. Every child's value divides its parent's value, so each root-to-leaf
path is a strictly descending divisibility chain and the root's children, the
heads, are the values nothing inserted so far fits under.

A repeated transaction only bumps its node's count, so placement depends only
on the order in which distinct values first arrive. build_tree() therefore
tallies the rows in order of first occurrence and inserts each distinct
itemset once, with its multiplicity as the count: the same tree as one insert
per row, with one placement search and one count refresh per distinct value.

A new value goes into the first head's subtree, in creation order, that
holds a multiple or a divisor of it. The stored divisors of a value with
itemset x are exactly the products of x's subsets that are stored values, so
while 2^|x| is at most the number of heads, insert() looks them up and walks
them up to their heads instead of searching the heads' subtrees.
Long transactions, where 2^|x| is astronomical, and trees with few heads keep
the scan over the heads. Both searches need every children list in ascending
birth (creation) order, and validate() checks it.

support() takes an itemset and answers from a vertical index over the
tree's distinct nodes: one bit row per item (bit i set when node i holds
that item) and the nodes' local counts split into binary weight planes, so a
query is an AND of its items' rows followed by one popcount per plane, with
no prime arithmetic. The paper's own query, walk_support(), takes a
prime-coded value and stays as the reference oracle: it sums local counts
over nodes the query value divides, skipping a whole subtree as soon as its
top value fails the test, since descendant values divide their ancestors'
and non-divisibility propagates all the way down.

A node's global_count caches the local counts along its own root path. It is
maintained for every insertion and checked by validate(), but neither query
uses it: the same query value can divide nodes on several branches, and
path-local sums cannot see across branches.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from math import gcd
from operator import attrgetter
from typing import Collection, Iterable

from .baselines import TransactionDB
from .prime_codec import Itemset, PrimeTable, as_itemset, build_prime_table, encode


class PCNode:
    """One distinct transaction value and where it sits in the tree."""

    __slots__ = ("value", "items", "local_count", "global_count", "children", "parent", "birth")

    def __init__(self, value, items, birth, parent=None, local_count=1):
        self.value = value
        self.items = items  # cached factorization of value; must stay in agreement
        self.local_count = local_count
        self.global_count = 0
        self.children: list[PCNode] = []
        self.parent = parent
        self.birth = birth  # creation index; breaks placement ties deterministically

    def __repr__(self):
        return f"PCNode({self.value}, local={self.local_count}, global={self.global_count})"


class NodeBitIndex:
    """Vertical bitset index over a tree's distinct nodes, for support counts.

    Node i (in the order given) is bit i. Each item has a row with bit i set
    when node i holds it, and the nodes' local counts are split into binary
    weight planes: bit i of plane j is bit j of node i's count. The support
    of an itemset is then sum_j popcount(AND of its rows & plane_j) << j.
    Items no node holds get no row. Immutable once built.
    """

    __slots__ = ("_rows", "_planes")

    def __init__(self, nodes: Collection[PCNode]):
        # Rows fill as bytearrays and convert to ints once, which keeps the
        # build linear in the total size of the nodes; OR-ing bits into big
        # ints one at a time would be quadratic.
        rows: dict[int, bytearray] = {}
        planes: list[bytearray] = []
        width = (len(nodes) + 7) // 8
        for i, node in enumerate(nodes):
            byte, bit = i >> 3, 1 << (i & 7)
            for item in node.items:
                row = rows.get(item)
                if row is None:
                    row = rows[item] = bytearray(width)
                row[byte] |= bit
            count = node.local_count
            while len(planes) < count.bit_length():
                planes.append(bytearray(width))
            for j in range(count.bit_length()):
                if count >> j & 1:
                    planes[j][byte] |= bit
        self._rows = {item: int.from_bytes(row, "little") for item, row in rows.items()}
        self._planes = tuple(int.from_bytes(plane, "little") for plane in planes)

    def count(self, items: Iterable[int]) -> int:
        """Summed local counts of the nodes that hold every one of items."""
        rows = self._rows
        hit = -1  # every node; an item no node holds clears it
        for item in items:
            hit &= rows.get(item, 0)
        total = 0
        for j, plane in enumerate(self._planes):
            total += (hit & plane).bit_count() << j
        return total


class PCTree:
    """Prime-coded transaction tree built in one pass over a database.

    The tree is meant to be fully built before it is queried; insert() must
    not run alongside anything else. The first support() after an insert()
    builds the vertical index into a local and publishes it with one
    attribute store, so first queries racing on a fresh tree at worst build
    it twice and always read a complete index. After that, support(),
    walk_support() and the frequency table are plain reads, so concurrent
    queries are safe. Pass keep_transactions=True to retain the raw itemset
    multiset for oracle checks in tests; production builds can leave it off.
    """

    def __init__(self, prime_table: PrimeTable, keep_transactions: bool = False):
        self.prime_table = prime_table
        self.root = PCNode(None, (), birth=0)
        self.root.local_count = 0
        self.frequency_table: dict[int, int] = dict.fromkeys(prime_table.item_ids, 0)
        self.transaction_count = 0
        self.transactions: list[Itemset] | None = [] if keep_transactions else None
        self._node_by_value: dict[int, PCNode] = {}
        self._births = 0
        self._index: NodeBitIndex | None = None

    @property
    def node_count(self) -> int:
        """Number of distinct transaction values stored."""
        return len(self._node_by_value)

    def insert(self, items: Iterable[int], count: int = 1) -> None:
        """Ingest count copies of one transaction (count >= 1).

        The copies count everywhere a single insert would count once: in the
        node's local count, the frequency table, transaction_count and the
        retained transactions. Inserting a value once with count n gives the
        same tree as n single inserts in a row, since only the first of those
        places a node.

        A value already present anywhere in the tree only bumps that node's
        local count (values are unique tree-wide). Otherwise the value lands
        in the first root subtree, in creation order, that it is comparable
        with: below the deepest node there that it divides, or as a new head
        when that subtree only holds divisors of it. No comparable subtree
        at all also makes it a new head. It then adopts the children of its
        new parent that divide it (this is how a new superset replaces a
        head).

        Two searches give that same placement. When 2^|x| is at most the
        number of heads, the divisors are looked up: they are the products
        of x's subsets that are stored, walking them up gives the earliest
        head holding one, and only the heads up to that one are tested for
        a multiple. Otherwise, for long transactions and trees with few
        heads, the heads' subtrees are scanned in order. Both rely on every
        children list being in ascending birth order, which appending new
        nodes and deleting adopted ones in place preserves.
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
        if self.transactions is not None:
            self.transactions.extend([x] * count)
        self._index = None

        node = self._node_by_value.get(value)
        if node is not None:
            node.local_count += count
            self._refresh_global(node)
            return

        # 2^|x| <= heads, without building 2^|x| for a long transaction
        if len(x) < len(self.root.children).bit_length():
            parent, moved = self._place_by_lookup(x, value)
        else:
            parent, moved = self._place_by_scan(value)
        self._births += 1
        node = PCNode(value, x, birth=self._births, parent=parent, local_count=count)
        siblings = parent.children
        for child in moved:  # ascending birth, like siblings
            child.parent = node
            del siblings[bisect_left(siblings, child.birth, key=attrgetter("birth"))]
        node.children = moved
        siblings.append(node)
        self._node_by_value[value] = node
        self._refresh_global(node)

    def _place_by_lookup(self, x: Itemset, value: int) -> tuple[PCNode, list[PCNode]]:
        """Parent and adopted children for a new value, found from its stored divisors."""
        # A stored value divides value iff it is the product of a subset of x.
        products = [1]
        for item in x:
            prime = self.prime_table.prime_for(item)
            products += [p * prime for p in products]
        by_value = self._node_by_value
        divisors = [by_value[p] for p in products if p in by_value]
        root = self.root
        first = None  # earliest-born head with a divisor in its subtree
        seen = set()
        for node in divisors:
            while node not in seen:
                seen.add(node)
                if node.parent is root:
                    if first is None or node.birth < first.birth:
                        first = node
                    break
                node = node.parent
        parent = root
        for head in root.children:
            if head.value % value == 0:
                parent = self._deepest_multiple(head, value)
                break
            if head is first:
                break
        moved = [node for node in divisors if node.parent is parent]
        moved.sort(key=attrgetter("birth"))
        return parent, moved

    def _place_by_scan(self, value: int) -> tuple[PCNode, list[PCNode]]:
        """Parent and adopted children for a new value, found by scanning the heads."""
        head = self._accepting_head(value)
        if head is None:
            return self.root, []  # a root child dividing value would have been comparable
        parent = self._deepest_multiple(head, value) if head.value % value == 0 else self.root
        return parent, [c for c in parent.children if value % c.value == 0]

    def _accepting_head(self, value: int) -> PCNode | None:
        """First root child (creation order) whose subtree is comparable with value.

        A subtree holds a multiple of value iff its head is one, since every
        node's ancestors are multiples of it. Divisors of value can hide at
        any depth, but a branch whose top shares no factor with value cannot
        contain one (everything below divides that top), so it is skipped.
        """
        for head in self.root.children:
            if head.value % value == 0:
                return head
            stack = [head]
            while stack:
                node = stack.pop()
                if value % node.value == 0:
                    return head
                if gcd(node.value, value) > 1:
                    stack.extend(node.children)
        return None

    def _deepest_multiple(self, head: PCNode, value: int) -> PCNode:
        """Deepest node under head whose value is a multiple; oldest wins ties."""
        best, best_depth = head, 0
        stack = [(head, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best_depth or (depth == best_depth and node.birth < best.birth):
                best, best_depth = node, depth
            for child in node.children:
                if child.value % value == 0:
                    stack.append((child, depth + 1))
        return best

    def _refresh_global(self, node: PCNode) -> None:
        # global_count = own local count + parent's global count, root = 0.
        # Iterative, parents before children: chains can be thousands deep.
        stack = [node]
        while stack:
            node = stack.pop()
            base = 0 if node.parent is self.root else node.parent.global_count
            node.global_count = node.local_count + base
            stack.extend(node.children)

    def heads(self) -> tuple[int, ...]:
        """Values of the root's children, in creation order."""
        return tuple(child.value for child in self.root.children)

    def support(self, items: Iterable[int]) -> int:
        """Number of ingested transactions that contain every one of items.

        Answered from the vertical index over the distinct nodes, built on the
        first query after an insert. An item that no node holds gives 0, a
        repeated item counts once, and the empty itemset gives
        transaction_count.
        """
        index = self._index
        if index is None:
            index = self._index = NodeBitIndex(self._node_by_value.values())
        return index.count(items)

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

    def item_frequencies(self) -> dict[int, int]:
        """Copy of the per-item transaction counts maintained during insertion."""
        return dict(self.frequency_table)

    def validate(self, deep: bool = True) -> list[str]:
        """Check tree invariants; returns one message per violation, empty when sound.

        The structural checks (counts, global recurrence, divisibility
        chains, children in ascending birth order, tree-wide value
        uniqueness) are linear in the tree. deep=True additionally
        cross-checks every node's cached factor set, and the item frequency
        table against both support() and walk_support().
        """
        problems = []
        seen: dict[int, PCNode] = {}
        local_sum = 0
        stack: list[PCNode] = [self.root]
        while stack:
            node = stack.pop()
            last_birth = 0  # below every node's birth
            for child in node.children:
                if child.parent is not node:
                    problems.append(f"node {child.value}: parent link does not match tree shape")
                if child.birth <= last_birth:
                    problems.append(f"node {child.value}: out of birth order among its siblings")
                last_birth = child.birth
                stack.append(child)
            if node is self.root:
                continue
            if node.local_count < 1:
                problems.append(f"node {node.value}: local_count {node.local_count} < 1")
            local_sum += node.local_count
            parent = node.parent
            parent_global = 0 if parent is self.root else parent.global_count
            if node.global_count != node.local_count + parent_global:
                problems.append(
                    f"node {node.value}: global_count {node.global_count} breaks the "
                    f"recurrence (local {node.local_count} + parent {parent_global})"
                )
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
        if deep:
            for node in seen.values():
                if encode(node.items, self.prime_table) != node.value:
                    problems.append(
                        f"node {node.value}: cached items {node.items} disagree with the value"
                    )
            for item, count in self.frequency_table.items():
                for oracle, got in (("support", self.support((item,))),
                                    ("walk_support",
                                     self.walk_support(self.prime_table.prime_for(item)))):
                    if got != count:
                        problems.append(
                            f"item {item}: frequency table says {count}, {oracle}() says {got}"
                        )
            if self.transactions is not None and len(self.transactions) != self.transaction_count:
                problems.append("retained transaction list is out of step with the count")
        return problems


def build_tree(db: TransactionDB, keep_transactions: bool = False) -> PCTree:
    """One-pass tree construction over a whole database.

    The rows are tallied first, in order of first occurrence, and each
    distinct itemset is inserted once with its multiplicity. Placement
    depends only on the order in which distinct values first arrive, and a
    repeat only bumps a count, so the tree is the same as one insert per row.
    """
    tree = PCTree(build_prime_table(db.universe), keep_transactions=keep_transactions)
    tally = Counter(items for _tid, items in db.transactions)  # first-occurrence order
    for items, count in tally.items():
        tree.insert(items, count)
    return tree
