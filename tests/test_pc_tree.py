"""Tree tests: derived demo structure, oracle-checked supports, invariant suite.

support() takes an itemset and answers from the vertical node index;
walk_support(), the paper's pruned tree walk over prime-coded values, and a
scan of the raw transactions are its oracles.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine.baselines import TransactionDB, apriori_mine
from pcmine.dataset_io import SyntheticSpec, generate_synthetic
from pcmine.pc_miner import mine
from pcmine.pc_tree import PCNode, PCTree, VerticalIndex, build_tree
from pcmine.prime_codec import build_prime_table, encode

A, B, C, D, E, F = range(6)


def count_oracle(transactions, items):
    """Independent support count: scan the raw itemsets."""
    wanted = set(items)
    return sum(1 for t in transactions if wanted.issubset(t))


# ---------------------------------------------------------------- demo shape


def test_demo_tree_shape(demo_tree):
    assert demo_tree.heads() == (2310, 2730)
    assert demo_tree.node_count == 7
    assert demo_tree.transaction_count == 8
    nodes = demo_tree._node_by_value
    assert demo_tree.index.counts[nodes[455].birth] == 2
    # 910 arrived between 2730 and the earlier 455 and took 455 as its child
    assert nodes[455] in nodes[910].children
    assert nodes[910] in nodes[2730].children


def test_demo_item_frequencies(demo_tree):
    assert demo_tree.frequency_table == {A: 6, B: 3, C: 7, D: 7, E: 3, F: 4}


def test_demo_supports(demo_tree):
    assert demo_tree.support((A, C, D)) == demo_tree.walk_support(70) == 5
    assert demo_tree.support(()) == demo_tree.walk_support(1) == 8
    assert demo_tree.support((A, C, D, F)) == demo_tree.walk_support(910) == 2


def test_demo_validates_clean(demo_tree):
    assert demo_tree.validate() == []


# ---------------------------------------------------------------- insertion


def test_duplicate_insert_bumps_local_count():
    tree = PCTree(build_prime_table(range(6)))
    tree.insert((C, D, F))
    tree.insert((C, D, F))
    assert tree.node_count == 1
    assert tree.index.counts[tree._node_by_value[455].birth] == 2
    assert tree.transaction_count == 2
    assert tree.validate() == []


def test_head_replacement():
    tree = PCTree(build_prime_table(range(6)))
    tree.insert((A, B, E))          # 66
    tree.insert((A, B, C, D, E))    # 2310 must become the new head
    assert tree.heads() == (2310,)
    assert tree._node_by_value[2310].children == [tree._node_by_value[66]]
    assert tree.validate() == []


def test_insert_rejects_empty_itemset():
    tree = PCTree(build_prime_table(range(6)))
    with pytest.raises(ValueError):
        tree.insert(())


def test_counted_insert_counts_every_copy():
    tree = PCTree(build_prime_table(range(6)))
    tree.insert((C, D, F), count=3)
    tree.insert((A, C, D, F), count=2)
    tree.insert((C, D, F), count=4)
    n455, n910 = tree._node_by_value[455], tree._node_by_value[910]
    assert (tree.index.counts[n455.birth], tree.index.counts[n910.birth]) == (7, 2)
    assert n910.children == [n455]
    assert tree.transaction_count == 9
    assert tree.frequency_table == {A: 2, B: 0, C: 9, D: 9, E: 0, F: 9}
    assert tree.validate() == []


@pytest.mark.parametrize("items", [(C, D, F), (A, B)])
@pytest.mark.parametrize("count", [0, -1])
def test_insert_rejects_a_count_below_one_before_changing_anything(demo_tree, items, count):
    before = full_shape(demo_tree)
    with pytest.raises(ValueError):
        demo_tree.insert(items, count)
    assert full_shape(demo_tree) == before
    assert demo_tree.validate() == []


def test_insert_rejects_foreign_item():
    tree = PCTree(build_prime_table(range(6)))
    with pytest.raises(KeyError):
        tree.insert((A, 99))
    # the failed insert must not have half-updated the bookkeeping
    assert tree.transaction_count == 0


def test_fresh_tree_supports_nothing():
    tree = PCTree(build_prime_table(range(6)))
    assert tree.support((A, C, D)) == 0
    assert tree.support(()) == 0
    assert tree.heads() == ()
    assert tree.validate() == []


def test_single_transaction_tree():
    tree = PCTree(build_prime_table(range(6)))
    tree.insert((A, B))
    assert tree.heads() == (6,)
    assert tree.support((A, B)) == 1 and tree.support((A,)) == 1 and tree.support((C,)) == 0


# ---------------------------------------------------------------- validate


def test_validate_catches_corrupt_local_count(demo_tree):
    demo_tree.index.counts[demo_tree._node_by_value[70].birth] = 0
    assert "node 70: count 0 < 1" in demo_tree.validate(deep=False)


def test_validate_catches_duplicate_value(demo_tree):
    head = demo_tree.root.children[0]
    clone = PCNode(455, (C, D, F), birth=99)
    head.children.append(clone)
    problems = demo_tree.validate()
    assert any("two nodes" in p for p in problems)


def test_validate_catches_divisibility_break(demo_tree):
    node = demo_tree._node_by_value[70]
    node.value = 26  # not a divisor of its parent 770
    assert any("divide" in p for p in demo_tree.validate(deep=False))


def test_validate_catches_a_node_equal_to_its_parent(demo_tree):
    node = demo_tree._node_by_value[70]
    node.value = 770  # divides its parent 770, but is not strictly below it
    assert "node 770 is not strictly below parent 770" in demo_tree.validate(deep=False)


def test_validate_catches_cached_items_that_disagree_with_the_value(demo_tree):
    demo_tree._node_by_value[70].items = (A, C)
    problems = demo_tree.validate()
    assert f"node 70: cached items {(A, C)} disagree with the value" in problems
    assert not any("cached items" in p for p in demo_tree.validate(deep=False))


def test_validate_catches_a_node_missing_from_an_item_row(demo_tree):
    node = demo_tree._node_by_value[70]  # holds A, C and D
    demo_tree.index.rows[C] &= ~(1 << node.birth)
    problems = demo_tree.validate()
    assert f"item {C}: bit row disagrees with the nodes holding it" in problems
    assert demo_tree.validate(deep=False) == []  # shallow scope skips the rows


@pytest.mark.parametrize("value", [2310, 455])
def test_validate_catches_a_flipped_head_bit(demo_tree, value):
    # clears a head's bit in the depth-1 mask, or sets a deeper node's bit there
    demo_tree._levels[1] ^= 1 << demo_tree._node_by_value[value].birth
    assert "level masks disagree with the nodes' depths" in demo_tree.validate(deep=False)


@pytest.mark.parametrize("value, to_depth", [(455, 1), (2310, 2)])
def test_validate_catches_a_node_on_the_wrong_level(demo_tree, value, to_depth):
    # moves one node's bit from its own level mask into another one
    bit = 1 << demo_tree._node_by_value[value].birth
    levels = demo_tree._levels
    depth = next(d for d, level in enumerate(levels) if level & bit)
    levels[depth] ^= bit
    levels[to_depth] |= bit
    assert "level masks disagree with the nodes' depths" in demo_tree.validate(deep=False)


@pytest.mark.parametrize("value, head", [(910, 2310), (2730, None)])
def test_validate_catches_a_wrong_head_list_entry(demo_tree, value, head):
    # points a depth-2 node of head 2730 at head 2310, or a head at the root
    nodes = demo_tree._node_by_value
    demo_tree._heads[nodes[value].birth] = 0 if head is None else nodes[head].birth
    assert "head list disagrees with the tree shape" in demo_tree.validate(deep=False)


def test_validate_catches_a_stale_birth_lookup(demo_tree):
    nodes = demo_tree._nodes
    nodes[1], nodes[2] = nodes[2], nodes[1]
    assert any("not found under its birth" in p for p in demo_tree.validate(deep=False))


def test_validate_catches_children_out_of_birth_order(demo_tree):
    heads = demo_tree.root.children
    heads[0], heads[1] = heads[1], heads[0]
    assert any("birth order" in p for p in demo_tree.validate(deep=False))


# ------------------------------------------------------- support queries


def test_insert_after_support_is_seen(demo_tree):
    assert demo_tree.support((A, C, D)) == 5  # builds the weight planes
    demo_tree.insert((A, C, D))  # bumps the existing node 70
    assert demo_tree.support((A, C, D)) == 6
    demo_tree.insert((A, B, C, D, E, F))  # a new head
    assert demo_tree.support((A, C, D)) == 7
    assert demo_tree.support((A, B, C, D, E, F)) == 1
    assert demo_tree.support(()) == 10
    assert demo_tree.validate() == []


SINGLE_ROWS = [(A,), (B, C), (D, E), (A, C, E), (F,), (A, B, C, D, E, F)]


@pytest.mark.parametrize("copies", [1, 2, 3, 4, 5, 8, 9, 16, 17, 300])
def test_count_excess_planes_answer_every_subset(copies):
    # plane j holds bit j of a count c - 1, so c needs (c - 1).bit_length() planes
    rows = [(B, C, D)] * copies + SINGLE_ROWS
    tree = build_tree(TransactionDB.from_itemsets(rows, universe=range(6)))
    table = tree.prime_table
    for size in range(7):
        for items in combinations(range(6), size):
            assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
                rows, items)
    assert len(tree.index._planes) == (copies - 1).bit_length()


def test_count_excess_planes_edge_cases():
    tree = build_tree(TransactionDB.from_itemsets(SINGLE_ROWS, universe=range(6)))
    assert tree.support((99,)) == tree.support((A, 99)) == 0
    assert tree.index._planes == ()  # no repeated row: every query is one popcount
    assert tree.support(()) == tree.transaction_count == len(SINGLE_ROWS)
    assert tree.support((A,)) == 3


def test_validate_catches_a_flipped_plane_bit(demo_tree):
    demo_tree.support(())  # builds the planes
    node = demo_tree._node_by_value[455]  # C, D and F, counted twice
    first, *rest = demo_tree.index._planes
    demo_tree.index._planes = (first ^ 1 << node.birth, *rest)
    problems = demo_tree.validate()
    assert f"item {C}: support() says 6, walk_support() says 7" in problems
    assert demo_tree.validate(deep=False) == []  # shallow scope skips the planes


@pytest.mark.parametrize("value, items", [
    pytest.param(17, (6,), id="17"),
    pytest.param(70 * 17, (A, C, D, 6), id="1190"),
    pytest.param(17 * 19, (6, 7), id="323"),
    pytest.param(4, (A, A), id="4"),
    pytest.param(70 * 5, (A, C, C, D), id="350"),
    pytest.param(2 * 3 * 5 * 7 * 11 * 13 * 13, (A, B, C, D, E, F, F), id="390390"),
])
def test_foreign_or_squared_primes_support_nothing(demo_db, demo_tree, value, items):
    # A foreign or squared prime divides no node value. At the item level, a
    # foreign item is in no node and a repeated item is the same as one copy.
    assert demo_tree.walk_support(value) == 0
    distinct = set(items)
    if distinct <= set(range(6)):
        assert demo_tree.support(items) == demo_tree.support(sorted(distinct)) == count_oracle(
            demo_db.itemsets(), distinct)
    else:
        assert demo_tree.support(items) == 0


@pytest.mark.parametrize("value, items", [
    pytest.param(0, (-1,), id="0"),
    pytest.param(-70, (A, C, -70, D), id="-70"),
])
def test_non_positive_values_are_rejected(demo_tree, value, items):
    with pytest.raises(ValueError):
        demo_tree.walk_support(value)
    # no item id is negative, so an itemset holding one is in no transaction
    assert demo_tree.support(items) == 0


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_deep_chain_builds_and_mines_like_apriori(order):
    # {0}, {0, 1}, ..., {0..1199} in any order: each new value goes below its
    # smallest stored multiple and adopts its largest stored divisor, so the
    # tree is one chain 1,200 levels deep
    depth = 1200
    rows = [range(k + 1) for k in range(depth)]
    if order == "descending":
        rows.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(rows)
    db = TransactionDB.from_itemsets(rows)
    tree = build_tree(db)
    assert tree.heads() == (encode(range(depth), tree.prime_table),)
    assert tree.validate() == []
    nodes = sorted(tree._node_by_value.values(), key=lambda n: len(n.items))  # k holds {0..k}
    assert all(nodes[k + 1].children == [nodes[k]] for k in range(depth - 1))
    assert tree.support(()) == tree.walk_support(1) == depth
    sigma = depth - 8  # items 0..8 are frequent
    result = mine(tree, sigma)
    assert result.frequent == apriori_mine(db, sigma).frequent
    assert len(result.frequent) == 2**9 - 1


# ------------------------------------------------------- oracle equivalence


SMALL_SPECS = [
    SyntheticSpec(20, 6, 0.4, seed=11),
    SyntheticSpec(40, 8, 0.3, seed=12),
    SyntheticSpec(64, 10, 0.2, seed=13),
    SyntheticSpec(30, 7, 0.6, seed=14),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.name)
def test_support_matches_raw_count_exhaustively(spec):
    db = generate_synthetic(spec)
    tree = build_tree(db)
    table = tree.prime_table
    raw = db.itemsets()
    for k in range(1, len(db.universe) + 1):
        for items in combinations(db.universe, k):
            assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
                raw, items)


def test_support_matches_raw_count_random_12_items():
    db = generate_synthetic(SyntheticSpec(64, 12, 0.4, seed=15))
    tree = build_tree(db)
    table = tree.prime_table
    raw = db.itemsets()
    rng = random.Random(99)
    for _ in range(500):
        items = tuple(sorted(rng.sample(db.universe, rng.randint(1, 6))))
        assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
            raw, items)


def test_invariants_hold_after_every_insertion():
    db = generate_synthetic(SyntheticSpec(100, 9, 0.35, seed=16))
    tree = PCTree(build_prime_table(db.universe))
    for _, items in db.transactions:
        tree.insert(items)
        assert tree.validate(deep=False) == []
    assert tree.validate() == []


def test_queries_are_insertion_order_independent(demo_db):
    reference = build_tree(demo_db)
    probes = [c for k in range(1, 7) for c in combinations(range(6), k)]
    table = reference.prime_table
    expected = {p: reference.support(p) for p in probes}
    itemsets = demo_db.itemsets()
    for seed in range(6):
        shuffled = itemsets[:]
        random.Random(seed).shuffle(shuffled)
        tree = build_tree(TransactionDB.from_itemsets(shuffled, universe=demo_db.universe))
        assert tree.validate() == []
        for probe in probes:
            assert tree.support(probe) == tree.walk_support(encode(probe, table)) == expected[probe]
        assert tree.frequency_table == reference.frequency_table


# ------------------------------------------------------------- properties


@st.composite
def databases(draw):
    n_items = draw(st.integers(min_value=2, max_value=8))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_items - 1), min_size=1),
        min_size=1, max_size=24))
    return TransactionDB.from_itemsets(rows, universe=range(n_items))


def identical_rows():
    """One itemset many times: its count spans several binary weight planes."""
    return st.builds(lambda row, copies: [row] * copies,
                     st.sets(st.integers(min_value=0, max_value=7), min_size=1),
                     st.integers(min_value=1, max_value=300))


def giant_rows():
    """One transaction over a wide universe, with a few small ones beside it."""
    return st.builds(lambda width, others: [range(width)] + others,
                     st.integers(min_value=1, max_value=150),
                     st.lists(st.sets(st.integers(min_value=0, max_value=149), min_size=1),
                              max_size=4))


def chain_rows():
    """Nested prefixes {0..k} in any order: one deep chain of divisors."""
    return st.integers(min_value=1, max_value=60).flatmap(
        lambda depth: st.permutations([tuple(range(k + 1)) for k in range(depth)]))


@st.composite
def adversarial_databases(draw):
    rows = draw(st.one_of(identical_rows(), giant_rows(), chain_rows()))
    return TransactionDB.from_itemsets(rows)


@given(db=st.one_of(databases(), adversarial_databases()), data=st.data())
@settings(max_examples=120, deadline=None)
def test_support_index_matches_walk_and_raw_count(db, data):
    tree = build_tree(db)
    assert tree.validate() == []
    table = tree.prime_table
    queries = data.draw(st.lists(st.sets(st.sampled_from(db.universe)), min_size=1, max_size=8))
    # the same index from the tally alone, with no placement: the root, then each distinct row
    index = VerticalIndex()
    index.add((), 0)
    for items, count in db.tally().items():
        index.add(items, count)
    assert (index.rows, index.counts) == (tree.index.rows, tree.index.counts)
    for items in queries:
        assert index.support(items) == tree.support(items) == tree.walk_support(
            encode(items, table)) == count_oracle(db.itemsets(), items)


@given(db=databases())
@settings(max_examples=60, deadline=None)
def test_tree_invariants_property(db):
    tree = build_tree(db)
    assert tree.validate() == []
    assert tree.transaction_count == len(db)
    # every transaction's value divides some head: heads cover the database
    table = tree.prime_table
    heads = tree.heads()
    for items in db.itemsets():
        v = encode(items, table)
        assert any(h % v == 0 for h in heads)


@given(db=databases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_support_antitone_in_the_itemset(db, data):
    """Adding items can only shrink support: q a subset of p implies sup(p) <= sup(q)."""
    tree = build_tree(db)
    table = tree.prime_table
    p_items = data.draw(st.sets(st.sampled_from(db.universe), min_size=1))
    q_items = data.draw(st.sets(st.sampled_from(sorted(p_items))))
    assert tree.support(p_items) <= tree.support(q_items)
    assert tree.support(p_items) == tree.walk_support(encode(p_items, table))
    assert tree.support(q_items) == tree.walk_support(encode(q_items, table))


# ---------------------------------------------------- reference placement


class RefNode:
    def __init__(self, value, order, parent):
        self.value = value
        self.order = order
        self.parent = parent
        self.children = []
        self.local_count = 1


def subtree(node, depth=0):
    """Every node at and below node, with its depth below node."""
    yield node, depth
    for child in node.children:
        yield from subtree(child, depth + 1)


def reference_shape(db):
    """Tree shape from a deliberately naive placement, for comparison with build_tree.

    The new value goes under the first head, in creation order, that is a
    multiple of it or has any divisor of it in its subtree (every node is
    tested). When that head is a multiple, the parent is the deepest multiple
    below it, oldest first among equals; otherwise it is the root. The new
    node adopts the parent's children that divide it.
    """
    table = build_prime_table(db.universe)
    root = RefNode(None, 0, None)
    nodes = {}
    for _, items in db.transactions:
        value = encode(items, table)
        if value in nodes:
            nodes[value].local_count += 1
            continue
        head = next((h for h in root.children
                     if h.value % value == 0
                     or any(value % n.value == 0 for n, _ in subtree(h))), None)
        parent = root
        if head is not None and head.value % value == 0:
            multiples = [(n, d) for n, d in subtree(head) if n.value % value == 0]
            parent = min(multiples, key=lambda nd: (-nd[1], nd[0].order))[0]
        node = nodes[value] = RefNode(value, len(nodes) + 1, parent)
        node.children = [c for c in parent.children if value % c.value == 0]
        parent.children = [c for c in parent.children if value % c.value != 0] + [node]
        for child in node.children:
            child.parent = node

    return tuple(h.value for h in root.children), {
        v: (n.parent.value, [c.value for c in n.children], n.local_count)
        for v, n in nodes.items()}


def parents(tree):
    """Each node's parent, read from the children lists."""
    return {c: n for n in [tree.root, *tree._node_by_value.values()] for c in n.children}


def tree_shape(tree):
    parent, counts = parents(tree), tree.index.counts
    return tree.heads(), {
        v: (parent[n].value, [c.value for c in n.children], counts[n.birth])
        for v, n in tree._node_by_value.items()}


def wide_short_rows():
    """Many short rows over a wide universe, which leave many heads."""
    return st.lists(st.sets(st.integers(min_value=0, max_value=29), min_size=1, max_size=3),
                    min_size=100, max_size=200)


def mixed_length_rows():
    """Many 1-3-item rows with a few rows of 8 or more items interleaved among them."""
    short = st.sets(st.integers(min_value=0, max_value=19), min_size=1, max_size=3)
    long = st.sets(st.integers(min_value=0, max_value=19), min_size=8, max_size=14)
    return st.lists(short, min_size=40, max_size=120).flatmap(
        lambda rows: st.lists(long, min_size=1, max_size=6).flatmap(
            lambda extra: st.permutations(rows + extra)))


def overlapping_block_rows():
    """Dense rows from two overlapping item blocks, with small rows from the overlap.

    A row inside the overlap divides heads from both blocks, so several heads
    are multiples of it, and the subtree of a younger one can reach deeper.
    """
    blocks = [st.sets(st.integers(min_value=low, max_value=low + 9), min_size=4) for low in (0, 5)]
    overlap = st.sets(st.integers(min_value=5, max_value=9), min_size=1, max_size=3)
    return st.lists(st.one_of(*blocks, overlap), min_size=10, max_size=80)


@given(rows=st.one_of(wide_short_rows(), mixed_length_rows(), chain_rows(), giant_rows(),
                      identical_rows(), overlapping_block_rows()))
@settings(max_examples=80, deadline=None)
def test_placement_matches_the_naive_reference(rows):
    db = TransactionDB.from_itemsets(rows)
    tree = build_tree(db)
    assert tree_shape(tree) == reference_shape(db)
    assert tree.validate(deep=False) == []


def test_wide_prefix_matches_reference_and_apriori():
    # 2,000 rows of the wide workload's database: the first inserts meet a few
    # heads, the later ones hundreds
    full = generate_synthetic(SyntheticSpec(8000, 60, 0.1, seed=3))
    db = TransactionDB.from_itemsets(full.itemsets()[:2000], universe=full.universe)
    tree = build_tree(db)
    assert tree_shape(tree) == reference_shape(db)
    assert tree.validate() == []
    sigma = 210  # 0.105 of the rows, as in the wide workload
    assert mine(tree, sigma).frequent == apriori_mine(db, sigma).frequent


def test_one_value_adopts_several_non_adjacent_heads():
    # 40 one-item heads, then a 4-item and a 7-item row: each takes its items'
    # heads out of the middle of the root list
    short, long = (3, 11, 27, 38), (0, 5, 9, 14, 20, 33, 39)
    db = TransactionDB.from_itemsets([(i,) for i in range(40)] + [short, long])
    tree = build_tree(db)
    table = tree.prime_table
    singles = [table.prime_for(i) for i in range(40) if i not in short + long]
    assert tree.heads() == (*singles, encode(short, table), encode(long, table))
    for items in (short, long):
        adopted = tree._node_by_value[encode(items, table)].children
        assert [c.value for c in adopted] == [table.prime_for(i) for i in items]
    assert tree_shape(tree) == reference_shape(db)
    assert tree.validate() == []


# ------------------------------------------------------------ counted inserts


def full_shape(tree):
    """Everything insertion order can change: node placement, counts, births, tables."""
    parent, counts = parents(tree), tree.index.counts
    nodes = {v: (parent[n].value, [c.value for c in n.children], counts[n.birth], n.birth)
             for v, n in tree._node_by_value.items()}
    return tree.heads(), nodes, dict(tree.frequency_table), tree.transaction_count


def row_by_row(db):
    """The tree one plain insert per row gives."""
    tree = PCTree(build_prime_table(db.universe))
    for _, items in db.transactions:
        tree.insert(items)
    return tree


def assert_same_as_row_by_row(db, tree):
    reference = row_by_row(db)
    assert full_shape(tree) == full_shape(reference)
    assert tree.validate() == []


@st.composite
def duplicate_heavy_databases(draw):
    """Rows drawn with replacement from a small pool of itemsets, in shuffled order."""
    pool = draw(st.lists(st.sets(st.integers(min_value=0, max_value=9), min_size=1),
                         min_size=2, max_size=15))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=150))
    rows = draw(st.permutations(rows))
    return TransactionDB.from_itemsets(rows, universe=range(10))


@given(db=duplicate_heavy_databases())
@settings(max_examples=100, deadline=None)
def test_tallied_build_matches_one_insert_per_row(db):
    assert_same_as_row_by_row(db, build_tree(db))


def test_dense_prefix_inserts_once_per_distinct_itemset(monkeypatch):
    # the first 4,000 rows of the dense workload's database, mostly repeats
    full = generate_synthetic(SyntheticSpec(40000, 12, 0.6, seed=1))
    db = TransactionDB.from_itemsets(full.itemsets()[:4000], universe=full.universe)
    calls = []

    def counted(self, items, count=1, _insert=PCTree.insert):
        calls.append(count)
        return _insert(self, items, count)

    monkeypatch.setattr(PCTree, "insert", counted)
    tree = build_tree(db)
    monkeypatch.undo()
    distinct = set(db.itemsets())
    assert len(calls) == len(distinct) == tree.node_count < len(db)
    assert sum(calls) == len(db)
    assert_same_as_row_by_row(db, tree)
