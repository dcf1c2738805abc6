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
from pcmine.pc_tree import NodeBitIndex, PCNode, PCTree, build_tree
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
    n455 = demo_tree._node_by_value[455]
    assert n455.local_count == 2
    # 910 arrived between 2730 and the earlier 455 and took 455 as its child
    assert n455.parent.value == 910
    assert n455.parent.parent.value == 2730


def test_demo_global_counts(demo_tree):
    by_value = demo_tree._node_by_value
    expected = {2310: 1, 66: 2, 770: 2, 70: 3, 2730: 1, 910: 2, 455: 4}
    assert {v: n.global_count for v, n in by_value.items()} == expected


def test_demo_item_frequencies(demo_tree):
    assert demo_tree.item_frequencies() == {A: 6, B: 3, C: 7, D: 7, E: 3, F: 4}


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
    assert tree._node_by_value[455].local_count == 2
    assert tree.transaction_count == 2
    assert tree.validate() == []


def test_head_replacement():
    tree = PCTree(build_prime_table(range(6)))
    tree.insert((A, B, E))          # 66
    tree.insert((A, B, C, D, E))    # 2310 must become the new head
    assert tree.heads() == (2310,)
    n66 = tree._node_by_value[66]
    assert n66.parent.value == 2310
    assert n66.global_count == 2
    assert tree.validate() == []


def test_insert_rejects_empty_itemset():
    tree = PCTree(build_prime_table(range(6)))
    with pytest.raises(ValueError):
        tree.insert(())


def test_counted_insert_counts_every_copy():
    tree = PCTree(build_prime_table(range(6)), keep_transactions=True)
    tree.insert((C, D, F), count=3)
    tree.insert((A, C, D, F), count=2)
    tree.insert((C, D, F), count=4)
    assert tree._node_by_value[455].local_count == 7
    assert tree._node_by_value[455].global_count == 9
    assert tree.transaction_count == 9
    assert tree.frequency_table == {A: 2, B: 0, C: 9, D: 9, E: 0, F: 9}
    assert sorted(tree.transactions) == [(A, C, D, F)] * 2 + [(C, D, F)] * 7
    assert tree.validate() == []


@pytest.mark.parametrize("items", [(C, D, F), (A, B)])
@pytest.mark.parametrize("count", [0, -1])
def test_insert_rejects_a_count_below_one_before_changing_anything(demo_tree, items, count):
    before = full_shape(demo_tree), list(demo_tree.transactions)
    with pytest.raises(ValueError):
        demo_tree.insert(items, count)
    assert (full_shape(demo_tree), list(demo_tree.transactions)) == before
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
    tree = PCTree(build_prime_table(range(6)), keep_transactions=True)
    tree.insert((A, B))
    assert tree.heads() == (6,)
    assert tree.support((A, B)) == 1 and tree.support((A,)) == 1 and tree.support((C,)) == 0
    assert tree.transactions == [(A, B)]


# ---------------------------------------------------------------- validate


def test_validate_catches_corrupt_global_count(demo_tree):
    demo_tree._node_by_value[66].global_count = 99
    problems = demo_tree.validate()
    assert any("recurrence" in p for p in problems)


def test_validate_catches_corrupt_local_count(demo_tree):
    node = demo_tree._node_by_value[70]
    node.local_count = 0
    assert any("local_count" in p for p in demo_tree.validate())


def test_validate_catches_duplicate_value(demo_tree):
    head = demo_tree.root.children[0]
    clone = PCNode(455, (C, D, F), birth=99, parent=head)
    clone.global_count = clone.local_count + head.global_count
    head.children.append(clone)
    problems = demo_tree.validate()
    assert any("two nodes" in p for p in problems)


def test_validate_catches_divisibility_break(demo_tree):
    node = demo_tree._node_by_value[70]
    node.value = 26  # not a divisor of its parent 770
    assert any("divide" in p for p in demo_tree.validate(deep=False))


def test_validate_catches_stale_frequency_table(demo_tree):
    demo_tree.frequency_table[A] += 1
    assert any("frequency table" in p for p in demo_tree.validate())
    assert demo_tree.validate(deep=False) == []  # shallow scope skips it


def test_validate_checks_the_frequency_table_against_both_oracles(demo_tree):
    demo_tree.frequency_table[A] += 1
    problems = demo_tree.validate()
    assert any(", support() says" in p for p in problems)
    assert any(", walk_support() says" in p for p in problems)


def test_validate_catches_a_stale_support_index(demo_tree):
    # an index that misses the first node disagrees with the table; the walk does not
    nodes = list(demo_tree._node_by_value.values())
    demo_tree._index = NodeBitIndex(nodes[1:])
    problems = demo_tree.validate()
    assert problems
    assert all(", support() says" in p for p in problems)


def test_validate_catches_children_out_of_birth_order(demo_tree):
    heads = demo_tree.root.children
    heads[0], heads[1] = heads[1], heads[0]
    assert any("birth order" in p for p in demo_tree.validate(deep=False))


def test_validate_catches_count_drift(demo_tree):
    demo_tree.transaction_count += 1
    assert any("sum" in p for p in demo_tree.validate(deep=False))


# ------------------------------------------------------- support queries


def test_insert_after_support_is_seen(demo_tree):
    assert demo_tree.support((A, C, D)) == 5  # builds the index
    demo_tree.insert((A, C, D))  # bumps the existing node 70
    assert demo_tree.support((A, C, D)) == 6
    demo_tree.insert((A, B, C, D, E, F))  # a new head
    assert demo_tree.support((A, C, D)) == 7
    assert demo_tree.support((A, B, C, D, E, F)) == 1
    assert demo_tree.support(()) == 10
    assert demo_tree.validate() == []


@pytest.mark.parametrize("value, items", [
    pytest.param(17, (6,), id="17"),
    pytest.param(70 * 17, (A, C, D, 6), id="1190"),
    pytest.param(17 * 19, (6, 7), id="323"),
    pytest.param(4, (A, A), id="4"),
    pytest.param(70 * 5, (A, C, C, D), id="350"),
    pytest.param(2 * 3 * 5 * 7 * 11 * 13 * 13, (A, B, C, D, E, F, F), id="390390"),
])
def test_foreign_or_squared_primes_support_nothing(demo_tree, value, items):
    # A foreign or squared prime divides no node value. At the item level, a
    # foreign item is in no node and a repeated item is the same as one copy.
    assert demo_tree.walk_support(value) == 0
    distinct = set(items)
    if distinct <= set(range(6)):
        assert demo_tree.support(items) == demo_tree.support(sorted(distinct)) == count_oracle(
            demo_tree.transactions, distinct)
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


def test_deep_chain_builds_and_mines_like_apriori():
    # {0}, {0, 1}, ..., {0..1199}: every insert adopts the previous head, so the
    # tree is one chain 1,200 levels deep (the count refresh used to recurse per level)
    depth = 1200
    db = TransactionDB.from_itemsets([range(k + 1) for k in range(depth)])
    tree = build_tree(db)
    assert tree.heads() == (encode(range(depth), tree.prime_table),)
    assert tree.validate(deep=False) == []
    nodes = list(tree._node_by_value.values())  # creation order: node k holds {0..k}
    assert [node.global_count for node in nodes] == [depth - k for k in range(depth)]
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
    tree = build_tree(db, keep_transactions=True)
    table = tree.prime_table
    raw = tree.transactions
    for k in range(1, len(db.universe) + 1):
        for items in combinations(db.universe, k):
            assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
                raw, items)


def test_support_matches_raw_count_random_12_items():
    db = generate_synthetic(SyntheticSpec(64, 12, 0.4, seed=15))
    tree = build_tree(db, keep_transactions=True)
    table = tree.prime_table
    rng = random.Random(99)
    for _ in range(500):
        items = tuple(sorted(rng.sample(db.universe, rng.randint(1, 6))))
        assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
            tree.transactions, items)


def test_invariants_hold_after_every_insertion():
    db = generate_synthetic(SyntheticSpec(100, 9, 0.35, seed=16))
    tree = PCTree(build_prime_table(db.universe), keep_transactions=True)
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
        assert tree.item_frequencies() == reference.item_frequencies()


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
    tree = build_tree(db, keep_transactions=True)
    assert tree.validate() == []
    table = tree.prime_table
    queries = data.draw(st.lists(st.sets(st.sampled_from(db.universe)), min_size=1, max_size=8))
    for items in queries:
        assert tree.support(items) == tree.walk_support(encode(items, table)) == count_oracle(
            tree.transactions, items)


@given(db=databases())
@settings(max_examples=60, deadline=None)
def test_tree_invariants_property(db):
    tree = build_tree(db, keep_transactions=True)
    assert tree.validate() == []
    assert tree.transaction_count == len(db)
    # every transaction's value divides some head: heads cover the database
    table = tree.prime_table
    heads = tree.heads()
    for items in tree.transactions:
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
    tested; no gcd pruning). When that head is a multiple, the parent is the
    deepest multiple below it, oldest first among equals; otherwise it is the
    root. The new node adopts the parent's children that divide it.
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

    def path_count(node):
        return 0 if node is root else node.local_count + path_count(node.parent)

    return tuple(h.value for h in root.children), {
        v: (n.parent.value, [c.value for c in n.children], n.local_count, path_count(n))
        for v, n in nodes.items()}


def tree_shape(tree):
    return tree.heads(), {
        v: (n.parent.value, [c.value for c in n.children], n.local_count, n.global_count)
        for v, n in tree._node_by_value.items()}


def wide_short_rows():
    """Many short rows over a wide universe: many heads, so inserts look up divisors."""
    return st.lists(st.sets(st.integers(min_value=0, max_value=29), min_size=1, max_size=3),
                    min_size=100, max_size=200)


@given(rows=st.one_of(wide_short_rows(), chain_rows(), giant_rows(), identical_rows()))
@settings(max_examples=80, deadline=None)
def test_placement_matches_the_naive_reference(rows):
    db = TransactionDB.from_itemsets(rows)
    tree = build_tree(db)
    assert tree_shape(tree) == reference_shape(db)
    assert tree.validate(deep=False) == []


def test_wide_prefix_matches_reference_and_apriori(monkeypatch):
    # 2,000 rows of the wide workload's database: the first inserts scan the
    # few heads there are, the later ones look their divisors up
    full = generate_synthetic(SyntheticSpec(8000, 60, 0.1, seed=3))
    db = TransactionDB.from_itemsets(full.itemsets()[:2000], universe=full.universe)
    calls = {"_place_by_scan": 0, "_place_by_lookup": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(PCTree, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(PCTree, name, counted)
    tree = build_tree(db)
    assert all(calls.values())
    assert sum(calls.values()) == tree.node_count
    assert tree_shape(tree) == reference_shape(db)
    assert tree.validate() == []
    sigma = 210  # 0.105 of the rows, as in the wide workload
    assert mine(tree, sigma).frequent == apriori_mine(db, sigma).frequent


def test_one_value_adopts_several_non_adjacent_heads(monkeypatch):
    # 40 one-item heads. {3, 11, 27, 38} has 2^4 <= 40 subsets, so its
    # divisors are looked up; the 7-item row that follows is placed by the
    # scan. Each takes its items' heads out of the middle of the root list.
    short, long = (3, 11, 27, 38), (0, 5, 9, 14, 20, 33, 39)
    db = TransactionDB.from_itemsets([(i,) for i in range(40)] + [short, long])
    placed = []
    for name in ("_place_by_scan", "_place_by_lookup"):
        def spied(self, *args, _name=name, _method=getattr(PCTree, name)):
            placed.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(PCTree, name, spied)
    tree = build_tree(db)
    assert placed[-2:] == ["_place_by_lookup", "_place_by_scan"]
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
    nodes = {v: (n.parent.value, [c.value for c in n.children], n.local_count,
                 n.global_count, n.birth)
             for v, n in tree._node_by_value.items()}
    return tree.heads(), nodes, tree.item_frequencies(), tree.transaction_count


def row_by_row(db):
    """The tree one plain insert per row gives, with the transactions kept."""
    tree = PCTree(build_prime_table(db.universe), keep_transactions=True)
    for _, items in db.transactions:
        tree.insert(items)
    return tree


def assert_same_as_row_by_row(db, tree):
    reference = row_by_row(db)
    assert full_shape(tree) == full_shape(reference)
    assert sorted(tree.transactions) == sorted(reference.transactions)
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
    assert_same_as_row_by_row(db, build_tree(db, keep_transactions=True))


def test_dense_prefix_inserts_once_per_distinct_itemset(monkeypatch):
    # the first 4,000 rows of the dense workload's database, mostly repeats
    full = generate_synthetic(SyntheticSpec(40000, 12, 0.6, seed=1))
    db = TransactionDB.from_itemsets(full.itemsets()[:4000], universe=full.universe)
    calls = []

    def counted(self, items, count=1, _insert=PCTree.insert):
        calls.append(count)
        return _insert(self, items, count)

    monkeypatch.setattr(PCTree, "insert", counted)
    tree = build_tree(db, keep_transactions=True)
    monkeypatch.undo()
    distinct = set(db.itemsets())
    assert len(calls) == len(distinct) == tree.node_count < len(db)
    assert sum(calls) == len(db)
    assert_same_as_row_by_row(db, tree)
