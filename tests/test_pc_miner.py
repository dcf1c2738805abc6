"""Miner tests: the frozen worked example, edge thresholds, lattice properties."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine import pc_miner
from pcmine.baselines import TransactionDB, apriori_mine, brute_force_mine, effective_sigma
from pcmine.dataset_io import SyntheticSpec, generate_synthetic
from pcmine.pc_miner import (
    MiningResult,
    candidate_head,
    candidate_head_set,
    maximal_frequent,
    mine,
)
from pcmine.pc_tree import build_tree
from pcmine.prime_codec import encode
from tests.test_pc_tree import adversarial_databases, databases

A, B, C, D, E, F = range(6)

DEMO_FREQUENT_AT_4 = {
    (A,): 6, (C,): 7, (D,): 7, (F,): 4,
    (A, C): 5, (A, D): 5, (C, D): 7, (C, F): 4, (D, F): 4,
    (A, C, D): 5, (C, D, F): 4,
}


def test_candidate_head_drops_infrequent_items():
    freq = {A: 6, B: 3, C: 7, D: 7, E: 3, F: 4}
    assert candidate_head((A, B, C, D, E), freq, 4) == (A, C, D)
    assert candidate_head((A, C, D, F), freq, 4) == (A, C, D, F)
    assert candidate_head((B, E), freq, 4) == ()


def test_candidate_head_sigma_zero_is_identity():
    assert candidate_head((A, B, E), {A: 1, B: 0, E: 2}, 0) == (A, B, E)


def test_candidate_head_set_demo(demo_tree):
    assert candidate_head_set(demo_tree, 4) == {(A, C, D, F)}
    assert candidate_head_set(demo_tree, 1) == {(A, B, C, D, E), (A, B, C, D, F)}
    assert candidate_head_set(demo_tree, 9) == set()


def test_mine_demo_at_four(demo_tree):
    result = mine(demo_tree, 4)
    assert result.sigma == 4
    assert result.candidates_examined == 6
    assert set(result.examined) == {
        (A, C, D, F), (A, C, D), (A, C, F), (A, D, F), (C, D, F), (A, F)}
    # level by level, lexicographic inside a level, so the log is stable
    assert result.examined == (
        (A, C, D, F), (A, C, D), (A, C, F), (A, D, F), (C, D, F), (A, F))
    assert result.frequent == DEMO_FREQUENT_AT_4
    assert result.maximal == ((A, C, D), (C, D, F))


def test_mine_demo_at_seven(demo_tree):
    result = mine(demo_tree, 7)
    assert result.frequent == {(C,): 7, (D,): 7, (C, D): 7}
    assert result.maximal == ((C, D),)


def test_mine_above_database_size_is_empty(demo_tree):
    result = mine(demo_tree, demo_tree.transaction_count + 1)
    assert result.frequent == {}
    assert result.maximal == ()
    assert result.candidates_examined == 0


def test_mine_sigma_zero_warns_and_means_one(demo_tree):
    with pytest.warns(UserWarning):
        zero = mine(demo_tree, 0)
    one = mine(demo_tree, 1)
    assert zero.frequent == one.frequent
    assert zero.sigma == 1


def test_mine_rejects_negative_sigma(demo_tree):
    with pytest.raises(ValueError):
        mine(demo_tree, -1)


def test_examined_log_has_no_repeats(demo_tree):
    for sigma in range(1, 9):
        result = mine(demo_tree, sigma)
        assert len(result.examined) == len(set(result.examined))


def test_examined_candidates_descend_from_heads(demo_tree):
    heads = candidate_head_set(demo_tree, 3)
    result = mine(demo_tree, 3)
    for candidate in result.examined:
        assert any(set(candidate) <= set(h) for h in heads)


def test_maximal_frequent_known_cases():
    assert maximal_frequent(DEMO_FREQUENT_AT_4) == {(A, C, D), (C, D, F)}
    assert maximal_frequent([]) == set()
    assert maximal_frequent([(A,)]) == {(A,)}
    assert maximal_frequent([(A,), (B,), (A, B)]) == {(A, B)}


def test_empty_tree_mines_empty(demo_db):
    from pcmine.pc_tree import PCTree
    from pcmine.prime_codec import build_prime_table

    tree = PCTree(build_prime_table(demo_db.universe))
    result = mine(tree, 1)
    assert result.frequent == {} and result.maximal == ()


SPECS = [
    SyntheticSpec(24, 6, 0.4, seed=21),
    SyntheticSpec(40, 9, 0.3, seed=22),
    SyntheticSpec(64, 12, 0.2, seed=23),
    SyntheticSpec(32, 8, 0.6, seed=24),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_mine_agrees_with_brute_oracle(spec):
    db = generate_synthetic(spec)
    tree = build_tree(db)
    oracle = brute_force_mine(db, 1).frequent
    for sigma in range(1, len(db) + 1, 3):
        result = mine(tree, sigma)
        assert result.frequent == {x: s for x, s in oracle.items() if s >= sigma}


@pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.name)
def test_result_is_downward_closed_with_an_antichain_on_top(spec):
    db = generate_synthetic(spec)
    tree = build_tree(db)
    for sigma in range(1, len(db) + 1, 2):
        result = mine(tree, sigma)
        frequent = set(result.frequent)
        for itemset in frequent:
            assert all(s >= sigma for s in (result.frequent[itemset],))
            if len(itemset) > 1:
                for drop in range(len(itemset)):
                    assert itemset[:drop] + itemset[drop + 1:] in frequent
        maximal = set(result.maximal)
        assert maximal <= frequent
        for m in maximal:
            assert not any(set(m) < set(other) for other in maximal)
        for itemset in frequent:
            assert any(set(itemset) <= set(m) for m in maximal)


@st.composite
def small_databases(draw):
    n_items = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_items - 1), min_size=1),
        min_size=1, max_size=16))
    return TransactionDB.from_itemsets(rows, universe=range(n_items))


@given(db=small_databases(), sigma=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_mine_matches_brute_force_property(db, sigma):
    result = mine(build_tree(db), sigma)
    brute = brute_force_mine(db, sigma)
    assert result.frequent == brute.frequent
    assert result.maximal == tuple(sorted(maximal_frequent(brute.frequent)))


def test_one_long_transaction_is_its_own_only_candidate_and_maximal_set():
    x = tuple(range(16))
    result = mine(build_tree(TransactionDB.from_itemsets([x])), 1)
    assert result.examined == result.maximal == (x,)
    assert len(result.frequent) == 2 ** 16 - 1


def at_most_ten_frequent_items(tree, sigma):
    """sigma, raised until at most ten items are frequent: at most 1,023 frequent itemsets."""
    counts = sorted(tree.frequency_table.values(), reverse=True)
    return max(sigma, counts[10] + 1) if len(counts) > 10 else sigma


def nonempty_subsets(items):
    return {sub for size in range(1, len(items) + 1) for sub in combinations(items, size)}


def spawning_walk(tree, sigma):
    """The paper's walk with a spawning pool: the reference for mine()'s levels.

    Each infrequent candidate above the pair level spawns its one-smaller
    subsets into the pool of the level below, and a pool member already
    known frequent is skipped when its turn comes.
    """
    sig = effective_sigma(sigma)
    frequent = {(item,) for item, count in tree.frequency_table.items() if count >= sig}
    tops = list(frequent)
    levels = {}
    for head in candidate_head_set(tree, sig):
        levels.setdefault(len(head), set()).add(head)
    examined = []
    for k in range(max(levels, default=0), 1, -1):
        below = levels.setdefault(k - 1, set())
        for candidate in sorted(levels.pop(k, ())):
            if candidate in frequent:
                continue
            examined.append(candidate)
            if tree.support(candidate) >= sig:
                tops.append(candidate)
                frequent.update(nonempty_subsets(candidate))
            elif k > 2:
                below.update(combinations(candidate, k - 1))
    supports = {f: tree.support(f) for f in frequent}
    maximal = tuple(sorted(maximal_frequent(tops)))
    return MiningResult(frequent=supports, maximal=maximal, examined=tuple(examined), sigma=sig)


def assert_same_walk(result, reference):
    assert result.examined == reference.examined
    assert result.frequent.keys() == reference.frequent.keys()
    assert result.maximal == reference.maximal


def test_sparse_walk_database_examines_what_the_spawning_walk_does():
    tree = build_tree(generate_synthetic(SyntheticSpec(1000, 20, 0.3, 7)))
    result = mine(tree, 50)
    assert len(result.examined) == 73_185
    assert_same_walk(result, spawning_walk(tree, 50))


@given(db=st.one_of(databases(), adversarial_databases()), data=st.data())
@settings(max_examples=100, deadline=None)
def test_walk_does_not_depend_on_the_support_oracle(db, data):
    tree = build_tree(db)
    sigma = at_most_ten_frequent_items(tree, data.draw(st.integers(1, len(db))))
    indexed = mine(tree, sigma)
    assert_same_walk(indexed, spawning_walk(tree, sigma))
    table, calls = tree.prime_table, []

    def walked_support(items):
        calls.append(items)
        return tree.walk_support(encode(items, table))

    tree.support = walked_support  # the paper's tree walk answers every query
    walked = mine(tree, sigma)
    assert len(calls) == len(walked.examined) + len(walked.frequent)
    assert walked.examined == indexed.examined
    assert walked.frequent == indexed.frequent
    assert walked.maximal == indexed.maximal


@given(db=st.one_of(databases(), adversarial_databases()), data=st.data())
@settings(max_examples=100, deadline=None)
def test_levels_descend_in_size_and_ascend_within_one(db, data):
    tree = build_tree(db)
    sigma = at_most_ten_frequent_items(tree, data.draw(st.integers(1, len(db))))
    examined = mine(tree, sigma).examined
    for before, after in zip(examined, examined[1:]):
        assert len(before) > len(after) or (len(before) == len(after) and before < after)


def test_head_set_order_does_not_change_the_result(monkeypatch):
    tree = build_tree(generate_synthetic(SyntheticSpec(1000, 20, 0.3, 7)))
    expected = mine(tree, 50)

    def shuffled(tree, sigma, _heads=candidate_head_set):
        heads = list(_heads(tree, sigma))
        random.Random(5).shuffle(heads)
        return heads

    monkeypatch.setattr(pc_miner, "candidate_head_set", shuffled)
    assert mine(tree, 50) == expected


def test_dense_duplicate_database_walks_like_the_spawning_walk():
    db = generate_synthetic(SyntheticSpec(40000, 12, 0.6, 1))
    tree = build_tree(db)
    result = mine(tree, 2000)
    assert len(result.examined) == 3_302
    assert_same_walk(result, spawning_walk(tree, 2000))
    assert len(result.frequent) == 1_585
    assert result.frequent == apriori_mine(db, 2000).frequent
    # 30 random 10-of-12 rows, each three times: dozens of frequent tops
    # overlap, and at 4 they cover most of the lower levels' candidates
    rng = random.Random(0)
    rows = [rng.sample(range(12), 10) for _ in range(30)]
    db = TransactionDB.from_itemsets([row for row in rows for _ in range(3)])
    tree = build_tree(db)
    for sigma, examined, tops in ((2, 24, 24), (4, 290, 66)):
        result = mine(tree, sigma)
        assert_same_walk(result, spawning_walk(tree, sigma))
        assert result.frequent == apriori_mine(db, sigma).frequent
        assert (len(result.examined), len(result.maximal)) == (examined, tops)


@given(db=st.one_of(databases(), adversarial_databases()), data=st.data())
@settings(max_examples=100, deadline=None)
def test_candidate_head_set_is_the_maximal_reduced_transactions(db, data):
    """The heads cover the database, so reducing the rows instead gives the same antichain."""
    sigma = data.draw(st.integers(1, len(db) + 1))
    frequencies = Counter(item for items in db.rows for item in items)
    reduced = {candidate_head(items, frequencies, sigma) for items in db.rows}
    expected = pairwise_maximal_members(reduced - {()})
    assert candidate_head_set(build_tree(db), sigma) == expected


@given(db=st.one_of(databases(), adversarial_databases()), data=st.data())
@settings(max_examples=100, deadline=None)
def test_frequent_items_are_the_union_of_the_candidate_heads(db, data):
    """mine() reads its frequent items from H; above the database size both sides are empty."""
    tree = build_tree(db)
    sigma = at_most_ten_frequent_items(tree, data.draw(st.integers(1, len(db) + 1)))
    mined = {item for itemset in mine(tree, sigma).frequent for item in itemset}
    assert mined == set().union(*candidate_head_set(tree, sigma)) == {
        item for item, count in tree.frequency_table.items() if count >= sigma}


# ------------------------------------------------------------ maximal members


def pairwise_maximal_members(itemsets):
    """The pairwise subset test maximal_frequent used before its bitmasks; the reference."""
    kept = []
    for its in sorted(set(itemsets), key=lambda t: (-len(t), t)):
        fs = frozenset(its)
        if not any(fs <= other for other, _ in kept):
            kept.append((fs, its))
    return {its for _, its in kept}


def test_maximal_members_empty_itemset():
    assert maximal_frequent([]) == set()
    assert maximal_frequent([()]) == {()}
    assert maximal_frequent([(), (), (A,)]) == {(A,)}


@given(itemsets=st.lists(st.sets(st.integers(min_value=0, max_value=9), max_size=6)
                         .map(lambda s: tuple(sorted(s))), max_size=60),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_maximal_members_matches_the_pairwise_reference(itemsets, data):
    repeats = data.draw(st.lists(st.sampled_from(itemsets), max_size=10)) if itemsets else []
    family = data.draw(st.permutations(itemsets + repeats))
    assert maximal_frequent(family) == pairwise_maximal_members(family)
