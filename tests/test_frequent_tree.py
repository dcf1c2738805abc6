"""build_tree(db, sigma): the tree over the frequent items gives the whole tree's walk.

Dropping the items below sigma from every row leaves the maximal reduced
rows, the candidate head set, as they are, and a row left empty holds none
of the itemsets the walk or the backfill queries. So mine() examines the
same candidates, in the same order, and returns the same frequent map and
maximal sets on either tree.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine import cli, pc_tree
from pcmine.baselines import TransactionDB
from pcmine.pc_miner import mine
from pcmine.pc_tree import _frequent_tally, build_tree
from tests.conftest import DEMO_PATH
from tests.test_contract import GOLDEN, database, tree_digest, walk_digest


def projected_db(db, sigma):
    """db with every item below support sigma dropped, rows left empty dropped."""
    support = {}
    for row in db.rows:
        for item in row:
            support[item] = support.get(item, 0) + 1
    rows = (tuple(item for item in row if support[item] >= sigma) for row in db.rows)
    return TransactionDB([row for row in rows if row], db.universe)


def outcome(result):
    return result.examined, list(result.frequent.items()), result.maximal, result.sigma


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frequent_tree_keeps_the_pinned_walk(name):
    db, sigma = database(name)
    assert walk_digest(mine(build_tree(db, sigma), sigma)) == GOLDEN[name][1]


@st.composite
def databases(draw):
    """Small databases; a third draw their rows from a small pool, so rows repeat."""
    n_items = draw(st.integers(min_value=1, max_value=8))
    itemsets = st.sets(st.integers(min_value=0, max_value=n_items - 1), min_size=1)
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        pool = draw(st.lists(itemsets, min_size=1, max_size=5))
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    else:
        rows = draw(st.lists(itemsets, min_size=1, max_size=16))
    return TransactionDB.from_itemsets(rows, universe=range(n_items))


@given(db=databases())
@settings(max_examples=120, deadline=None)
def test_frequent_tree_walks_as_the_whole_tree_at_every_threshold(db):
    whole = build_tree(db)
    for sigma in range(1, len(db) + 2):
        tree = build_tree(db, sigma)
        assert outcome(mine(tree, sigma)) == outcome(mine(whole, sigma)), sigma
        assert tree_digest(tree) == tree_digest(build_tree(projected_db(db, sigma))), sigma
        assert tree.validate() == []


def test_threshold_above_every_support_builds_an_empty_tree(demo_db):
    tree = build_tree(demo_db, len(demo_db) + 1)
    assert tree.node_count == 0 and tree.heads() == ()
    result = mine(tree, len(demo_db) + 1)
    assert result.frequent == {} and result.maximal == () and result.examined == ()


@pytest.mark.parametrize("sigma", [0, 1])
def test_threshold_of_at_most_one_builds_the_whole_tree_silently(demo_db, sigma):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = build_tree(demo_db, sigma)
    assert caught == []
    assert tree_digest(tree) == tree_digest(build_tree(demo_db))


def test_negative_threshold_is_refused(demo_db):
    with pytest.raises(ValueError, match="non-negative"):
        build_tree(demo_db, -1)


def test_tally_is_kept_as_it_is_when_every_item_is_frequent(demo_db):
    tally = demo_db.tally()
    assert _frequent_tally(tally, 3) is tally  # items 1 and 4 have support 3
    projected = _frequent_tally(tally, 4)  # items 1 and 4 dropped, merged in first-occurrence order
    assert list(projected.items()) == [((0, 2, 3), 3), ((0, 2, 3, 5), 2), ((0,), 1), ((2, 3, 5), 2)]


def test_cli_builds_the_tree_over_the_frequent_items(demo_db, monkeypatch, capsys):
    built = []

    def recorded(db, sigma=None, _build=build_tree):
        built.append(tree := _build(db, sigma))
        return tree

    monkeypatch.setattr(pc_tree, "build_tree", recorded)
    assert cli.main(["mine", "--input", str(DEMO_PATH), "--min-sup", "4"]) == 0
    assert "candidates: 6" in capsys.readouterr().out
    (tree,) = built
    assert tree.node_count == 4 < build_tree(demo_db).node_count
