"""Baseline miner tests: frozen counts, guard behavior, mutual agreement."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine.baselines import (
    BRUTE_FORCE_MAX_ITEMS,
    BRUTE_FORCE_MAX_WORK,
    TransactionDB,
    UniverseTooLargeError,
    _join_level,
    _prune_level,
    apriori_mine,
    brute_force_mine,
    brute_force_refusal,
)
from pcmine.dataset_io import SyntheticSpec, generate_synthetic

A, B, C, D, E, F = range(6)


def test_transaction_db_validation():
    with pytest.raises(ValueError, match="transaction 2 is empty"):
        TransactionDB(rows=((0,), ()), universe=(0,))
    with pytest.raises(ValueError, match="transaction 1 uses items outside"):
        TransactionDB(rows=((5,),), universe=(0, 1))
    with pytest.raises(ValueError):
        TransactionDB(rows=(), universe=(1, 0))
    db = TransactionDB(rows=((0,),), universe=(0, 1))
    with pytest.raises(AttributeError):  # read-only once built
        db.universe = (0,)
    with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
        del db.rows
    assert copy.deepcopy(db) == db and hash(copy.copy(db)) == hash(db)
    assert db != (((0,),), (0, 1)) and db.__eq__(db.rows) is NotImplemented
    assert repr(db) == "TransactionDB(rows=((0,),), universe=(0, 1))"


def test_tally_keeps_first_occurrence_order_and_every_row():
    db = TransactionDB.from_itemsets([(B,), (A, C), (B,), (D,), (A, C), (B,)])
    tally = db.tally()
    assert list(tally.items()) == [((B,), 3), ((A, C), 2), ((D,), 1)]
    assert sum(tally.values()) == len(db)


def test_from_itemsets_assigns_tids_and_universe():
    db = TransactionDB.from_itemsets([(2, 0), (1,)])
    assert db.rows == ((0, 2), (1,))
    assert db.universe == (0, 1, 2)
    assert len(db) == 2
    # The views bench/run.py and bench/spans.py read: a tid is a 1-based position.
    assert db.transactions == tuple(enumerate(db.rows, start=1)) == ((1, (0, 2)), (2, (1,)))
    assert db.itemsets() == list(db.rows)


def test_brute_force_single_transaction():
    db = TransactionDB.from_itemsets([(A, B)])
    result = brute_force_mine(db, 1)
    assert result.frequent == {(A,): 1, (B,): 1, (A, B): 1}
    assert result.candidates_generated == 3


def test_brute_force_demo_counts(demo_db):
    result = brute_force_mine(demo_db, 4)
    assert result.candidates_generated == 2**6 - 1 == 63
    assert len(result.frequent) == 11


def test_brute_force_high_sigma_keeps_nothing(demo_db):
    result = brute_force_mine(demo_db, 9)
    assert result.frequent == {}
    assert result.candidates_generated == 63


def test_brute_force_guard():
    db = TransactionDB.from_itemsets([tuple(range(25))])
    with pytest.raises(UniverseTooLargeError) as err:
        brute_force_mine(db, 1)
    assert str(BRUTE_FORCE_MAX_ITEMS) in str(err.value)


def test_brute_force_work_guard():
    # 2**20 subsets x 32 rows is exactly the budget; one more row is refused
    rows = [tuple(range(20))] * (BRUTE_FORCE_MAX_WORK // 2**20)
    assert brute_force_refusal(TransactionDB.from_itemsets(rows)) is None
    over = TransactionDB.from_itemsets(rows + [(0,)])
    assert "work guard" in brute_force_refusal(over)
    with pytest.raises(UniverseTooLargeError) as err:
        brute_force_mine(over, 1)
    assert str(BRUTE_FORCE_MAX_WORK) in str(err.value)


def test_apriori_demo_candidate_count(demo_db):
    result = apriori_mine(demo_db, 4)
    assert result.candidates_generated == 8
    assert len(result.frequent) == 11
    assert result.frequent == brute_force_mine(demo_db, 4).frequent


def test_apriori_join_level():
    level = [(A, C), (A, D), (C, D), (C, F), (D, F)]
    assert _join_level(level) == [(A, C, D), (C, D, F)]
    assert _join_level([(A, C, D), (C, D, F)]) == []  # prefixes differ


def test_apriori_prune_level():
    joined = [(A, C, D), (C, D, F)]
    kept = _prune_level(joined, {(A, C), (A, D), (C, D), (C, F), (D, F)})
    assert kept == joined
    # drop (D, F) from the frequent level and C-D-F must be pruned
    kept = _prune_level(joined, {(A, C), (A, D), (C, D), (C, F)})
    assert kept == [(A, C, D)]


def test_sigma_zero_warns_in_both_baselines(demo_db):
    with pytest.warns(UserWarning):
        zero = brute_force_mine(demo_db, 0)
    assert zero.frequent == brute_force_mine(demo_db, 1).frequent
    with pytest.warns(UserWarning):
        zero = apriori_mine(demo_db, 0)
    assert zero.frequent == apriori_mine(demo_db, 1).frequent


def test_negative_sigma_rejected(demo_db):
    with pytest.raises(ValueError):
        brute_force_mine(demo_db, -2)
    with pytest.raises(ValueError):
        apriori_mine(demo_db, -2)


SPECS = [
    SyntheticSpec(30, 7, 0.4, seed=31),
    SyntheticSpec(48, 10, 0.3, seed=32),
    SyntheticSpec(64, 12, 0.2, seed=33),
    SyntheticSpec(24, 8, 0.6, seed=34),
    SyntheticSpec(400, 6, 0.6, seed=35),  # at most 63 distinct rows, heavily repeated
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_apriori_agrees_with_brute_force(spec):
    db = generate_synthetic(spec)
    oracle = brute_force_mine(db, 1).frequent
    for sigma in range(1, len(db) + 1, 4):
        assert apriori_mine(db, sigma).frequent == {
            x: s for x, s in oracle.items() if s >= sigma}


@st.composite
def small_databases(draw):
    n_items = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_items - 1), min_size=1),
        min_size=1, max_size=16))
    return TransactionDB.from_itemsets(rows, universe=range(n_items))


@st.composite
def repeated_databases(draw):
    """A small database whose rows each occur 1 to 4 times, shuffled."""
    db = draw(small_databases())
    rows = [items for items in db.rows
            for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    return TransactionDB.from_itemsets(draw(st.permutations(rows)), universe=db.universe)


@given(db=st.one_of(small_databases(), repeated_databases()),
       sigma=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_baselines_agree_property(db, sigma):
    assert apriori_mine(db, sigma).frequent == brute_force_mine(db, sigma).frequent
