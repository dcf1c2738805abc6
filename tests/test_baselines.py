"""Baseline miner tests: frozen counts, guard behavior, mutual agreement."""

import copy
import hashlib
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine import baselines
from pcmine.baselines import (
    BRUTE_FORCE_MAX_WORK,
    TransactionDB,
    UniverseTooLargeError,
    _groups,
    apriori_mine,
    brute_force_mine,
)
from pcmine.dataset_io import SyntheticSpec, generate_synthetic
from pcmine.pc_miner import mine
from pcmine.pc_tree import VerticalIndex, build_tree

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
    # Lists and generators are kept as the tuples that were validated.
    rows = [(0,), [0, 1]]
    listed = TransactionDB(rows=rows, universe=[0, 1])
    rows.append((7,))
    rows[1].append(7)
    assert listed == TransactionDB(rows=((0,), (0, 1)), universe=(0, 1))
    assert hash(listed) == hash(TransactionDB(rows=((0,), (0, 1)), universe=(0, 1)))
    generated = TransactionDB(rows=((0,) for _ in range(3)), universe=iter((0, 1)))
    assert len(generated) == 3 and generated.rows == ((0,),) * 3 and generated.universe == (0, 1)
    with pytest.raises(ValueError, match="transaction 2 uses items outside"):
        TransactionDB(rows=(row for row in [[0], [7]]), universe=[0, 1])
    # Each distinct row is checked once; a refusal names the first transaction holding it.
    for rows, message in [([(1,), (), (1,), ()], "transaction 2 is empty"),
                          ([(0,), (0,), (7,), (), (7,)], "transaction 3 uses items outside"),
                          ([(0,), (0,), (), (7,), ()], "transaction 3 is empty")]:
        with pytest.raises(ValueError, match=message):
            TransactionDB(rows=rows, universe=(0, 1))


def test_rows_are_made_canonical_at_construction():
    row = (0, 2)
    db = TransactionDB(rows=[row, (2, 0), (1, 1, 0), (2, 2)], universe=(0, 1, 2))
    assert db.rows == ((0, 2), (0, 2), (0, 1), (2,))
    assert db.rows[0] is row  # an ascending row is kept as it is
    assert db.tally() == {(0, 2): 2, (0, 1): 1, (2,): 1}
    canonical = ((0,), (0, 1))
    assert TransactionDB(rows=canonical, universe=(0, 1)).rows == canonical


@pytest.mark.parametrize("rows, universe", [
    ([(-1,)], (-1, 0)),
    ([(0,)], (0, 1.5)),
    ([(1,)], (1.0,)),
    ([("a",)], ("a",)),
    ([(1,)], (1, "a")),  # refused before sorted() could compare 1 with "a"
    ([(0,)], (0, None)),
], ids=["negative", "fraction", "float", "string", "mixed", "none"])
def test_item_ids_that_are_not_non_negative_integers_are_refused(rows, universe):
    with pytest.raises(ValueError, match="item ids must be non-negative integers, got "):
        TransactionDB(rows=rows, universe=universe)


@pytest.mark.parametrize("rows, universe, message", [
    # 1.0 and True equal universe ids, so the check on the universe passes them
    ([(1.0, 2), (1,)], (1, 2), "transaction 1: item ids must be non-negative integers, got 1.0"),
    ([(2,), (2,), (True, 2)], (1, 2),
     "transaction 3: item ids must be non-negative integers, got True"),
    ([(2,), (1, 2.0)], (1, 2), "transaction 2: item ids must be non-negative integers, got 2.0"),
    ([(1,)], (True, 2), "item ids must be non-negative integers, got True"),
], ids=["float", "bool", "float-later", "bool-universe"])
def test_items_that_are_not_plain_ints_are_refused(rows, universe, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransactionDB(rows=rows, universe=universe)


@pytest.mark.parametrize("itemsets", [[(-3, 1)], [(1,), ("a",)], [(2, 0.5)]],
                         ids=["negative", "mixed", "fraction"])
def test_default_universe_refuses_bad_ids_before_sorting_them(itemsets):
    with pytest.raises(ValueError, match="item ids must be non-negative integers, got "):
        TransactionDB(itemsets)


def test_tally_keeps_first_occurrence_order_and_every_row():
    db = TransactionDB([(B,), (A, C), (B,), (D,), (A, C), (B,)])
    tally = db.tally()
    assert list(tally.items()) == [((B,), 3), ((A, C), 2), ((D,), 1)]
    assert sum(tally.values()) == len(db)


def test_default_universe_is_the_ids_the_rows_hold():
    db = TransactionDB([(2, 0), (1,)])
    assert db.rows == ((0, 2), (1,))
    assert db.universe == (0, 1, 2)
    assert db == TransactionDB([(0, 2), (1,)], (0, 1, 2)) and TransactionDB([]).universe == ()
    assert len(db) == 2
    # The views bench/run.py and bench/spans.py read: a tid is a 1-based position.
    assert db.transactions == tuple(enumerate(db.rows, start=1)) == ((1, (0, 2)), (2, (1,)))
    assert db.itemsets() == list(db.rows)


@pytest.mark.parametrize("module", ["pcmine.baselines", "pcmine.pc_tree"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # Apriori counts over pc_tree's VerticalIndex, so baselines imports pc_tree;
    # pc_tree must not import baselines back at run time.
    src = str(Path(baselines.__file__).resolve().parent.parent)
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}"
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_brute_force_single_transaction():
    db = TransactionDB([(A, B)])
    result = brute_force_mine(db, 1)
    assert result.frequent == {(A,): 1, (B,): 1, (A, B): 1}
    assert result.candidates_generated == 3


def test_brute_force_demo_counts(demo_db):
    result = brute_force_mine(demo_db, 4)
    assert result.candidates_generated == 47  # the distinct non-empty subsets of the rows
    assert len(result.frequent) == 11


def test_brute_force_high_sigma_keeps_nothing(demo_db):
    result = brute_force_mine(demo_db, 9)
    assert result.frequent == {}
    assert result.candidates_generated == 47


def test_brute_force_guard():
    # one 25-item row holds 2**25 - 1 subsets, refused before any is counted
    db = TransactionDB([tuple(range(25))])
    start = time.perf_counter()
    with pytest.raises(UniverseTooLargeError, match=(
            r"the exhaustive miner is capped: its rows hold 2\*\*24 or more subsets, "
            rf"past the {BRUTE_FORCE_MAX_WORK}-subset work guard")):
        brute_force_mine(db, 1)
    assert time.perf_counter() - start < 1.0


# Row tests per level at sigma 1, with two distinct rows: 3 items join into 3
# pairs (6 tests), the 3 frequent pairs join into 1 triple (2 more), and the
# triple joins into nothing. Brute force counts 7 + 3 + 7 subsets of the rows.
GUARD_ROWS = [(A, B, C), (A, B), (A, B, C)]


def test_brute_force_work_guard(monkeypatch):
    db = TransactionDB(GUARD_ROWS)
    monkeypatch.setattr(baselines, "BRUTE_FORCE_MAX_WORK", 17)  # exactly the work
    assert len(brute_force_mine(db, 1).frequent) == 7
    monkeypatch.setattr(baselines, "BRUTE_FORCE_MAX_WORK", 16)
    counted = []
    monkeypatch.setattr(baselines, "combinations", lambda *args: counted.append(args) or ())
    with pytest.raises(UniverseTooLargeError, match=(
            r"the exhaustive miner is capped: its rows hold 2\*\*4 or more subsets, "
            r"past the 16-subset work guard")):
        brute_force_mine(db, 1)
    assert counted == []


def test_apriori_work_guard(monkeypatch):
    db = TransactionDB(GUARD_ROWS)
    monkeypatch.setattr(baselines, "APRIORI_MAX_WORK", 8)  # exactly the work
    assert len(apriori_mine(db, 1).frequent) == 7
    monkeypatch.setattr(baselines, "APRIORI_MAX_WORK", 7)
    with pytest.raises(UniverseTooLargeError, match=(
            r"the 3-item candidates bring its scans to 8 tests over 2 distinct rows, "
            r"past the 7-row-test work guard")):
        apriori_mine(db, 1)


def test_apriori_candidate_guard(monkeypatch):
    db = TransactionDB(GUARD_ROWS)  # 3 pairs and 1 triple joined
    monkeypatch.setattr(baselines, "APRIORI_MAX_CANDIDATES", 4)  # exactly the joins
    assert len(apriori_mine(db, 1).frequent) == 7
    monkeypatch.setattr(baselines, "APRIORI_MAX_CANDIDATES", 3)
    with pytest.raises(UniverseTooLargeError, match=(
            r"the 3-item candidates bring its joins to 4 candidates, "
            r"past the 3-candidate guard")):
        apriori_mine(db, 1)
    joined = []
    monkeypatch.setattr(baselines, "combinations", lambda *args: joined.append(args) or ())
    monkeypatch.setattr(baselines, "APRIORI_MAX_CANDIDATES", 2)
    with pytest.raises(UniverseTooLargeError, match="the 2-item candidates bring its joins to 3"):
        apriori_mine(db, 1)
    assert joined == []


def test_apriori_work_guard_refuses_a_level_before_joining_it(monkeypatch):
    joined = []
    monkeypatch.setattr(baselines, "APRIORI_MAX_WORK", 5)
    monkeypatch.setattr(baselines, "combinations", lambda *args: joined.append(args) or ())
    with pytest.raises(UniverseTooLargeError, match="the 2-item candidates bring its scans to 6"):
        apriori_mine(TransactionDB(GUARD_ROWS), 1)
    assert joined == []


def _joined(groups):
    return [prefix + pair for prefix, lasts in groups for pair in combinations(lasts, 2)]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(4, 9)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_join_size_counts_the_join(level):
    groups = _groups(sorted(set(level)))
    assert sum(comb(len(lasts), 2) for _, lasts in groups) == len(_joined(groups))


def test_apriori_demo_candidate_count(demo_db):
    result = apriori_mine(demo_db, 4)
    assert result.candidates_generated == 8
    assert len(result.frequent) == 11
    assert result.frequent == brute_force_mine(demo_db, 4).frequent


def test_apriori_join_level():
    level = [(A, C), (A, D), (C, D), (C, F), (D, F)]
    assert _joined(_groups(level)) == [(A, C, D), (C, D, F)]
    assert _joined(_groups([(A, C, D), (C, D, F)])) == []  # prefixes differ


def test_apriori_prune_level(monkeypatch):
    # At support 1 the frequent pairs are A-C, A-D, C-D and C-F, not D-F, so
    # C-D-F is joined from C-D and C-F but pruned before any support query.
    db = TransactionDB([(A, C, D), (C, F)], universe=range(6))
    counted = []
    support = VerticalIndex.support
    monkeypatch.setattr(VerticalIndex, "support",
                        lambda index, items: counted.append(items) or support(index, items))
    result = apriori_mine(db, 1)
    assert [x for x in result.frequent if len(x) == 2] == [(A, C), (A, D), (C, D), (C, F)]
    assert result.candidates_generated == 7  # 6 pairs and A-C-D
    assert (C, D, F) not in counted
    assert (A, C, D) in counted


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


# Apriori's identity on SPECS, recorded from the horizontal-scan Apriori it
# replaced: the spec's seed, σ, candidates_generated, the frequent count, the
# SHA-1 of list(frequent.items()) (order included) and its first 20 itemsets,
# each written as its items' hex digits.
APRIORI_IDENTITY = [
    (31, 2, 69, 65, "f5098b7ddb3a086f",
     "0 1 2 3 4 5 6 01 02 03 04 05 06 12 13 14 15 16 23 24"),
    (31, 5, 29, 21, "aa05d18dd09828c5",
     "0 1 2 3 4 5 6 01 02 06 12 13 14 15 16 26 34 36 46 134"),
    (32, 2, 147, 82, "3e770b820fa86abe",
     "0 1 2 3 4 5 6 7 8 9 01 02 03 04 05 06 07 08 09 12"),
    (32, 8, 45, 11, "d8fa78ac021369cf",
     "0 1 2 3 4 5 6 7 8 9 16"),
    (33, 2, 167, 79, "d1f199d84ca0b38f",
     "0 1 2 3 4 5 6 7 8 9 a b 01 02 03 04 05 07 08 09"),
    (33, 10, 66, 12, "f7df3d7f6cedff4e",
     "0 1 2 3 4 5 6 7 8 9 a b"),
    (34, 2, 227, 223, "70e2ef3e4cd57ec2",
     "0 1 2 3 4 5 6 7 01 02 03 04 05 06 07 12 13 14 15 16"),
    (34, 4, 179, 157, "2ef0cb237656949e",
     "0 1 2 3 4 5 6 7 01 02 03 04 05 06 07 12 13 14 15 16"),
    (35, 2, 57, 63, "b0600b87302b8542",
     "0 1 2 3 4 5 01 02 03 04 05 12 13 14 15 23 24 25 34 35"),
    (35, 66, 50, 41, "0b40fe1c2cf521d9",
     "0 1 2 3 4 5 01 02 03 04 05 12 13 14 15 23 24 25 34 35"),
]


@pytest.mark.parametrize("seed, sigma, candidates, count, digest, head", APRIORI_IDENTITY,
                         ids=[f"seed{seed}-sigma{sigma}" for seed, sigma, *_ in APRIORI_IDENTITY])
def test_apriori_identity_is_pinned(seed, sigma, candidates, count, digest, head):
    spec = next(spec for spec in SPECS if spec.seed == seed)
    result = apriori_mine(generate_synthetic(spec), sigma)
    assert result.candidates_generated == candidates
    assert len(result.frequent) == count
    assert list(result.frequent)[:20] == [tuple(int(c, 16) for c in word) for word in head.split()]
    assert hashlib.sha1(repr(list(result.frequent.items())).encode()).hexdigest()[:16] == digest


@st.composite
def small_databases(draw):
    n_items = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_items - 1), min_size=1),
        min_size=1, max_size=16))
    return TransactionDB(rows, universe=range(n_items))


@st.composite
def repeated_databases(draw):
    """A small database whose rows each occur 1 to 4 times, shuffled."""
    db = draw(small_databases())
    rows = [items for items in db.rows
            for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    return TransactionDB(draw(st.permutations(rows)), universe=db.universe)


@given(db=st.one_of(small_databases(), repeated_databases()),
       sigma=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_baselines_agree_property(db, sigma):
    assert apriori_mine(db, sigma).frequent == brute_force_mine(db, sigma).frequent


@st.composite
def unsorted_databases(draw):
    """Rows of 1 to 6 draws from up to 6 items, repeats and any order kept, via the constructor."""
    n_items = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(min_value=0, max_value=n_items - 1),
                                  min_size=1, max_size=6),
                         min_size=1, max_size=12))
    return TransactionDB(rows=rows, universe=range(n_items))


@given(db=unsorted_databases(), sigma=st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_three_miners_agree_on_unsorted_rows_with_repeated_items(db, sigma):
    expected = brute_force_mine(db, sigma).frequent
    assert apriori_mine(db, sigma).frequent == expected
    assert mine(build_tree(db), sigma).frequent == expected


@given(db=st.one_of(small_databases(), repeated_databases(), unsorted_databases()))
@settings(max_examples=100, deadline=None)
def test_brute_force_support_is_the_literal_count(db):
    counted = brute_force_mine(db, 1).frequent
    rows = [set(items) for items in db.rows]
    for size in range(1, len(db.universe) + 1):
        for itemset in combinations(db.universe, size):
            assert counted.get(itemset, 0) == sum(set(itemset) <= row for row in rows)


@given(db=st.one_of(small_databases(), repeated_databases(), unsorted_databases()))
@settings(max_examples=100, deadline=None)
def test_tally_is_counted_once_and_is_read_only(db):
    tally = db.tally()
    assert db.tally() is tally  # the constructor's count, not a recount or a copy
    # Order included: rows made canonical merge at their first occurrence.
    assert list(tally.items()) == list(Counter(db.rows).items())
    assert tally[()] == 0  # no row is empty, and a missing itemset reads 0
    with pytest.raises(TypeError):
        tally[db.rows[0]] = 1
    with pytest.raises(TypeError):
        del tally[db.rows[0]]
