"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criterion 3's oracle sweep is shared by criteria 5 and 6 through a
module-scoped fixture, so the 200-database comparison runs once.
"""

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from pcmine.baselines import apriori_mine, brute_force_mine
from pcmine.cli import main
from pcmine.dataset_io import SyntheticSpec, generate_synthetic, load_transactions
from pcmine.pc_miner import candidate_head_set, mine
from pcmine.pc_tree import PCTree, build_tree
from pcmine.prime_codec import build_prime_table, encode
from tests.conftest import DATA_DIR, DEMO_PATH

A, B, C, D, E, F = range(6)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


# ----------------------------------------------------------- sweep machinery

ITEM_CYCLE = [5, 6, 7, 8, 9, 10, 11, 12]
TX_CYCLE = [8, 12, 16, 24, 32, 48, 64]
DENSITY_CYCLE = [0.2, 0.4, 0.6]


def sweep_specs(count=200):
    return [
        SyntheticSpec(
            num_transactions=TX_CYCLE[i % len(TX_CYCLE)],
            num_items=ITEM_CYCLE[i % len(ITEM_CYCLE)],
            density=DENSITY_CYCLE[i % len(DENSITY_CYCLE)],
            seed=1000 + i,
        )
        for i in range(count)
    ]


@dataclass
class SweepReport:
    specs: list
    runs: int = 0
    elapsed_s: float = 0.0
    mismatches: list = field(default_factory=list)
    closure_violations: list = field(default_factory=list)
    antichain_violations: list = field(default_factory=list)


def check_closure_and_antichain(result, sigma, label, report):
    """Criterion 5c bookkeeping for one mining result."""
    frequent = set(result.frequent)
    for itemset, support in result.frequent.items():
        if support < sigma:
            report.closure_violations.append(f"{label}: {itemset} below threshold")
        if len(itemset) > 1:
            for drop in range(len(itemset)):
                if itemset[:drop] + itemset[drop + 1:] not in frequent:
                    report.closure_violations.append(f"{label}: {itemset} missing a subset")
    maximal = set(result.maximal)
    if not maximal <= frequent:
        report.antichain_violations.append(f"{label}: maximal not within frequent")
    for m in maximal:
        if any(set(m) < set(other) for other in maximal):
            report.antichain_violations.append(f"{label}: {m} is not maximal")
    for itemset in frequent:
        if not any(set(itemset) <= set(m) for m in maximal):
            report.antichain_violations.append(f"{label}: {itemset} not covered by maximal")


@pytest.fixture(scope="module")
def sweep():
    report = SweepReport(specs=sweep_specs())
    started = time.perf_counter()
    for index, spec in enumerate(report.specs):
        db = generate_synthetic(spec)
        tree = build_tree(db)
        # Exhaustive counting does not depend on sigma, so run it once and
        # filter per threshold; the identity is spot-checked literally below.
        full = brute_force_mine(db, 1).frequent
        for sigma in range(1, len(db) + 1):
            label = f"{spec.name} sigma={sigma}"
            report.runs += 1
            pc = mine(tree, sigma)
            ap = apriori_mine(db, sigma)
            truth = {items: s for items, s in full.items() if s >= sigma}
            if pc.frequent != truth:
                report.mismatches.append(f"{label}: pcminer disagrees with brute force")
            if ap.frequent != truth:
                report.mismatches.append(f"{label}: apriori disagrees with brute force")
            check_closure_and_antichain(pc, sigma, label, report)
        if index % 25 == 0:
            for sigma in {1, max(1, len(db) // 2), len(db)}:
                literal = brute_force_mine(db, sigma).frequent
                filtered = {items: s for items, s in full.items() if s >= sigma}
                if literal != filtered:
                    report.mismatches.append(
                        f"{spec.name} sigma={sigma}: literal brute force disagrees with filter")
    report.elapsed_s = time.perf_counter() - started
    return report


# ------------------------------------------------------------ the criteria


def test_criterion_1_golden_encoding():
    with criterion(1, "demo database reproduces the frozen value column"):
        db = load_transactions(DEMO_PATH)
        table = build_prime_table(db.universe)
        values = [encode(items, table) for _, items in db.transactions]
        assert values == [2310, 2730, 66, 770, 455, 910, 70, 455]


def test_criterion_2_candidacy():
    with criterion(2, "sigma-4 run examines exactly the six known candidates"):
        tree = build_tree(load_transactions(DEMO_PATH))
        assert candidate_head_set(tree, 4) == {(A, C, D, F)}
        result = mine(tree, 4)
        assert result.candidates_examined == 6
        assert set(result.examined) == {
            (A, C, D, F), (A, C, D), (A, C, F), (A, D, F), (C, D, F), (A, F)}


def test_criterion_3_oracle_sweep(sweep):
    with criterion(3, "200 seeded databases, all thresholds, three miners agree"):
        assert len(sweep.specs) == 200
        assert sweep.mismatches == [], sweep.mismatches[:5]
        assert sweep.elapsed_s < 120.0, f"sweep took {sweep.elapsed_s:.1f}s"


def test_criterion_4_candidate_counts():
    with criterion(4, "six candidates examined versus eight generated at sigma 4"):
        db = load_transactions(DEMO_PATH)
        assert mine(build_tree(db), 4).candidates_examined == 6
        assert apriori_mine(db, 4).candidates_generated == 8


SOAK_SPECS = [
    SyntheticSpec(1000, 8, 0.30, seed=71),
    SyntheticSpec(1000, 9, 0.25, seed=72),
    SyntheticSpec(1000, 10, 0.20, seed=73),
    SyntheticSpec(1000, 9, 0.45, seed=74),
    SyntheticSpec(1000, 11, 0.35, seed=75),
    SyntheticSpec(1000, 12, 0.50, seed=76),
    SyntheticSpec(1000, 10, 0.40, seed=77),
    SyntheticSpec(1000, 8, 0.60, seed=78),
    SyntheticSpec(1000, 12, 0.30, seed=79),
    SyntheticSpec(1000, 10, 0.55, seed=80),
]


def test_criterion_5a_invariants_over_a_soak():
    with criterion(5, "a: invariant suite holds after each of 10,000 insertions"):
        total = 0
        for spec in SOAK_SPECS:
            db = generate_synthetic(spec)
            tree = PCTree(build_prime_table(db.universe), keep_transactions=True)
            for _, items in db.transactions:
                tree.insert(items)
                total += 1
                problems = tree.validate(deep=False)
                assert problems == [], (spec.name, total, problems[:3])
            assert tree.validate() == [], spec.name
        assert total == 10_000


def test_criterion_5b_support_spot_checks():
    with criterion(5, "b: tree supports match raw counting, 1,000 probes per soak db"):
        for spec in SOAK_SPECS:
            db = generate_synthetic(spec)
            tree = build_tree(db, keep_transactions=True)
            table = tree.prime_table
            index = {item: i for i, item in enumerate(db.universe)}
            masks = [sum(1 << index[i] for i in items) for items in tree.transactions]
            rng = random.Random(spec.seed * 31)
            for _ in range(1000):
                size = rng.randint(1, min(6, len(db.universe)))
                probe = tuple(sorted(rng.sample(db.universe, size)))
                mask = sum(1 << index[i] for i in probe)
                expected = sum(1 for m in masks if m & mask == mask)
                assert tree.support(probe) == expected, (spec.name, probe)
                assert tree.walk_support(encode(probe, table)) == expected, (spec.name, probe)


def test_criterion_5c_closure_and_antichain(sweep):
    with criterion(5, "c: every sweep result is downward closed with a maximal antichain"):
        assert sweep.closure_violations == [], sweep.closure_violations[:5]
        assert sweep.antichain_violations == [], sweep.antichain_violations[:5]


MUSHROOM = os.environ.get("PCMINE_MUSHROOM", str(DATA_DIR / "mushroom.dat"))


@pytest.mark.skipif(not Path(MUSHROOM).exists(),
                    reason="real mushroom file not supplied")
@pytest.mark.parametrize("fraction", ["0.4", "0.3"])
def test_criterion_5_mushroom_compare(capsys, fraction):
    with criterion(5, f"mushroom: compare reports EQUAL at {fraction}"):
        code = main(["compare", "--input", MUSHROOM, "--min-sup", fraction])
        out = capsys.readouterr().out
        assert code == 0
        assert "EQUAL" in out


def test_criterion_6_support_monotonicity(sweep):
    with criterion(6, "1,000 random subset pairs never order supports the wrong way"):
        rng = random.Random(4242)
        checked = 0
        for spec in sweep.specs:
            db = generate_synthetic(spec)
            tree = build_tree(db)
            table = tree.prime_table
            for _ in range(5):
                size = rng.randint(1, len(db.universe))
                p_items = tuple(sorted(rng.sample(db.universe, size)))
                q_items = tuple(i for i in p_items if rng.random() < 0.6)
                p, q = tree.support(p_items), tree.support(q_items)
                assert p <= q, (spec.name, p_items, q_items)
                assert (p, q) == (tree.walk_support(encode(p_items, table)),
                                  tree.walk_support(encode(q_items, table)))
                checked += 1
        assert checked == 1000
