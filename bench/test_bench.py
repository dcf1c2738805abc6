"""Checks of the benchmark itself: traced-pass determinism, span self times, child caps.

Run with `python3 -m pytest -q bench` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from pcmine import dataset_io, pc_miner, pc_tree  # noqa: E402

DEMO = ROOT / "data" / "demo8.dat"


def _duration(span):
    return span[3] - span[2]


def test_traced_counts_repeat_exactly_on_demo8():
    first, second = (spans.layer_metrics(spans.traced_pass(DEMO, "4")) for _ in range(2))
    assert {c: first[c] for c in spans.COUNTS} == {c: second[c] for c in spans.COUNTS}
    assert first["pc_miner.examined"] == run.DEMO_CANDIDATES
    assert first["pc_miner.backfill_queries"] == first["pc_miner.frequent"]
    tree = pc_tree.build_tree(dataset_io.load_transactions(DEMO))
    assert first["pc_miner.head_set_size"] == len(pc_miner.candidate_head_set(tree, 4))


def test_self_time_is_duration_minus_children_and_never_negative():
    traced = spans.traced_pass(DEMO, "4")
    own = spans.self_times(traced.spans)
    for index, span in enumerate(traced.spans):
        children = sum(_duration(s) for s in traced.spans if s[1] == index)
        assert own[index] == _duration(span) - children >= 0


def test_layer_self_time_of_mine_leaves_out_other_layers():
    rows = spans.traced_pass(DEMO, "4").spans
    names = [row[0] for row in rows]
    mine, head_set = names.index("pc_miner.mine"), names.index("pc_miner.candidate_head_set")
    # mine() calls support and encode itself, and decode through candidate_head_set
    other = sum(_duration(row) for row in rows
                if row[1] in (mine, head_set) and spans.layer(row[0]) != "pc_miner")
    assert spans.layer_self_times(rows)[mine] == _duration(rows[mine]) - other


def test_passes_remove_their_wrappers():
    originals = [vars(owner)[attr] for owner, attr, _ in spans.TARGETS]
    spans.traced_pass(DEMO, "4")
    spans.peak_pass(DEMO, "4")
    assert [vars(owner)[attr] for owner, attr, _ in spans.TARGETS] == originals


def test_launcher_kills_a_child_past_its_cap():
    run.OUT.mkdir(exist_ok=True)
    launcher = run.Launcher()
    try:
        slow = launcher.run(["-c", "import time; time.sleep(30)"], cap=0.5)
        quick = launcher.run(["-c", "print('done')"], cap=30)
    finally:
        launcher.close()
    assert slow.error is not None and slow.error.startswith("killed")
    assert quick.error is None and quick.stdout == "done\n" and quick.rss_mb > 0


def test_itemset_report_ignores_only_the_volatile_lines():
    pcminer = ("min_sup: 4\nalgorithm: pcminer\nfrequent itemsets: 1\n  2: 7\n"
               "candidates: 6\ntime_mine_ms: 1.0\n")
    apriori = ("min_sup: 4\nalgorithm: apriori\nfrequent itemsets: 1\n  2: 7\n"
               "candidates: 2\ntime_mine_ms: 9.0\n")
    assert run.itemset_report(pcminer) == run.itemset_report(apriori)
    assert run.itemset_report(pcminer) != run.itemset_report(apriori.replace("2: 7", "2: 6"))
