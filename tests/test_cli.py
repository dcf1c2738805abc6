"""End-to-end CLI tests, run in-process through main(), and as `python -m pcmine` children."""

import contextlib
import csv
import gc
import hashlib
import io
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pcmine import baselines, cli, pc_miner
from pcmine.baselines import TransactionDB
from pcmine.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_BLOCK_LINES,
    RunOutcome,
    main,
    resolve_sigma,
)
from tests.conftest import DEMO_PATH

DEMO = str(DEMO_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stable_lines(out):
    """Everything except the timing lines, which legitimately vary."""
    return [l for l in out.splitlines() if not l.lstrip().startswith("time_")]


def test_resolve_sigma():
    assert resolve_sigma("4", 8) == 4
    assert resolve_sigma("0.5", 8) == 4
    assert resolve_sigma("0.4", 8) == 4  # ceil(3.2)
    assert resolve_sigma("1.0", 8) == 8
    assert resolve_sigma("1", 8) == 1  # integer literal stays absolute
    assert resolve_sigma("1e-1", 10) == 1
    assert resolve_sigma("0.07", 100) == 7  # 0.07 * 100 is 7.000000000000001 in floats
    assert resolve_sigma("0.29", 100) == 29
    # Positive fractions below the float range: float() reads them as 0.0.
    assert resolve_sigma("1e-400", 8) == 1
    assert resolve_sigma("0." + "0" * 300 + "1", 8) == 1
    assert resolve_sigma("1e-999999999", 10**12) == 1  # the shift is bounded before 10 **
    # Past int()'s 4,300-digit limit: leading zeros and exponent digits stay out of it.
    assert resolve_sigma("0." + "0" * 5000 + "1", 8) == 1
    assert resolve_sigma("1e-" + "9" * 5000, 8) == 1
    with pytest.warns(UserWarning, match="threshold 0 treated as 1"):
        assert resolve_sigma("1e-400", 0) == 1
    for text in ("-1e-400", "0e-400", "0.0", "-0.0"):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
            resolve_sigma(text, 8)
    with pytest.raises(ValueError):
        resolve_sigma("1.5", 8)
    with pytest.raises(ValueError):
        resolve_sigma("-2", 8)
    with pytest.raises(ValueError):
        resolve_sigma("four", 8)


def test_resolve_sigma_reads_past_leading_zeros_of_an_integer():
    assert resolve_sigma("0" * 5000 + "4", 8) == 4
    assert resolve_sigma(" +0_0_4\n", 8) == 4  # int()'s whitespace, sign and underscores
    assert resolve_sigma("1_000", 10**6) == 1000
    assert resolve_sigma("9" * 4300, 8) == 10**4300 - 1
    with pytest.raises(ValueError, match="more than 4300 significant digits"):
        resolve_sigma("9" * 4301, 8)
    for text in ("_4", "4_", "0__4", "-", "+-4", "", "1 2"):
        with pytest.raises(ValueError, match="not an integer"):
            resolve_sigma(text, 8)


@pytest.mark.parametrize("text", [
    "9" * 5000, "0" * 5000 + "x", "x" * 5000, "-" + "1" * 4000,
    "1." + "0" * 5000 + "1", "0." + "0" * 5000 + "x", "-0." + "0" * 5000 + "1",
], ids=["digits", "zeros-then-junk", "junk", "negative", "above-one", "bad-fraction",
        "negative-fraction"])
def test_resolve_sigma_errors_quote_a_short_prefix(text):
    with pytest.raises(ValueError) as err:
        resolve_sigma(text, 8)
    message = str(err.value)
    assert text[:20] in message and f"({len(text)} characters)" in message
    assert len(message) < 120


def test_mine_reads_a_long_zero_padded_min_sup_and_refuses_a_long_number_on_one_line(capsys):
    code, out, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "0" * 5000 + "4", "--quiet")
    assert code == EXIT_OK
    assert "min_sup: 4\n" in out and "candidates: 6\n" in out
    code, out, err = run(capsys, "mine", "--input", DEMO, "--min-sup", "7" * 5000)
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: cannot read min-sup '77777777777777777777'... (5000 characters): "
                   "more than 4300 significant digits\n")


def test_mine_pcminer_demo(capsys):
    code, out, _ = run(capsys, "mine", "--input", DEMO, "--algo", "pcminer", "--min-sup", "4")
    assert code == EXIT_OK
    assert "frequent itemsets: 11" in out
    assert "candidates: 6" in out
    assert "maximal: 2" in out
    assert "  0 2 3: 5" in out
    assert "time_build_ms:" in out and "time_mine_ms:" in out


DEMO_REPORT = """\
dataset: demo8.dat (8 transactions, 6 items)
algorithm: pcminer
min_sup: 4
frequent itemsets: 11
  0: 6
  0 2: 5
  0 2 3: 5
  0 3: 5
  2: 7
  2 3: 7
  2 3 5: 4
  2 5: 4
  3: 7
  3 5: 4
  5: 4
maximal: 2
  0 2 3
  2 3 5
candidates: 6
"""


class WriteLog(io.StringIO):
    """A stdout that keeps each write's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# sha256 of the reports without their time_* lines, as one print per line wrote them
@pytest.mark.parametrize("argv, digest", [
    (["--input", DEMO, "--min-sup", "4"],
     hashlib.sha256(DEMO_REPORT.encode()).hexdigest()),
    (["--input", DEMO, "--min-sup", "4", "--quiet"],
     "efc564b88abdf7710969513c6c8e5e80dda48abac55ad0e24a61418df4b45f8b"),
    (["--synthetic", "2000,12,0.85,5", "--min-sup", "0.2"],  # 4,240 lines, 17 blocks
     "81d0ff108beacb71a4e8e6362d2c7c313bbddecbdb8e6725eb64f50cb1b8bdde"),
    (["--synthetic", "2000,12,0.85,5", "--min-sup", "0.2", "--quiet"],
     "d1bb310e661935213ecbc063d5a8cb6bf14be63215b8fde321963bfd3305db89"),
], ids=["demo8", "demo8-quiet", "synthetic", "synthetic-quiet"])
def test_mine_report_is_written_in_blocks_byte_for_byte(monkeypatch, argv, digest):
    stdout = WriteLog()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["mine", *argv]) == EXIT_OK
    out = stdout.getvalue()
    stable = "".join(line + "\n" for line in stable_lines(out))
    assert hashlib.sha256(stable.encode()).hexdigest() == digest
    lines = out.count("\n")
    assert len(stdout.writes) == -(-lines // REPORT_BLOCK_LINES)
    assert all(text.endswith("\n") and text.count("\n") <= REPORT_BLOCK_LINES
               for text in stdout.writes)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, expected", [
    (["mine", "--input", DEMO, "--min-sup", "4"], EXIT_OK),
    (["mine", "--input", DEMO, "--min-sup", "1.5"], EXIT_USAGE),
    (["mine", "--synthetic", "10,30,0.9,3", "--algo", "brute"], EXIT_MISMATCH),
], ids=["ok", "usage-error", "refusal"])
def test_main_pauses_the_collector_and_leaves_it_as_found(capsys, monkeypatch, enabled, argv,
                                                          expected):
    during = []
    load = cli._load_db
    monkeypatch.setattr(cli, "_load_db", lambda args: during.append(gc.isenabled()) or load(args))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert during == [False]


def test_mine_fractional_min_sup_matches_absolute(capsys):
    code_a, out_a, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "4")
    code_b, out_b, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "0.5")
    assert code_a == code_b == EXIT_OK
    assert stable_lines(out_a) == stable_lines(out_b)


def test_mine_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "3")
    _, second, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "3")
    assert stable_lines(first) == stable_lines(second)


def test_mine_brute_high_sigma(capsys):
    code, out, _ = run(capsys, "mine", "--input", DEMO, "--algo", "brute", "--min-sup", "9")
    assert code == EXIT_OK
    assert "frequent itemsets: 0" in out
    assert "candidates: 47" in out  # the distinct itemsets brute force counted


def test_mine_quiet_drops_itemset_lines(capsys):
    _, out, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "4", "--quiet")
    assert "frequent itemsets: 11" in out
    assert "  0 2 3: 5" not in out


@pytest.mark.parametrize("algo", ["pcminer", "apriori", "brute"])
def test_mine_quiet_prints_the_full_report_without_its_listing(capsys, algo):
    argv = ("mine", "--input", DEMO, "--min-sup", "2", "--algo", algo)
    _, full, _ = run(capsys, *argv)
    _, quiet, _ = run(capsys, *argv, "--quiet")
    summary = [line for line in stable_lines(full) if not line.startswith("  ")]
    assert len(summary) < len(stable_lines(full))  # there is a listing to drop
    assert stable_lines(quiet) == summary


def test_mine_synthetic_source(capsys):
    code, out, _ = run(capsys, "mine", "--synthetic", "30,8,0.4,11", "--min-sup", "6")
    assert code == EXIT_OK
    assert "synthetic-30x8-d0.4-s11 (30 transactions, 8 items)" in out


def test_compare_demo_reports_equal(capsys):
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_OK
    assert out.startswith("EQUAL")  # no note: demo8 is under the brute-force guard
    assert "pcminer, apriori, brute" in out


def test_compare_synthetic_reports_equal(capsys):
    code, out, _ = run(capsys, "compare", "--synthetic", "40,10,0.3,5", "--min-sup", "0.25")
    assert code == EXIT_OK
    assert out.startswith("EQUAL")


def test_compare_skips_brute_beyond_the_guard(capsys):
    # 20 rows of about 15 of 30 items hold 1,767,916 subsets; at 11 the other walks are short
    code, out, _ = run(capsys, "compare", "--synthetic", "20,30,0.5,9", "--min-sup", "11")
    assert code == EXIT_OK
    assert "brute skipped" in out
    assert "pcminer, apriori" in out


def test_compare_skips_brute_past_the_work_guard(capsys):
    # 6,396,396 subsets in 20 rows: refused before any is counted
    code, out, _ = run(capsys, "compare", "--synthetic", "20,30,0.55,9", "--min-sup", "12")
    assert code == EXIT_OK
    assert out.startswith("note: brute skipped (the exhaustive miner is capped: its rows hold "
                          f"2**22 or more subsets, past the {baselines.BRUTE_FORCE_MAX_WORK}"
                          "-subset work guard)\n")
    assert out.splitlines()[-1].startswith("EQUAL")
    assert "(pcminer, apriori)" in out


def test_compare_checks_sparse_walk_against_brute_force(capsys):
    # the sparse-walk benchmark's first database: 199,584 subsets, under the guard
    code, out, _ = run(capsys, "compare", "--synthetic", "1000,20,0.3,7", "--min-sup", "0.05")
    assert code == EXIT_OK
    assert out == ("EQUAL on synthetic-1000x20-d0.3-s7: 210 frequent itemsets at min_sup 50 "
                   "(pcminer, apriori, brute)\n")


def test_compare_detects_an_injected_fault(capsys, monkeypatch):
    real = cli.ALGORITHMS["apriori"]

    def corrupted(db, sigma):
        outcome = real(db, sigma)
        broken = dict(outcome.frequent)
        victim = sorted(broken)[0]
        broken[victim] += 1
        return RunOutcome(broken, outcome.candidates, outcome.mine_ms)

    monkeypatch.setitem(cli.ALGORITHMS, "apriori", corrupted)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-1].startswith("DIFFER")
    assert "apriori" in out


def test_compare_catches_a_wrong_tally_through_brute_force(capsys, monkeypatch):
    real = TransactionDB.tally

    def one_copy_short(db):
        tally = Counter(real(db))  # a copy: the stored tally is read-only
        (repeated,) = [items for items, k in tally.items() if k > 1]  # demo8 has one
        tally[repeated] -= 1
        return tally

    monkeypatch.setattr(TransactionDB, "tally", one_copy_short)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    last = out.splitlines()[-1]
    # pcminer and Apriori read the same tally and agree; brute force scans the rows
    assert last.startswith("DIFFER") and "brute=" in last


def test_compare_detects_a_missing_itemset(capsys, monkeypatch):
    real = cli.ALGORITHMS["brute"]

    def lossy(db, sigma):
        outcome = real(db, sigma)
        broken = dict(outcome.frequent)
        del broken[sorted(broken)[0]]
        return RunOutcome(broken, outcome.candidates, outcome.mine_ms)

    monkeypatch.setitem(cli.ALGORITHMS, "brute", lossy)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    assert "absent" in out


def test_compare_names_the_smallest_itemset_the_miners_disagree_on(capsys, monkeypatch):
    real = cli.ALGORITHMS["apriori"]

    def two_faults(db, sigma):
        outcome = real(db, sigma)
        broken = dict(outcome.frequent)
        broken[(2, 3, 5)] += 1  # earlier in the map's order
        broken[(1, 4)] = 1  # last in it, but the smaller itemset
        return RunOutcome(broken, outcome.candidates, outcome.mine_ms)

    monkeypatch.setitem(cli.ALGORITHMS, "apriori", two_faults)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    assert out == "DIFFER on demo8.dat: itemset 1 4: pcminer=absent apriori=1\n"


def refusing(db, sigma):
    raise baselines.UniverseTooLargeError("refused by the test")


def test_compare_notes_a_refusal_and_takes_the_next_miner_as_reference(capsys, monkeypatch):
    real = cli.ALGORITHMS["brute"]

    def lossy(db, sigma):
        outcome = real(db, sigma)
        return RunOutcome({k: v for k, v in outcome.frequent.items() if k != (0,)},
                          outcome.candidates, outcome.mine_ms)

    monkeypatch.setitem(cli.ALGORITHMS, "pcminer", refusing)
    monkeypatch.setitem(cli.ALGORITHMS, "brute", lossy)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    assert out == ("note: pcminer skipped (refused by the test)\n"
                   "DIFFER on demo8.dat: itemset 0: apriori=6 brute=absent\n")


def test_compare_notes_the_walk_guard_and_checks_the_other_miners(capsys, monkeypatch):
    monkeypatch.setattr(pc_miner, "WALK_MAX_WORK", 10)  # demo8's head at 4 bounds the walk at 11
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_OK
    note, equal = out.splitlines()
    assert note.startswith("note: pcminer skipped (the candidate walk is capped: its 1-head")
    assert equal == "EQUAL on demo8.dat: 11 frequent itemsets at min_sup 4 (apriori, brute)"


def test_compare_notes_the_apriori_guard_and_checks_the_other_miners(capsys, monkeypatch):
    monkeypatch.setattr(baselines, "APRIORI_MAX_WORK", 10)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_OK
    note, equal = out.splitlines()
    assert note.startswith("note: apriori skipped (the level-wise miner is capped: "
                           "the 2-item candidates bring its scans to ")
    assert equal == "EQUAL on demo8.dat: 11 frequent itemsets at min_sup 4 (pcminer, brute)"
    code, out, err = run(capsys, "mine", "--input", DEMO, "--min-sup", "4", "--algo", "apriori")
    assert code == EXIT_MISMATCH and out == ""
    assert err.startswith("error: the level-wise miner is capped: ")


def test_compare_with_fewer_than_two_miners_run_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(pc_miner, "WALK_MAX_WORK", 10)
    monkeypatch.setitem(cli.ALGORITHMS, "apriori", refusing)
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_MISMATCH
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        "note: pcminer skipped", "note: apriori skipped"]


@pytest.mark.parametrize("spec, min_sup", [
    ("3000,120,0.1,2", "0.05"),  # 120 frequent itemsets, but heads of up to 25 items
    ("1000,40,0.5,1", "0.01"),  # about 11.6 million frequent itemsets
    ("10,3000,0.9,1", "9"),  # heads of 2,120 items: a walk bound near 2**2120
])
def test_mine_refuses_an_exponential_walk_before_it_starts(capsys, spec, min_sup):
    code, out, err = run(capsys, "mine", "--synthetic", spec, "--min-sup", min_sup)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("error: the candidate walk is capped: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bench", "--sigmas", "4", "--min-sup", "7"],
    ["bench", "--sigmas", "4", "--quiet"],
    ["bench", "--sigmas", "4", "--stats-out", "stats.csv"],
    ["compare", "--quiet"],
], ids=["bench-min-sup", "bench-quiet", "bench-stats-out", "compare-quiet"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--input", DEMO])
    assert err.value.code == EXIT_USAGE
    out, message = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in message


@pytest.mark.parametrize("algo, name", [("apriori", "apriori_mine"),
                                        ("brute", "brute_force_mine")])
def test_mine_calls_each_baseline_through_its_module_attribute(capsys, monkeypatch, algo, name):
    """bench/spans.py traces a baseline by replacing the module attribute; the CLI must see it."""
    real, calls = getattr(baselines, name), []

    def counting(db, sigma):
        calls.append(sigma)
        return real(db, sigma)

    monkeypatch.setattr(baselines, name, counting)
    code, out, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "4", "--algo", algo)
    assert code == EXIT_OK and "frequent itemsets: 11" in out
    assert calls == [4]


def test_bench_writes_stats_csv(capsys):
    code, out, _ = run(capsys, "bench", "--input", DEMO, "--sigmas", "2,3,4,5",
                       "--algo", "pcminer,apriori")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out, newline="")))
    assert len(rows) == 8
    by_key = {(r["algo"], r["min_sup"]): r for r in rows}
    assert by_key[("pcminer", "4")]["num_candidates"] == "6"
    assert by_key[("apriori", "4")]["num_candidates"] == "8"
    assert by_key[("pcminer", "4")]["num_frequent"] == "11"
    assert all(r["dataset"] == "demo8.dat" for r in rows)


def test_bench_rerun_matches_on_everything_but_runtime(capsys):
    outputs = [run(capsys, "bench", "--input", DEMO, "--sigmas", "2,4")[1] for _ in range(2)]
    snapshots = []
    for out in outputs:
        snapshots.append([
            (r["dataset"], r["algo"], r["min_sup"], r["num_frequent"], r["num_candidates"])
            for r in csv.DictReader(io.StringIO(out, newline=""))])
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("argv, shown", [
    (["mine", "--min-sup"], "min_sup: 1\n"),
    (["compare", "--min-sup"], " at min_sup 1 "),
    (["bench", "--sigmas"], "\ndemo8.dat,pcminer,1,"),
])
def test_a_zero_threshold_is_shown_as_the_one_enforced(capsys, argv, shown):
    def report(out):  # bench's runtime column varies like the time_* lines
        return [l.rsplit(",", 1)[0] if argv[0] == "bench" else l for l in stable_lines(out)]

    code, out, err = run(capsys, *argv, "0", "--input", DEMO)
    assert code == EXIT_OK
    assert err == "warning: support threshold 0 treated as 1\n"  # exactly once, no source line
    assert shown in out
    _, at_one, _ = run(capsys, *argv, "1", "--input", DEMO)
    assert report(out) == report(at_one)


def test_a_skipped_blank_line_is_one_warning_line(tmp_path, capsys):
    path = tmp_path / "blank.dat"
    path.write_text("1 2\n\n3\n")
    code, out, err = run(capsys, "mine", "--input", str(path))
    assert code == EXIT_OK
    assert err == f"warning: {path}: skipped 1 empty transaction line(s)\n"
    assert "dataset: blank.dat (2 transactions, 3 items)\n" in out


def test_bench_stdout_when_no_stats_out(capsys):
    code, out, _ = run(capsys, "bench", "--input", DEMO, "--sigmas", "4", "--algo", "brute")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "dataset,algo,min_sup,num_frequent,num_candidates,runtime_ms"
    assert lines[1].startswith("demo8.dat,brute,4,11,47,")


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--algo", "", "--algo wants a comma-separated list of algorithms",
                 id="algo-empty"),
    pytest.param("--algo", ",", "--algo wants a comma-separated list of algorithms",
                 id="algo-comma"),
    pytest.param("--algo", "nosuch", "unknown algorithm 'nosuch'", id="algo-unknown"),
    pytest.param("--sigmas", ",", "--sigmas wants a comma-separated list of thresholds",
                 id="sigmas-comma"),
])
def test_bench_with_a_bad_list_exits_two(capsys, flag, value, message):
    lists = {"--sigmas": "4", "--algo": "pcminer", flag: value}
    code, out, err = run(capsys, "bench", "--input", DEMO,
                         *(part for pair in lists.items() for part in pair))
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mine", "--input", DEMO, "--algo", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["mine", "--min-sup", "4"])  # no input source at all
    assert err.value.code == 2


def test_bad_min_sup_exits_two(capsys):
    code, _, err = run(capsys, "mine", "--input", DEMO, "--min-sup", "1.5")
    assert code == EXIT_USAGE
    assert "min-sup" in err


@pytest.mark.parametrize("text", ["\u0664", "\u0660.\u0665"])  # 4 and 0.5 in Arabic-Indic digits
def test_a_non_ascii_min_sup_exits_two(capsys, text):
    # a transaction file may not hold these digits either (dataset_io: bad item id)
    code, out, err = run(capsys, "mine", "--input", DEMO, "--min-sup", text)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: cannot read min-sup {text!r}: not ASCII text\n"


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dat"
    bad.write_text("1 2\noops\n", encoding="utf-8")
    code, _, err = run(capsys, "mine", "--input", str(bad), "--min-sup", "1")
    assert code == EXIT_USAGE
    assert ":2:" in err


def test_non_utf8_file_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "binary.dat"
    bad.write_bytes(b"\xff\xfe1 2\n")
    code, _, err = run(capsys, "mine", "--input", str(bad), "--min-sup", "1")
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {bad}:1: bad item id")
    assert "codec" not in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "mine", "--input", str(tmp_path / "nope.dat"), "--min-sup", "1")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_brute_refusal_exits_one(capsys):
    code, _, err = run(capsys, "mine", "--synthetic", "10,30,0.9,3",
                       "--algo", "brute", "--min-sup", "2")
    assert code == EXIT_MISMATCH
    assert "capped" in err


def test_mine_brute_refuses_past_the_work_guard(capsys):
    # 2,000 rows of about 8 of 20 items hold 1,641,016 subsets
    code, out, err = run(capsys, "mine", "--synthetic", "2000,20,0.4,1",
                         "--algo", "brute", "--min-sup", "0.2")
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err == ("error: the exhaustive miner is capped: its rows hold 2**20 or more subsets, "
                   f"past the {baselines.BRUTE_FORCE_MAX_WORK}-subset work guard\n")


def test_two_rows_of_24_items_are_refused_fast(tmp_path, capsys):
    # 2 * (2**24 - 1) subsets: a minute of counting, were it admitted
    path = tmp_path / "rows24.dat"
    path.write_text((" ".join(map(str, range(24))) + "\n") * 2, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "mine", "--input", str(path), "--algo", "brute")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MISMATCH and out == ""
    assert err.startswith("error: the exhaustive miner is capped: its rows hold 2**24 or more")
    start = time.perf_counter()
    code, out, err = run(capsys, "compare", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MISMATCH and err == ""
    assert [line.partition(" (")[0] for line in out.splitlines()] == [
        "note: pcminer skipped", "note: apriori skipped", "note: brute skipped"]


def test_bad_synthetic_spec_exits_two(capsys):
    code, _, err = run(capsys, "mine", "--synthetic", "10,5", "--min-sup", "1")
    assert code == EXIT_USAGE
    assert "N,ITEMS,DENSITY,SEED" in err


@pytest.mark.parametrize("spec, error", [
    # 5, 3, 1 and 1 in Arabic-Indic digits, but for DENSITY
    ("\u0665,\u0663,1,\u0661", "cannot read --synthetic N '\u0665': not ASCII text"),
    ("5,3,\u0661,1", "cannot read --synthetic DENSITY '\u0661': not ASCII text"),
    ("5,3,1,\u0661", "cannot read --synthetic SEED '\u0661': not ASCII text"),
    ("1" * 5000 + ",3,1,1",
     "cannot read --synthetic N '11111111111111111111'... (5000 characters): "
     "more than 4300 significant digits"),
    ("5,3e1,1,1", "cannot read --synthetic ITEMS '3e1': not an integer"),
    ("5,3,half,1", "cannot read --synthetic DENSITY 'half': not a decimal number"),
    ("1,1" + "0" * 400 + ",0.5,1", "need at most 1048576 items"),  # read, then refused
], ids=["non-ascii-n", "non-ascii-density", "non-ascii-seed", "5000-digit-n", "float-items",
        "word-density", "401-digit-items"])
def test_a_synthetic_field_is_read_as_min_sup_is(capsys, spec, error):
    code, out, err = run(capsys, "mine", "--synthetic", spec)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {error}\n"


def test_synthetic_integers_follow_the_min_sup_grammar(capsys):
    _, plain, _ = run(capsys, "mine", "--synthetic", "30,8,0.4,11", "--min-sup", "6")
    code, padded, _ = run(capsys, "mine", "--synthetic", " 0030,+8, 0.4 ,1_1", "--min-sup", "6")
    assert code == EXIT_OK
    assert stable_lines(padded) == stable_lines(plain)


def module_command(*argv):
    """`python -m pcmine ...` as a child, with this checkout's package importable."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return [sys.executable, "-m", "pcmine", *argv], env


def test_python_dash_m_runs_the_cli():
    command, env = module_command("mine", "--input", DEMO, "--min-sup", "4", "--quiet")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK
    assert "candidates: 6" in done.stdout.splitlines()


def test_a_reader_that_goes_away_ends_the_run_quietly():
    # about 355 KB of itemset lines, far more than a pipe buffers
    command, env = module_command("mine", "--synthetic", "400,14,0.6,1", "--min-sup", "1")
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        assert child.stdout.readline().startswith(b"dataset: ")
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert code == EXIT_BROKEN_PIPE
    assert err == b""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_gone_before_the_run_starts_ends_it_quietly(unbuffered):
    # buffered, demo8's report fits in the buffer, so only the flush at the end meets the pipe
    command, env = module_command("mine", "--input", DEMO, "--min-sup", "4")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_BROKEN_PIPE
    assert done.stderr == b""


def test_one_long_row_is_refused_fast_by_every_miner(tmp_path, capsys):
    # 2**26 - 27 itemsets of two or more items: under Apriori's row-test guard, not its
    # candidate guard
    path = tmp_path / "row26.dat"
    path.write_text(" ".join(map(str, range(26))) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "mine", "--input", str(path), "--algo", "apriori")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MISMATCH and out == ""
    assert err.endswith(f"past the {baselines.APRIORI_MAX_CANDIDATES}-candidate guard\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "compare", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MISMATCH and err == ""
    assert [line.partition(" (")[0] for line in out.splitlines()] == [
        "note: pcminer skipped", "note: apriori skipped", "note: brute skipped"]


def test_cli_start_up_imports_no_dataclasses():
    # dataclasses brings inspect, ast and dis, a cost that every CLI start would pay
    src = str(Path(cli.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import pcmine.cli; print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    new = done.stdout.split()
    assert "pcmine.cli" in new
    assert not {"dataclasses", "inspect"} & set(new)


# ---------------------------------------------------------------- input sweep


@st.composite
def synthetic_sources(draw):
    """A --synthetic spec: up to 3,000 items and density 1, at most 6,000 draws in all."""
    items = draw(st.integers(min_value=1, max_value=3000))
    rows = draw(st.integers(min_value=1, max_value=max(1, 6000 // items)))
    density = draw(st.floats(min_value=1 / items, max_value=1.0))
    seed = draw(st.integers(min_value=-2**64, max_value=2**64))
    return ["--synthetic", f"{rows},{items},{density},{seed}"]


@st.composite
def file_sources(draw, path):
    """An --input file of drawn rows, with blank lines and now and then a junk token."""
    pool = draw(st.lists(st.integers(min_value=0, max_value=10**22), min_size=1, max_size=40,
                         unique=True))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), max_size=40), max_size=60))
    lines = [draw(st.sampled_from([" ", "\t", "  "])).join(map(str, row)) for row in rows]
    if lines and draw(st.booleans()):
        junk = draw(st.sampled_from(["x", "-1", "1.5", "0x10", "\u0663", "1e3", "+2"]))
        lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))] += " " + junk
    path.write_text("\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])),
                    encoding="utf-8")
    return ["--input", str(path)]


MIN_SUPS = st.one_of(
    st.integers(min_value=-2, max_value=10**30).map(str),
    st.floats(min_value=0.0, max_value=1.5).map(repr),
    st.decimals(min_value=0, max_value=1, places=9).map(str),  # 1E-7 and the like
    st.builds("{}e{}".format, st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=-40, max_value=2)),
    st.integers(min_value=0, max_value=6000).map(lambda zeros: "0." + "0" * zeros + "1"),
)


@given(data=st.data(), min_sup=MIN_SUPS, command=st.sampled_from(["mine", "compare"]))
@settings(max_examples=300, deadline=None)
def test_readme_legal_inputs_exit_cleanly(tmp_path_factory, data, min_sup, command):
    """mine and compare on drawn inputs exit 0, 1 or 2, with no traceback, well inside a time bound."""
    path = tmp_path_factory.getbasetemp() / "sweep.dat"
    source = data.draw(st.one_of(synthetic_sources(), file_sources(path)))
    argv = [command, *source, f"--min-sup={min_sup}"]
    if command == "mine":
        argv += ["--algo", "pcminer"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        # test-sized guards: every miner's work and output stay small
        patch.setattr(pc_miner, "WALK_MAX_WORK", 2**12)
        patch.setattr(baselines, "APRIORI_MAX_WORK", 2**16)
        patch.setattr(baselines, "APRIORI_MAX_CANDIDATES", 2**10)
        patch.setattr(baselines, "BRUTE_FORCE_MAX_WORK", 2**16)
        code = main(argv)
    event(f"{command} exit {code}")
    assert time.perf_counter() - start < 3.0
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    notes = [line for line in lines if line.startswith("note: ")]
    if code == EXIT_OK and command == "mine":
        assert out.getvalue().startswith("dataset: ")
    elif code == EXIT_OK:  # the miners that ran agree
        assert len(notes) <= 1 and lines == [*notes, lines[-1]]
        assert lines[-1].startswith("EQUAL on ")
    elif command == "compare" and code == EXIT_MISMATCH:  # never a DIFFER line
        assert len(notes) >= 2 and lines == notes
    else:
        assert code in (EXIT_MISMATCH, EXIT_USAGE)
        assert out.getvalue() == ""
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("error: ")
        # pcminer refuses only through its walk guard
        assert (code == EXIT_MISMATCH) == last.startswith("error: the candidate walk is capped")
