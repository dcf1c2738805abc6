"""End-to-end CLI tests, run in-process through main(), and as `python -m pcmine` children."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcmine import baselines, cli
from pcmine.baselines import TransactionDB
from pcmine.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
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
    with pytest.raises(ValueError):
        resolve_sigma("1.5", 8)
    with pytest.raises(ValueError):
        resolve_sigma("-2", 8)
    with pytest.raises(ValueError):
        resolve_sigma("four", 8)


def test_mine_pcminer_demo(capsys):
    code, out, _ = run(capsys, "mine", "--input", DEMO, "--algo", "pcminer", "--min-sup", "4")
    assert code == EXIT_OK
    assert "frequent itemsets: 11" in out
    assert "candidates: 6" in out
    assert "maximal: 2" in out
    assert "  0 2 3: 5" in out
    assert "time_build_ms:" in out and "time_mine_ms:" in out


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
    assert "candidates: 63" in out


def test_mine_quiet_drops_itemset_lines(capsys):
    _, out, _ = run(capsys, "mine", "--input", DEMO, "--min-sup", "4", "--quiet")
    assert "frequent itemsets: 11" in out
    assert "  0 2 3: 5" not in out


def test_mine_synthetic_source(capsys):
    code, out, _ = run(capsys, "mine", "--synthetic", "30,8,0.4,11", "--min-sup", "6")
    assert code == EXIT_OK
    assert "synthetic-30x8-d0.4-s11 (30 transactions, 8 items)" in out


def test_compare_demo_reports_equal(capsys):
    code, out, _ = run(capsys, "compare", "--input", DEMO, "--min-sup", "4")
    assert code == EXIT_OK
    assert out.startswith("EQUAL")  # no note: demo8 is under both brute-force guards
    assert "pcminer, apriori, brute" in out


def test_compare_synthetic_reports_equal(capsys):
    code, out, _ = run(capsys, "compare", "--synthetic", "40,10,0.3,5", "--min-sup", "0.25")
    assert code == EXIT_OK
    assert out.startswith("EQUAL")


def test_compare_skips_brute_beyond_the_guard(capsys):
    code, out, _ = run(capsys, "compare", "--synthetic", "20,30,0.2,9", "--min-sup", "8")
    assert code == EXIT_OK
    assert "brute force skipped" in out
    assert "pcminer, apriori" in out


def test_compare_skips_brute_past_the_work_guard(capsys):
    # 20 items are under the item guard, but 2**20 subsets x 2,000 rows
    # would keep brute force busy for about two minutes
    code, out, _ = run(capsys, "compare", "--synthetic", "2000,20,0.3,7", "--min-sup", "0.2")
    assert code == EXIT_OK
    assert out.startswith("note: brute force skipped (2**20 subsets x 2000 rows exceed")
    assert out.splitlines()[-1].startswith("EQUAL")
    assert "(pcminer, apriori)" in out


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
        tally = real(db)
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


def test_bench_writes_stats_csv(tmp_path, capsys):
    out_path = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "bench", "--input", DEMO, "--sigmas", "2,3,4,5",
                     "--algo", "pcminer,apriori", "--stats-out", str(out_path))
    assert code == EXIT_OK
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    by_key = {(r["algo"], r["min_sup"]): r for r in rows}
    assert by_key[("pcminer", "4")]["num_candidates"] == "6"
    assert by_key[("apriori", "4")]["num_candidates"] == "8"
    assert by_key[("pcminer", "4")]["num_frequent"] == "11"
    assert all(r["dataset"] == "demo8.dat" for r in rows)


def test_bench_rerun_matches_on_everything_but_runtime(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run(capsys, "bench", "--input", DEMO, "--sigmas", "2,4", "--stats-out", str(path))
    snapshots = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            snapshots.append([
                (r["dataset"], r["algo"], r["min_sup"], r["num_frequent"], r["num_candidates"])
                for r in csv.DictReader(fh)])
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
    assert lines[1].startswith("demo8.dat,brute,4,11,63,")


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
    code, _, err = run(capsys, "mine", "--synthetic", "10,30,0.2,3",
                       "--algo", "brute", "--min-sup", "2")
    assert code == EXIT_MISMATCH
    assert "capped" in err


def test_mine_brute_refuses_past_the_work_guard(capsys):
    # 20 items are under the item guard; 2**20 subsets x 2,000 rows would run for minutes
    code, out, err = run(capsys, "mine", "--synthetic", "2000,20,0.3,1",
                         "--algo", "brute", "--min-sup", "0.2")
    assert code == EXIT_MISMATCH
    assert out == ""
    assert "2**20 subsets x 2000 rows exceed" in err


def test_bad_synthetic_spec_exits_two(capsys):
    code, _, err = run(capsys, "mine", "--synthetic", "10,5", "--min-sup", "1")
    assert code == EXIT_USAGE
    assert "N,ITEMS,DENSITY,SEED" in err


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
