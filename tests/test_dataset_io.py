"""Loader, synthetic generator, and stats writer tests."""

import csv
import io
import warnings

import pytest

from pcmine.baselines import TransactionDB
from pcmine.dataset_io import (
    STATS_HEADER,
    StatsRow,
    SyntheticSpec,
    TransactionParseError,
    generate_synthetic,
    load_transactions,
    write_stats_csv,
)
from pcmine.prime_codec import build_prime_table, encode


def write_file(tmp_path, text):
    path = tmp_path / "db.dat"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    db = load_transactions(write_file(tmp_path, "1 2 5\n1 2\n"))
    assert db.rows == ((1, 2, 5), (1, 2))
    assert db.universe == (1, 2, 5)


def test_load_dedupes_within_a_line(tmp_path):
    db = load_transactions(write_file(tmp_path, "3 3 3\n"))
    assert db.rows == ((3,),)


def test_load_skips_blank_lines_with_a_counted_warning(tmp_path):
    path = write_file(tmp_path, "1 2\n\n   \n3\n")
    with pytest.warns(UserWarning, match="2 empty"):
        db = load_transactions(path)
    assert db.rows == ((1, 2), (3,))


def test_load_accepts_tabs(tmp_path):
    db = load_transactions(write_file(tmp_path, "1\t2\t5\n"))
    assert db.rows == ((1, 2, 5),)


def test_load_reports_bad_tokens_with_line_numbers(tmp_path):
    path = write_file(tmp_path, "1 2\n1 x 3\n")
    with pytest.raises(TransactionParseError, match=":2:"):
        load_transactions(path)


def test_load_rejects_negative_ids(tmp_path):
    with pytest.raises(TransactionParseError):
        load_transactions(write_file(tmp_path, "1 -3\n"))


def test_load_repeated_lines_gives_every_row(tmp_path):
    rows = [(3, 1), (2,), (3, 1), (1, 3), (2,), (5, 1, 2), (3, 1)] * 30
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    db = load_transactions(write_file(tmp_path, text))
    assert db == TransactionDB.from_itemsets(rows)
    assert db.universe == (1, 2, 3, 5)
    # Each repeat of a line's text holds the very tuple that its first copy parsed to.
    first = {}
    assert all(first.setdefault(row, items) is items for row, items in zip(rows, db.rows))


def test_load_canonicalizes_each_spelling_of_a_row(tmp_path):
    db = load_transactions(write_file(tmp_path, "2 1\n1 2\n2 1\n1  2 2\n"))
    assert db.rows == ((1, 2),) * 4


def test_load_counts_every_repeated_blank_line(tmp_path):
    path = write_file(tmp_path, "1 2\n\n\n1 2\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        db = load_transactions(path)
    assert [str(w.message) for w in caught] == [f"{path}: skipped 3 empty transaction line(s)"]
    assert db.rows == ((1, 2), (1, 2))


def test_load_reports_the_line_of_a_bad_token_after_repeats(tmp_path):
    path = write_file(tmp_path, "1 2\n4\n" * 250 + "1 2 x\n" + "1 2\n" * 10)
    with pytest.raises(TransactionParseError, match=":501: bad item id 'x'"):
        load_transactions(path)


@pytest.mark.parametrize("data, line", [(b"\xff 1\n", 1), (b"1 2\n3 \xfe4\n1\n", 2)],
                         ids=["first-byte", "mid-line"])
def test_load_reports_bytes_that_are_not_utf8_with_file_and_line(tmp_path, data, line):
    path = tmp_path / "latin.dat"
    path.write_bytes(data)
    with pytest.raises(TransactionParseError, match=f"latin.dat:{line}: bad item id"):
        load_transactions(path)


def test_load_reads_two_spellings_of_an_id_as_one_item(tmp_path):
    db = load_transactions(write_file(tmp_path, "7 07\n007 3\n3 0\n00 7\n"))
    assert db.rows == ((7,), (3, 7), (0, 3), (0, 7))
    assert db.universe == (0, 3, 7)  # each id once, ascending, as TransactionDB requires


@pytest.mark.parametrize("data, line, token", [
    (b"1 2\n1 2\n2 1\n1 2\n1 x 2\n1 x 2\n", 5, "'x'"),
    (b"1 2\n3\n1 2\n3\n3 2 \xff\n3 2 \xff\n", 5, r"'\udcff'"),
], ids=["ascii", "not-utf8"])
def test_load_reports_the_first_line_of_a_bad_token_after_cached_lines(tmp_path, data, line,
                                                                        token):
    """Earlier lines, their texts and every good token on the bad line are cached already."""
    path = tmp_path / "bad.dat"
    path.write_bytes(data)
    with pytest.raises(TransactionParseError) as err:
        load_transactions(path)
    assert str(err.value) == f"{path}:{line}: bad item id {token}"


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_transactions(tmp_path / "nope.dat")


def test_demo_file_reproduces_golden_values(demo_db):
    table = build_prime_table(demo_db.universe)
    values = [encode(items, table) for items in demo_db.rows]
    assert values == [2310, 2730, 66, 770, 455, 910, 70, 455]


# ----------------------------------------------------------------- synthetic


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(0, 5, 0.5, 1)
    with pytest.raises(ValueError):
        SyntheticSpec(5, 0, 0.5, 1)
    with pytest.raises(ValueError):
        SyntheticSpec(5, 5, 0.0, 1)
    with pytest.raises(ValueError):
        SyntheticSpec(5, 5, 1.5, 1)
    with pytest.raises(ValueError):
        SyntheticSpec(5, 20, 0.01, 1)  # expected length below one item
    spec = SyntheticSpec(5, 20, 0.05, seed=1)
    with pytest.raises(AttributeError):  # read-only once built
        spec.seed = 2


def test_synthetic_density_one_is_all_items():
    db = generate_synthetic(SyntheticSpec(10, 5, 1.0, seed=3))
    assert all(items == (0, 1, 2, 3, 4) for items in db.rows)
    assert len(db) == 10


def test_synthetic_is_deterministic_per_seed():
    spec = SyntheticSpec(50, 10, 0.3, seed=42)
    assert generate_synthetic(spec) == generate_synthetic(spec)
    other = generate_synthetic(SyntheticSpec(50, 10, 0.3, seed=43))
    assert generate_synthetic(spec) != other


def test_synthetic_frozen_prefix():
    """The generator's output stream is a contract; freeze one sample."""
    db = generate_synthetic(SyntheticSpec(4, 6, 0.5, seed=7))
    assert db.rows == (
        (0, 1, 4, 5), (0, 1, 2, 3, 4), (5,), (3, 4, 5))


def test_synthetic_transactions_are_never_empty():
    db = generate_synthetic(SyntheticSpec(200, 8, 0.15, seed=5))
    assert len(db) == 200
    assert all(items for items in db.rows)
    assert db.universe == tuple(range(8))


# --------------------------------------------------------------------- stats


def test_write_stats_header_only():
    stream = io.StringIO()
    write_stats_csv([], stream)
    assert stream.getvalue() == "dataset,algo,min_sup,num_frequent,num_candidates,runtime_ms\n"


def test_write_stats_round_trip():
    rows = [
        StatsRow("demo8.dat", "pcminer", 4, 11, 6, 0.125),
        StatsRow("weird, name", "apriori", 2, 33, 31, 1.5),
    ]
    stream = io.StringIO()
    write_stats_csv(rows, stream)
    reader = csv.reader(io.StringIO(stream.getvalue(), newline=""))
    header = tuple(next(reader))
    parsed = [
        StatsRow(r[0], r[1], int(r[2]), int(r[3]), int(r[4]), float(r[5]))
        for r in reader
    ]
    assert header == STATS_HEADER
    assert parsed == rows


def test_write_stats_one_line_per_row():
    stream = io.StringIO()
    write_stats_csv([StatsRow("d", "a", 1, 2, 3, 4.0)], stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
