"""Loader, synthetic generator, and stats writer tests."""

import csv
import io
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmine import dataset_io
from pcmine.baselines import TransactionDB
from pcmine.dataset_io import (
    LANES,
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
    padded = "0" * 5000 + "7"  # more digits than int() reads, all but one of them zeros
    db = load_transactions(write_file(tmp_path, f"7 07\n007 3\n3 0\n00 7\n{padded} 3\n"))
    assert db.rows == ((7,), (3, 7), (0, 3), (0, 7), (3, 7))
    assert db.universe == (0, 3, 7)  # each id once, ascending, as TransactionDB requires


def test_load_refuses_an_id_of_more_than_4300_significant_digits(tmp_path):
    longest = "9" * 4300
    path = write_file(tmp_path, f"1 {longest}\n2 0{longest}1\n")
    with pytest.raises(TransactionParseError) as err:
        load_transactions(path)
    assert str(err.value) == (f"{path}:2: item id '0{'9' * 19}'... (4302 characters): "
                              "more than 4300 significant digits")
    assert load_transactions(write_file(tmp_path, f"1 {longest}\n")).universe == (1, 10**4300 - 1)


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

_MASK64 = (1 << 64) - 1


def splitmix64(seed):
    """The README's SplitMix64 stream, one draw at a time: the generator's reference."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def reference_rows(spec):
    """The README's generator algorithm, one draw per item, as a scalar loop."""
    draws = splitmix64(spec.seed)
    threshold = int(spec.density * 2.0**64)
    rows = []
    while len(rows) < spec.num_transactions:
        items = tuple(i for i in range(spec.num_items) if next(draws) < threshold)
        if items:
            rows.append(items)
    return tuple(rows)


def test_reference_stream_is_splitmix64():
    # the first outputs of SplitMix64 from state 0, as its published reference gives them
    assert list(islice(splitmix64(0), 3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert list(islice(splitmix64(-1), 5)) == list(islice(splitmix64(_MASK64), 5))


@st.composite
def synthetic_specs(draw):
    """A spec and a lane cap small enough that rows and databases span batches."""
    num_items = draw(st.one_of(st.integers(1, 24), st.sampled_from([60, 129, 300])))
    density = draw(st.one_of(
        st.just(1.0),
        st.just(1 / num_items),  # about one item a row, so many rows are redrawn
        st.floats(1 / num_items, 1.0),
    ))
    if density * num_items < 1:  # 1 / n * n can round below 1
        density = math.nextafter(density, 1.0)
    seed = draw(st.one_of(st.integers(-(2**70), -1), st.integers(0, _MASK64),
                          st.integers(2**64, 2**80)))
    spec = SyntheticSpec(draw(st.integers(1, 80)), num_items, density, seed)
    return spec, draw(st.sampled_from([1, 2, 3, 7, 64, 300, LANES]))


@settings(max_examples=300, deadline=None)
@given(synthetic_specs())
@example((SyntheticSpec(5, 9, 1.0, 3), LANES))  # density 1.0
@example((SyntheticSpec(40, 7, 1 / 7, 11), 7))  # one item a row on average: redraws
@example((SyntheticSpec(30, 1, 1.0, 2), 3))  # one item
@example((SyntheticSpec(4, 129, 0.05, 5), 64))  # a row spans three batches
@example((SyntheticSpec(2, 24, 0.5, 8), 64))  # the whole database within one batch
@example((SyntheticSpec(80, 24, 0.5, 8), 64))  # many batches
@example((SyntheticSpec(20, 12, 0.3, -5), LANES))  # a negative seed
@example((SyntheticSpec(20, 12, 0.3, 2**64 + 7), LANES))  # a seed past 64 bits
@example((SyntheticSpec(40, 5, 0.2, 3), 3))  # empty draws that a batch boundary cuts
def test_synthetic_equals_the_scalar_reference(case):
    spec, lanes = case
    with mock.patch.object(dataset_io, "LANES", lanes):
        db = generate_synthetic(spec)
    assert db.rows == reference_rows(spec)
    assert db.universe == tuple(range(spec.num_items))


def test_synthetic_rows_wider_than_the_lane_cap(monkeypatch):
    """Every batch holds LANES flags, so each int the generator builds is 16 * LANES bytes."""
    sizes = []
    batches = dataset_io._inclusion_flags

    def recorded(*args):
        for flags in batches(*args):
            sizes.append(len(flags))
            yield flags

    monkeypatch.setattr(dataset_io, "_inclusion_flags", recorded)
    spec = SyntheticSpec(3, 2 * LANES + 5, 2 / LANES, seed=11)  # a row spans three batches
    assert generate_synthetic(spec).rows == reference_rows(spec)
    assert len(sizes) >= 7 and set(sizes) == {LANES}


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
    with pytest.raises(ValueError, match="need at most 1048576 items"):
        SyntheticSpec(1, dataset_io.MAX_ITEMS + 1, 1.0, 1)
    with pytest.raises(ValueError, match="num_transactions \\* num_items must be at most 16777216"):
        SyntheticSpec(17, dataset_io.MAX_ITEMS, 1.0, 1)
    SyntheticSpec(16, dataset_io.MAX_ITEMS, 1.0, 1)  # both caps are inclusive
    spec = SyntheticSpec(5, 20, 0.05, seed=1)
    with pytest.raises(AttributeError):  # read-only once built
        spec.seed = 2


@pytest.mark.parametrize("fields, message", [
    ((2.5, 5, 0.5, 1), "num_transactions must be an int, got 2.5"),
    ((True, 5, 0.5, 1), "num_transactions must be an int, got True"),
    ((5, 5.0, 0.5, 1), "num_items must be an int, got 5.0"),
    ((5, False, 0.5, 1), "num_items must be an int, got False"),
    ((5, 5, 0.5, 1.5), "seed must be an int, got 1.5"),
    ((5, 5, 0.5, True), "seed must be an int, got True"),
    ((5, 5, 0.5, "1"), "seed must be an int, got '1'"),
    ((5, 5, True, 1), "density must be an int or a float, got True"),
    ((5, 5, "0.5", 1), "density must be an int or a float, got '0.5'"),
    ((5, 5, 0.5j, 1), "density must be an int or a float, got 0.5j"),
    ((5, 5, None, 1), "density must be an int or a float, got None"),
    ((5, 5, Fraction(1, 2), 1), "density must be an int or a float, got Fraction(1, 2)"),
    ((5, 5, Decimal("0.5"), 1), "density must be an int or a float, got Decimal('0.5')"),
], ids=["float-n", "bool-n", "float-items", "bool-items", "float-seed", "bool-seed",
        "str-seed", "bool-density", "str-density", "complex-density", "none-density",
        "fraction-density", "decimal-density"])
def test_synthetic_spec_refuses_fields_of_the_wrong_type(fields, message):
    with pytest.raises(ValueError) as err:
        SyntheticSpec(*fields)
    assert str(err.value) == message


def test_synthetic_spec_make_and_replace_check_their_fields():
    spec = SyntheticSpec(10, 5, 0.5, 1)
    with pytest.raises(ValueError, match="need at least one transaction"):
        spec._replace(num_transactions=-3)
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        SyntheticSpec._make([0, 0, True, 1.5])
    with pytest.raises(TypeError):
        SyntheticSpec._make([10, 5])
    assert SyntheticSpec._make(iter([10, 5, 0.5, 1])) == spec
    assert spec._replace(seed=2) == SyntheticSpec(10, 5, 0.5, 2)
    assert type(spec._replace(seed=2)) is SyntheticSpec


def test_synthetic_spec_takes_an_int_density():
    assert generate_synthetic(SyntheticSpec(6, 5, 1, 4)) == \
        generate_synthetic(SyntheticSpec(6, 5, 1.0, 4))


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
