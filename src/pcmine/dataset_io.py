"""Transaction-file loading, seeded synthetic databases, stats CSV output.

The on-disk transaction format is one transaction per line: whitespace
separated non-negative integer item ids. The synthetic generator runs on
SplitMix64 so a spec reproduces the same database on any platform; the README
documents the exact algorithm.
"""

from __future__ import annotations

import csv
import warnings
from collections import namedtuple
from typing import Iterable, Iterator

from .baselines import TransactionDB

STATS_HEADER = ("dataset", "algo", "min_sup", "num_frequent", "num_candidates", "runtime_ms")

_MASK64 = (1 << 64) - 1


class TransactionParseError(ValueError):
    """A transaction file line held something other than item ids."""


class _ItemIds(dict):
    """Token text -> item id, each token checked and converted once, when first looked up."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        if not (token.isascii() and token.isdigit()):
            raise TransactionParseError(f"bad item id {token!r}")
        self[token] = item = int(token)
        return item


def load_transactions(path) -> TransactionDB:
    """Read a whitespace-separated transaction file.

    Blank lines are skipped and reported in one aggregate warning, and the
    kept lines are the rows in file order, so a transaction's id is its
    position among them. TransactionDB makes each row canonical, so ids
    within a line may come in any order, and a repeated id counts once.

    The file is read line by line, and each distinct line is parsed once: a
    line whose exact text was seen before reuses that line's ids, so heavily
    duplicated files pay for tokenizing once per distinct line. Each
    distinct token is checked and converted once too, the first time a line
    holds it, and the universe is the set of their ids, so two spellings of
    one id, such as 7 and 07, give one item. Only lines that parsed cleanly
    are remembered, so a bad token raises with the number of the first line
    that holds it. A byte that is not UTF-8 is read as a lone surrogate, so
    it makes a bad token too, reported with its file and line.
    """
    rows = []
    parsed: dict[str, tuple[int, ...]] = {}
    ids = _ItemIds()
    lookup = ids.__getitem__
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            row = parsed.get(line)
            if row is None:
                try:
                    row = parsed[line] = tuple(map(lookup, line.split()))
                except TransactionParseError as exc:
                    raise TransactionParseError(f"{path}:{line_no}: {exc}") from None
            if not row:
                skipped += 1
                continue
            rows.append(row)
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} empty transaction line(s)", stacklevel=2)
    return TransactionDB(rows, sorted(set(ids.values())))


class SyntheticSpec(namedtuple("SyntheticSpec", "num_transactions num_items density seed")):
    """Parameters of one reproducible random database.

    density is the independent per-item inclusion probability, so
    density * num_items is the expected transaction length and must be at
    least 1 to keep the empty-transaction redraw loop sane.
    """

    __slots__ = ()

    def __new__(cls, num_transactions: int, num_items: int, density: float, seed: int):
        if num_transactions < 1:
            raise ValueError("need at least one transaction")
        if num_items < 1:
            raise ValueError("need at least one item")
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if density * num_items < 1.0:
            raise ValueError("density * num_items must be at least 1")
        return super().__new__(cls, num_transactions, num_items, density, seed)

    @property
    def name(self) -> str:
        return f"synthetic-{self.num_transactions}x{self.num_items}-d{self.density}-s{self.seed}"


def _splitmix64(seed: int) -> Iterator[int]:
    """Tiny portable PRNG stream; the exact stream is part of the generator contract."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def generate_synthetic(spec: SyntheticSpec) -> TransactionDB:
    """Bernoulli transactions: each item joins independently with p = density.

    One 64-bit draw per item in ascending id order; a draw below
    density * 2**64 includes the item. An empty result is discarded and drawn
    again, so every transaction is non-empty and the output is still a pure
    function of the spec.
    """
    draws = _splitmix64(spec.seed)
    threshold = int(spec.density * 2.0**64)
    rows = []
    while len(rows) < spec.num_transactions:
        items = tuple(i for i in range(spec.num_items) if next(draws) < threshold)
        if items:
            rows.append(items)
    return TransactionDB(rows, range(spec.num_items))


# One mining run, as a row of the stats CSV: its fields are the columns of STATS_HEADER.
StatsRow = namedtuple("StatsRow", STATS_HEADER)


def write_stats_csv(rows: Iterable[StatsRow], stream) -> None:
    """Write the fixed header and one CSV line per run to an open text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    writer.writerows(rows)

