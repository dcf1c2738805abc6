"""Transaction-file loading, seeded synthetic databases, stats CSV output.

The on-disk transaction format is one transaction per line: whitespace
separated non-negative integer item ids. The synthetic generator runs on
SplitMix64 so a spec reproduces the same database on any platform; the README
documents the exact algorithm. Draw n of that stream depends on n alone, so
the generator computes up to LANES consecutive draws at once, each in its own
128-bit lane of one Python int.
"""

from __future__ import annotations

import csv
import warnings
from collections import namedtuple
from itertools import compress
from typing import Iterable, Iterator

from .baselines import TransactionDB

STATS_HEADER = ("dataset", "algo", "min_sup", "num_frequent", "num_candidates", "runtime_ms")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state step
LANES = 4096  # most draws computed in one batch; a batch's int is 16 * LANES bytes
# The largest spec sizes, so that no spec runs out of memory or draws for
# hours. On a 2-vCPU Xeon VM, 2**24 draws generate in 1.3-2.6 s as rows of 16
# to 2**20 items (2**24 one-item rows take 10-11 s and 1 GB), and
# `mine --synthetic 1,1048576,0.000001,1` takes 1.9 s and 267 MB with pcminer,
# 0.7 s and 105 MB with apriori.
MAX_ITEMS = 2**20
MAX_DRAWS = 2**24  # num_transactions * num_items


class TransactionParseError(ValueError):
    """A transaction file line held something other than item ids."""


class _ItemIds(dict):
    """Token text -> item id, each token checked and converted once, when first looked up."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        if not (token.isascii() and token.isdigit()):
            raise TransactionParseError(f"bad item id {token!r}")
        # Leading zeros stay out of int(), which reads at most 4,300 digits
        # (sys.get_int_max_str_digits), as they do for the CLI's numbers.
        kept = token.lstrip("0")
        if len(kept) > 4300:
            raise TransactionParseError(f"item id {token[:20]!r}... ({len(token)} characters): "
                                        "more than 4300 significant digits")
        self[token] = item = int(kept or "0")
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
    one id, such as 7 and 07, give one item. Leading zeros may run to any
    length, and an id of more than 4,300 significant digits is refused. Only
    lines that parsed cleanly are remembered, so a bad token raises with the
    number of the first line that holds it. A byte that is not UTF-8 is read
    as a lone surrogate, so it makes a bad token too, reported with its file
    and line.
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

    num_transactions, num_items and seed are plain ints (a bool is not one),
    and density is an int or a float, not a bool. density is the
    independent per-item inclusion probability, so density * num_items is
    the expected transaction length and must be at least 1 to keep the
    empty-transaction redraw loop sane. num_items is at most MAX_ITEMS, and
    num_transactions * num_items at most MAX_DRAWS; both are checked before
    density * num_items is taken.
    """

    __slots__ = ()

    def __new__(cls, num_transactions: int, num_items: int, density: float, seed: int):
        for field, value in (("num_transactions", num_transactions),
                             ("num_items", num_items), ("seed", seed)):
            if type(value) is not int:
                raise ValueError(f"{field} must be an int, got {value!r}")
        if isinstance(density, bool) or not isinstance(density, (int, float)):
            raise ValueError(f"density must be an int or a float, got {density!r}")
        if num_transactions < 1:
            raise ValueError("need at least one transaction")
        if num_items < 1:
            raise ValueError("need at least one item")
        if num_items > MAX_ITEMS:
            raise ValueError(f"need at most {MAX_ITEMS} items")
        if num_transactions * num_items > MAX_DRAWS:
            raise ValueError(f"num_transactions * num_items must be at most {MAX_DRAWS}")
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if density * num_items < 1.0:
            raise ValueError("density * num_items must be at least 1")
        return super().__new__(cls, num_transactions, num_items, density, seed)

    @classmethod
    def _make(cls, iterable):
        """A spec from an iterable of its four fields, checked as the constructor checks them.

        namedtuple's own _make, which _replace calls, would skip __new__.
        """
        return cls(*iterable)

    @property
    def name(self) -> str:
        return f"synthetic-{self.num_transactions}x{self.num_items}-d{self.density}-s{self.seed}"


def _lanes(value: int, lanes: int) -> int:
    """value, below 2**128, in each of lanes 128-bit lanes of one int."""
    return int.from_bytes(value.to_bytes(16, "little") * lanes, "little")


def _inclusion_flags(seed: int, threshold: int, lanes: int) -> Iterator[bytes]:
    """The SplitMix64 stream of seed as flags, lanes draws a batch, one byte per draw.

    A byte is 1 when its draw is below threshold and 0 otherwise. Lane j of
    a batch holds the state of the batch's draw j, and every step below
    serves all lanes at once. The xor-shifts pull bits of the next lane only
    into bits 97 and up of a lane, which the 64-bit lane mask clears, and a
    64-bit by 64-bit product fits in its 128-bit lane. The last step adds
    threshold to 2**64 - 1 - draw, so bit 64 of a lane, the low bit of its
    byte 8, is set exactly when the draw is below threshold.
    """
    mask = _lanes(_MASK64, lanes)
    step = _lanes((lanes * _GAMMA) & _MASK64, lanes)
    below = _lanes(threshold, lanes)
    state = int.from_bytes(b"".join(((seed + j * _GAMMA) & _MASK64).to_bytes(16, "little")
                                    for j in range(1, lanes + 1)), "little")
    while True:
        z = ((state ^ (state >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z = (z ^ (z >> 31) ^ mask) & mask
        yield (z + below).to_bytes(16 * lanes, "little")[8::16]
        state = (state + step) & mask


def generate_synthetic(spec: SyntheticSpec) -> TransactionDB:
    """Bernoulli transactions: each item joins independently with p = density.

    One 64-bit draw per item in ascending id order; a draw below
    density * 2**64 includes the item. An empty result is discarded and drawn
    again, so every transaction is non-empty and the output is still a pure
    function of the spec.

    The draws come in batches of at most LANES from _inclusion_flags, so the
    ints stay 16 * LANES bytes wide however many items a row has. Each batch
    is appended to one buffer of the flags not yet cut into rows, every
    whole row is cut from the front of it and compressed, and the rest, less
    than a row, waits for the next batch, so the buffer never holds more
    than num_items + LANES flags. A row that a batch boundary cuts, or one
    wider than a batch, takes the same path as any other. The last batch may
    hold rows past num_transactions; they are dropped.
    """
    count, width = spec.num_transactions, spec.num_items
    ids = range(width)
    batches = _inclusion_flags(spec.seed, int(spec.density * 2.0**64), min(LANES, count * width))
    rows = []
    rest = bytearray()  # the flags not yet cut into rows
    while len(rows) < count:
        rest += next(batches)
        stop = len(rest) // width * width
        flags = bytes(rest[:stop])  # slices of bytes are cheaper than of a bytearray
        del rest[:stop]
        rows += filter(None, [tuple(compress(ids, flags[start:start + width]))
                              for start in range(0, stop, width)])
    del rows[count:]
    return TransactionDB(rows, ids)


# One mining run, as a row of the stats CSV: its fields are the columns of STATS_HEADER.
StatsRow = namedtuple("StatsRow", STATS_HEADER)


def write_stats_csv(rows: Iterable[StatsRow], stream) -> None:
    """Write the fixed header and one CSV line per run to an open text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    writer.writerows(rows)

