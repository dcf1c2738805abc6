"""Command-line front end: mine one database, cross-check miners, sweep thresholds.

Each subcommand takes only the flags it reads: --min-sup belongs to mine and
compare, --quiet to mine, and bench writes its CSV to stdout alone. The
integers of --min-sup and --synthetic are read by one reader, _read_int,
and only ASCII text is read, as in a transaction file.

A miner refuses exponential work by raising baselines.UniverseTooLargeError,
brute force past its subset guard, Apriori past its row-test or candidate
guard and pcminer past its walk guard; the CLI asks no guard itself. mine
exits 1 on a refusal; compare prints it as a `note:` line and cross-checks
the miners that ran, in ALGORITHMS order, against the first of them. Two
miners agree when their frequent maps are equal; only when they are not
does compare look for the smallest itemset they disagree on, and its
`DIFFER` line names it. Neither command sorts what it does not print: mine
sorts its listings only without --quiet.

Exit codes: 0 on success (and on EQUAL for compare), 1 when compare finds a
semantic difference or runs fewer than two miners, or a miner refuses the
input, 2 on usage and parse errors,
141 (128 + SIGPIPE, what a shell shows for a writer killed by a closed pipe)
when a write, or the flush at the end of the command, finds that the reader
of stdout has gone; that exit prints nothing. A report that fits in the
pipe's buffer can be written whole before the reader leaves, so
`pcmine mine ... | head -1` may end 0. A library warning, such as a
threshold of 0 or a skipped blank line, is one `warning: <message>` line on
stderr. All output except the time_* lines is byte-identical across reruns.

Every run pays for the imports, so the package imports no dataclasses,
which would bring inspect, ast and dis with it: its records are
namedtuples and __slots__ classes. A command runs with the cyclic garbage
collector paused: the run's own data holds no reference cycles, so the
collector's passes over the walk's tuples would free nothing (README, "What
a run does besides mining"). mine writes its report in blocks of
REPORT_BLOCK_LINES lines, not a write per line: with PYTHONUNBUFFERED set,
stdout has no buffer and every print costs two write(2) calls. A block is
small enough that, once the reader of a long report has gone, a later write
meets the closed pipe instead of a partial write passing unseen.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
import warnings
from collections import namedtuple
from itertools import islice
from pathlib import Path
from typing import Iterator

from . import baselines, dataset_io, pc_miner, pc_tree
from .baselines import TransactionDB

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

REPORT_BLOCK_LINES = 256


# build_ms is None for a miner with no build step; maximal is None when the miner does not
# report it, and is then derived from frequent.
RunOutcome = namedtuple("RunOutcome", "frequent candidates mine_ms build_ms maximal",
                        defaults=(None, None))


def _run_pcminer(db: TransactionDB, sigma: int) -> RunOutcome:
    t0 = time.perf_counter()
    tree = pc_tree.build_tree(db, sigma)
    t1 = time.perf_counter()
    result = pc_miner.mine(tree, sigma)
    t2 = time.perf_counter()
    return RunOutcome(result.frequent, len(result.examined),
                      mine_ms=(t2 - t1) * 1000.0, build_ms=(t1 - t0) * 1000.0,
                      maximal=result.maximal)


def _baseline_runner(name: str):
    """A runner for baselines.<name>, which it looks up at each call, not once.

    bench/spans.py traces a miner by setting the module attribute to a
    wrapper, so a runner holding the function itself would bypass it.
    """
    def run(db: TransactionDB, sigma: int) -> RunOutcome:
        t0 = time.perf_counter()
        result = getattr(baselines, name)(db, sigma)
        return RunOutcome(result.frequent, result.candidates_generated,
                          mine_ms=(time.perf_counter() - t0) * 1000.0)
    return run


# Dispatch table; tests monkeypatch entries to fault-inject the compare path.
ALGORITHMS = {
    "pcminer": _run_pcminer,
    "apriori": _baseline_runner("apriori_mine"),
    "brute": _baseline_runner("brute_force_mine"),
}


def _quote(text: str) -> str:
    """repr() of text, or of its first 20 characters and its length when it is longer."""
    if len(text) <= 24:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _read_int(text: str) -> int:
    """An integer literal in ASCII text, with leading zeros read past.

    int()'s grammar, [+-]digit(_?digit)*, is checked here so that leading
    zeros stay out of int(), which reads at most 4,300 digits
    (sys.get_int_max_str_digits); a number of more significant digits is
    refused. An underscore at either end of rest doubles up in the padded
    text. Only ASCII is read: int() and float() would take other scripts'
    digits, which a transaction file may not hold.
    """
    if not text.isascii():
        raise ValueError("not ASCII text")
    body = text.strip()
    rest = body[1:] if body.startswith(("+", "-")) else body
    digits = rest.replace("_", "")
    if not digits.isdecimal() or "__" in f"_{rest}_":
        raise ValueError("not an integer")
    kept = digits.lstrip("0")
    if len(kept) > 4300:
        raise ValueError("more than 4300 significant digits")
    value = int(kept or "0")
    return -value if body.startswith("-") else value


def _read_float(text: str) -> float:
    """float() of ASCII text."""
    if not text.isascii():
        raise ValueError("not ASCII text")
    try:
        return float(text)
    except ValueError:
        raise ValueError("not a decimal number") from None


def resolve_sigma(text: str, db_size: int) -> int:
    """An integer literal is an absolute count; a fraction f in (0, 1] is ceil(f * |D|).

    The product is taken exactly, on the digits and the exponent of the
    decimal text, since binary floats round: 0.07 * 100 is 7.000000000000001
    there, whose ceil is 8. The result is the threshold the miners enforce,
    so that the output shows it: a 0 becomes 1, with
    baselines.effective_sigma's warning. Leading zeros are read past in
    either form, so 0004 is 4, and a number of more than 4,300 significant
    digits is refused. An error quotes only a short prefix of the text.
    Only ASCII text is read (_read_int and _read_float).
    """
    try:
        if any(c in text for c in ".eE"):
            at_most_one = _read_float(text) <= 1.0  # checks the syntax first
            mantissa, _, exponent = text.strip().replace("_", "").lower().partition("e")
            whole, _, fraction = mantissa.partition(".")
            # Zeros on either end stay out of _read_int, as leading zeros do there.
            digits = (whole + fraction).lstrip("+-0")
            kept = digits.rstrip("0")
            numerator = _read_int(kept or "0") * 10 ** (len(digits) - len(kept))
            # The digits decide positivity, since float() reads 1e-400 as 0.0.
            if not (at_most_one and numerator > 0 and not mantissa.startswith("-")):
                raise ValueError("a fractional min-sup must be in (0, 1]")
            # A shift past the length of the mantissa times |D| leaves the ceil
            # at 1 (0 for an empty database): bound it before 10 ** is taken.
            # A fraction of at most 1 has an exponent below the bound. A longer
            # exponent is past it, and so are its leading digits, one more than
            # the bound has, which are all that int() reads.
            bound = len(whole + fraction) + len(str(db_size))
            power = exponent.lstrip("+-").lstrip("0")[:len(str(bound)) + 1]
            sign = -1 if exponent.startswith("-") else 1
            shift = min(len(fraction) - sign * int(power or "0"), bound)
            # float() reads 1.00000000000000000001 as 1.0, so min() does too
            value = min(-(-numerator * db_size // 10 ** shift), db_size)
        else:
            value = _read_int(text)
    except ValueError as exc:
        raise ValueError(f"cannot read min-sup {_quote(text)}: {exc}") from None
    if value < 0:
        raise ValueError(f"min-sup must be non-negative, got {_quote(text)}")
    return baselines.effective_sigma(value)


def _load_db(args) -> tuple[str, TransactionDB]:
    if args.synthetic:
        parts = args.synthetic.split(",")
        if len(parts) != 4:
            raise ValueError("--synthetic wants N,ITEMS,DENSITY,SEED")
        fields = []
        for field, part in zip(("N", "ITEMS", "DENSITY", "SEED"), parts):
            try:  # read as --min-sup's numbers are
                fields.append((_read_float if field == "DENSITY" else _read_int)(part))
            except ValueError as exc:
                raise ValueError(
                    f"cannot read --synthetic {field} {_quote(part)}: {exc}") from None
        spec = dataset_io.SyntheticSpec(*fields)
        return spec.name, dataset_io.generate_synthetic(spec)
    return Path(args.input).name, dataset_io.load_transactions(args.input)


def _fmt(itemset) -> str:
    return " ".join(map(str, itemset))


def _report(name: str, db: TransactionDB, algo: str, sigma: int, run: RunOutcome,
            quiet: bool) -> Iterator[str]:
    """The lines of mine's report, each without its newline."""
    maximal = run.maximal
    if maximal is None:
        maximal = pc_miner.maximal_frequent(run.frequent)
    yield f"dataset: {name} ({len(db)} transactions, {len(db.universe)} items)"
    yield f"algorithm: {algo}"
    yield f"min_sup: {sigma}"
    yield f"frequent itemsets: {len(run.frequent)}"
    if not quiet:
        for itemset, support in sorted(run.frequent.items()):
            yield f"  {_fmt(itemset)}: {support}"
    yield f"maximal: {len(maximal)}"
    if not quiet:
        for itemset in sorted(maximal):
            yield f"  {_fmt(itemset)}"
    yield f"candidates: {run.candidates}"
    if run.build_ms is not None:
        yield f"time_build_ms: {run.build_ms:.3f}"
    yield f"time_mine_ms: {run.mine_ms:.3f}"


def cmd_mine(args) -> int:
    name, db = _load_db(args)
    sigma = resolve_sigma(args.min_sup, len(db))
    run = ALGORITHMS[args.algo](db, sigma)
    lines = _report(name, db, args.algo, sigma, run, args.quiet)
    while block := list(islice(lines, REPORT_BLOCK_LINES)):
        block.append("")  # the last line's newline
        sys.stdout.write("\n".join(block))
    return EXIT_OK


def cmd_compare(args) -> int:
    name, db = _load_db(args)
    sigma = resolve_sigma(args.min_sup, len(db))
    frequent = {}
    for algo, runner in ALGORITHMS.items():
        try:
            frequent[algo] = runner(db, sigma).frequent
        except baselines.UniverseTooLargeError as exc:
            print(f"note: {algo} skipped ({exc})")
    if len(frequent) < 2:  # nothing was cross-checked
        return EXIT_MISMATCH
    (first, reference), *others = frequent.items()
    for algo, other in others:
        if other != reference:
            itemset = min(x for x in reference.keys() | other.keys()
                          if reference.get(x) != other.get(x))
            print(f"DIFFER on {name}: itemset {_fmt(itemset)}: "
                  f"{first}={_fmt_support(reference.get(itemset))} "
                  f"{algo}={_fmt_support(other.get(itemset))}")
            return EXIT_MISMATCH
    print(f"EQUAL on {name}: {len(reference)} frequent itemsets at min_sup {sigma} "
          f"({', '.join(frequent)})")
    return EXIT_OK


def _fmt_support(value) -> str:
    return "absent" if value is None else str(value)


def cmd_bench(args) -> int:
    name, db = _load_db(args)
    sigmas = [resolve_sigma(part, len(db)) for part in args.sigmas.split(",") if part]
    if not sigmas:
        raise ValueError("--sigmas wants a comma-separated list of thresholds")
    algos = [a for a in args.algo.split(",") if a]
    if not algos:
        raise ValueError("--algo wants a comma-separated list of algorithms")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    rows = []
    for sigma in sigmas:
        for algo in algos:
            run = ALGORITHMS[algo](db, sigma)
            rows.append(dataset_io.StatsRow(
                dataset=name, algo=algo, min_sup=sigma,
                num_frequent=len(run.frequent), num_candidates=run.candidates,
                runtime_ms=round(run.mine_ms, 3)))
    dataset_io.write_stats_csv(rows, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmine",
        description="Frequent-itemset mining on prime-coded transactions.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_mine = sub.add_parser("mine", help="mine one database with one algorithm")
    p_cmp = sub.add_parser("compare", help="cross-check the miners on one database")
    p_bench = sub.add_parser("bench", help="sweep thresholds and write a stats CSV to stdout")
    for p in (p_mine, p_cmp, p_bench):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="transaction file, one transaction per line")
        source.add_argument("--synthetic", metavar="N,ITEMS,DENSITY,SEED",
                            help="generate a reproducible random database instead")
    for p in (p_mine, p_cmp):
        p.add_argument("--min-sup", default="1",
                       help="absolute count, or a fraction in (0,1] of the database size")

    p_mine.add_argument("--algo", choices=sorted(ALGORITHMS), default="pcminer")
    p_mine.add_argument("--quiet", action="store_true", help="suppress per-itemset output")
    p_mine.set_defaults(func=cmd_mine)
    p_cmp.set_defaults(func=cmd_compare)
    p_bench.add_argument("--algo", default="pcminer,apriori",
                         help="comma-separated algorithms to run")
    p_bench.add_argument("--sigmas", required=True,
                         help="comma-separated thresholds, absolute or fractional")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the CLI: the message alone, with no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring; a caller's collector is left as found
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            try:
                code = args.func(args)
                sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
                return code
            except BrokenPipeError:
                # Nobody reads stdout any more; point it at devnull so that the
                # flush at interpreter exit does not fail on the closed pipe again.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return EXIT_BROKEN_PIPE
            except baselines.UniverseTooLargeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_MISMATCH
            except (dataset_io.TransactionParseError, OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
