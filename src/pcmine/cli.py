"""Command-line front end: mine one database, cross-check miners, sweep thresholds.

Exit codes: 0 on success (and on EQUAL for compare), 1 when compare finds a
semantic difference or a miner refuses the input, 2 on usage and parse errors,
141 (128 + SIGPIPE, what a shell shows for a writer killed by a closed pipe)
when the reader of stdout goes away first, as `pcmine mine ... | head -1`
does; that exit prints nothing. A library warning, such as a threshold of 0
or a skipped blank line, is one `warning: <message>` line on stderr. All
output except the time_* lines is byte-identical across reruns.

Every run pays for the imports, so the package imports no dataclasses,
which would bring inspect, ast and dis with it: its records are
namedtuples and __slots__ classes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path

from . import baselines, dataset_io, pc_miner, pc_tree
from .baselines import TransactionDB

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


# build_ms is None for a miner with no build step; maximal is None when the miner does not
# report it, and is then derived from frequent.
RunOutcome = namedtuple("RunOutcome", "frequent candidates mine_ms build_ms maximal",
                        defaults=(None, None))


def _run_pcminer(db: TransactionDB, sigma: int) -> RunOutcome:
    t0 = time.perf_counter()
    tree = pc_tree.build_tree(db)
    t1 = time.perf_counter()
    result = pc_miner.mine(tree, sigma)
    t2 = time.perf_counter()
    return RunOutcome(result.frequent, result.candidates_examined,
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


def resolve_sigma(text: str, db_size: int) -> int:
    """An integer literal is an absolute count; a fraction f in (0, 1] is ceil(f * |D|).

    The product is taken exactly, on the digits and the exponent of the
    decimal text, since binary floats round: 0.07 * 100 is 7.000000000000001
    there, whose ceil is 8. The result is the threshold the miners enforce,
    so that the output shows it: a 0 becomes 1, with
    baselines.effective_sigma's warning.
    """
    try:
        if any(c in text for c in ".eE"):
            mantissa, _, exponent = text.strip().replace("_", "").lower().partition("e")
            whole, _, digits = mantissa.partition(".")
            # float() checks the syntax first, then the upper end; the digits
            # decide positivity, since float() reads 1e-400 as 0.0.
            if not (float(text) <= 1.0 and int(whole + digits) > 0):
                raise ValueError(f"fractional min-sup must be in (0, 1], got {text}")
            # A shift past the length of int(whole + digits) * |D| leaves the
            # ceil at 1 (0 for an empty database): bound it before 10 ** is taken.
            shift = min(len(digits) - int(exponent or 0), len(whole + digits) + len(str(db_size)))
            # float() reads 1.00000000000000000001 as 1.0, so min() does too
            value = min(-(-int(whole + digits) * db_size // 10 ** shift), db_size)
        else:
            value = int(text)
    except ValueError as exc:
        raise ValueError(f"cannot read min-sup {text!r}: {exc}") from None
    if value < 0:
        raise ValueError(f"min-sup must be non-negative, got {value}")
    return baselines.effective_sigma(value)


def _load_db(args) -> tuple[str, TransactionDB]:
    if args.synthetic:
        parts = args.synthetic.split(",")
        if len(parts) != 4:
            raise ValueError("--synthetic wants N,ITEMS,DENSITY,SEED")
        spec = dataset_io.SyntheticSpec(
            num_transactions=int(parts[0]), num_items=int(parts[1]),
            density=float(parts[2]), seed=int(parts[3]))
        return spec.name, dataset_io.generate_synthetic(spec)
    return Path(args.input).name, dataset_io.load_transactions(args.input)


def _fmt(itemset) -> str:
    return " ".join(map(str, itemset))


def cmd_mine(args) -> int:
    name, db = _load_db(args)
    sigma = resolve_sigma(args.min_sup, len(db))
    run = ALGORITHMS[args.algo](db, sigma)
    maximal = run.maximal
    if maximal is None:
        maximal = sorted(pc_miner.maximal_frequent(run.frequent))
    print(f"dataset: {name} ({len(db)} transactions, {len(db.universe)} items)")
    print(f"algorithm: {args.algo}")
    print(f"min_sup: {sigma}")
    ranked = sorted(run.frequent.items())
    print(f"frequent itemsets: {len(ranked)}")
    if not args.quiet:
        for itemset, support in ranked:
            print(f"  {_fmt(itemset)}: {support}")
    print(f"maximal: {len(maximal)}")
    if not args.quiet:
        for itemset in maximal:
            print(f"  {_fmt(itemset)}")
    print(f"candidates: {run.candidates}")
    if run.build_ms is not None:
        print(f"time_build_ms: {run.build_ms:.3f}")
    print(f"time_mine_ms: {run.mine_ms:.3f}")
    return EXIT_OK


def _first_difference(reference: dict, other: dict):
    for itemset in sorted(set(reference) | set(other)):
        a = reference.get(itemset)
        b = other.get(itemset)
        if a != b:
            return itemset, a, b
    return None


def cmd_compare(args) -> int:
    name, db = _load_db(args)
    sigma = resolve_sigma(args.min_sup, len(db))
    algos = ["pcminer", "apriori"]
    refusal = baselines.brute_force_refusal(db)
    if refusal is not None:
        print(f"note: brute force skipped ({refusal})")
    else:
        algos.append("brute")
    outcomes = {algo: ALGORITHMS[algo](db, sigma) for algo in algos}
    reference = outcomes["pcminer"].frequent
    for algo in algos[1:]:
        diff = _first_difference(reference, outcomes[algo].frequent)
        if diff is not None:
            itemset, ours, theirs = diff
            print(f"DIFFER on {name}: itemset {_fmt(itemset)}: "
                  f"pcminer={_fmt_support(ours)} {algo}={_fmt_support(theirs)}")
            return EXIT_MISMATCH
    print(f"EQUAL on {name}: {len(reference)} frequent itemsets at min_sup {sigma} "
          f"({', '.join(algos)})")
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
    if args.stats_out:
        dataset_io.write_stats(rows, args.stats_out)
        if not args.quiet:
            print(f"wrote {len(rows)} rows to {args.stats_out}")
    else:
        dataset_io.write_stats_csv(rows, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmine",
        description="Frequent-itemset mining on prime-coded transactions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="transaction file, one transaction per line")
        source.add_argument("--synthetic", metavar="N,ITEMS,DENSITY,SEED",
                            help="generate a reproducible random database instead")
        p.add_argument("--min-sup", default="1",
                       help="absolute count, or a fraction in (0,1] of the database size")
        p.add_argument("--quiet", action="store_true", help="suppress per-itemset output")

    p_mine = sub.add_parser("mine", help="mine one database with one algorithm")
    add_common(p_mine)
    p_mine.add_argument("--algo", choices=sorted(ALGORITHMS), default="pcminer")
    p_mine.set_defaults(func=cmd_mine)

    p_cmp = sub.add_parser("compare", help="cross-check the miners on one database")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="sweep thresholds and emit stats CSV")
    add_common(p_bench)
    p_bench.add_argument("--algo", default="pcminer,apriori",
                         help="comma-separated algorithms to run")
    p_bench.add_argument("--sigmas", required=True,
                         help="comma-separated thresholds, absolute or fractional")
    p_bench.add_argument("--stats-out", help="CSV destination (stdout when omitted)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the CLI: the message alone, with no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
