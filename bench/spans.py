"""In-process passes over the pcmine modules: traced, untraced and peak memory.

A pass runs the two commands the timed children run, `pcmine mine --algo
pcminer` and `pcmine mine --algo apriori`, through `cli.main` in this process.
The traced pass wraps the public functions of each module so that every call
records a span (name, parent span, start and end on `perf_counter_ns`); the
spans stay in memory until the caller writes them out. The wrappers are
installed on module and class attributes for the length of one pass and
removed afterwards, so the program under `src/` is never edited and the timed
children never see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import time
import tracemalloc

from pcmine import baselines, cli, dataset_io, pc_miner, pc_tree

# (owner, attribute, span name). The span name gives the layer that does the
# work, which is not always the owner: pc_tree.encode is prime_codec.encode as
# called by PCTree.insert, pc_miner.decode is prime_codec.decode as called by
# candidate_head_set.
TARGETS = (
    (cli, "main", "cli.main"),
    (dataset_io, "load_transactions", "dataset_io.load_transactions"),
    (pc_tree, "build_tree", "pc_tree.build_tree"),
    (pc_tree, "build_prime_table", "prime_codec.build_prime_table"),
    (pc_tree.PCTree, "insert", "pc_tree.PCTree.insert"),
    (pc_tree, "encode", "prime_codec.encode"),
    (pc_tree.PCTree, "support", "pc_tree.PCTree.support"),
    (pc_miner, "mine", "pc_miner.mine"),
    (pc_miner, "candidate_head_set", "pc_miner.candidate_head_set"),
    (pc_miner, "decode", "prime_codec.decode"),
    (pc_miner, "encode", "prime_codec.encode"),
    (pc_miner, "maximal_frequent", "pc_miner.maximal_frequent"),
    (baselines, "apriori_mine", "baselines.apriori_mine"),
)

# Counts a traced pass must repeat exactly on the same input.
COUNTS = (
    "pc_tree.nodes", "pc_tree.heads", "pc_tree.support_calls", "pc_miner.head_set_size",
    "pc_miner.examined", "pc_miner.backfill_queries", "pc_miner.frequent",
    "baselines.apriori_candidates",
)


class PassError(Exception):
    """A pass produced a wrong answer or a nonzero exit code."""


@contextlib.contextmanager
def patched(wrap):
    """Replace each target by wrap(span_name, function) unless that returns None."""
    originals = []
    try:
        for owner, attr, name in TARGETS:
            replacement = wrap(name, getattr(owner, attr))
            if replacement is not None:
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def run_commands(input_path, min_sup: str) -> None:
    """Both CLI commands on one input, in this process, with their output discarded."""
    for algo in ("pcminer", "apriori"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["mine", "--input", str(input_path), "--min-sup", min_sup,
                             "--algo", algo])
        if code != cli.EXIT_OK:
            raise PassError(f"in-process {algo} run exited {code}")


class Tracer:
    """Spans as [name, parent, start_ns, end_ns], parent -1 at the top.

    A span is appended when its call starts, so parents precede their
    children. results keeps the last value each span name returned; a
    mutable value may have changed since it was returned.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, object] = {}
        self._open = [-1]

    def wrap(self, name, fn):
        spans, open_spans, results = self.spans, self._open, self.results
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1], clock(), 0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()
            results[name] = result
            return result

        return traced


def traced_pass(input_path, min_sup: str) -> Tracer:
    """Run both commands with every target wrapped by a fresh tracer.

    Raises PassError when pcminer's itemsets differ from apriori_mine's.
    """
    tracer = Tracer()
    with patched(tracer.wrap):
        run_commands(input_path, min_sup)
    mined = tracer.results["pc_miner.mine"]
    reference = tracer.results["baselines.apriori_mine"]
    if mined.frequent != reference.frequent:
        raise PassError("mine() and apriori_mine() disagree on the frequent itemsets")
    return tracer


def untraced_seconds(input_path, min_sup: str) -> float:
    """Wall time of both commands in this process with nothing wrapped."""
    start = time.perf_counter()
    run_commands(input_path, min_sup)
    return time.perf_counter() - start


PEAK_METRICS = {
    "pc_tree.build_tree": "pc_tree.build_peak_mb",
    "pc_miner.mine": "pc_miner.mine_peak_mb",
    "baselines.apriori_mine": "baselines.apriori_peak_mb",
}


def peak_pass(input_path, min_sup: str) -> dict[str, float]:
    """Peak traced allocation, in MB, inside build_tree, mine and apriori_mine.

    tracemalloc runs only inside those three calls; it slows them several
    times over, which is why no timing is taken in this pass.
    """
    peaks = {}

    def measure(name, fn):
        if name not in PEAK_METRICS:
            return None

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[PEAK_METRICS[name]] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        return measured

    with patched(measure):
        run_commands(input_path, min_sup)
    return peaks


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns.

    Calls nest and do not overlap in one thread, so the children's cover is
    the sum of their durations.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans) -> list[int]:
    """Self time plus that of descendants in the same layer, reached through that layer only.

    For pc_tree.build_tree this is the build minus the encode and prime-table
    calls it makes; for pc_miner.mine it is the mine minus its support,
    encode and decode calls.
    """
    totals = self_times(spans)
    for index in range(len(spans) - 1, -1, -1):
        name, parent = spans[index][0], spans[index][1]
        if parent >= 0 and layer(spans[parent][0]) == layer(name):
            totals[parent] += totals[index]
    return totals


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(traced: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, pcminer command first, apriori command second."""
    spans = traced.spans
    layer_self = layer_self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def seconds(index):
        return (spans[index][3] - spans[index][2]) / 1e9

    def durations_us(name):
        return [seconds(i) * 1e6 for i in by_name.get(name, ())]

    def calls_under(name, parent_name):
        return [i for i in by_name.get(name, ()) if spans[spans[i][1]][0] == parent_name]

    db = traced.results["dataset_io.load_transactions"]
    tree = traced.results["pc_tree.build_tree"]
    mined = traced.results["pc_miner.mine"]
    apriori = traced.results["baselines.apriori_mine"]
    build = by_name["pc_tree.build_tree"][0]
    mine = by_name["pc_miner.mine"][0]
    inserts = durations_us("pc_tree.PCTree.insert")
    tenth = max(1, len(inserts) // 10)
    supports = durations_us("pc_tree.PCTree.support")
    examined = len(mined.examined)
    frequent_examined = sum(1 for itemset in mined.examined if itemset in mined.frequent)
    multi_item = sum(1 for itemset in apriori.frequent if len(itemset) > 1)
    return {
        # the first load is the pcminer command's
        "dataset_io.load_s": seconds(by_name["dataset_io.load_transactions"][0]),
        "dataset_io.distinct_share": len(set(db.itemsets())) / len(db),
        "prime_codec.encode_s": sum(
            seconds(i) for i in calls_under("prime_codec.encode", "pc_tree.PCTree.insert")),
        "prime_codec.decode_s": sum(seconds(i) for i in by_name.get("prime_codec.decode", ())),
        "pc_tree.build_s": seconds(build),
        "pc_tree.build_self_s": layer_self[build] / 1e9,
        "pc_tree.insert_us.p50": statistics.median(inserts),
        "pc_tree.insert_us.p99": percentile(inserts, 0.99),
        "pc_tree.insert_late_early": (statistics.fmean(inserts[-tenth:])
                                      / statistics.fmean(inserts[:tenth])),
        "pc_tree.nodes": tree.node_count,
        "pc_tree.heads": len(tree.heads()),
        "pc_tree.support_calls": len(supports),
        "pc_tree.support_s": sum(supports) / 1e6,
        "pc_tree.support_us.p50": statistics.median(supports),
        "pc_miner.head_set_s": seconds(by_name["pc_miner.candidate_head_set"][0]),
        # mine() grows the set it got back, so the size is taken again on the built tree
        "pc_miner.head_set_size": len(pc_miner.candidate_head_set(tree, mined.sigma)),
        "pc_miner.mine_s": seconds(mine),
        "pc_miner.mine_self_s": layer_self[mine] / 1e9,
        "pc_miner.examined": examined,
        "pc_miner.walk_yield": frequent_examined / examined if examined else 0.0,
        "pc_miner.backfill_queries": len(supports) - examined,
        "pc_miner.frequent": len(mined.frequent),
        "baselines.apriori_s": seconds(by_name["baselines.apriori_mine"][0]),
        "baselines.apriori_candidates": apriori.candidates_generated,
        "baselines.apriori_yield": (multi_item / apriori.candidates_generated
                                    if apriori.candidates_generated else 0.0),
    }


def traced_seconds(traced: Tracer) -> float:
    """Wall time of both commands in the traced pass, from their cli.main spans."""
    return sum((end - start) / 1e9 for name, _, start, end in traced.spans if name == "cli.main")


def write_spans(traced: Tracer, path, header: dict) -> None:
    """Write one pass's spans, one row per span under named columns, after a header."""
    own = self_times(traced.spans)
    layer_self = layer_self_times(traced.spans)
    trace = []
    for index, (_, parent, _, _) in enumerate(traced.spans):
        trace.append(index if parent < 0 else trace[parent])
    rows = [[name, parent, trace[i], start, end, own[i], layer_self[i]]
            for i, (name, parent, start, end) in enumerate(traced.spans)]
    document = dict(header, clock="time.perf_counter_ns",
                    columns=["name", "parent", "trace", "start_ns", "end_ns", "self_ns",
                             "layer_self_ns"],
                    spans=rows)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
