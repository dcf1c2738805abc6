#!/usr/bin/env python3
"""Benchmark of the pcmine CLI on three synthetic workloads.

    python3 bench/run.py --workload sparse-walk --seed 7 --seconds 30 --trace 0

With --trace 0 it times `pcmine mine --algo pcminer` and `--algo apriori`
children, one at a time, from spawn to exit, reads each child's peak RSS
from os.wait4, scales the times to a reference machine speed measured by
calibration children, and prints the end-to-end metrics. With --trace 1 it
runs the in-process passes of spans.py and prints the per-layer metrics.
Every child's itemsets must match those of the other children on the same
input, so pcminer is checked against Apriori. The last line of stdout is
the JSON result; bench/README.md explains the workloads and metrics. Run
from any directory; it reads and writes only inside the checkout that holds
it, under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEMO = ROOT / "data" / "demo8.dat"

OP_CAP_S = 120.0  # one child or pass; the slowest, the peak-memory pass, takes 40-90 s
RUN_CAP_S = 170.0  # the whole run, so that it ends within 180 s whatever the children do
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
SEED_STRIDE = 1_000_000  # database j of a run uses generator seed seed + j * SEED_STRIDE
DEMO_CANDIDATES = 6  # the README's six-candidate run on demo8 at min-sup 4
CALIBRATION_REF_S = 0.065  # a calibration child on the 2.0 GHz Xeon vCPU of bench/README.md
CALIBRATIONS_PER_STEP = 2  # calibration children after each set-up and each timed child


@dataclass(frozen=True)
class Workload:
    num_transactions: int
    num_items: int
    density: float
    seed: int  # generator seed when --seed is not given
    min_sup: str
    databases: int  # databases drawn from the seed
    runs: dict[str, int]  # children of each algorithm per database per cycle


# Why each workload exists is in bench/README.md. pcminer's time on one
# sparse-walk or wide-build database varies by about 15% from one seed to the
# next (the walk length, the head scan), so those workloads draw several
# databases; dense-dup's does not. The faster algorithm of a workload runs
# three times per cycle: single children of it spread by up to 20%.
WORKLOADS = {
    "sparse-walk": Workload(1000, 20, 0.3, 7, "0.05", databases=6,
                            runs={"apriori": 3, "pcminer": 1}),
    "wide-build": Workload(8000, 60, 0.1, 3, "0.105", databases=3,
                           runs={"apriori": 3, "pcminer": 1}),
    "dense-dup": Workload(40000, 12, 0.6, 1, "0.05", databases=1,
                          runs={"apriori": 1, "pcminer": 3}),
}

VOLATILE_PREFIXES = ("algorithm:", "candidates:", "time_")


class Timeout(Exception):
    """A child or an in-process pass ran past its cap."""


@contextmanager
def capped(seconds: float):
    """Raise Timeout in this thread once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise Timeout(f"still running after {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Child:
    seconds: float
    rss_mb: float
    stdout: str
    error: str | None


class Launcher:
    """Runs children one at a time through bench/spawn.py, which times and caps them."""

    def __init__(self):
        # per-process names, so that two runs in one checkout cannot mix their output
        self._out, self._err = OUT / f"child-{os.getpid()}.out", OUT / f"child-{os.getpid()}.err"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("spawn.py"))],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], cap: float) -> Child:
        """Run the interpreter on args against src/; the time is from spawn to exit."""
        request = {"argv": [sys.executable, *args], "stdout": str(self._out),
                   "stderr": str(self._err), "cap": cap}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        stdout = self._out.read_text(encoding="utf-8", errors="replace")
        error = None
        if reply["killed"]:
            error = f"killed after {cap:.1f} s"
        elif reply["exit_code"] != 0:
            tail = self._err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            error = f"exit code {reply['exit_code']}: {' '.join(tail)}"
        return Child(reply["seconds"], reply["rss_kb"] / 1024.0, stdout, error)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._out.unlink(missing_ok=True)
        self._err.unlink(missing_ok=True)


class Run:
    """Operation tally and time budget of one benchmark run."""

    def __init__(self, launcher: Launcher):
        self.end = time.perf_counter() + RUN_CAP_S
        self.attempted = 0
        self.failed = 0
        self._launcher = launcher

    def cap(self) -> float:
        return min(OP_CAP_S, self.end - time.perf_counter())

    def child(self, args: list[str]) -> Child:
        return self._launcher.run(args, self.cap())

    def record(self, what: str, error: str | None) -> bool:
        """Count one operation; report a failure on stderr. Returns True on success."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"bench: FAILED {what}: {error}", file=sys.stderr)
        return error is None


def mine_args(path: Path, min_sup: str, algo: str) -> list[str]:
    return ["-m", "pcmine", "mine", "--input", str(path.relative_to(ROOT)),
            "--min-sup", min_sup, "--algo", algo]


def itemset_report(stdout: str) -> list[str]:
    """The CLI output without the lines that may differ between algorithms."""
    return [line for line in stdout.splitlines() if not line.startswith(VOLATILE_PREFIXES)]


def candidates_line(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("candidates:"):
            return int(line.split(":", 1)[1])
    raise ValueError("no candidates line in the CLI output")


def gated_child(run: Run, path: Path, min_sup: str, algo: str,
                reference: dict[Path, list[str]]) -> Child | None:
    """One operation: an algorithm's child on one input, which must report the same itemsets
    as every other child on that input; the first successful one sets the reference."""
    child = run.child(mine_args(path, min_sup, algo))
    error = child.error
    if error is None:
        report = itemset_report(child.stdout)
        if reference.setdefault(path, report) != report:
            error = f"{algo}'s itemsets differ from an earlier child's on this input"
    return child if run.record(f"{algo} on {path.name}", error) else None


# Fixed pure-Python work of the kinds pcmine does: big-int remainders, list
# traffic and parsing numbers. It uses no pcmine code, so no change to the
# program moves its time; only the machine's speed does.
CALIBRATION = """\
values = [1]
for i in range(1, 400):
    values.append(values[-1] * (2 * i + 1) % (1 << 192))
hits = 0
for q in values[:300]:
    stack = list(values)
    while stack:
        if stack.pop() % q == 0:
            hits += 1
hits += sum(int(t) & 7 == 7 for t in " ".join(map(str, range(10000))).split())
"""


def calibrations(run: Run) -> list[float]:
    """Spawn-to-exit times of CALIBRATIONS_PER_STEP children running CALIBRATION."""
    times = []
    for _ in range(CALIBRATIONS_PER_STEP):
        child = run.child(["-c", CALIBRATION])
        if run.record("calibration", child.error):
            times.append(child.seconds)
    return times


def set_up(run: Run, name: str, workload: Workload,
           seed: int) -> tuple[list[Path], float, list[float]]:
    """Generate the workload's databases with the program's generator and write them out.

    Done SETUP_REPEATS times; returns the files, the median time of one
    set-up and the calibration times taken between set-ups.
    """
    from pcmine import dataset_io

    times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        paths = []
        for j in range(workload.databases):
            spec = dataset_io.SyntheticSpec(workload.num_transactions, workload.num_items,
                                            workload.density, seed + j * SEED_STRIDE)
            db = dataset_io.generate_synthetic(spec)
            path = OUT / f"{name}-{spec.seed}.dat"
            path.write_text("".join(" ".join(map(str, items)) + "\n"
                                    for _, items in db.transactions), encoding="utf-8")
            paths.append(path)
        times.append(time.perf_counter() - start)
        calibration += calibrations(run)
    return paths, statistics.median(times), calibration


def check_anchor(run: Run) -> None:
    """Refuse to record anything unless demo8 at min-sup 4 still examines six candidates."""
    child = run.child(mine_args(DEMO, "4", "pcminer"))
    error = child.error
    if error is None:
        found = candidates_line(child.stdout)
        if found != DEMO_CANDIDATES:
            error = f"demo8 examined {found} candidates, not {DEMO_CANDIDATES}"
    if not run.record("anchor run on demo8", error):
        sys.exit("bench: the paper-contract anchor failed; no numbers recorded")


def speed_factor(calibration: list[float]) -> float:
    """Scale from this machine's speed while the calibration ran to the reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibration)


def timed_metrics(run: Run, paths: list[Path], workload: Workload,
                  seconds: float) -> dict[str, float]:
    """End-to-end metrics over whole cycles through paths, for about `seconds`.

    Each metric is the mean over databases of the median over that database's
    children, so that one slow child does not move it and every database
    weighs the same. Times are scaled by the speed factor of the calibrations
    taken between children; the raw values are printed.
    """
    samples = {(metric, path): [] for path in paths
               for metric in ("pcminer_s", "apriori_s", "pcminer_rss_mb", "apriori_rss_mb")}
    reference: dict[Path, list[str]] = {}
    calibration = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        cycle_start = time.perf_counter()
        for path in paths:
            for algo, runs in workload.runs.items():
                for _ in range(runs):
                    child = gated_child(run, path, workload.min_sup, algo, reference)
                    calibration += calibrations(run)
                    if child is not None:
                        samples[f"{algo}_s", path].append(child.seconds)
                        samples[f"{algo}_rss_mb", path].append(child.rss_mb)
        now = time.perf_counter()
        longest = max(longest, now - cycle_start)
        if now - start + longest > seconds or now + longest > run.end:
            break
    medians = {}
    for (metric, _), values in samples.items():
        if values:
            medians.setdefault(metric, []).append(statistics.median(values))
    if len(medians) < 4:
        sys.exit("bench: an algorithm failed on every database; no numbers recorded")
    raw = {metric: statistics.fmean(values) for metric, values in medians.items()}
    factor = speed_factor(calibration)
    print("raw: " + " ".join(f"{key}={value:.6g}" for key, value in raw.items())
          + f" speed_factor={factor:.4f}")
    return {key: value * factor if key.endswith("_s") else value for key, value in raw.items()}


def traced_metrics(run: Run, name: str, seed: int, path: Path, min_sup: str,
                   seconds: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes for about `seconds`.

    Counts must repeat exactly from pass to pass, and the walk's length must
    equal the pcminer child's candidates line.
    """
    import spans

    def attempt(what, fn):
        """One capped in-process operation; its result, or None when it failed."""
        try:
            with capped(run.cap()):
                result = fn()
        except (Timeout, spans.PassError) as exc:
            run.record(what, str(exc))
            return None
        run.record(what, None)
        return result

    start = time.perf_counter()
    reference: dict[Path, list[str]] = {}
    gated_child(run, path, min_sup, "apriori", reference)
    pcminer = gated_child(run, path, min_sup, "pcminer", reference)
    cli_candidates = candidates_line(pcminer.stdout) if pcminer else None
    startups = []
    for _ in range(STARTUP_REPEATS):
        child = run.child(["-c", "import pcmine.cli"])
        if run.record("cli startup", child.error):
            startups.append(child.seconds)
    peaks = attempt("peak-memory pass", lambda: spans.peak_pass(path, min_sup))

    passes, traced_totals, untraced_totals = [], [], []

    def checked_pass():
        traced = spans.traced_pass(path, min_sup)
        metrics = spans.layer_metrics(traced)
        if passes and any(metrics[count] != passes[0][count] for count in spans.COUNTS):
            raise spans.PassError("counts differ from the first traced pass")
        if cli_candidates is not None and metrics["pc_miner.examined"] != cli_candidates:
            raise spans.PassError(f"traced pass examined {metrics['pc_miner.examined']}, "
                                  f"the CLI reported {cli_candidates}")
        return traced, metrics

    longest = 0.0
    while True:
        round_start = time.perf_counter()
        untraced = attempt("untraced pass", lambda: spans.untraced_seconds(path, min_sup))
        if untraced is not None:
            untraced_totals.append(untraced)
        outcome = attempt("traced pass", checked_pass)
        if outcome is not None:
            last, metrics = outcome
            passes.append(metrics)
            traced_totals.append(spans.traced_seconds(last))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds or now + longest > run.end:
            break
    if peaks is None or not passes or not untraced_totals or not startups:
        sys.exit("bench: a stage of the traced run failed every time; no numbers recorded")

    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics.update(peaks)
    metrics["cli.startup_s"] = statistics.median(startups)
    metrics["trace.overhead_share"] = (statistics.median(traced_totals)
                                       / statistics.median(untraced_totals) - 1.0)
    spans.write_spans(last, OUT / f"{name}-spans.json",
                      {"workload": name, "seed": seed, "input": str(path.relative_to(ROOT)),
                       "min_sup": min_sup})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcmine").is_dir() or not DEMO.is_file():
        sys.exit(f"bench: {ROOT} holds no pcmine checkout (src/pcmine, data/demo8.dat)")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    launcher = Launcher()
    try:
        run = Run(launcher)
        paths, setup_s, setup_calibration = set_up(run, args.workload, workload, seed)
        check_anchor(run)
        if args.trace:
            metrics = traced_metrics(run, args.workload, seed, paths[0], workload.min_sup,
                                     args.seconds)
        else:
            metrics = timed_metrics(run, paths, workload, args.seconds)
            metrics["setup_s"] = setup_s * speed_factor(setup_calibration)
            print(f"raw: setup_s={setup_s:.6g} setup_speed_factor="
                  f"{speed_factor(setup_calibration):.4f}")
    finally:
        launcher.close()
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
