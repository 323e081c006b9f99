"""Benchmark of the fusionseed engine through its CLI, end to end and per layer.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
`src/`.  Each workload is a fixed list of CLI operations on instance files
that the set-up writes from the zoo corpus, in a basis drawn from --seed
(see workloads.py).  Set-up runs SETUP_REPEATS times in fresh processes;
each round of operations runs in one fresh process, closed loop, and
rounds repeat until --seconds have passed (at least one round).  Reports
are checked by oracles.py.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of one traced round, and
trace.overhead_s against one untraced round run just before it.  The last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import oracles
import tracer
import workloads
from worker import report_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
# spans of the last traced run of each workload and seed
TRACES = os.path.join(WORK, "traces")
SETUP_REPEATS = 5
# A run starts no further round that would end after this many seconds.
RUN_BUDGET_S = 140
WORKER_TIMEOUT_S = 170
# One process, one thread: numpy's BLAS pools stay at one thread, and
# string hashing is fixed so that equal inputs take equal paths.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
                    "setup_s": "s"}
ELAPSED = re.compile(r'"elapsed_s": [-+0-9.eE]+')


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(args, started):
    timeout = WORKER_TIMEOUT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    env = {**os.environ, **WORKER_ENV}
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _setup(work, tag, workload, seed, traced, started):
    path = os.path.join(work, tag)
    os.makedirs(path)
    _worker(["setup", workload, str(seed), path, "1" if traced else "0"],
            started)
    return path


def _inputs(path):
    """Instance files and manifest written by one set-up, by file name."""
    return {n: _read(os.path.join(path, n)) for n in os.listdir(path)
            if n.endswith(".json") and n not in ("setup.json", "trace.json")}


def _same_inputs(a, b):
    return _inputs(a) == _inputs(b)


def _round(work, tag, inputs, traced, started):
    path = os.path.join(work, tag)
    os.makedirs(path)
    _worker(["ops", inputs, path, "1" if traced else "0"], started)
    with open(os.path.join(path, "round.json")) as fh:
        result = json.load(fh)
    result["dir"] = path
    return result


class Judge:
    """Counts attempted and failed operations over the rounds of a run.

    An operation's first report goes through the oracles; every later
    report of the same operation must be byte-identical apart from
    elapsed_s.
    """

    def __init__(self, inputs, seed):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from fusionseed import zoo
        corpus = zoo.table_corpus()
        with open(os.path.join(inputs, "manifest.json")) as fh:
            self.manifest = json.load(fh)
        self.instances = {}
        for inst in self.manifest["instances"]:
            with open(os.path.join(inputs, inst["name"] + ".json")) as fh:
                payload = json.load(fh)
            self.instances[inst["name"]] = oracles.Instance(
                payload, inst["basis"], corpus[inst["corpus_index"]].expected,
                seed)
        self.ops = {op["instance"]: op for op in self.manifest["ops"]}
        self.reference = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, rnd):
        """Count one round's operations, given its dir and records."""
        for rec in rnd["ops"]:
            self.attempted += 1
            name = rec["instance"]
            op = self.ops[name]
            path = os.path.join(rnd["dir"], report_name(op))
            raw = _read(path) if os.path.exists(path) else None
            if rec["rc"] != 0 or raw is None:
                problems = [f"exit {rec['rc']}: {rec['error']}"]
            elif name not in self.reference:
                self.reference[name] = ELAPSED.sub("", raw)
                problems = oracles.check_report(
                    op["command"], json.loads(raw), self.instances[name])
            elif ELAPSED.sub("", raw) != self.reference[name]:
                problems = ["report differs from the first round's"]
            else:
                problems = []
            if problems:
                self.failed += 1
                print(f"FAILED {op['command']} {name}: {problems}",
                      file=sys.stderr)


def measure(workload, seed, seconds, work, started):
    setups = [_setup(work, f"setup{i}", workload, seed, False, started)
              for i in range(SETUP_REPEATS)]
    correct = all(_same_inputs(setups[0], s) for s in setups[1:])
    setup_s = [json.loads(_read(os.path.join(s, "setup.json")))["setup_s"]
               for s in setups]
    judge = Judge(setups[0], seed)
    rounds = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append(_round(work, f"round{len(rounds)}", setups[0], False,
                             started))
        judge.judge(rounds[-1])
        now = time.monotonic()
        if now - t0 >= seconds \
                or now - started + 1.5 * (now - r0) > RUN_BUDGET_S:
            break
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        "setup_s": statistics.median(setup_s),
    }
    return correct, judge, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                            for k, v in metrics.items()}


def measure_traced(workload, seed, work, started):
    plain = _setup(work, "setup", workload, seed, False, started)
    traced = _setup(work, "setup_traced", workload, seed, True, started)
    correct = _same_inputs(plain, traced)
    judge = Judge(plain, seed)
    untraced_round = _round(work, "round_untraced", plain, False, started)
    judge.judge(untraced_round)
    traced_round = _round(work, "round_traced", plain, True, started)
    judge.judge(traced_round)
    dumps = []
    for path in (traced, traced_round["dir"]):
        with open(os.path.join(path, "trace.json")) as fh:
            dumps.append(json.load(fh))
    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"setup": dumps[0], "round": dumps[1]}, fh)
    values = tracer.layer_metrics(
        dumps, traced_round["wall_s"] - untraced_round["wall_s"])
    return correct, judge, {k: {"value": v, "unit": tracer.LAYER_METRICS[k]}
                            for k, v in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.exists(os.path.join(SRC, "fusionseed", "cli.py")):
        print(f"no fusionseed source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            correct, judge, metrics = measure_traced(
                args.workload, args.seed, work, started)
        else:
            correct, judge, metrics = measure(
                args.workload, args.seed, args.seconds, work, started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": judge.attempted,
                      "failed": judge.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
