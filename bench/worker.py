"""One fresh process of the benchmark: set-up, or one round of operations.

  python3 bench/worker.py setup <workload> <seed> <inputs dir> <trace 0|1>
  python3 bench/worker.py ops <inputs dir> <outputs dir> <trace 0|1>

`setup` imports numpy and fusionseed and writes the workload's instance
files and manifest; it records the time this takes.  `ops` runs every
operation of the manifest once, closed loop on one thread, through the
`fusionseed` CLI entry `cli.main`, and records wall time, CPU time and
this process's peak resident memory.  With trace 1, either also writes the
spans it recorded.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _tracing(rec, traced):
    return tracer.tracing(rec) if traced else contextlib.nullcontext()


def setup(workload, seed, inputs, traced):
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    sys.path.insert(0, SRC)
    import fusionseed  # noqa: F401
    import workloads
    rec = tracer.Recorder()
    with _tracing(rec, traced):
        manifest = workloads.generate(workload, seed, inputs)
    _write_json(os.path.join(inputs, "manifest.json"), manifest)
    setup_s = time.perf_counter() - t0
    _write_json(os.path.join(inputs, "setup.json"), {"setup_s": setup_s})
    if traced:
        _write_json(os.path.join(inputs, "trace.json"), rec.dump())


def run_ops(ops, inputs, outputs):
    """Run each operation once; return per-operation records."""
    from fusionseed import cli
    records = []
    for op in ops:
        name = op["instance"]
        argv = [op["command"], os.path.join(inputs, name + ".json"),
                "--out", os.path.join(outputs, report_name(op))] + op["extra"]
        t0 = time.perf_counter()
        error = None
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, "SystemExit"
        except Exception:   # one operation's crash must not end the round
            rc, error = None, traceback.format_exc()
        records.append({"instance": name, "rc": rc, "error": error,
                        "wall_s": time.perf_counter() - t0})
    return records


def report_name(op):
    return f"{op['instance']}.{op['command']}.json"


def ops_round(inputs, outputs, traced):
    sys.path.insert(0, SRC)
    import fusionseed.cli  # noqa: F401
    with open(os.path.join(inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    rec = tracer.Recorder()
    t0, c0 = time.perf_counter(), _cpu_s()
    with _tracing(rec, traced):
        records = run_ops(manifest["ops"], inputs, outputs)
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_s() - c0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _write_json(os.path.join(outputs, "round.json"),
                {"wall_s": wall_s, "cpu_s": cpu_s,
                 "peak_rss_mib": peak_kib / 1024, "ops": records})
    if traced:
        _write_json(os.path.join(outputs, "trace.json"), rec.dump())


def main(argv):
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]), argv[3], argv[4] == "1")
    elif argv[0] == "ops":
        ops_round(argv[1], argv[2], argv[3] == "1")
    else:
        raise SystemExit(f"unknown worker mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
