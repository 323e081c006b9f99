"""Compare the reports of two source trees: exit 1 on any difference.

    python scripts/report_diff.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository (its `src/` is imported).  Under
each tree, a child process writes every instantiable corpus entry with
`zoo emit` and runs `check` and `sgroup` on it, and `check --heavy` on the
rows whose params set `"heavy": true`.  The emitted files, each command's
exit code, its report and its stderr are then compared between the trees,
with every `elapsed_s` key removed from the reports.  Prints one line per
difference and a summary line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

# Runs in the child, with the tree's src/ first on sys.path: emits every
# instantiable entry and runs the commands on it; prints one JSON record.
CHILD = r"""
import contextlib, io, json, os, sys
from fusionseed import cli, zoo

work = sys.argv[1]
seen, out = {}, {}
for spec in zoo.table_corpus():
    if not spec.instantiable:
        continue
    index = seen[spec.tag] = seen.get(spec.tag, -1) + 1
    name = f"{len(out):02d}_{spec.tag}_{index}"
    path = os.path.join(work, name + ".json")
    runs = [("emit", ["zoo", "emit", spec.tag, "--index", str(index)]),
            ("check", ["check", path]), ("sgroup", ["sgroup", path])]
    if spec.params.get("heavy") is True:
        runs.append(("check --heavy", ["check", path, "--heavy"]))
    record = {}
    for what, argv in runs:
        dest = path if what == "emit" else os.path.join(
            work, f"{name}.{what.replace(' --', '_')}.out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", dest])
        text = open(dest).read() if os.path.exists(dest) else ""
        record[what] = {"exit": code, "stderr": err.getvalue(),
                        "out": text}
    out[name] = record
print(json.dumps(out))
"""


def _strip(value):
    """value with every "elapsed_s" key removed, recursively."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _parsed(text: str):
    try:
        return _strip(json.loads(text))
    except ValueError:
        return text


def run_tree(root: str, work: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"),
           "PYTHONHASHSEED": "0"}
    return subprocess.Popen([sys.executable, "-c", CHILD, work], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def differences(old: dict, new: dict) -> list:
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            lines.append(f"{name}: only under "
                         f"{'new' if name in new else 'old'}")
            continue
        for what in sorted(set(old[name]) | set(new[name])):
            a, b = old[name].get(what), new[name].get(what)
            if a is None or b is None:
                lines.append(f"{name} {what}: run under one tree only")
                continue
            for key in ("exit", "stderr"):
                if a[key] != b[key]:
                    lines.append(f"{name} {what}: {key} {a[key]!r} -> "
                                 f"{b[key]!r}")
            if _parsed(a["out"]) != _parsed(b["out"]):
                lines.append(f"{name} {what}: report differs")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        procs = []
        for label, root in zip(("old", "new"), argv):
            work = os.path.join(tmp, label)
            os.mkdir(work)
            procs.append(run_tree(os.path.abspath(root), work))
        for label, proc in zip(("old", "new"), procs):
            stdout, stderr = proc.communicate()
            if proc.returncode:
                print(f"{label} tree failed:\n{stderr}", file=sys.stderr)
                return 2
            results.append(json.loads(stdout))
    lines = differences(*results)
    for line in lines:
        print(line)
    runs = sum(len(r) for r in results[1].values())
    print(f"report_diff: {len(results[1])} entries, {runs} runs, "
          f"{len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
