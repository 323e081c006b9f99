"""Tests of the benchmark's own machinery.

  python3 -m pytest bench/test_bench.py

They run a few quick `decide_corpus` operations in this process; scratch
files go under .bench_work/ in the checkout and are removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import tracer
import workloads
import worker

SEED = 7
# quick operations covering the admissible, d1, d2 and d1-d3 report paths
QUICK = ["00_sl2p_simple", "02_str_closed", "04_sn_deleted", "12_gl2_3",
         "14_extraspecial_p5"]


@pytest.fixture(scope="module")
def scratch():
    path = os.path.join(run.WORK, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def inputs(scratch):
    sys.path.insert(0, run.SRC)
    path = os.path.join(scratch, "inputs")
    os.makedirs(path)
    manifest = workloads.generate("decide_corpus", SEED, path)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return path, [op for op in manifest["ops"] if op["instance"] in QUICK]


def _round(scratch, tag, inputs, traced):
    path, ops = inputs
    out = os.path.join(scratch, tag)
    os.makedirs(out)
    rec = tracer.Recorder()
    with worker._tracing(rec, traced):
        records = worker.run_ops(ops, path, out)
    return {"dir": out, "ops": records}, rec


def _reports(rnd, ops):
    texts = {}
    for op in ops:
        with open(os.path.join(rnd["dir"], worker.report_name(op))) as fh:
            texts[op["instance"]] = fh.read()
    return texts


def test_traced_reports_match_untraced(scratch, inputs):
    from fusionseed import criterion, grp
    class_gg = grp.class_GG
    plain, _ = _round(scratch, "plain", inputs, traced=False)
    traced, rec = _round(scratch, "traced", inputs, traced=True)
    assert [r["rc"] for r in plain["ops"] + traced["ops"]] == [0] * 10
    a, b = _reports(plain, inputs[1]), _reports(traced, inputs[1])
    for name in QUICK:
        assert run.ELAPSED.sub("", a[name]) == run.ELAPSED.sub("", b[name])
        assert '"elapsed_s"' in a[name]
    # the wrappers are gone again, also where modules imported by name
    assert grp.class_GG is class_gg and criterion.class_GG is class_gg
    metrics = tracer.layer_metrics([rec.dump()], 0.0)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["criterion.evaluate.calls"] >= len(QUICK)
    assert metrics["criterion.admissible_passers"] == 3
    assert metrics["grp.enumerate.calls"] > 0
    assert metrics["grp.elements_enumerated"] >= metrics["grp.largest_stack"]


def test_self_time_excludes_children():
    spans = [["cli", 0.0, 10.0, -1, 0], ["grp.class_GG", 1.0, 4.0, 0, 0],
             ["grp.enumerate", 2.0, 3.0, 1, 5],
             ["sgroup.theta_witness", 5.0, 9.0, 0, 0],
             ["grp.enumerate", 6.0, 8.0, 3, 7]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    m = tracer.layer_metrics([{"spans": spans, "counters": {}}], 0.5)
    assert m["cli.self_s"] == 3.0 and m["grp.enumerate.self_s"] == 3.0
    assert m["sgroup.gamma_enumerate_s"] == 2.0
    assert m["sgroup.gamma_elements"] == 7
    assert m["grp.largest_stack"] == 7 and m["trace.overhead_s"] == 0.5


def test_altered_report_counts_as_failed(scratch, inputs):
    path, ops = inputs
    rnd, _ = _round(scratch, "judged", inputs, traced=False)
    judge = run.Judge(path, SEED)
    judge.judge(rnd)
    assert (judge.attempted, judge.failed) == (len(QUICK), 0)

    op = next(op for op in ops if op["instance"] == "04_sn_deleted")
    report = os.path.join(rnd["dir"], worker.report_name(op))
    with open(report) as fh:
        rep = json.load(fh)
    rep["group_order"] += 1
    with open(report, "w") as fh:
        json.dump(rep, fh, sort_keys=True)
    judge = run.Judge(path, SEED)
    judge.judge(rnd)
    assert (judge.attempted, judge.failed) == (len(QUICK), 1)
    assert "group_order" in oracles.check_report(
        "check", rep, judge.instances["04_sn_deleted"])


def test_seed_changes_basis_not_instances(scratch):
    a, b = os.path.join(scratch, "seed1"), os.path.join(scratch, "seed2")
    os.makedirs(a)
    os.makedirs(b)
    ma = workloads.generate("witness_p5", 1, a)
    mb = workloads.generate("witness_p5", 2, b)
    assert [i["corpus_index"] for i in ma["instances"]] \
        == [i["corpus_index"] for i in mb["instances"]]
    assert ma["instances"][0]["basis"] != mb["instances"][0]["basis"]
    assert workloads.generate("witness_p5", 1, b) == ma
    assert run._same_inputs(a, b)


def test_refuses_to_run_without_sources(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "bench", "run.py"),
         "--workload", "orbit_p7", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
