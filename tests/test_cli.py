import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fusionseed import cli, grp, modrep, mu, sgroup, zoo
from fusionseed.errors import InvariantViolation, Z0NotLine
from fusionseed.gfp import FpMatrix


def run_cli(args, env=None):
    """Run the CLI in a child process that inherits this process's
    environment, with the variables in `env` set on top."""
    child_env = {**os.environ, **env} if env else None
    proc = subprocess.run([sys.executable, "-m", "fusionseed.cli"] + args,
                          capture_output=True, text=True, env=child_env)
    return proc.returncode, proc.stdout, proc.stderr


def test_zoo_list():
    code, out, _ = run_cli(["zoo", "list"])
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) >= 12
    assert "metadata only" in out


def _into_closed_pipe(args):
    """Run the CLI with stdout into a pipe whose reader closes it at once,
    before the child (still importing) writes: (exit code, stderr)."""
    proc = subprocess.Popen([sys.executable, "-m", "fusionseed.cli"] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    return proc.wait(), err


@pytest.mark.parametrize("command", ["zoo", "check"])
def test_closed_pipe_exits_quietly(command, tmp_path):
    """Writing into a pipe that its reader closed (`| head`) exits with
    the documented code and writes nothing to stderr, no traceback."""
    args = ["zoo", "list"]
    if command == "check":
        inst = tmp_path / "inst.json"
        run_cli(["zoo", "emit", "sn_deleted", "--out", str(inst)])
        args = ["check", str(inst)]
    code, err = _into_closed_pipe(args)
    assert "Traceback" not in err and err == ""
    assert code == cli.EXIT_BROKEN_PIPE == 141


def test_emit_check_roundtrip(tmp_path):
    inst = tmp_path / "inst.json"
    code, _, _ = run_cli(["zoo", "emit", "sn_deleted", "--index", "0",
                          "--out", str(inst)])
    assert code == 0
    payload = json.loads(inst.read_text())
    assert payload["family"]["tag"] == "sn_deleted"
    code, out, _ = run_cli(["check", str(inst)])
    assert code == 0
    rep = json.loads(out)
    assert rep["family"]["tag"] == "sn_deleted"   # metadata echoed
    assert rep["passes"] is True
    assert rep["e0_menu"] == ["B0+H*"]


def test_check_deterministic(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["zoo", "emit", "sn_deleted", "--index", "0", "--out", str(inst)])
    _, out1, _ = run_cli(["check", str(inst)])
    _, out2, _ = run_cli(["check", str(inst)])
    r1 = json.loads(out1)
    r2 = json.loads(out2)
    r1.pop("elapsed_s")
    r2.pop("elapsed_s")
    assert r1 == r2


def test_malformed_instance_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 5, "dim": 3, "generators": [[1, 2, 3]]}')
    code, _, err = run_cli(["check", str(bad)])
    assert code == 2
    notjson = tmp_path / "nope.json"
    notjson.write_text("this is not json")
    code, _, _ = run_cli(["check", str(notjson)])
    assert code == 2
    # a family field that is not an object
    family = tmp_path / "family.json"
    family.write_text('{"p": 5, "dim": 2, "generators": [[1, 1, 0, 1]], '
                      '"family": "x"}')
    for command in ("check", "sgroup"):
        code, out, err = run_cli([command, str(family)])
        assert out == ""
        _assert_invalid(code, err, "family must be an object, got 'x'")
    # an entry outside int64 is reduced mod p as a Python int: 10^30 is 0
    # mod 5, so this generator is singular; p is validated first
    huge = tmp_path / "huge.json"
    for p, phrase in ((5, "generator not invertible"),
                      (4, "p must be an odd prime")):
        huge.write_text(f'{{"p": {p}, "dim": 2, "generators": '
                        '[[1000000000000000000000000000000, 1, 0, 1]]}')
        for command in ("check", "sgroup"):
            code, out, err = run_cli([command, str(huge)])
            assert out == ""
            _assert_invalid(code, err, phrase)


def test_check_route_ignores_family(tmp_path, capsys):
    """The command line, never the file, picks check's route: the same
    generators with no family, as emitted, and with a family whose params
    say heavy give byte-identical reports apart from family and elapsed_s;
    --heavy gives the Sylow-local summary whatever the family says."""
    inst = tmp_path / "inst.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--out", str(inst)]) == 0
    emitted = json.loads(inst.read_text())
    bare = {k: v for k, v in emitted.items() if k != "family"}
    heavy_tag = {**bare, "family": {"tag": "x", "params": {"heavy": True}}}
    texts = []
    for payload in (bare, emitted, heavy_tag):
        inst.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["check", str(inst)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep.pop("family") == payload.get("family")
        rep.pop("elapsed_s")
        texts.append(json.dumps(rep, sort_keys=True))
    assert texts[0] == texts[1] == texts[2]
    assert json.loads(texts[0])["passes"] is True
    for payload in (bare, emitted, heavy_tag):
        inst.write_text(json.dumps(payload))
        assert cli.main(["check", str(inst), "--heavy"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["mode"] == "heavy" and rep["family"] == payload.get(
            "family")
        assert rep["result"]["group_order"] == 480


def test_sgroup_command(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["zoo", "emit", "sn_deleted", "--index", "0", "--out", str(inst)])
    code, out, _ = run_cli(["sgroup", str(inst)])
    assert code == 0
    rep = json.loads(out)
    assert rep["build"]["ok"]
    assert rep["filtration"]["quotient_dims"] == [1, 1]
    assert all(r["law_holds"] for r in rep["filtration"]["scalar_reports"])
    assert any(w["ok"] for w in rep["theta"])
    assert rep["step2"]["ok"]


def test_regress_filtered():
    code, out, _ = run_cli(["regress", "--filter", "gl2_3"])
    assert code == 0
    assert "PASS gl2_3" in out
    # each entry's wall time ends its PASS/FAIL line
    line = next(l for l in out.splitlines() if l.startswith("PASS gl2_3"))
    assert re.search(r" \(\d+\.\d\d s\)$", line)


def test_zoo_emit_every_listed_row(tmp_path, capsys):
    """Every row that `zoo list` shows without [metadata only] emits, and
    the file carries the listed params."""
    assert cli.main(["zoo", "list"]) == 0
    listed = [line.split(None, 2)[1:]
              for line in capsys.readouterr().out.splitlines()
              if not line.endswith("[metadata only]")]
    assert len(listed) == len([e for e in zoo.table_corpus()
                               if e.instantiable])
    out = tmp_path / "inst.json"
    for k, (tag, params) in enumerate(listed):
        index = [t for t, _ in listed[:k]].count(tag)
        assert cli.main(["zoo", "emit", tag, "--index", str(index),
                         "--out", str(out)]) == 0, (tag, index)
        family = json.loads(out.read_text())["family"]
        assert family == {"tag": tag, "params": json.loads(params)}


def test_regress_passes_every_row(capsys):
    """Full regress: a PASS line for every instantiable row, with no flag:
    the sl2p_ext and sl2p_mu_law rows and the heavy extraspecial_p7 row
    included."""
    assert cli.main(["regress"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [e for e in zoo.table_corpus() if e.instantiable]
    passed = [line.split()[1] for line in lines if line.startswith("PASS ")]
    assert passed == [e.tag for e in rows]
    assert len(passed) == 29
    assert passed.count("sl2p_ext") == 3 and \
        passed.count("sl2p_mu_law") == 10
    assert passed.count("extraspecial_p7") == 1
    assert lines[-1] == "regress: 29 run, 0 failed"


def test_regress_fail_lines_name_keys_and_errors(monkeypatch, capsys):
    """A FAIL line names the keys the report misses, an unknown key among
    them; a FusionseedError fails its row and the run goes on."""
    rows = [zoo.FamilySpec("gl2_3", {"p": 3}, expected={
                "dim": 5, "mu_name": "Delta_-1", "bogus": 1}),
            zoo.FamilySpec("monomial", {"p": 5, "n": 5, "t": 3,
                                        "R": "trivial", "h_type": "S"}),
            zoo.FamilySpec("extraspecial_p3", {"p": 3},
                           expected={"group_order": 48, "profile": [2]})]
    monkeypatch.setattr(zoo, "table_corpus", lambda: rows)
    assert cli.main(["regress"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r'FAIL gl2_3 \{"p": 3\} \(\d+\.\d\d s\): dim, bogus',
                        lines[0])
    assert lines[1].startswith("FAIL monomial") and \
        lines[1].endswith(": InvalidParams: need 1 < t dividing p-1")
    assert lines[2].startswith("PASS extraspecial_p3")
    assert lines[3] == "regress: 3 run, 2 failed"


def _mutants(value, path=()):
    """(path, mutant) pairs: one change at each leaf of a row's expected
    value, and one added key in each of its dicts."""
    if isinstance(value, dict):
        yield path + ("bogus",), {**value, "bogus": "bogus"}
        for key, sub in value.items():
            for sub_path, mutant in _mutants(sub, path + (key,)):
                yield sub_path, {**value, key: mutant}
    elif isinstance(value, bool):
        yield path, not value
    elif isinstance(value, int):
        yield path, value + 1
    elif isinstance(value, str):
        yield path, value + "'"
    elif value is None:
        yield path, "'"
    else:
        yield path, value + value[-1:] if value else ["'"]


def _keys(value):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield key
            yield from _keys(sub)


def _flip_verdicts(value):
    """The report with every verdict swapped between exotic and
    realizable."""
    if isinstance(value, list):
        return [_flip_verdicts(x) for x in value]
    if not isinstance(value, dict):
        return value
    out = {key: _flip_verdicts(sub) for key, sub in value.items()}
    if "verdict" in value:
        out["verdict"] = {"exotic": "realizable",
                          "realizable": "exotic"}[value["verdict"]]
    return out


@pytest.fixture(scope="module")
def row_reports():
    """Every instantiable row but the heavy one, with the report that
    regress compares with it, computed once."""
    return [(spec, cli._row_report(spec))
            for spec in zoo.table_corpus()
            if spec.instantiable and not spec.params.get("heavy")]


def test_row_failures_names_every_mutated_key(row_reports):
    """Each row's report meets the row; changing any value of the row,
    adding a key at any level, or dropping a passer fails and is named by
    its key path, and so does flipping the report's verdicts."""
    assert zoo.ROW_KEYS_NOT_COMPARED == {"two_transitive"}
    mutants = 0
    for spec, report in row_reports:
        assert zoo.row_failures(report, spec.expected, spec.params) == []
        for path, mutant in _mutants(spec.expected):
            if path[0] in zoo.ROW_KEYS_NOT_COMPARED:
                continue
            failed = set(zoo.row_failures(report, mutant, spec.params))
            prefixes = {".".join(map(str, path[:k]))
                        for k in range(1, len(path) + 1)}
            assert failed & prefixes, (spec.tag, spec.params, path, failed)
            mutants += 1
        assert "bogus" in zoo.row_failures(
            report, {**spec.expected, "bogus": 1}, spec.params)
        # a row that states verdicts fails on the report with them flipped
        if {"exotic", "all_exotic", "realizable"} & set(_keys(spec.expected)):
            assert zoo.row_failures(_flip_verdicts(report), spec.expected,
                                    spec.params)
        # `passers` lists every passing group: dropping one fails too
        passers = spec.expected.get("passers", {})
        for order in passers:
            fewer = {o: row for o, row in passers.items() if o != order}
            assert "passers" in zoo.row_failures(
                report, {**spec.expected, "passers": fewer}, spec.params)
    assert mutants > 100


def test_cap_env(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["zoo", "emit", "sn_deleted", "--index", "0", "--out", str(inst)])
    code, _, err = run_cli(["check", str(inst)],
                           env={"FUSIONSEED_CAP": "10"})
    assert code == 3
    # exit 3 is shared with other bounds; the message names the cap
    assert "exceeds cap 10" in err


def test_malformed_cap_env_exit_2(tmp_path, monkeypatch, capsys):
    """A FUSIONSEED_CAP that is not a positive integer ends every command
    with exit 2 and one line, zoo list included, and never a traceback;
    importing fusionseed does not read it."""
    code, out, err = run_cli(["zoo", "list"], env={"FUSIONSEED_CAP": "abc"})
    assert out == ""
    _assert_invalid(code, err, "invalid input: FUSIONSEED_CAP must be a "
                               "positive integer, got 'abc'")
    inst = tmp_path / "inst.json"
    assert cli.main(["zoo", "emit", "gl2_3", "--out", str(inst)]) == 0
    for value in ("0", "-5", "1.5"):
        monkeypatch.setenv("FUSIONSEED_CAP", value)
        for args in (["zoo", "list"], ["check", str(inst)],
                     ["regress", "--filter", "gl2_3"]):
            capsys.readouterr()
            assert cli.main(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [
                "invalid input: FUSIONSEED_CAP must be a positive integer, "
                f"got {value!r}"]


def _instance(tmp_path, generators, labels=None):
    """A p = 5, dim 2 instance file."""
    payload = {"p": 5, "dim": 2, "generators": generators}
    if labels is not None:
        payload["labels"] = labels
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _assert_invalid(code, err, phrase):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert phrase in err


E12 = [1, 1, 0, 1]
D2 = [2, 0, 0, 1]      # diag(2, 1); <D2> is not normal in <E12, D2>


@pytest.mark.parametrize("payload, phrase", [
    ([5, 2], "the instance must be a JSON object"),
    ({"dim": 2, "generators": [E12]}, "the instance has no 'p' key"),
    ({"p": 5, "generators": [E12]}, "the instance has no 'dim' key"),
    ({"p": 5, "dim": 2}, "the instance has no 'generators' key"),
    ({"p": 5, "dim": 2, "generators": [E12], "labels": [0]},
     "labels must be an object"),
    ({"p": 5, "dim": 2, "generators": 3},
     "generators must be an array"),
    ({"p": 5, "dim": 2, "generators": [E12, "x"]},
     "each generator must be an array of entries"),
    ({"p": 5, "dim": 2, "generators": [E12],
      "labels": {"g0_generators": 0}},
     "g0_generators must be an array")],
    ids=["array", "no_p", "no_dim", "no_generators", "list_labels",
         "number_generators", "string_generator", "number_g0"])
def test_malformed_payload_names_the_object_or_key(tmp_path, payload,
                                                   phrase):
    """A payload of the wrong shape exits 2 with one line that names the
    object or key at fault, never a Python message such as "'p'"."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for command in ("check", "sgroup"):
        code, out, err = run_cli([command, str(bad)])
        assert out == ""
        _assert_invalid(code, err, phrase)
        assert err.strip() == f"invalid input: {phrase}"


def test_non_integer_entry_exit_2(tmp_path):
    code, _, err = run_cli(["check", _instance(tmp_path, [[1, 1.5, 0, 1]])])
    _assert_invalid(code, err, "must be an integer, got 1.5")


def test_singular_generator_exit_2(tmp_path):
    code, _, err = run_cli(["check", _instance(tmp_path, [[1, 1, 1, 1]])])
    _assert_invalid(code, err, "not invertible")


def test_non_normal_g0_exit_2(tmp_path):
    path = _instance(tmp_path, [E12, D2], {"g0_generators": [1]})
    code, _, err = run_cli(["check", path])
    _assert_invalid(code, err, "not normal")


def test_g0_index_out_of_range_exit_2(tmp_path):
    for idx in ([2], [-1]):
        path = _instance(tmp_path, [E12, D2], {"g0_generators": idx})
        code, _, err = run_cli(["check", path])
        _assert_invalid(code, err, "must index the 2 generators")


def test_g0_index_above_bound_exit_3(tmp_path):
    """G0 = 1 is normal in SL_2(5), of index 120 above the bound 64."""
    path = _instance(tmp_path, [E12, [1, 0, 1, 1], [1, 0, 0, 1]],
                     {"g0_generators": [2]})
    code, _, err = run_cli(["check", path])
    assert code == 3
    assert err.strip() == "cap: index above the subgroup-enumeration bound"


def test_zoo_emit_index_out_of_range_exit_2():
    code, out, err = run_cli(["zoo", "emit", "sn_deleted", "--index", "99"])
    assert out == ""
    _assert_invalid(code, err, "index 99 out of range")


@pytest.fixture
def enumerated(monkeypatch):
    """The order of each group that `MatGroup.cache` is called on, as the
    engine runs."""
    orders = []
    cache = grp.MatGroup.cache

    def counted_cache(group):
        cache(group)
        orders.append(group.listed.order())
        return group
    monkeypatch.setattr(grp.MatGroup, "cache", counted_cache)
    return orders


def test_sgroup_never_enumerates_gamma_and_builds_each_theta_once(
        tmp_path, monkeypatch, enumerated):
    """On the flagship, no group of order |Gamma| = p^n |G| is enumerated,
    and step 2 reuses the reported Theta instead of building it again."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--index", "0",
                     "--out", str(inst)]) == 0
    calls = {"theta_witness": 0}

    def counted_theta(*args, _fn=sgroup.theta_witness):
        calls["theta_witness"] += 1
        return _fn(*args)
    monkeypatch.setattr(sgroup, "theta_witness", counted_theta)
    assert cli.main(["sgroup", str(inst), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["theta"]) == 2 and rep["step2"]["ok"]
    assert rep["step2"]["gamma_order"] == 60000
    assert enumerated and max(enumerated) < 60000
    assert calls == {"theta_witness": 2}


def test_sgroup_reads_normalizer_exponents_once_each_for_gvee_and_solves(
        tmp_path, monkeypatch):
    """On the flagship, the exponents r with g u g^-1 = u^r are computed
    over N_G(U)'s 80 elements twice: for G-vee (`mu.compute_gvee`) and for
    the solves over N_G(U) (`SGroup.normalizer`), whose exponents the
    W-filtration's scalar law reads too."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--index", "0",
                     "--out", str(inst)]) == 0
    sizes = []

    def counted(u, mats, _fn=modrep.u_exponents):
        sizes.append(len(mats))
        return _fn(u, mats)
    monkeypatch.setattr(modrep, "u_exponents", counted)
    monkeypatch.setattr(mu, "u_exponents", counted)
    assert cli.main(["sgroup", str(inst), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["step2"]["ok"]
    assert len(rep["filtration"]["scalar_reports"]) == 80
    assert sizes == [80, 80]


@pytest.mark.parametrize("tag, index, which, s_order", [
    ("sn_deleted", 0, None, 5 ** 4), ("str_closed", 1, "c", 5 ** 5)])
def test_sgroup_never_enumerates_more_than_s(tmp_path, enumerated, tag,
                                             index, which, s_order):
    """Lambda_P, Aut_S(P) and C_Gamma(P) come from solves in N_G(U), and
    the S-classes from a subspace test: on the flagship and on str_closed c
    every enumerated group is smaller than S."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", tag, "--index", str(index),
                     "--out", str(inst)]) == 0
    family = json.loads(inst.read_text())["family"]
    assert family["params"].get("which") == which
    assert cli.main(["sgroup", str(inst), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["step2"]["ok"]
    assert max(enumerated) < s_order


def test_sgroup_invariant_violation_exit_4(tmp_path, monkeypatch, capsys):
    """A failed result check inside sgroup ends with exit 4, not a bare
    assert (which python -O strips)."""
    inst = tmp_path / "inst.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--index", "0",
                     "--out", str(inst)]) == 0
    # every element of S outside A now reads as class 1
    monkeypatch.setattr(sgroup, "_a_mod_a0_coord", lambda s, vec: 1)
    assert cli.main(["sgroup", str(inst)]) == 4
    assert "invariant violated: x a^0 has class label 1" in \
        capsys.readouterr().err


# (tag, zoo emit index, p, dim, |G|, [(kind, |Theta|)]) of the passing
# corpus entries whose witnesses need neither S nor Gamma enumerated
WITNESS_ENTRIES = [("an_deleted", 0, 7, 8, 362880, [("B", 32928)]),
                   ("monomial", 2, 5, 6, 3840, [("B", 6000)]),
                   ("extraspecial_p5", 0, 5, 4, 46080,
                    [("B", 12000), ("H", 480)]),
                   ("sn_deleted", 1, 7, 5, 5040, [("H", 336)])]
# the flagship and str_closed c, which the benchmark runs
BENCH_ENTRIES = [("sn_deleted", 0, 5, 3, 480, [("B", 12000), ("H", 480)]),
                 ("str_closed", 1, 5, 4, 240, [("B", 6000)])]


@pytest.mark.parametrize("tag, index, p, dim, g_order, thetas",
                         WITNESS_ENTRIES + BENCH_ENTRIES,
                         ids=[f"{e[0]}-{e[1]}"
                              for e in WITNESS_ENTRIES + BENCH_ENTRIES])
def test_sgroup_certifies_witnesses_at_every_scale(tmp_path, tag, index, p,
                                                   dim, g_order, thetas):
    """|S| up to 7^9 and |Gamma| up to 7^8 * 9!, above the 2e7 cap: sgroup
    builds Theta and step 2 with every check true and reports |Gamma| =
    p^n |G| as a number.  The |Theta| pinned here equal the orders of
    Theta enumerated element by element."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", tag, "--index", str(index),
                     "--out", str(inst)]) == 0
    assert cli.main(["sgroup", str(inst), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["criterion_passes"] is True
    assert rep["build"]["ok"] and all(rep["build"]["checks"].values())
    assert rep["build"]["dims"]["S"] == dim + 1
    assert [(th["kind"], th["theta_order"]) for th in rep["theta"]] == thetas
    for th in rep["theta"]:
        assert th["ok"] and th["checks"] and all(th["checks"].values())
    step2 = rep["step2"]
    assert step2["ok"] and all(step2["conditions"].values())
    assert step2["gamma_order"] == p ** dim * g_order


def _limit_address_space():
    """Cap the child's address space at 400 MiB (run in the child only)."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def test_sgroup_an_deleted_fits_in_400_mib(tmp_path):
    """sgroup on an_deleted (|P| = 7^4, |Theta| = 32,928) runs in a child
    whose address space is capped at 400 MiB, and writes the report of an
    unlimited run.  Theta enumerated as an int16 stack of 32,928 x 2,401
    entries (151 MiB a copy) does not fit: it ends with exit 3, out of
    memory."""
    inst, out, ref = (tmp_path / name for name in ("inst.json", "out.json",
                                                   "ref.json"))
    assert cli.main(["zoo", "emit", "an_deleted", "--out", str(inst)]) == 0
    assert cli.main(["sgroup", str(inst), "--out", str(ref)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "fusionseed.cli", "sgroup", str(inst),
         "--out", str(out)], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(path.read_text()) for path in (out, ref)]
    for rep in reports:
        rep.pop("elapsed_s")
    assert reports[0] == reports[1]
    assert [th["theta_order"] for th in reports[0]["theta"]] == [32928]


def test_sgroup_full_report_above_the_gamma_cap(tmp_path, enumerated):
    """sn_deleted at p = 7: |Gamma| = 7^5 * 5040 = 84,707,280 is above the
    2e7 cap, and sgroup reports it with the H-witness of its d2 menu;
    every enumerated group is smaller than |S| = 7^6."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--index", "1",
                     "--out", str(inst)]) == 0
    assert cli.main(["sgroup", str(inst), "--out", str(out)]) == 0
    assert enumerated and max(enumerated) < 7 ** 6
    rep = json.loads(out.read_text())
    rep.pop("elapsed_s")
    assert rep["family"]["tag"] == "sn_deleted"
    assert rep["build"]["dims"] == {"S": 6, "Z": 1, "Sprime": 4, "Z0": 1,
                                    "Z2": 2, "A0": 4}
    assert rep["build"]["ok"] and rep["build"]["checks"]["A_unique"]
    assert [th["kind"] for th in rep["theta"]] == ["H"]
    assert all(th["ok"] for th in rep["theta"])
    assert rep["step2"] == {"gamma_order": 84707280,
                            "conditions": {"pairwise_nonconjugate": True,
                                           "p_centric": True,
                                           "strongly_p_embedded_normalizer":
                                               True},
                            "ok": True}


def test_check_never_enumerates_g(tmp_path, enumerated):
    """check reads |G| = 46,080 of extraspecial_p5 from U's orbit walk: no
    enumerated group is as large as G.  On the admissible route (G0 <= H <=
    G for sl2p_simple V_3, |G| = 480) the cosets of G0 are sifted, and no
    enumerated group is as large as G either."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", "extraspecial_p5", "--out",
                     str(inst)]) == 0
    assert cli.main(["check", str(inst), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["group_order"] == 46080
    assert enumerated and max(enumerated) < 46080
    assert cli.main(["zoo", "emit", "sl2p_simple", "--out", str(inst)]) == 0
    payload = json.loads(inst.read_text())
    payload["labels"] = {"g0_generators": [0, 1]}
    inst.write_text(json.dumps(payload))
    enumerated.clear()
    assert cli.main(["check", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "admissible"
    assert [r["group_order"] for r in report["passing"]] == [120, 240, 480]
    assert enumerated and max(enumerated) < 480


def test_regress_never_enumerates_g(enumerated, capsys):
    """regress's admissible run on monomial R = full (|G| = 122,880) finds
    the intermediate groups by sifting cosets of O^{p'}(G), never by
    enumerating G."""
    assert cli.main(["regress", "--filter", "monomial"]) == 0
    assert "regress: 3 run, 0 failed" in capsys.readouterr().out
    assert enumerated and max(enumerated) < 122880


def test_check_never_enumerates_o_pprime(tmp_path, enumerated):
    """check on an_deleted (p = 7, |G| = 362,880) reads |O^{p'}(G)| =
    |A_9| = 181,440 from the closure's chain: no enumerated group is as
    large as O^{p'}(G)."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert cli.main(["zoo", "emit", "an_deleted", "--out", str(inst)]) == 0
    assert cli.main(["check", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["group_order"] == 362880
    assert report["cond_d"]["o_pprime_order"] == 181440
    assert enumerated and max(enumerated) < 181440


def _plain_and_O_reports(tmp_path, command, index=0):
    """The report of sn_deleted entry `index` (0 is the flagship) from
    `command`, run plainly and under python -O, each without elapsed_s."""
    inst = tmp_path / "inst.json"
    run_cli(["zoo", "emit", "sn_deleted", "--index", str(index),
             "--out", str(inst)])
    reports = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "fusionseed.cli", command,
             str(inst)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        rep.pop("elapsed_s")
        reports.append(rep)
    return reports


def test_check_report_unchanged_under_python_O(tmp_path):
    """Every result check is a raise, so python -O, which strips asserts,
    gives the flagship the same report."""
    reports = _plain_and_O_reports(tmp_path, "check")
    assert reports[0] == reports[1]
    assert reports[0]["passes"] is True


def test_sgroup_report_unchanged_under_python_O(tmp_path):
    """The witness layer checks by raising too: sgroup on the flagship and
    on sn_deleted p = 7 reports the same under python -O."""
    for index in (0, 1):
        reports = _plain_and_O_reports(tmp_path, "sgroup", index)
        assert reports[0] == reports[1]
        assert reports[0]["step2"]["ok"] is True


def test_missing_order_p_element_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(grp, "order_p_element", lambda g: None)
    path = _instance(tmp_path, [E12, [1, 0, 1, 1]])       # SL_2(5)
    assert cli.main(["check", path]) == 4
    assert "invariant violated: Cauchy" in capsys.readouterr().err


@pytest.mark.parametrize("command, module, name", [
    ("check", "criterion", "evaluate"), ("sgroup", "sgroup", "build_s")])
def test_out_of_memory_exit_3(command, module, name, tmp_path, monkeypatch,
                              capsys):
    """A MemoryError anywhere in a command ends in exit 3 with one line."""
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(getattr(cli, module), name, exhausted)
    path = _instance(tmp_path, [E12, [1, 0, 1, 1]])       # SL_2(5)
    assert cli.main([command, path]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["cap: out of memory"]
    assert "Traceback" not in err


def test_heavy_check_without_order_7_word_exit_4(tmp_path, monkeypatch,
                                                 capsys):
    """No random generator word of order divisible by 7: the heavy check
    starts from class_GG, which then enumerates G and ends in its typed
    Cauchy error, not a bare assert.  G is SL_2(7), of order 336, since
    the extraspecial p = 7 group has 15,482,880 elements to enumerate."""
    inst = tmp_path / "sl2_7.json"
    inst.write_text(json.dumps({"p": 7, "dim": 2,
                                "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}))
    v = cli._load_instance(str(inst))[0]
    monkeypatch.setattr(grp, "order_p_element", lambda g: None)
    with pytest.raises(InvariantViolation, match="Cauchy: p = 7 divides"):
        zoo.heavy_extraspecial_check(v)
    assert cli.main(["check", str(inst), "--heavy"]) == 4
    assert "invariant violated: Cauchy: p = 7 divides |G| = 336" in \
        capsys.readouterr().err


@pytest.mark.parametrize("generators, reason", [
    pytest.param([[2, 0, 0, 1]], "p does not divide |G|", id="order-4"),
    pytest.param([E12], "Sylow p-subgroup is normal", id="U-normal")])
def test_heavy_check_rejects_as_check_does(generators, reason, tmp_path,
                                           capsys):
    """check --heavy starts from class_GG, so an instance that plain check
    rejects gets the same not_in_G status, |G| and reason, with exit 0:
    |G| = 4 has no element of order 5, and U = <E12> is normal."""
    path = _instance(tmp_path, generators)
    assert cli.main(["check", path]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.main(["check", path, "--heavy"]) == 0
    heavy = json.loads(capsys.readouterr().out)["result"]
    assert heavy == {"gg_status": "not_in_G", "reason": reason,
                     "group_order": plain["group_order"]}
    assert plain["gg_status"] == "not_in_G"
    assert plain["notes"][-1] == f"rejected: {reason}"


def test_heavy_check_reads_the_instance_file(tmp_path, monkeypatch, capsys):
    """check --heavy runs the generators of the file, here in a seeded
    basis T g T^-1, and never builds the corpus group itself."""
    inst = tmp_path / "es7.json"
    assert cli.main(["zoo", "emit", "extraspecial_p7",
                     "--out", str(inst)]) == 0
    payload = json.loads(inst.read_text())
    rng = np.random.default_rng(17)
    while True:
        t = FpMatrix(7, rng.integers(0, 7, size=(8, 8)))
        if t.is_invertible():
            break
    payload["generators"] = [
        (t @ FpMatrix(7, np.reshape(g, (8, 8))) @ t.inverse()).a
        .reshape(-1).tolist() for g in payload["generators"]]
    inst.write_text(json.dumps(payload))

    def unexpected(*args, **kwargs):
        raise AssertionError("the corpus group must not be built")
    monkeypatch.setattr(zoo, "extraspecial", unexpected)
    assert cli.main(["check", str(inst), "--heavy"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["group_order"] == 15482880
    assert res["n_over_u"] == 36
    assert res["mu_name"] == "Delta_3"


def test_two_routes_agree_on_every_row(row_reports):
    """On every instantiable row but the heavy one, check --heavy's
    summary and the plain report agree on |G|, the mu image and name,
    and dim Z and dim Z0."""
    assert len(row_reports) == 28
    for spec, report in row_reports:
        v, _, family = cli._parse_instance(zoo.emit_instance(spec))
        res = cli._json_copy(cli.check_report(v, None, family,
                                              heavy=True))["result"]
        assert res["group_order"] == report["group_order"], spec.params
        assert res["mu_image"] == report["mu"]["image"], spec.params
        assert res["mu_name"] == report["mu"]["recognized"]["name"]
        assert res["z_dims"] == {"Z": report["dims"]["Z"],
                                 "Z0": report["dims"]["Z0"]}


def _doubled_flagship(tmp_path):
    """The flagship's generators as diag(g, g) on F_5^6: a valid instance
    with dim Z0 = 2, so condition (a) fails."""
    inst = tmp_path / "inst.json"
    assert cli.main(["zoo", "emit", "sn_deleted", "--out", str(inst)]) == 0
    payload = json.loads(inst.read_text())
    n = payload["dim"]
    payload["generators"] = [
        np.kron(np.eye(2, dtype=np.int64), np.reshape(g, (n, n)))
        .reshape(-1).tolist() for g in payload["generators"]]
    payload["dim"] = 2 * n
    inst.write_text(json.dumps(payload))
    return inst


def test_sgroup_skips_filtration_when_condition_a_fails(tmp_path, capsys):
    """On the doubled flagship check and sgroup both exit 0; sgroup skips
    the filtration, which needs Z0 to be a line, as check skips (d)."""
    inst = _doubled_flagship(tmp_path)
    capsys.readouterr()
    assert cli.main(["check", str(inst)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cond_a"] == {"ok": False, "dim_Z0": 2}
    skipped = {"skipped": "condition (a) fails; Z0 is not a line"}
    assert rep["cond_d"] == skipped
    assert cli.main(["sgroup", str(inst)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["criterion_passes"] is False
    assert rep["filtration"] == skipped
    assert "theta" not in rep


def test_engine_error_exit_4(tmp_path, monkeypatch, capsys):
    """Any engine error that no other exit code names ends with exit 4 and
    one line on stderr: check --heavy on the doubled flagship reaches mu's
    Z0NotLine, and a raise anywhere else is mapped the same way."""
    inst = _doubled_flagship(tmp_path)
    code, out, err = run_cli(["check", str(inst), "--heavy"])
    assert (code, out) == (4, "")
    assert err.splitlines() == ["error: Z0NotLine: dim Z0 = 2"]

    def raises(*args, **kwargs):
        raise Z0NotLine("raised here")
    monkeypatch.setattr(cli.criterion, "evaluate", raises)
    for command in ("check", "sgroup"):
        capsys.readouterr()
        assert cli.main([command, str(inst)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: Z0NotLine: raised here"]
