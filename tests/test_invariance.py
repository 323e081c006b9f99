"""Metamorphic properties of `check` and `sgroup`: their reports, apart
from elapsed_s, depend neither on the basis of V nor on the choice of
generating set."""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionseed import cli, zoo
from fusionseed.gfp import FpMatrix

# small non-admissible corpus entries (no g0 labels to renumber)
ENTRIES = [("sn_deleted", {"p": 5, "n": 5, "group": "S", "scalar_order": 4}),
           ("sl2p_simple", {"p": 5, "kind": ("Vi", 4)}),
           ("str_closed", {"p": 5, "which": "c"}),
           ("gl2_3", {"p": 3}),
           ("extraspecial_p5", {"p": 5})]

PROPERTY = settings(max_examples=6, deadline=None, derandomize=True)
# sn_deleted (the flagship), str_closed c and extraspecial_p5
SGROUP_ENTRIES = [0, 2, 4]


@functools.lru_cache(maxsize=None)
def _payload(entry: int) -> str:
    tag, params = ENTRIES[entry]
    spec = next(s for s in zoo.table_corpus()
                if s.tag == tag and s.params == params)
    return json.dumps(zoo.emit_instance(spec))


def _run(command: str, payload: dict) -> str:
    """The report of a CLI command on an instance payload, without
    elapsed_s."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, out = os.path.join(tmp, "inst.json"), os.path.join(tmp, "out")
        with open(inst, "w") as fh:
            json.dump(payload, fh)
        assert cli.main([command, inst, "--out", out]) == 0
        with open(out) as fh:
            report = json.load(fh)
    report.pop("elapsed_s")
    return json.dumps(report, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _reference(entry: int, command: str = "check") -> str:
    return _run(command, json.loads(_payload(entry)))


def _matrices(payload):
    n = payload["dim"]
    return [np.array(g, dtype=np.int64).reshape(n, n)
            for g in payload["generators"]]


def _in_random_basis(entry: int, seed: int) -> dict:
    """The entry's payload with every generator g written as T g T^-1, for
    a random invertible T drawn from the seed."""
    payload = json.loads(_payload(entry))
    p, n = payload["p"], payload["dim"]
    rng = np.random.default_rng(seed)
    while True:
        t = FpMatrix(p, rng.integers(0, p, size=(n, n)))
        if t.is_invertible():
            break
    t_inv = t.inverse().a
    payload["generators"] = [(t.a @ g % p @ t_inv % p).reshape(-1).tolist()
                             for g in _matrices(payload)]
    return payload


@PROPERTY
@given(entry=st.integers(0, len(ENTRIES) - 1), seed=st.integers(0, 2 ** 32))
def test_report_invariant_under_change_of_basis(entry, seed):
    assert _run("check", _in_random_basis(entry, seed)) == _reference(entry)


@pytest.mark.parametrize("entry", SGROUP_ENTRIES)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_sgroup_report_invariant_under_change_of_basis(entry, seed):
    """S, Theta and the step-2 witnesses report the same in any basis."""
    assert _run("sgroup", _in_random_basis(entry, seed)) == \
        _reference(entry, "sgroup")


def _other_generators(entry: int, seed: int) -> dict:
    """The entry's payload with its generators reordered, plus one
    redundant product of two, drawn from the seed."""
    payload = json.loads(_payload(entry))
    p = payload["p"]
    rng = np.random.default_rng(seed)
    gens = _matrices(payload)
    gens = [gens[i] for i in rng.permutation(len(gens))]
    a, b = rng.integers(0, len(gens), size=2)
    gens.insert(int(rng.integers(0, len(gens) + 1)), gens[a] @ gens[b] % p)
    payload["generators"] = [g.reshape(-1).tolist() for g in gens]
    return payload


@PROPERTY
@given(entry=st.integers(0, len(ENTRIES) - 1), seed=st.integers(0, 2 ** 32))
def test_report_invariant_under_change_of_generators(entry, seed):
    assert _run("check", _other_generators(entry, seed)) == _reference(entry)


@pytest.mark.parametrize("entry", SGROUP_ENTRIES)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_sgroup_report_invariant_under_change_of_generators(entry, seed):
    """S, Theta, the step-2 witnesses and the W-filtration's scalar laws
    report the same for any generating set."""
    assert _run("sgroup", _other_generators(entry, seed)) == \
        _reference(entry, "sgroup")
