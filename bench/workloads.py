"""The benchmark's workloads and the seeded instance files they run on.

Instances come from the corpus of `fusionseed.zoo`.  For each instance the
workload seed draws a random change of basis T over F_p and every
generator is written as T g T^-1; the engine only ever sees those files.
Each operation is one `fusionseed` CLI command on one instance file.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The 15 corpus entries that `zoo emit` builds without --heavy, pinned by
# (tag, params) so that a corpus change does not silently change a workload.
DECIDE_CORPUS = [
    ("sl2p_simple", {"p": 5, "kind": ["Vi", 3], "admissible": True}),
    ("sl2p_simple", {"p": 5, "kind": ["Vi", 4]}),
    ("str_closed", {"p": 5, "which": "a"}),
    ("str_closed", {"p": 5, "which": "c"}),
    ("sn_deleted", {"p": 5, "n": 5, "group": "S", "scalar_order": 4}),
    ("sn_deleted", {"p": 7, "n": 7, "group": "S", "scalar_order": 1}),
    ("sn_deleted", {"p": 5, "n": 6, "group": "S", "scalar_order": 1}),
    ("an_deleted", {"p": 7, "n": 9, "group": "S", "scalar_order": 1}),
    ("sn_perm", {"p": 5, "n": 5, "group": "S", "scalar_order": 4,
                 "admissible": True}),
    ("monomial", {"p": 5, "n": 5, "t": 4, "R": "full", "h_type": "S"}),
    ("monomial", {"p": 5, "n": 5, "t": 2, "R": "trivial", "h_type": "S"}),
    ("monomial", {"p": 5, "n": 6, "t": 2, "R": "trivial",
                  "h_type": "PGL2"}),
    ("gl2_3", {"p": 3}),
    ("extraspecial_p3", {"p": 3}),
    ("extraspecial_p5", {"p": 5}),
]
FLAGSHIP = ("sn_deleted", {"p": 5, "n": 5, "group": "S", "scalar_order": 4})
STR_CLOSED_C = ("str_closed", {"p": 5, "which": "c"})
EXTRASPECIAL_P7 = ("extraspecial_p7", {"p": 7, "heavy": True})

# Generators of the normal subgroup G0 for the admissible-subgroup path.
G0_LABELS = {0: [0, 1]}

# workload -> (command, extra CLI arguments, instances)
WORKLOADS = {
    "decide_corpus": ("check", [], DECIDE_CORPUS),
    "witness_p5": ("sgroup", [], [FLAGSHIP, STR_CLOSED_C]),
    "orbit_p7": ("check", ["--heavy"], [EXTRASPECIAL_P7]),
}


def _plain(params):
    """Params with tuples turned into lists, as JSON writes them."""
    return json.loads(json.dumps(params))


def corpus_index(tag, params, corpus):
    """Index of the corpus entry with this tag and these params."""
    for k, spec in enumerate(corpus):
        if spec.tag == tag and spec.instantiable \
                and _plain(spec.params) == params:
            return k
    raise LookupError(f"no corpus entry {tag} {params}")


def random_basis(p, n, rng):
    """A uniformly random invertible n x n matrix over F_p and its inverse."""
    from fusionseed.gfp import FpMatrix
    while True:
        t = FpMatrix(p, rng.integers(0, p, size=(n, n)))
        if t.is_invertible():
            return t.a, t.inverse().a


def generate(workload, seed, out_dir):
    """Write the instance files of a workload; return its manifest.

    The manifest names each instance's file, corpus row and basis T, and
    lists the operations, each one CLI command on one instance file.
    """
    from fusionseed import zoo
    command, extra, entries = WORKLOADS[workload]
    corpus = zoo.table_corpus()
    heavy = "--heavy" in extra
    instances, ops = [], []
    for k, (tag, params) in enumerate(entries):
        index = corpus_index(tag, params, corpus)
        payload = zoo.emit_instance(corpus[index], heavy=heavy)
        p, n = payload["p"], payload["dim"]
        rng = np.random.default_rng([seed % 2 ** 32, k])
        t, t_inv = random_basis(p, n, rng)
        payload["generators"] = [
            (t @ np.array(g, dtype=np.int64).reshape(n, n) % p @ t_inv
             % p).reshape(-1).tolist()
            for g in payload["generators"]]
        if workload == "decide_corpus" and k in G0_LABELS:
            payload["labels"] = {"g0_generators": G0_LABELS[k]}
        name = f"{k:02d}_{tag}"
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        instances.append({"name": name, "corpus_index": index,
                          "basis": t.tolist()})
        ops.append({"command": command, "instance": name, "extra": extra})
    return {"workload": workload, "seed": seed, "instances": instances,
            "ops": ops}
