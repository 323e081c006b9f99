"""Checks of the engine's reports against routes independent of the engine.

- Group orders come from sympy's Schreier-Sims (`PermutationGroup.order`)
  on the permutation action of the written generators on the orbit of the
  columns of the basis T.  Those columns span V, so the action is faithful.
- Z = C_V(U), [U,V], Z0, A0, m, the Jordan profile and the commutator
  dimension of condition (c) come from sympy `DomainMatrix` over GF(p), for
  an order-p element found here by powering random words in the
  generators.
- Verdicts (cases, essential-class menus, realizability, strongly closed
  subgroups, mu names) come from the paper's table rows recorded in
  `fusionseed.zoo.table_corpus()`, where a row describes the emitted
  instance itself.
- Every report must also satisfy the method's necessary conditions and its
  own certificates (build checks, W-filtration laws, Theta and step-2
  conditions).

Nothing is compared against a stored copy of an earlier run's output.
Every check is invariant under the seeded change of basis.
"""

from __future__ import annotations

import functools

import numpy as np
from sympy import GF
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.polys.matrices import DomainMatrix

# Row keys that describe something other than the `check`/`sgroup` report
# of the emitted file: the admissible-subgroup run of `regress` on an
# instance without a G0 label, or quantities no report carries.
ROW_KEYS_NOT_ABOUT_INSTANCE = {"passers", "h_order", "two_transitive"}


def matrices(payload):
    p, n = payload["p"], payload["dim"]
    return [np.array(g, dtype=np.int64).reshape(n, n) % p
            for g in payload["generators"]]


def group_order(p, gens, points):
    """|<gens>| by Schreier-Sims on the orbit of the given spanning vectors."""
    index, orbit = {}, []
    for v in points:
        key = tuple(int(x) % p for x in v)
        if key not in index:
            index[key] = len(orbit)
            orbit.append(key)
    i = 0
    while i < len(orbit):
        v = np.array(orbit[i], dtype=np.int64)
        for g in gens:
            key = tuple((g @ v % p).tolist())
            if key not in index:
                index[key] = len(orbit)
                orbit.append(key)
        i += 1
    pts = np.array(orbit, dtype=np.int64)
    perms = [Permutation([index[tuple(row)] for row in (pts @ g.T % p).tolist()])
             for g in gens]
    return PermutationGroup(perms).order()


def _order(w, p, cap=10 ** 5):
    ident = np.eye(w.shape[0], dtype=np.int64)
    cur, k = w, 1
    while not np.array_equal(cur, ident):
        cur = cur @ w % p
        k += 1
        if k > cap:
            raise ValueError("element order above cap")
    return k


def order_p_element(p, gens, rng, tries=10 ** 4):
    """An element of order p: a power of a random word in the generators."""
    w = np.eye(gens[0].shape[0], dtype=np.int64)
    for _ in range(tries):
        w = w @ gens[int(rng.integers(len(gens)))] % p
        o = _order(w, p)
        if o % p == 0:
            u = np.eye(w.shape[0], dtype=np.int64)
            for _ in range(o // p):
                u = u @ w % p
            return u
    raise ValueError("no order-p element among random words")


def _dm(p, a):
    k = GF(p)
    return DomainMatrix([[k(int(x)) for x in row] for row in a], a.shape, k)


def commutator_dim(p, gens):
    """dim [G, V] = rank of the blocks g - 1 side by side."""
    n = gens[0].shape[0]
    return _dm(p, np.hstack([(g - np.eye(n, dtype=np.int64)) % p
                             for g in gens])).rank()


def sylow_linear_algebra(p, u):
    """dims of Z, [U,V], Z0, A0, m and the Jordan profile of u."""
    n = u.shape[0]
    m = _dm(p, (u - np.eye(n, dtype=np.int64)) % p)
    uv = m.rank()
    z = n - uv
    a0 = m.nullspace().transpose().hstack(m).rank()
    ranks = [n]
    power = m
    for _ in range(p + 1):
        ranks.append(power.rank())
        power = power * m
    profile = []
    for k in range(1, p + 1):
        profile += [k] * ((ranks[k - 1] - ranks[k]) - (ranks[k] - ranks[k + 1]))
    return {"dims": {"Z": z, "UV": uv, "Z0": z + uv - a0, "A0": a0},
            "m": n - z + 1, "profile": sorted(profile, reverse=True)}


class Instance:
    """One written instance file with its basis, table row and oracle facts."""

    def __init__(self, payload, basis, row, seed):
        self.p, self.n = payload["p"], payload["dim"]
        self.gens = matrices(payload)
        g0 = payload.get("labels", {}).get("g0_generators")
        self.g0_gens = [self.gens[i] for i in g0] if g0 else None
        self.points = np.array(basis, dtype=np.int64).T   # columns of T
        self.row = row
        self.seed = seed

    @functools.cached_property
    def order(self):
        return group_order(self.p, self.gens, self.points)

    @functools.cached_property
    def g0_order(self):
        return group_order(self.p, self.g0_gens, self.points)

    @functools.cached_property
    def linear(self):
        # in admissible mode U is taken inside G0, which every candidate
        # subgroup contains
        gens = self.g0_gens or self.gens
        rng = np.random.default_rng([self.seed % 2 ** 32, self.p, self.n])
        facts = sylow_linear_algebra(self.p, order_p_element(self.p, gens, rng))
        facts["commutator_dim"] = commutator_dim(self.p, self.gens)
        if self.g0_gens:
            facts["g0_commutator_dim"] = commutator_dim(self.p, self.g0_gens)
        return facts


class Checks:
    """Collects the names of failed checks."""

    def __init__(self):
        self.failed = []

    def need(self, ok, what):
        if not ok:
            self.failed.append(what)


def _sylow_order_p(p, order):
    return order % p == 0 and (order // p) % p != 0


def check_criterion(c, rep, inst, order, admissible=False):
    """A `CriterionReport` of a group of the given order acting on V."""
    p = inst.p
    c.need(rep["p"] == p and rep["dim"] == inst.n, "p/dim")
    c.need(rep["group_order"] == order, "group_order")
    if not _sylow_order_p(p, order):
        c.need(rep["gg_status"] == "not_in_G", "gg_status")
        return
    if rep["gg_status"] == "not_in_G":   # Sylow normal: nothing else is set
        c.need(not rep["passes"], "passes without a non-normal Sylow")
        return
    lin = inst.linear
    c.need(rep["dims"] == lin["dims"], "dims")
    c.need(rep["m"] == lin["m"], "m")
    c.need(rep["jordan_profile"] == lin["profile"], "jordan_profile")
    c.need(rep["minimally_active"]
           == (sum(1 for b in lin["profile"] if b > 1) <= 1),
           "minimally_active")
    comm = rep["cond_c"]["commutator_dim"]
    if admissible:   # G0 <= H <= G, so [G0,V] <= [H,V] <= [G,V]
        c.need(lin["g0_commutator_dim"] <= comm <= lin["commutator_dim"],
               "commutator_dim")
    else:
        c.need(comm == lin["commutator_dim"], "commutator_dim")
    if rep["passes"]:
        c.need(rep["gg_status"] == "in_GG", "passing: in_GG")
        c.need(rep["minimally_active"] is True, "passing: minimally active")
        c.need(rep["indecomposable"] is True, "passing: indecomposable")
        c.need(rep["e0_count"] >= 1, "passing: e0_count >= 1")
        c.need(rep["m"] >= 3, "passing: m >= 3")
        if "d1" in rep["cases"]:
            c.need(rep["dim"] <= p - 1, "passing: d1 needs dim <= p-1")


def _verdict(rep, e0):
    found = [x for x in rep["exotic"] if x["e0"] == e0]
    return found[0] if found else None


def check_row(c, rep, want, p):
    """The table row's verdicts for one evaluated group."""
    for key, value in want.items():
        if key == "group_order":
            c.need(rep["group_order"] == value, "row: group_order")
        elif key == "cases":
            c.need(rep["cases"] == value, "row: cases")
        elif key == "e0":
            c.need(rep["e0_menu"] == value, "row: e0 menu")
        elif key == "e0_count":
            c.need(rep["e0_count"] == value, "row: e0_count")
        elif key == "mu_name":
            c.need(rep["mu"].get("recognized", {}).get("name") == value,
                   "row: mu name")
        elif key == "dim":
            c.need(rep["dim"] == value, "row: dim")
        elif key in ("exotic", "all_exotic"):
            c.need(not value or (bool(rep["exotic"]) and all(
                x["verdict"] == "exotic" for x in rep["exotic"])),
                "row: exotic")
        elif key == "realizable":
            for e0, family in value.items():
                if e0 == "full_H":
                    e0 = "H{" + ",".join(str(i) for i in range(p)) + "}"
                v = _verdict(rep, e0)
                c.need(v is not None and v.get("realized_by") == family,
                       f"row: {e0} realizable by {family}")
        elif key == "strongly_closed":
            c.need(any(sc["subgroup"] == value
                       for sc in rep["strongly_closed"]),
                   "row: strongly closed")
        elif key == "profile":
            c.need(rep["jordan_profile"] == value, "row: profile")
        elif key == "quotient_order":
            c.need(rep["group_order"] % value == 0, "row: quotient order")
        elif key not in ROW_KEYS_NOT_ABOUT_INSTANCE | {"n_over_u"}:
            c.need(False, f"row: unknown key {key}")


def check_admissible(c, rep, inst):
    passing = rep["passing"]
    orders = [x["group_order"] for x in passing]
    for x in passing:
        order = x["group_order"]
        c.need(order % inst.g0_order == 0 and inst.order % order == 0,
               f"admissible order {order} between |G0| and |G|")
        c.need(x["report"]["passes"] is True, "admissible: passes")
        check_criterion(c, x["report"], inst, order, admissible=True)
    row = inst.row
    if "passing_orders" in row:
        c.need(sorted(orders) == sorted(row["passing_orders"]),
               "row: passing orders")
    for order, want in row.get("by_order", {}).items():
        if order in orders:
            check_row(c, passing[orders.index(order)]["report"], want, inst.p)


def check_heavy(c, rep, inst):
    """The orbit-stabilizer report of `check --heavy`."""
    res, p = rep["result"], inst.p
    c.need(res["group_order"] == inst.order, "group_order")
    c.need(res["orbit"] * res["normalizer_order"] == inst.order,
           "orbit-stabilizer: |G| = orbit * |N_G(U)|")
    c.need(res["automizer"] == p - 1, "automizer order p-1")
    c.need(res["n_over_u"] * p == res["normalizer_order"], "|N_G(U)|/p")
    lin = inst.linear["dims"]
    c.need(res["z_dims"] == {"Z": lin["Z"], "Z0": lin["Z0"]}, "Z/Z0 dims")
    row = inst.row
    for key in ("group_order", "n_over_u", "mu_name"):
        if key in row:
            c.need(res[key] == row[key], f"row: {key}")


def check_sgroup(c, rep, inst):
    p, n = inst.p, inst.n
    lin = inst.linear["dims"]
    c.need(rep["criterion_passes"] is True, "criterion passes")
    build = rep["build"]
    c.need(build["ok"] is True and all(build["checks"].values())
           and bool(build["checks"]), "build checks")
    dims = build["dims"]
    c.need(dims["S"] == n + 1 and dims["Z"] == lin["Z"]
           and dims["Z0"] == lin["Z0"] and dims["A0"] == lin["A0"],
           "build dims")
    filt = rep["filtration"]
    c.need(bool(filt["quotient_dims"])
           and all(d == 1 for d in filt["quotient_dims"]),
           "filtration quotients of dimension 1")
    c.need(bool(filt["scalar_reports"])
           and all(r["law_holds"] for r in filt["scalar_reports"]),
           "t r^i laws")
    c.need(bool(rep["theta"]), "theta witnesses present")
    for th in rep["theta"]:
        c.need(th["ok"] is True and bool(th["checks"])
               and all(th["checks"].values()), f"theta {th['kind']} checks")
    step2 = rep["step2"]
    c.need(step2["gamma_order"] == p ** n * inst.order,
           "gamma_order = p^n |G|")
    c.need(step2["ok"] is True and bool(step2["conditions"])
           and all(step2["conditions"].values()), "step-2 conditions")


def check_report(command, rep, inst):
    """Names of the checks this report fails; empty when it passes."""
    c = Checks()
    try:
        if command == "sgroup":
            check_sgroup(c, rep, inst)
        elif rep.get("mode") == "heavy":
            check_heavy(c, rep, inst)
        elif rep.get("mode") == "admissible":
            check_admissible(c, rep, inst)
        else:
            check_criterion(c, rep, inst, inst.order)
            check_row(c, rep, inst.row, inst.p)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        c.need(False, f"malformed report: {exc!r}")
    return c.failed
