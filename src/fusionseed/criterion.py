"""The simple-fusion-system decision procedure.

For a faithful matrix-group module (G, V) with non-normal Sylow p-subgroup
of order p, evaluates conditions

  (a) dim Z0 = 1,
  (b) no nontrivial G-invariant subspace of Z other than possibly Z0,
  (c) [G, V] = V,
  (d) one of three mu-image / product-decomposition cases,

derives the menus of admissible essential-class sets, detects strongly
closed subgroups, and looks the passing data up against the embedded
realizability table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gfp, modrep, mu, tables
from .errors import InvariantViolation
from .gfp import FpMatrix, Subspace
from .grp import (MatGroup, SylowData, class_GG, intermediate_subgroups,
                  o_pprime, product_covers)
from .modrep import CanonicalSubspaces, FpModule

ENGINE_VERSION = "0.1.0"
MENU_ENUM_LIMIT = 13    # enumerate I-subsets only for p <= this


@dataclass(frozen=True)
class E0:
    """An admissible essential-class set below the top group."""
    kind: str                      # 'H0+B*', 'B0+H*', 'H', 'B', 'H-any', 'B-any'
    I: frozenset = frozenset()

    def tag(self) -> str:
        if self.kind in ("H0+B*", "B0+H*"):
            return self.kind
        if self.kind in ("H-any", "B-any"):
            return self.kind
        return f"{self.kind}{{{','.join(str(i) for i in sorted(self.I))}}}"

    def is_single_class(self):
        return self.kind in ("H", "B") and len(self.I) == 1


@dataclass
class CriterionReport:
    p: int
    dim: int
    gg_status: str
    group_order: int
    minimally_active: bool = False
    jordan_profile: list = field(default_factory=list)
    indecomposable: bool | None = None
    dims: dict = field(default_factory=dict)
    m: int = 0
    m_ok: bool = False
    sigma_ok: bool = False
    cond_a: dict = field(default_factory=dict)
    cond_b: dict = field(default_factory=dict)
    cond_c: dict = field(default_factory=dict)
    cond_d: dict = field(default_factory=dict)
    mu_report: dict = field(default_factory=dict)
    cases: list = field(default_factory=list)
    e0_menu: list = field(default_factory=list)
    e0_count: int = 0
    strongly_closed: list = field(default_factory=list)
    exotic: list = field(default_factory=list)
    passes: bool = False
    notes: list = field(default_factory=list)
    # local data the report was computed from, passed on to sgroup
    sylow: SylowData = field(repr=False, compare=False, default=None)
    gvee: mu.GVee = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        d = {
            "engine_version": ENGINE_VERSION,
            "schema": 1,
            "p": self.p,
            "dim": self.dim,
            "gg_status": self.gg_status,
            "group_order": self.group_order,
            "minimally_active": self.minimally_active,
            "jordan_profile": self.jordan_profile,
            "indecomposable": self.indecomposable,
            "dims": self.dims,
            "m": self.m,
            "m_ok": self.m_ok,
            "sigma_ok": self.sigma_ok,
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "cond_d": self.cond_d,
            "mu": self.mu_report,
            "cases": self.cases,
            "e0_menu": [e.tag() for e in self.e0_menu],
            "e0_count": self.e0_count,
            "strongly_closed": self.strongly_closed,
            "exotic": self.exotic,
            "passes": self.passes,
            "notes": self.notes,
        }
        return d


def check_a(cs: CanonicalSubspaces) -> bool:
    return cs.Z0.dim == 1


def check_b(v: FpModule, cs: CanonicalSubspaces):
    """Greatest G-invariant subspace of Z must be 0 or Z0.

    Any invariant subgroup of Z lies inside the greatest fixed point Q_max
    of Q -> Q meet (meet of g^-1 Q), so the two-element test is exact.  A
    vector w lies in Q meet g^-1 Q exactly when ann(Q) w = 0 and
    ann(Q) g w = 0, so each step is one kernel, of the stacked rows
    ann(Q), ann(Q) g_1, ann(Q) g_2, ... over G's generators g_i.
    """
    p, n = v.p.p, v.dim
    gens = _generator_stack(v)
    q = cs.Z
    while True:
        ann = gfp.annihilator(q)
        rows = np.concatenate([ann, (ann @ gens % p).reshape(-1, n)])
        nxt = gfp.kernel_basis(FpMatrix(v.p, rows))
        if nxt.dim == q.dim:
            break
        q = nxt
    ok = q.is_zero() or q == cs.Z0
    return ok, q


def check_c(v: FpModule):
    w = modrep.commutator_space(v, v.group)
    return w.dim == v.dim, w


def _generator_stack(v: FpModule) -> np.ndarray:
    return np.array([g.a for g in v.gens()])


def _subspace_invariant(v: FpModule, s: Subspace) -> bool:
    """Whether G's generators map s onto itself: one stacked product."""
    return gfp.invariant(_generator_stack(v), s)


def check_d(v: FpModule, syl: SylowData, cs: CanonicalSubspaces,
            gvee: mu.GVee, opp: MatGroup) -> dict:
    """Evaluate the three product-decomposition cases."""
    p = v.p.p
    image = mu.mu_image(gvee)
    full = mu.named(p, "Delta")
    d_m1 = mu.named(p, "Delta_-1")
    d_0 = mu.named(p, "Delta_0")
    m = cs.m
    sigma_ok = v.dim <= p - 1
    out = {}

    # (d.1): full mu-image, G = O^{p'}(G) . G-vee, m = 0 or -1, dim <= p-1
    d1 = {"mu_full": image == full}
    if d1["mu_full"]:
        d1["covers"] = product_covers(v.group, opp, gvee.group)
        d1["m_mod"] = m % (p - 1)
        d1["m_ok"] = m % (p - 1) in (0, p - 2)
        d1["dim_le_p_minus_1"] = sigma_ok
        d1["ok"] = d1["covers"] and d1["m_ok"] and d1["dim_le_p_minus_1"]
    else:
        d1["ok"] = False
    out["d1"] = d1

    # (d.2): mu-image >= Delta_-1 and G = O^{p'}(G) . mu^-1(Delta_-1)
    d2 = {"contains_delta_minus1": d_m1 <= image}
    if d2["contains_delta_minus1"]:
        pre = mu.preimage(gvee, d_m1)
        d2["preimage_order"] = pre.order()
        d2["covers"] = product_covers(v.group, opp, pre)
        d2["ok"] = d2["covers"]
    else:
        d2["ok"] = False
    out["d2"] = d2

    # (d.3): mu-image >= Delta_0, G = O^{p'}(G) . mu^-1(Delta_0),
    #        Z0 not G-invariant
    d3 = {"contains_delta_0": d_0 <= image}
    if d3["contains_delta_0"]:
        pre = mu.preimage(gvee, d_0)
        d3["preimage_order"] = pre.order()
        d3["covers"] = product_covers(v.group, opp, pre)
        d3["z0_not_invariant"] = not _subspace_invariant(v, cs.Z0)
        d3["ok"] = d3["covers"] and d3["z0_not_invariant"]
    else:
        d3["ok"] = False
    out["d3"] = d3
    return out


def e0_menu(cases, m: int, sigma_ok: bool, p: int):
    """Admissible essential-class sets, deduplicated across cases."""
    menu = []
    seen = set()

    def push(e):
        if e.tag() not in seen:
            seen.add(e.tag())
            menu.append(e)

    count_extra = 0
    if "d1" in cases:
        if m % (p - 1) == 0:
            push(E0("H0+B*"))
        if m % (p - 1) == p - 2:
            push(E0("B0+H*"))
    if "d2" in cases:
        if m % (p - 1) == p - 2 and sigma_ok:
            if p <= MENU_ENUM_LIMIT:
                for r in range(1, p + 1):
                    for I in itertools.combinations(range(p), r):
                        push(E0("H", frozenset(I)))
            else:
                push(E0("H-any"))
                count_extra += 2 ** p - 1 - 1
        else:
            push(E0("H", frozenset([0])))
    if "d3" in cases:
        if m % (p - 1) == 0 and sigma_ok:
            if p <= MENU_ENUM_LIMIT:
                for r in range(1, p + 1):
                    for I in itertools.combinations(range(p), r):
                        push(E0("B", frozenset(I)))
            else:
                push(E0("B-any"))
                count_extra += 2 ** p - 1 - 1
        else:
            push(E0("B", frozenset([0])))
    return menu, len(menu) + count_extra


def strongly_closed(v: FpModule, cs: CanonicalSubspaces, menu) -> list:
    """The index-p strongly closed subgroups of the class sets of menu, as
    {"e0", "subgroup"} records in menu order.

    A class set has one only when it is a single S-conjugacy class H_i or
    B_i and A0 is G-invariant (tested once), in which case A0.H_i = A0.B_i
    qualifies.
    """
    single = [e0 for e0 in menu if e0.is_single_class()]
    if not single or not _subspace_invariant(v, cs.A0):
        return []
    return [{"e0": e0.tag(), "subgroup": f"A0.{e0.kind}_{min(e0.I)}"}
            for e0 in single]


def exotic_lookup(p: int, rank: int, m: int, e0: E0, group_order: int) -> dict:
    verdict = tables.lookup_realizable(p, rank, m, e0.tag(), group_order)
    verdict["e0"] = e0.tag()
    return verdict


def evaluate(v: FpModule) -> CriterionReport:
    """Run the full pipeline on a faithful module and produce the report."""
    p = v.p.p
    gg = class_GG(v.group)
    rep = CriterionReport(p=p, dim=v.dim, gg_status=gg.status,
                          group_order=gg.group_order)
    rep.notes.append("exponent-p carrier; the general exponent branch "
                     "(sigma outside Fr(Z) bookkeeping) is not implemented")
    if gg.status == "not_in_G":
        rep.notes.append(f"rejected: {gg.reason}")
        return rep
    syl = rep.sylow = gg.sylow
    rep.jordan_profile = modrep.jordan_profile(v, syl.u)
    rep.minimally_active = sum(1 for b in rep.jordan_profile if b > 1) <= 1
    cs = modrep.canonical_subspaces(v, syl)
    rep.dims = {"Z": cs.Z.dim, "UV": cs.UV.dim, "Z0": cs.Z0.dim,
                "A0": cs.A0.dim}
    rep.m = cs.m
    rep.m_ok = cs.m >= 3
    rep.sigma_ok = v.dim <= p - 1
    a_ok = check_a(cs)
    rep.cond_a = {"ok": a_ok, "dim_Z0": cs.Z0.dim}
    b_ok, qmax = check_b(v, cs)
    rep.cond_b = {"ok": b_ok, "qmax_dim": qmax.dim,
                  "qmax_is_Z0": qmax == cs.Z0}
    c_ok, comm = check_c(v)
    rep.cond_c = {"ok": c_ok, "commutator_dim": comm.dim}
    if not a_ok:
        rep.cond_d = {"skipped": "condition (a) fails; Z0 is not a line"}
        return rep

    gvee = rep.gvee = mu.compute_gvee(v.group, syl, cs)
    image = mu.mu_image(gvee)
    rep.mu_report = {
        "gvee_order": gvee.order(),
        "image": image.sorted_pairs(),
        "recognized": mu.recognize(image),
    }
    opp = o_pprime(v.group, syl)
    rep.cond_d = check_d(v, syl, cs, gvee, opp)
    rep.cond_d["o_pprime_order"] = opp.order()
    rep.cases = [c for c in ("d1", "d2", "d3") if rep.cond_d[c]["ok"]]
    menu, count = e0_menu(rep.cases, cs.m, rep.sigma_ok, p)
    rep.e0_menu = menu
    rep.e0_count = count
    rep.passes = a_ok and b_ok and c_ok and rep.m_ok and bool(rep.cases)
    if not rep.m_ok:
        rep.notes.append("m < 3: the carrier group would be extraspecial of "
                         "order p^3, outside this construction")
    if rep.passes:
        rep.strongly_closed = strongly_closed(v, cs, menu)
        for e0 in menu:
            rep.exotic.append(exotic_lookup(p, v.dim, cs.m, e0,
                                            gg.group_order))
        # U acts nontrivially and V is minimally active, so the O^{p'}
        # test is exact
        rep.indecomposable = modrep.opp_fixed_in_commutator(v, opp)
        # post-hoc consistency with the necessary conditions
        for holds, law in (
                (gg.status == "in_GG", "have full automizer"),
                (rep.minimally_active, "be minimally active"),
                (rep.indecomposable, "be indecomposable"),
                ("d1" not in rep.cases or v.dim <= p - 1,
                 "have dim <= p-1 in case (d.1)"),
                (rep.e0_count >= 1, "have a nonempty menu")):
            if not holds:
                raise InvariantViolation(f"passing instance must {law}")
    return rep


def enumerate_admissible(g0: MatGroup, gbar: MatGroup, v: FpModule):
    """Run the pipeline on every G with g0 <= G <= gbar; return passers."""
    out = []
    for grp in intermediate_subgroups(g0, gbar):
        vv = FpModule(v.p, v.dim, grp)
        rep = evaluate(vv)
        if rep.passes:
            out.append((grp, rep))
    return out
