"""Acceptance suite.

One test per criterion, each printing a PASS line with its runtime; stated
budgets are asserted.
"""

import json
import time

import numpy as np

from fusionseed import cli, criterion as cr, gfp, modrep as mr, mu, sgroup as sg, zoo
from fusionseed.gfp import FpMatrix, Subspace
from fusionseed.grp import MatGroup, class_GG, o_pprime
from fusionseed.modrep import FpModule
from fusionseed.zoo import cycle_perm, perm_matrix


def _mark(name, t0, budget):
    dt = time.time() - t0
    print(f"ACCEPT {name}: PASS in {dt:.1f}s (budget {budget}s)")
    assert dt < budget, f"{name} exceeded its runtime budget"


# -- 1. mu-law for the simple modules V_i ----------------------------------

def test_criterion_1_simple_module_mu_law():
    t0 = time.time()
    for p in (5, 7):
        for i in range(2, p + 1):
            g, v = zoo.sl2p(p, ("Vi", i))
            # the faithful acting group itself: first two generators
            g0 = MatGroup(p, g.generators[:2])
            v0 = FpModule(p, v.dim, g0)
            gg = class_GG(g0)
            cs = mr.canonical_subspaces(v0, gg.sylow)
            image = mu.mu_image(mu.compute_gvee(g0, gg.sylow, cs))
            expected = {(u * u % p, pow(u, i - 1, p)) for u in range(1, p)}
            assert set(image.elements) == expected, (p, i)
    _mark("1 (V_i mu-law, p = 5 and 7)", t0, 5)


# -- 2. dim p+1 extension law ------------------------------------------------

def test_criterion_2_extension_mu_law():
    t0 = time.time()
    p = 5
    summands = zoo._coset_module_summands(p)
    assert sorted(w.dim for w, _ in summands) == [1, 5, 6, 6, 6]
    seen = {}
    for w, _ in summands:
        if w.dim != p + 1:
            continue
        i = zoo.socle_min_dim(w)
        grp = zoo.extension_group(w, zoo.primitive_root(p))
        vv = FpModule(p, p + 1, grp)
        gg = class_GG(grp)
        cs = mr.canonical_subspaces(vv, gg.sylow)
        image = mu.mu_image(mu.compute_gvee(grp, gg.sylow, cs))
        assert image == mu.named(p, f"Delta_{i - 1}"), i
        seen[i] = mu.recognize(image)["name"]
    assert sorted(seen) == [2, 3, 4]
    # Delta_-1 occurs exactly at socle dimension p - 1
    assert seen[4] == "Delta_-1"
    assert all(name != "Delta_-1" for i, name in seen.items() if i != 4)
    _mark("2 (dim p+1 extensions, mu = Delta_{i-1})", t0, 30)


# -- 3. strongly-closed example reproduction ---------------------------------

def _example_a(p):
    gens = [perm_matrix(p, cycle_perm(p, [0, 1])),
            perm_matrix(p, cycle_perm(p, list(range(p)))),
            FpMatrix.scalar(p, p, zoo.primitive_root(p))]
    gamma = MatGroup(p, gens)
    v = FpModule(p, p, gamma)
    gg = class_GG(gamma)
    cs = mr.canonical_subspaces(v, gg.sylow)
    gv = mu.compute_gvee(gamma, gg.sylow, cs)
    opp = o_pprime(gamma, gg.sylow)
    pre = mu.preimage(gv, mu.named(p, "Delta_-1"))
    g = MatGroup(p, opp.generators + pre.generators)
    return FpModule(p, p, g), gamma.order()


def _example_c(p):
    gens = [perm_matrix(p, cycle_perm(p, [0, 1])),
            perm_matrix(p, cycle_perm(p, list(range(p)))),
            FpMatrix.scalar(p, p, zoo.primitive_root(p))]
    gamma = MatGroup(p, gens)
    big = FpModule(p, p, gamma)
    const = Subspace(p, p, np.ones((1, p), dtype=np.int64))
    quo, _ = mr.quotient_module(big, const)
    gg = class_GG(quo.group)
    cs = mr.canonical_subspaces(quo, gg.sylow)
    gv = mu.compute_gvee(quo.group, gg.sylow, cs)
    opp = o_pprime(quo.group, gg.sylow)
    pre = mu.preimage(gv, mu.named(p, "Delta_0"))
    g = MatGroup(p, opp.generators + pre.generators)
    return FpModule(p, p - 1, g)


def test_criterion_3_strongly_closed_examples():
    t0 = time.time()
    for p in (5, 7):
        va, gamma_order = _example_a(p)
        assert va.group.order() * 2 == gamma_order   # index 2 in Gamma
        rep = cr.evaluate(va)
        assert rep.passes and rep.cases == ["d2"]
        assert [e.tag() for e in rep.e0_menu] == ["H{0}"]
        assert rep.strongly_closed == [{"e0": "H{0}", "subgroup": "A0.H_0"}]
        assert rep.exotic[0]["verdict"] == "exotic"

        vc = _example_c(p)
        repc = cr.evaluate(vc)
        assert repc.passes and "d3" in repc.cases
        # all nonempty I occur; |I| >= 2 entries have no strongly closed
        assert repc.e0_count >= 2 ** p - 1
        sc_tags = {scd["e0"] for scd in repc.strongly_closed}
        for e0 in repc.e0_menu:
            if e0.kind == "B" and len(e0.I) >= 2:
                assert e0.tag() not in sc_tags
        # single classes do carry one
        assert any(scd["e0"] == "B{0}" for scd in repc.strongly_closed)
    _mark("3 (strongly-closed examples, p = 5 and 7)", t0, 10)


# -- 4. realizability-table rows ---------------------------------------------

def test_criterion_4_table_rows():
    t0 = time.time()
    # A_p-deleted at p = 5 and 7: the full union of H-classes matches the
    # p-dimensional-linear-family row at m = p - 2 = -1 mod (p-1)
    for p in (5, 7):
        g, v = zoo.symmetric(p, p, "deleted", "S", 1)
        rep = cr.evaluate(v)
        assert rep.passes and rep.m == p - 2 and rep.m % (p - 1) == p - 2
        full_tag = "H{" + ",".join(str(i) for i in range(p)) + "}"
        hits = [x for x in rep.exotic if x["e0"] == full_tag]
        assert hits and hits[0]["realized_by"] == "PSL_p(q), v_p(q-1)=1"
    # Sp_4(p) row at p = 5
    e12 = FpMatrix(5, [[1, 1], [0, 1]])
    e21 = FpMatrix(5, [[1, 0], [1, 1]])
    dz = FpMatrix(5, [[2, 0], [0, 1]])
    g240 = MatGroup(5, [mr.sym_power_matrix(m, 2) for m in (e12, e21, dz)])
    assert g240.order() == 240   # GL_2(5)/{+-I} shape
    rep240 = cr.evaluate(FpModule(5, 3, g240))
    assert rep240.passes and [e.tag() for e in rep240.e0_menu] == ["B{0}"]
    assert rep240.exotic[0]["realized_by"] == "Sp_4(p)"
    # A_{p+1}-deleted at (5, 6) and A_n-deleted at (7, 9)
    for p, n in ((5, 6), (7, 9)):
        g, v = zoo.symmetric(p, n, "deleted", "S", 1)
        rep = cr.evaluate(v)
        assert rep.passes and [e.tag() for e in rep.e0_menu] == ["B{0}"]
        assert rep.exotic[0]["realized_by"] == "PSL_n(q), p|q-1, p<n<2p"
    _mark("4 (realizability-table rows)", t0, 60)


# -- 5. structural invariant suite --------------------------------------------

def _passing_zoo_instances():
    out = []
    # full admissible family over the simple dim-3 module (orders 120, 240, 480)
    g3, v3 = zoo.sl2p(5, ("Vi", 3))
    g0 = MatGroup(5, g3.generators[:2])
    for grp, _ in cr.enumerate_admissible(g0, g3, v3):
        out.append((f"sl2p V3 x{grp.order()}", grp,
                    FpModule(5, 3, grp)))
    g, v = zoo.sl2p(5, ("Vi", 4))
    out.append(("sl2p V4 GL2", g, v))
    g, v = zoo.sl2p(5, ("Vji", 2, 4))
    out.append(("sl2p V42 ext", g, v))
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    out.append(("S5x4 deleted", g, v))
    g, v = zoo.symmetric(5, 6, "deleted", "S", 1)
    out.append(("S6 deleted", g, v))
    g, v = zoo.symmetric(7, 7, "deleted", "S", 1)
    out.append(("S7 deleted", g, v))
    g, v = zoo.monomial(5, 5, 2, "trivial", "S")
    out.append(("monomial 1920", g, v))
    g, v = zoo.extraspecial(5)
    out.append(("extraspecial p5", g, v))
    va, _ = _example_a(5)
    out.append(("example(a) p5", va.group, va))
    return out


def test_criterion_5_structural_suite():
    t0 = time.time()
    failures = []
    checked = 0
    for name, g, v in _passing_zoo_instances():
        rep = cr.evaluate(v)
        if not rep.passes:
            continue
        checked += 1
        syl = class_GG(g).sylow
        s, build = sg.build_s(v, syl)
        if not build.ok:
            failures.append((name, build.checks))
        filt = mr.w_filtration(
            v, syl, check_elements=syl.normalizer_N.elements_stack())
        if any(d != 1 for d in filt.quotient_dims):
            failures.append((name, "quotient dims"))
        if not all(r["law_holds"] for r in filt.scalar_reports):
            failures.append((name, "t r^i law"))
        # sigma cross-check: vanishes iff dim <= p - 1
        a_out = next(vec for vec in np.eye(v.dim, dtype=np.int64)
                     if not s.A0.contains_vector(vec))
        assert bool(s.sigma(a_out).any()) == (v.dim > v.p.p - 1)
    assert checked >= 8
    assert failures == []
    _mark(f"5 (structural suite, {checked} passing instances)", t0, 120)


# -- 6. witness suite ---------------------------------------------------------

def test_criterion_6_witness_suite():
    t0 = time.time()
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)   # flagship dim-3
    syl = class_GG(g).sylow
    s, build = sg.build_s(v, syl)
    assert build.ok
    x, a = sg.choose_x_a(s, g, syl)
    hb = sg.hb_subgroups(s, x, a)
    gv = mu.compute_gvee(g, syl, mr.canonical_subspaces(v, syl))
    th_b = sg.theta_witness(s, "B", 0, hb, gv)
    th_h = sg.theta_witness(s, "H", 1, hb, gv)
    for th in (th_b, th_h):
        assert th.ok and all(th.checks.values())
        assert th.theta0_over_inn == 120
    rep = sg.step2_conditions(s, [th_b, th_h])
    assert rep["ok"]
    assert all(rep["conditions"].values())
    _mark("6 (theta and step-2 witnesses on the flagship)", t0, 60)


# -- 7. oracle equivalences ----------------------------------------------------

def _random_module_pool(seed=0):
    rng = np.random.default_rng(seed)
    base = []
    base.append(zoo.sl2p(5, ("Vi", 2))[1])
    base.append(zoo.sl2p(5, ("Vi", 3))[1])
    base.append(zoo.sl2p(5, ("Vi", 4))[1])
    base.append(zoo.sl2p(5, ("Vi", 5))[1])
    base.append(zoo.sl2p(5, ("Vji", 2, 4))[1])
    base.append(zoo.sl2p(5, ("Vji", 3, 3))[1])
    base.append(zoo.sl2p(5, ("V1p21",))[1])
    base.append(zoo.sl2p(5, ("Vext_pm1", "sub"))[1])
    base.append(zoo.sl2p(5, ("Vext_pm1", "quot"))[1])
    base.append(zoo.symmetric(5, 5, "deleted", "S", 1)[1])
    base.append(zoo.symmetric(5, 5, "full", "S", 1)[1])
    base.append(zoo.symmetric(5, 5, "sub", "S", 1)[1])
    base.append(zoo.symmetric(5, 5, "quot", "S", 1)[1])
    base.append(zoo.symmetric(5, 6, "deleted", "S", 1)[1])
    pool = []
    for v in base:
        pool.append(v)
        pool.append(mr.dual(v))
        for k in (1, 2):
            gens = []
            for gen in v.gens():
                a = np.eye(v.dim + k, dtype=np.int64)
                a[:v.dim, :v.dim] = gen.a
                gens.append(FpMatrix(5, a))
            pool.append(FpModule(5, v.dim + k, MatGroup(5, gens)))
    # a few tensor squares (decomposable, not minimally active)
    nat = zoo.sl2p(5, ("Vi", 2))[1]
    pool.append(mr.tensor(nat, nat))
    pool.append(mr.tensor(nat, mr.sym_power(nat, 2)))
    return [v for v in pool if v.dim <= 24]


def test_criterion_7_oracle_equivalences():
    t0 = time.time()
    pool = _random_module_pool()
    assert len(pool) >= 50
    disagreements = 0
    for v in pool:
        gg = class_GG(v.group)
        if gg.status == "not_in_G":
            continue
        lemma_route = mr.is_indecomposable(v, gg.sylow)
        split_route = len(mr.split_summands(v, seed=3)) == 1
        disagreements += (lemma_route != split_route)
    assert disagreements == 0

    # class_GG against the brute-force recount
    from test_grp import brute_force_class
    groups = []
    e12, e21 = FpMatrix(5, [[1, 1], [0, 1]]), FpMatrix(5, [[1, 0], [1, 1]])
    dz = FpMatrix(5, [[2, 0], [0, 1]])
    groups.append(MatGroup(5, [e12, e21]))
    groups.append(MatGroup(5, [e12, e21, dz]))
    groups.append(MatGroup(7, [FpMatrix(7, [[1, 1], [0, 1]]),
                               FpMatrix(7, [[1, 0], [1, 1]])]))
    groups.append(MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1])),
                               perm_matrix(5, cycle_perm(5, list(range(5))))]))
    groups.append(MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1, 2])),
                               perm_matrix(5, cycle_perm(5, list(range(5))))]))
    groups.append(MatGroup(5, [perm_matrix(5, cycle_perm(5, list(range(5)))),
                               perm_matrix(5, [0, 2, 4, 1, 3])]))
    groups.append(zoo.extraspecial(3)[0])
    groups.append(zoo.monomial(5, 5, 2, "trivial", "S")[0])
    groups.append(zoo.symmetric(5, 6, "deleted", "S", 1)[0])
    groups.append(zoo.symmetric(7, 8, "deleted", "S", 1)[0])
    for k in (2, 3, 4):
        groups.append(zoo.sl2p(5, ("Vi", k))[0])
    groups.append(zoo.sl2p(7, ("Vi", 2))[0])
    groups.append(zoo.sl2p(7, ("Vi", 3))[0])
    groups.append(MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1])),
                               perm_matrix(5, cycle_perm(5, list(range(5)))),
                               FpMatrix.scalar(5, 5, 2)]))
    groups.append(MatGroup(5, [FpMatrix.scalar(5, 2, 2)]))
    groups.append(MatGroup(7, [perm_matrix(7, cycle_perm(7, [0, 1])),
                               perm_matrix(7, cycle_perm(7, list(range(7))))]))
    groups.append(MatGroup(3, [FpMatrix(3, [[1, 1], [0, 1]]),
                               FpMatrix(3, [[0, 2], [1, 0]])]))
    groups.append(zoo.symmetric(5, 6, "deleted", "A", 1)[0])   # A_6, 360
    groups.append(zoo.symmetric(7, 7, "deleted", "A", 1)[0])   # A_7, 2520
    groups.append(MatGroup(5, [perm_matrix(5, cycle_perm(5, list(range(5)))),
                               perm_matrix(5, [0, 2, 4, 1, 3]),
                               FpMatrix.scalar(5, 5, 2)]))     # AGL_1 x C_4
    groups.append(MatGroup(3, [mr.sym_power_matrix(
        FpMatrix(3, [[1, 1], [0, 1]]), 2), mr.sym_power_matrix(
        FpMatrix(3, [[0, 2], [1, 0]]), 2)]))
    groups = [g for g in groups if g.order() <= 5000]
    assert len(groups) >= 20
    for g in groups:
        fast = class_GG(g)
        brute = brute_force_class(g)
        assert fast.status == brute["status"], g.generators
        if fast.sylow and "automizer" in brute:
            assert fast.sylow.automizer_order == brute["automizer"]

    # check_b fixed point against exhaustive invariant-subspace search
    import itertools as it
    small_z = [zoo.symmetric(7, 9, "deleted", "S", 1)[1],
               zoo.sl2p(5, ("Vji", 2, 4))[1],
               zoo.symmetric(5, 5, "full", "S", 4)[1]]
    for v in small_z:
        gg = class_GG(v.group)
        cs = mr.canonical_subspaces(v, gg.sylow)
        assert cs.Z.dim <= 3
        _, qmax = cr.check_b(v, cs)
        p = v.p.p
        vecs = [np.array(c, dtype=np.int64) @ cs.Z.basis % p
                for c in it.product(range(p), repeat=cs.Z.dim)]
        vecs = [w for w in vecs if w.any()]
        best = Subspace.zero(v.p, v.dim)
        spaces = {best.key(): best}
        for r in range(1, cs.Z.dim + 1):
            for combo in it.combinations(vecs, r):
                sp = Subspace(v.p, v.dim, np.array(combo))
                spaces[sp.key()] = sp
        for sp in spaces.values():
            if sp.dim >= best.dim and \
                    all(gfp.image_of_subspace(g, sp) == sp for g in v.gens()):
                if sp.dim > best.dim:
                    best = sp
        assert best == qmax
    _mark("7 (oracle equivalences)", t0, 240)


# -- 8. the p = 7 extraspecial normalizer ---------------------------------------

def test_criterion_8_heavy_extraspecial(tmp_path, capsys):
    """The Sylow-local summary of the group of order 15,482,880, and plain
    check on its emitted file, neither of which enumerates G."""
    t0 = time.time()
    res = zoo.heavy_extraspecial_check(zoo.extraspecial(7)[1])
    assert res["n_over_u"] == 36
    assert res["mu_name"] == "Delta_3"
    assert res["group_order"] == 15482880
    assert res["automizer"] == 6
    inst = tmp_path / "es7.json"
    assert cli.main(["zoo", "emit", "extraspecial_p7", "--out",
                     str(inst)]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(inst)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["group_order"] == 15482880
    assert rep["gg_status"] == "in_GG"
    assert rep["mu"]["recognized"]["name"] == "Delta_3"
    assert rep["cond_d"]["o_pprime_order"] == 2580480
    assert rep["passes"] is False
    _mark("8 (p=7 extraspecial)", t0, 120)
