import numpy as np
import pytest

from fusionseed import gfp, modrep as mr, mu, zoo
from fusionseed.errors import NotASubgroup, UnknownName, Z0NotLine
from fusionseed.gfp import FpMatrix
from fusionseed.grp import MatGroup, class_GG
from fusionseed.modrep import FpModule


def sl2_module(p, k, extra=()):
    gens = [FpMatrix(p, [[1, 1], [0, 1]]), FpMatrix(p, [[1, 0], [1, 1]])]
    gens = [mr.sym_power_matrix(g, k) for g in gens]
    gens += list(extra)
    g = MatGroup(p, gens)
    return FpModule(p, gens[0].rows, g)


def test_delta_subgroup_validation():
    d = mu.DeltaSubgroup(5, [(1, 1), (4, 4)])
    assert d.order == 2
    with pytest.raises(NotASubgroup):
        mu.DeltaSubgroup(5, [(1, 1), (2, 3)])   # not closed
    with pytest.raises(NotASubgroup):
        mu.DeltaSubgroup(5, [(2, 2)])           # no identity


def test_named_families():
    assert mu.named(5, "Delta").order == 16
    assert mu.named(5, "Delta_-1").sorted_pairs() == \
        [(1, 1), (2, 3), (3, 2), (4, 4)]
    assert mu.named(7, "Delta_0").order == 6
    assert mu.named(5, "(1/2)Delta_1").sorted_pairs() == [(1, 1), (4, 4)]
    assert mu.named(5, "Delta_3/2").order == 4
    d03 = mu.named(7, "Delta_0*Delta_3")
    assert d03.order == 12   # 36 / |Delta_0 meet Delta_3|
    with pytest.raises(UnknownName):
        mu.named(5, "Sigma_3")


def test_recognize():
    assert mu.recognize(mu.named(5, "Delta"))["name"] == "Delta"
    assert mu.recognize(mu.named(5, "Delta_-1"))["name"] == "Delta_-1"
    assert mu.recognize(mu.DeltaSubgroup(5, [(1, 1), (4, 4)]))["name"] == \
        "(1/2)Delta_1"
    # Delta_0 * Delta_3 at p = 7 is the index-2 extension Delta_0.2; the
    # dot-form wins and the product form is kept as an alias
    r = mu.recognize(mu.named(7, "Delta_0*Delta_3"))
    assert r["name"] == "Delta_0.2"
    assert r["alias"] == "Delta_0*Delta_3"
    assert r["extra_generator"] is not None
    # index-2 extension naming carries the explicit extra generator
    ext = mu.DeltaSubgroup.generated(5, [(2, 1), (1, 4)])
    r2 = mu.recognize(ext)
    assert r2["name"] == "Delta_0.2"
    assert r2["extra_generator"] in ext


def test_contains_delta_t():
    full = mu.named(5, "Delta")
    for t in range(4):
        assert mu.contains_delta_t(full, t)
    half = mu.DeltaSubgroup(5, [(1, 1), (4, 4)])
    assert not mu.contains_delta_t(half, 1)
    sq = mu.DeltaSubgroup.generated(5, [(4, 1)])
    assert not mu.contains_delta_t(mu.named(5, "Delta_1"), 0)


def test_gvee_dim_le_p_is_whole_normalizer():
    v = sl2_module(5, 3)   # V4 for SL_2(5)
    rep = class_GG(v.group)
    cs = mr.canonical_subspaces(v, rep.sylow)
    gv = mu.compute_gvee(v.group, rep.sylow, cs)
    assert gv.order() == rep.sylow.normalizer_N.order()
    at = gv.group.keys()[rep.sylow.u.key()]
    assert (gv.r[at], gv.s[at]) == (1, 1)


def test_mu_image_sl2_v4():
    v = sl2_module(5, 3)
    rep = class_GG(v.group)
    cs = mr.canonical_subspaces(v, rep.sylow)
    img = mu.mu_image(mu.compute_gvee(v.group, rep.sylow, cs))
    assert img.sorted_pairs() == [(1, 1), (1, 4), (4, 2), (4, 3)]
    assert img.order == 4


def test_mu_image_psl2_v3():
    v = sl2_module(5, 2)
    rep = class_GG(v.group)
    cs = mr.canonical_subspaces(v, rep.sylow)
    img = mu.mu_image(mu.compute_gvee(v.group, rep.sylow, cs))
    assert set(img.elements) == {(1, 1), (4, 4)}


def test_mu_image_gl2_v4_full_delta():
    v = sl2_module(5, 3, extra=[mr.sym_power_matrix(
        FpMatrix(5, [[2, 0], [0, 1]]), 3)])
    rep = class_GG(v.group)
    cs = mr.canonical_subspaces(v, rep.sylow)
    gv = mu.compute_gvee(v.group, rep.sylow, cs)
    img = mu.mu_image(gv)
    assert img == mu.named(5, "Delta")
    pre = mu.preimage(gv, mu.named(5, "Delta_0"))
    assert gv.order() // pre.order() == 4   # index p-1


def test_mu_injectivity_on_gvee():
    # |image| = |G-vee| / p on faithful modules
    for k in (2, 3, 4):
        v = sl2_module(5, k)
        rep = class_GG(v.group)
        cs = mr.canonical_subspaces(v, rep.sylow)
        gv = mu.compute_gvee(v.group, rep.sylow, cs)
        img = mu.mu_image(gv)
        assert img.order * 5 == gv.order()


def test_z0_not_line_error():
    nat = FpModule(5, 2, MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                                      FpMatrix(5, [[1, 0], [1, 1]])]))
    g2 = MatGroup(5, [np.kron for _ in ()] if False else
                  [FpMatrix(5, np.block([[g.a, np.zeros((2, 2), int)],
                                         [np.zeros((2, 2), int), g.a]]))
                   for g in nat.gens()])
    v22 = FpModule(5, 4, g2)
    rep = class_GG(g2)
    cs = mr.canonical_subspaces(v22, rep.sylow)
    with pytest.raises(Z0NotLine):
        mu.compute_gvee(g2, rep.sylow, cs)


def test_filtration_scalar_consistency():
    # mu(g) = (r, s) forces s = t r^{m-1} for the A/A0-scalar t
    v = sl2_module(5, 3, extra=[mr.sym_power_matrix(
        FpMatrix(5, [[2, 0], [0, 1]]), 3)])
    rep = class_GG(v.group)
    cs = mr.canonical_subspaces(v, rep.sylow)
    gv = mu.compute_gvee(v.group, rep.sylow, cs)
    elements = gv.group.elements_stack()
    filt = mr.w_filtration(v, rep.sylow, check=(elements, gv.r))
    p = 5
    assert len(filt.scalar_reports) == len(elements)
    for s, rep_entry in zip(gv.s, filt.scalar_reports):
        assert rep_entry["law_holds"]
        r, t = rep_entry["r"], rep_entry["t"]
        assert s == t * pow(r, cs.m - 1, p) % p


def test_centralizer_structure_at_dim_le_p():
    # with the scalar group inside G and dim <= p: mu-image is all of Delta
    # and C_G(U) = U x scalars
    p = 5
    v = sl2_module(p, 3, extra=[mr.sym_power_matrix(
        FpMatrix(p, [[2, 0], [0, 1]]), 3)])
    rep = class_GG(v.group)
    assert mu.mu_image(mu.compute_gvee(
        v.group, rep.sylow, mr.canonical_subspaces(v, rep.sylow))).order == 16
    C = rep.sylow.centralizer_C
    assert C.order() == p * (p - 1)
    scalar_keys = {FpMatrix.scalar(p, 4, c).key() for c in range(1, p)}
    u_keys = {rep.sylow.u.pow(k).key() for k in range(p)}
    prod_keys = set()
    for sk in scalar_keys:
        for uk in u_keys:
            a = np.frombuffer(sk, dtype=np.int8).reshape(4, 4).astype(np.int64)
            b = np.frombuffer(uk, dtype=np.int8).reshape(4, 4).astype(np.int64)
            prod_keys.add(((a @ b) % p).astype(np.int8).tobytes())
    assert set(C.keys()) == prod_keys


def test_dim_p_plus_1_mu_size_law():
    # with scalars adjoined at dim p+1: |mu image| = |N/U| / (p-1) exactly
    from fusionseed import zoo
    p = 5
    g, v = zoo.sl2p(p, ("Vji", 2, 4))
    g_sc = MatGroup(p, g.generators + [FpMatrix.scalar(p, 6, 2)])
    v_sc = mr.FpModule(p, 6, g_sc)
    rep = class_GG(g_sc)
    cs = mr.canonical_subspaces(v_sc, rep.sylow)
    image = mu.mu_image(mu.compute_gvee(g_sc, rep.sylow, cs))
    n_over_u = rep.sylow.normalizer_N.order() // p
    assert image.order == n_over_u // (p - 1)


def test_compute_gvee_reads_stored_inverses(monkeypatch):
    """On the flagship, compute_gvee takes every inverse it needs from
    N_G(U)'s inverse stack: it runs no RREF."""
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    syl = class_GG(g).sylow
    cs = mr.canonical_subspaces(v, syl)
    calls = []
    real = gfp._rref_array
    monkeypatch.setattr(gfp, "_rref_array",
                        lambda *a: calls.append(1) or real(*a))
    gv = mu.compute_gvee(g, syl, cs)
    assert calls == []
    assert gv.order() == 80 and mu.mu_image(gv) == mu.named(5, "Delta")
