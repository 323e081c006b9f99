import numpy as np
import pytest

from conftest import cycle, perm_mat
from fusionseed import modrep as mr, mu, sgroup as sg, zoo
from fusionseed.errors import CapExceeded, MuTooSmall
from fusionseed.gfp import FpMatrix
from fusionseed.grp import MatGroup, class_GG
from fusionseed.modrep import FpModule


@pytest.fixture(scope="module")
def flagship():
    """dim-3, p = 5 instance with mu-image all of Delta (order 480)."""
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    gg = class_GG(g)
    s, rep = sg.build_s(v, gg.sylow)
    return g, v, gg.sylow, s, rep


@pytest.fixture(scope="module")
def flagship_hb(flagship):
    g, v, syl, s, _ = flagship
    x, a = sg.choose_x_a(s, g, syl)
    hb = sg.hb_subgroups(s, x, a)
    cs = mr.canonical_subspaces(v, syl)
    gv = mu.compute_gvee(g, syl, cs)
    return x, a, hb, gv


def test_element_arithmetic(flagship):
    _, _, _, s, _ = flagship
    x = s.S.generators[0]                  # (0, u)
    assert (x.a[:3, :3] == s.u.a).all() and not x.a[:3, 3].any()
    assert x.order() == 5
    a = s.translation([1, 2, 0])
    prod = a @ x
    assert (prod.a[:3, :3] == s.u.a).all()
    assert prod @ prod.inverse() == FpMatrix.identity(5, 4)
    # p-th power of (a, u) is (sum u^i a, 1): (T_a X)^p = T_sigma(a)
    assert prod.pow(5) == s.translation(s.sigma([1, 2, 0]))


def test_build_s_structural_laws(flagship):
    _, _, _, s, rep = flagship
    assert rep.ok
    assert rep.dims == {"S": 4, "Z": 1, "Sprime": 2, "Z0": 1, "Z2": 2,
                        "A0": 2}
    # |Z(S)| * |[S,S]| = |S| / p
    assert rep.dims["Z"] + rep.dims["Sprime"] == rep.dims["S"] - 1


def test_choose_x_a(flagship):
    g, v, syl, s, _ = flagship
    x, a = sg.choose_x_a(s, g, syl)
    assert x == s.S.generators[0]
    assert x.order() == 5
    assert (a.a[:3, :3] == np.eye(3)).all()      # a lies in A
    assert not s.A0.contains_vector(a.a[:3, 3])
    # sigma vanishes exactly when dim <= p - 1
    assert not s.sigma(a.a[:3, 3]).any()


def test_sigma_nonzero_at_dim_p():
    gens = [perm_mat(5, cycle(5, [0, 1])),
            perm_mat(5, cycle(5, [0, 1, 2, 3, 4])),
            FpMatrix.scalar(5, 5, 2)]
    v = FpModule(5, 5, MatGroup(5, gens))
    gg = class_GG(v.group)
    s, _ = sg.build_s(v, gg.sylow)
    # any vector outside A0 has nonzero sigma (dim = p)
    for vec in np.eye(5, dtype=np.int64):
        if not s.A0.contains_vector(vec):
            assert s.sigma(vec).any()


def test_hb_subgroups_and_classes(flagship, flagship_hb):
    _, _, _, s, _ = flagship
    x, a, hb, _ = flagship_hb
    assert len(hb) == 5
    assert hb[0]["H"].order() == 25 and hb[0]["B"].order() == 125
    # A0-translation invariance: replacing a by a * s' keeps the classes
    a_alt = a @ s.translation(s.Sprime.basis[0])
    assert sg.class_label(s, x @ a_alt, a) == 1


def test_class_label_right_after_choose_x_a():
    """class_label reads a from its argument, so it needs no earlier
    hb_subgroups call on the same S."""
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    syl = class_GG(g).sylow
    s, _ = sg.build_s(v, syl)
    x, a = sg.choose_x_a(s, g, syl)
    assert sg.class_label(s, x @ a, a) == 1
    assert sg.class_label(s, x @ a.pow(3), a) == 3
    assert sg.class_label(s, (x @ a).pow(2), a) == 1


def test_class_action_of_normalizer(flagship, flagship_hb):
    """Elements with mu in Delta_m fix every class; others only class 0."""
    g, v, syl, s, _ = flagship
    x, a, hb, gv = flagship_hb
    p = 5
    m = 3
    stack = gv.group.elements_stack()
    checked_in = checked_out = 0
    for i in range(stack.shape[0]):
        mat = FpMatrix(5, stack[i])
        r, sval = gv.mu_values[mat.key()]
        in_dm = (sval == pow(r, m, p))
        # induced action on S: conjugation by (0, g), (c, u^k) -> (g c, u^rk)
        g_aff = sg.semidirect_affine(v, MatGroup(5, [mat])).generators[0]
        for j in (1, 2):
            img = g_aff @ hb[j]["generator"] @ g_aff.inverse()
            lbl = sg.class_label(s, img, a)
            if in_dm:
                assert lbl == j
                checked_in += 1
            else:
                if lbl != j:
                    checked_out += 1
    assert checked_in and checked_out


def test_theta_witness_b0(flagship, flagship_hb):
    g, v, syl, s, _ = flagship
    x, a, hb, gv = flagship_hb
    th = sg.theta_witness(s, "B", 0, hb, gv)
    assert th.ok
    assert th.inn_order == 25             # |P / Z(P)| for P extraspecial 125
    assert th.theta0_over_inn == 120      # |SL_2(5)|
    assert all(th.checks.values())


def test_theta_witness_h_class(flagship, flagship_hb):
    g, v, syl, s, _ = flagship
    x, a, hb, gv = flagship_hb
    th = sg.theta_witness(s, "H", 1, hb, gv)
    assert th.ok
    assert th.inn_order == 1              # P = C_5^2 abelian
    assert th.theta0_over_inn == 120
    assert th.p_order == 25


def test_theta_h0_on_sp4_flagship():
    """The 240-group (Sp_4(5)-automizer shape): H-witness for class 0."""
    e12 = FpMatrix(5, [[1, 1], [0, 1]])
    e21 = FpMatrix(5, [[1, 0], [1, 1]])
    dz = FpMatrix(5, [[2, 0], [0, 1]])
    g = MatGroup(5, [mr.sym_power_matrix(m, 2) for m in (e12, e21, dz)])
    v = FpModule(5, 3, g)
    syl = class_GG(g).sylow
    s, _ = sg.build_s(v, syl)
    x, a = sg.choose_x_a(s, g, syl)
    hb = sg.hb_subgroups(s, x, a)
    gv = mu.compute_gvee(g, syl, mr.canonical_subspaces(v, syl))
    # mu-image is Delta_0.2: the H-witness hypothesis Delta_-1 fails
    with pytest.raises(MuTooSmall):
        sg.theta_witness(s, "H", 0, hb, gv)
    th = sg.theta_witness(s, "B", 0, hb, gv)
    assert th.ok and th.theta0_over_inn == 120


def test_step2_conditions(flagship, flagship_hb):
    g, v, syl, s, _ = flagship
    x, a, hb, gv = flagship_hb
    rep = sg.step2_conditions(s, [sg.theta_witness(s, "B", 0, hb, gv),
                                  sg.theta_witness(s, "H", 1, hb, gv)])
    assert rep["ok"]
    assert rep["gamma_order"] == 125 * 480
    assert rep["conditions"] == {"pairwise_nonconjugate": True,
                                 "p_centric": True,
                                 "strongly_p_embedded_normalizer": True}


def test_step2_duplicate_fails(flagship, flagship_hb):
    g, v, syl, s, _ = flagship
    x, a, hb, gv = flagship_hb
    th = sg.theta_witness(s, "B", 0, hb, gv)
    rep = sg.step2_conditions(s, [th, th])
    assert not rep["conditions"]["pairwise_nonconjugate"]


@pytest.fixture(scope="module")
def flagship_gamma(flagship):
    """The whole Gamma = A x| G of the flagship, enumerated (60,000)."""
    g, v, _, _, _ = flagship
    return sg.semidirect_affine(v, g).cache()


@pytest.mark.parametrize("kind", ["H", "B"])
@pytest.mark.parametrize("i", [0, 1])
def test_restricted_ambients_match_full_gamma(flagship, flagship_hb,
                                              flagship_gamma, kind, i):
    """Lambda_P and |C_Gamma(P)| read only A x| N_G(U) and A x| C_G(U);
    a brute-force scan of every element of Gamma gives the same."""
    _, _, _, s, _ = flagship
    P = flagship_hb[2][i][kind]
    p, d = 5, P.dim
    weights = p ** np.arange(d * d, dtype=np.int64)

    def codes(m):
        return m.reshape(*m.shape[:-2], d * d) @ weights

    elems = P.elements_stack().astype(np.int64)
    pc = codes(elems)
    order = np.argsort(pc)
    stack = flagship_gamma.elements_stack().astype(np.int64)
    inv = flagship_gamma.inverses_stack().astype(np.int64)
    lam, central = set(), 0
    for lo in range(0, len(stack), 512):
        t, ti = stack[lo:lo + 512, None], inv[lo:lo + 512, None]
        c = codes(t @ elems % p @ ti % p)             # (chunk, |P|)
        normal = np.isin(c, pc).all(axis=1)
        perms = order[np.searchsorted(pc[order], c[normal])]
        lam.update(sg.PermGroupOnSet.key(perm) for perm in perms)
        central += int((c == pc).all(axis=1).sum())
    pset = sg.PermGroupOnSet(P)
    assert set(sg._conjugation_perms(s.a_by_normalizer, pset)) == lam
    assert sg._centralizer_order(s.a_by_centralizer, P) == central
    assert s.a_by_normalizer.order() < flagship_gamma.order()


def test_step2_non_centric_subgroup(flagship_gamma):
    """A proper subgroup of A is centralized by all of A: not p-centric."""
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    syl = class_GG(g).sylow
    s, _ = sg.build_s(v, syl)
    z = s.subgroup(s.Z)
    c_order = sg._centralizer_order(flagship_gamma, z)
    center = sg._centralizer_order(z, z)
    p = 5
    vp = 0
    tmp = c_order
    while tmp % p == 0:
        vp += 1
        tmp //= p
    assert p ** vp != center   # fails the p-centric test


def test_unique_abelian_index_p(flagship):
    _, _, _, s, _ = flagship
    assert sg.unique_abelian_index_p(s)


def test_semidirect_affine_order():
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    gamma = sg.semidirect_affine(v, g)
    assert gamma.order() == 5 ** 3 * 480


def test_abelian_index_p_not_unique_at_rank1_commutator():
    """When [S,S] is a line, S is extraspecial-like and the abelian
    index-p subgroup is not unique."""
    from fusionseed.modrep import FpModule
    nat = FpModule(5, 2, MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                                      FpMatrix(5, [[1, 0], [1, 1]])]))
    syl = class_GG(nat.group).sylow
    s = sg.SGroup(nat, syl)
    assert s.Sprime.dim == 1
    assert not sg.unique_abelian_index_p(s)


def test_witnesses_for_exotic_h_family():
    """The order-120 d2-passer on the dim-3 module: two distinct H-classes
    (an exotic union-of-H_i configuration) carry valid witnesses."""
    from fusionseed import criterion as cr, zoo
    g3, v3 = zoo.sl2p(5, ("Vi", 3))
    g0 = MatGroup(5, g3.generators[:2])
    passers = cr.enumerate_admissible(g0, g3, v3)
    g120 = [grp for grp, _ in passers if grp.order() == 120][0]
    v = FpModule(5, 3, g120)
    syl = class_GG(g120).sylow
    s, _ = sg.build_s(v, syl)
    x, a = sg.choose_x_a(s, g120, syl)
    hb = sg.hb_subgroups(s, x, a)
    gv = mu.compute_gvee(g120, syl, mr.canonical_subspaces(v, syl))
    assert mu.mu_image(gv) == mu.named(5, "Delta_-1")
    thetas = [sg.theta_witness(s, "H", i, hb, gv) for i in (0, 2)]
    for th in thetas:
        assert th.ok
    rep = sg.step2_conditions(s, thetas)
    assert rep["ok"] and rep["gamma_order"] == 15000


def test_witnesses_for_exotic_b_family():
    """Two B-classes on the quotient-module family (the no-strongly-closed
    configuration) pass the saturation-witness conditions."""
    from fusionseed import zoo
    gc, vc = zoo.strongly_closed_example(5, "c")
    sylc = class_GG(gc).sylow
    s, _ = sg.build_s(vc, sylc)
    x, a = sg.choose_x_a(s, gc, sylc)
    hb = sg.hb_subgroups(s, x, a)
    gv = mu.compute_gvee(gc, sylc, mr.canonical_subspaces(vc, sylc))
    rep = sg.step2_conditions(
        s, [sg.theta_witness(s, "B", i, hb, gv) for i in (0, 1)])
    assert rep["ok"] and rep["gamma_order"] == 5 ** 4 * 240


def test_gamma_over_cap_raises_before_enumerating(monkeypatch):
    """sn_deleted at p = 7: |Gamma| = 7^5 * 5040 is above the 2e7 cap, so
    S.gamma refuses before building Gamma."""
    g, v = zoo.symmetric(7, 7, "deleted", "S", 1)
    s = sg.SGroup(v, class_GG(g).sylow)

    def build(*args):
        raise AssertionError("Gamma must not be built")
    monkeypatch.setattr(sg, "semidirect_affine", build)
    with pytest.raises(CapExceeded, match="84707280 exceeds cap"):
        s.gamma
