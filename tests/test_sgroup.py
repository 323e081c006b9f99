import dataclasses
import itertools

import numpy as np
import pytest

from fusionseed import gfp, modrep as mr, mu, sgroup as sg, zoo
from fusionseed.chain import (Chain, Listed, MatCodec, _row_keys, _stacks,
                              walk)
from fusionseed.errors import (CapExceeded, InvariantViolation,
                               MuTooSmall)
from fusionseed.gfp import FpMatrix
from fusionseed.grp import MatGroup, class_GG
from fusionseed.modrep import FpModule
from fusionseed.zoo import cycle_perm, perm_matrix


def semidirect_affine(v: FpModule, g: MatGroup) -> MatGroup:
    """A x| g as (n+1) x (n+1) affine matrices, not enumerated: the
    brute-force reference for the groups that the engine never builds."""
    one = np.eye(v.dim, dtype=np.int64)
    gens = [sg._affine(v.p, m.a, np.zeros(v.dim, dtype=np.int64))
            for m in g.generators]
    gens += [sg._affine(v.p, one, e) for e in one]
    return MatGroup(v.p, gens)


def _s_group(s):
    """S = A x| U, enumerated: the test oracle that the engine never
    builds."""
    return semidirect_affine(s.v, MatGroup(s.v.p, [s.u])).cache()


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
    x = _s_group(s).generators[0]          # (0, u)
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
    assert x == _s_group(s).generators[0]
    assert x.order() == 5
    assert (a.a[:3, :3] == np.eye(3)).all()      # a lies in A
    assert not s.A0.contains_vector(a.a[:3, 3])
    # sigma vanishes exactly when dim <= p - 1
    assert not s.sigma(a.a[:3, 3]).any()


def test_sigma_nonzero_at_dim_p():
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4])),
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


def test_hb_subgroups_enumerate_on_first_read(flagship, monkeypatch):
    """hb_subgroups enumerates no H_i or B_i: each is enumerated when first
    read, once, and its order is checked against |Z| p or |Z_2| p."""
    g, _, syl, s, _ = flagship
    x, a = sg.choose_x_a(s, g, syl)
    hb = sg.hb_subgroups(s, x, a)
    assert all(set(entry) == {"generator"} for entry in hb.values())
    assert hb[2]["B"].order() == 125 and set(hb[2]) == {"generator", "B"}
    assert hb[2]["B"] is hb[2]["B"]
    # a subgroup of the wrong order: <x a^3> alone has order p, not |Z| p
    monkeypatch.setattr(s, "subgroup", lambda space, *extra:
                        MatGroup(s.v.p, list(extra)).cache())
    with pytest.raises(InvariantViolation, match=r"\|H_3\| is not \|Z\| p"):
        hb[3]["H"]


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


def test_class_label_of_a_translation_is_an_invariant_violation():
    """A translation (c, u^0) lies in A, in no class Z<x a^i>: class_label
    raises InvariantViolation, which the CLI maps to a one-line exit."""
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    syl = class_GG(g).sylow
    s, _ = sg.build_s(v, syl)
    _, a = sg.choose_x_a(s, g, syl)
    with pytest.raises(InvariantViolation, match="inside A"):
        sg.class_label(s, a, a)


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
        g_aff = semidirect_affine(v, MatGroup(5, [mat])).generators[0]
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
    return semidirect_affine(v, g).cache()


@pytest.fixture(scope="module")
def str_closed_c():
    """S, H_i/B_i and the whole Gamma of str_closed c, enumerated
    (|Gamma| = 5^4 * 240 = 150,000)."""
    g, v = zoo.strongly_closed_example(5, "c")
    syl = class_GG(g).sylow
    s, _ = sg.build_s(v, syl)
    x, a = sg.choose_x_a(s, g, syl)
    return s, sg.hb_subgroups(s, x, a), semidirect_affine(v, g).cache()


@pytest.fixture(scope="module")
def flagship_case(flagship, flagship_hb, flagship_gamma):
    return flagship[3], flagship_hb[2], flagship_gamma


def _scan(pset, ambient):
    """Brute force over every element of ambient: the distinct automorphisms
    of P that the elements normalizing P induce, as rows of generator
    images, and the number of elements centralizing P."""
    P = pset.group
    p, d = P.p.p, P.dim
    weights = p ** np.arange(d * d, dtype=np.int64)

    def codes(m):
        return m.reshape(*m.shape[:-2], d * d) @ weights

    elems = P.elements_stack().astype(np.int64)
    pc = codes(elems)
    order = np.argsort(pc)
    stack = ambient.elements_stack().astype(np.int64)
    inv = ambient.inverses_stack().astype(np.int64)
    auts, central = set(), 0
    for lo in range(0, len(stack), 512):
        t, ti = stack[lo:lo + 512, None], inv[lo:lo + 512, None]
        c = codes(t @ elems % p @ ti % p)             # (chunk, |P|)
        normal = np.isin(c, pc).all(axis=1)
        perms = order[np.searchsorted(pc[order], c[normal])]
        auts.update(pset.codes(perms).tolist())
        central += int((c == pc).all(axis=1).sum())
    auts = np.array(sorted(auts), dtype=np.int64)
    return auts[:, None] // pset.weights % pset.n, central


AMBIENT_CASES = [pytest.param(case, i, kind, id=f"{prefix}{i}-{kind}")
                 for case, prefix in (("flagship_case", ""),
                                      ("str_closed_c", "str_closed_c-"))
                 for kind in ("H", "B") for i in (0, 1)]


@pytest.mark.parametrize("case, i, kind", AMBIENT_CASES)
def test_restricted_ambients_match_full_gamma(request, case, i, kind):
    """Lambda_P from one F_p solve per exponent over N_G(U), and
    |C_Gamma(P)| from C_G(U), equal a brute-force scan of every element of
    Gamma: Lambda_P's chain has the scan's order and holds every scanned
    automorphism.  Aut_S(P) and Inn(P) equal the scans of S and of P."""
    s, hb, gamma = request.getfixturevalue(case)
    pset = sg.PermGroupOnSet(hb[i][kind], s.Z if kind == "H" else s.Z2,
                             hb[i]["generator"])
    inn, aut_s, _, lam = sg.local_automorphisms(s, pset)
    lam_scan, central = _scan(pset, gamma)
    assert lam.order() == len(lam_scan) and lam.contains(lam_scan).all()
    assert sg.centralizer_order(s, pset) == central
    for group, ambient in ((aut_s, _s_group(s)), (inn, pset.group)):
        assert set(group.index) == \
            set(pset.pack(_scan(pset, ambient)[0]).tolist())
    assert aut_s.order() < lam.order()


@pytest.mark.parametrize("case", ["flagship_case", "str_closed_c"])
def test_s_conjugates_of_x_are_its_sprime_coset(request, case):
    """hb_subgroups' subspace test rests on this: conjugating x = (c, u)
    by every element of S gives exactly the (c + w, u) with w in S'.  On
    that set the conjugation scan it replaces finds every label 0 and no
    element of H_1."""
    s, hb, _ = request.getfixturevalue(case)
    p, x = s.p, hb[0]["generator"]
    S = _s_group(s)
    conj = S.elements_stack().astype(np.int64) @ x.a % p @ \
        S.inverses_stack().astype(np.int64) % p
    coset = [FpMatrix(p, t) @ x
             for t in s.subgroup(s.Sprime).elements_stack()]
    assert {m.tobytes() for m in conj.astype(np.int8)} == \
        {m.key() for m in coset}
    assert len(coset) == p ** s.Sprime.dim
    # x a = (u a, u): u a has a's coordinate in A/A0, the unit of the labels
    n = s.n
    a = s.translation(hb[1]["generator"].a[:n, n] - x.a[:n, n])
    for m in coset:
        assert not hb[1]["H"].contains(m)
        assert sg.class_label(s, m, a) == 0


def _gamma_orbit_of_subgroup(gamma: MatGroup, q: MatGroup):
    """Orbit of a subgroup under Gamma-conjugation, as affine key sets."""
    p = gamma.p.p
    seen = {frozenset(q.keys())}
    gens = [(g.a, g.inverse().a) for g in gamma.generators]
    queue = [q.elements_stack().astype(np.int64)]
    while queue:
        mats = queue.pop()
        for g, gi in gens:
            conj = g @ mats % p @ gi % p
            key = frozenset(_row_keys(conj.reshape(len(conj), -1)))
            if key not in seen:
                seen.add(key)
                queue.append(conj)
    return seen


@pytest.mark.parametrize("case", ["flagship_case", "str_closed_c"])
def test_conjugators_match_gamma_orbits(request, case):
    """Step-2 condition (1) by solves: some (a, g) with g in N_G(U)
    conjugates Q into Q' exactly when a brute-force orbit of Q under the
    generators of the enumerated Gamma has a member inside Q', on all 90
    ordered pairs of distinct subgroups among the H_i and B_i."""
    s, hb, gamma = request.getfixturevalue(case)
    psets = [sg.PermGroupOnSet(hb[i][kind], s.Z if kind == "H" else s.Z2,
                               hb[i]["generator"])
             for kind in ("H", "B") for i in range(s.p)]
    orbits = [_gamma_orbit_of_subgroup(gamma, ps.group) for ps in psets]
    into = 0
    for a, b in itertools.permutations(range(len(psets)), 2):
        target = frozenset(psets[b].group.keys())
        brute = any(member <= target for member in orbits[a])
        solved, _ = sg.conjugators(s, psets[a], psets[b], *s.normalizer)
        assert (len(solved) > 0) == brute, (a, b)
        into += brute
    assert 0 < into < 90


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


def test_semidirect_affine_order():
    g, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    gamma = semidirect_affine(v, g)
    assert gamma.order() == 5 ** 3 * 480


def _unique_abelian_index_p(s) -> bool:
    """Exhaustively check that A is the unique abelian index-p subgroup.

    The index-p subgroups are the kernels of the epimorphisms S -> C_p,
    i.e. the preimages of the hyperplanes of S/[S,S] (exponent p, so the
    Frattini subgroup is [S,S]); S/S' has the coordinates (c at the free
    columns of S', k) of (c, u^k).
    """
    p, n = s.p, s.n
    free = [col for col in range(n) if col not in s.Sprime._pivots]
    count_abelian = 0
    for coeffs in itertools.product(range(p), repeat=len(free) + 1):
        if next((c for c in coeffs if c), 0) != 1:
            continue        # one functional per kernel: first nonzero is 1
        hyper = gfp.kernel_basis(FpMatrix(p, [coeffs])).basis
        lifts = []
        for row in hyper:
            c = np.zeros(n, dtype=np.int64)
            c[free] = row[:-1]
            lifts.append(sg._affine(s.v.p, s.upow[row[-1]], c))
        k = s.subgroup(s.Sprime, *lifts)
        assert k.order() == p ** n      # a kernel of S -> C_p has index p
        count_abelian += k.is_abelian()
    return count_abelian == 1


def test_unique_abelian_index_p(flagship):
    _, _, _, s, rep = flagship
    assert _unique_abelian_index_p(s)
    assert rep.checks["A_unique"]


def test_abelian_index_p_not_unique_at_rank1_commutator():
    """When [S,S] is a line, S is extraspecial-like and the abelian
    index-p subgroup is not unique; build_s reads that from dim Z(S)."""
    nat = FpModule(5, 2, MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                                      FpMatrix(5, [[1, 0], [1, 1]])]))
    s, rep = sg.build_s(nat, class_GG(nat.group).sylow)
    assert s.Sprime.dim == 1
    assert not _unique_abelian_index_p(s)
    assert not rep.checks["A_unique"] and not rep.ok


# every instantiable corpus entry with |S| = p^(n+1) <= p^6, the scale an
# exhaustive scan of S's index-p subgroups reaches
SMALL_ENTRIES = [spec for spec in zoo.table_corpus()
                 if spec.instantiable and spec.tag != "extraspecial_p7"
                 and zoo.build_family(spec)[1].dim + 1 <= 6]


@pytest.mark.parametrize("spec", SMALL_ENTRIES,
                         ids=[f"{spec.tag}-{k}"
                              for k, spec in enumerate(SMALL_ENTRIES)])
def test_a_unique_matches_exhaustive_scan(spec):
    """build_s's A_unique, read from dim Z(S), equals an exhaustive scan
    of S's index-p subgroups: false on extraspecial_p3 and on SL_2(p)'s
    natural module V_2, where [S,S] is a line and S is extraspecial of
    order p^3, and true on every other small corpus entry."""
    v = zoo.build_family(spec)[1]
    s, build = sg.build_s(v, class_GG(v.group).sylow)
    unique = _unique_abelian_index_p(s)
    assert build.checks["A_unique"] == unique
    assert unique == (spec.tag != "extraspecial_p3"
                      and spec.params.get("kind") != ("SL2_Vi", 2))


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


def _bfs(gens):
    """Plain closure of a list of permutations: bytes -> permutation."""
    ident = np.arange(len(gens[0]), dtype=gens[0].dtype)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = f[g]
                if h.tobytes() not in seen:
                    seen[h.tobytes()] = h
                    nxt.append(h)
        frontier = nxt
    return seen


def _greedy_bfs(perms):
    """Plain closure, re-closed from scratch at each new generator."""
    gens = [perms[0]]
    seen = _bfs(gens)
    for h in perms[1:]:
        if h.tobytes() not in seen:
            gens.append(h)
            seen = _bfs(gens)
    return seen


def _keys(perms):
    return {perm.tobytes() for perm in perms}


def _theta_case(request, case):
    """(S, the H_i/B_i, G-vee) of the flagship or of str_closed c."""
    if case == "flagship":
        return (request.getfixturevalue("flagship")[3],
                *request.getfixturevalue("flagship_hb")[2:])
    s, hb, _ = request.getfixturevalue("str_closed_c")
    return s, hb, mu.compute_gvee(s.v.group, s.syl,
                                  mr.canonical_subspaces(s.v, s.syl))


@pytest.mark.parametrize("case, kind, i", [
    pytest.param("flagship", kind, i, id=f"{kind}-{i}")
    for kind, i in (("B", 0), ("H", 0), ("H", 1))] + [
    pytest.param("str_closed_c", "B", 0, id="str_closed_c-B-0")])
def test_perm_layer_matches_dict_bfs(request, case, kind, i):
    """Theta, Theta_0 and O^{p'}(Theta) as one-level chains equal a plain
    dict BFS over whole permutations: the chain orders, and `contains` on
    every BFS element and on image tuples outside the group.  Theta's BFS
    starts from every normalizing element of Gamma, not from the chain's
    generators, and O^{p'}(Theta)'s from every conjugate of Aut_S(P) by an
    element of Theta.  |N_Theta(Aut_S(P))| read from the conjugation orbit
    equals the brute-force normalizer's order and |Lambda_P|, `normalizing`
    picks out that normalizer among Theta's elements, and the Schreier
    generators that check (iii) reads generate the brute-force
    N_{O^{p'}(Theta)}(Aut_S(P))."""
    s, hb, gv = _theta_case(request, case)
    th = sg.theta_witness(s, kind, i, hb, gv)
    assert th.ok
    pset, aut_s, gx = th.pset, th.aut_s, th.pset.gen_idx
    lam_all = pset.conjugation_perms(
        *sg.normalizer_mats(s, pset, *s.normalizer))
    ref_theta = _bfs(list(lam_all) + list(th.theta0.gens))
    ref_theta0 = _bfs(list(th.theta0.gens))
    ref_opp = _greedy_bfs([t[h[np.argsort(t)]] for t in ref_theta.values()
                           for h in aut_s.gens])
    assert set(ref_opp) == set(ref_theta0)
    tuples = np.random.default_rng(0).integers(0, pset.n, (2000, len(gx)))
    # Theta's elements outside Theta_0 (none on H_1, where they are equal)
    outside = np.array([t for k, t in ref_theta.items()
                        if k not in ref_theta0]).reshape(-1, pset.n)[:, gx]
    assert len(outside) == len(ref_theta) - len(ref_theta0)
    opp = pset.normal_closure(pset.chain_of(aut_s), th.theta.gens)
    lam = sg.local_automorphisms(s, pset)[3]
    for chain, ref in ((th.theta, ref_theta), (th.theta0, ref_theta0),
                       (opp, ref_opp)):
        elements = np.array(list(ref.values()))
        assert chain.order() == len(ref)
        assert chain.contains(elements[:, gx]).all()
        inside = np.isin(pset.pack(tuples), pset.codes(elements))
        assert not inside.all()
        assert (chain.contains(tuples) == inside).all()
        assert (chain.contains(outside) == (chain is th.theta)).all()

    ref_aut_s = _bfs(list(aut_s.gens))
    assert _keys(aut_s.stack) == set(ref_aut_s)

    def normalizes(t):
        return all(t[h[np.argsort(t)]].tobytes() in ref_aut_s
                   for h in aut_s.gens)
    ref_norm = [k for k, t in ref_theta.items() if normalizes(t)]
    conjugates = len(pset.conjugation_orbit(th.theta, aut_s).points)
    assert th.theta.order() // conjugates == len(ref_norm) == \
        lam.order() < len(ref_theta)
    # `normalizing`, which check (iv) runs on Lambda_P's generators, picks
    # out the brute-force normalizer; every generator of the subgroup
    # counts, in any order
    elements = np.array(list(ref_theta.values()))
    assert _keys(elements[pset.normalizing(elements, aut_s)]) == \
        set(ref_norm)
    for gens in (aut_s.gens, aut_s.gens[::-1]):
        sub = dataclasses.replace(aut_s, gens=gens)
        assert pset.normalizing(elements, sub).sum() == len(ref_norm)
    schreier = pset.conjugation_orbit(opp, aut_s).schreier_generators()
    assert set(_bfs(list(schreier))) == \
        {k for k, t in ref_opp.items() if normalizes(t)}


def _dict_bfs_hom(pset, gens, images):
    """The permutation of P that the generator images induce, or None: a
    dict BFS with two matrix products per element and generator, checking
    each (element, generator) pair and then the bijection.  The reference
    for `_hom_from_gen_images`, which extends a BFS level at a time."""
    p = pset.group.p.p
    ident = np.eye(pset.group.dim, dtype=np.int64)
    imap = {ident.astype(np.int8).tobytes(): (ident, ident)}
    frontier = [ident.astype(np.int8).tobytes()]
    pairs = [(g.a, img.a) for g, img in zip(gens, images)]
    while frontier:
        nxt = []
        for f in frontier:
            fm, fi = imap[f]
            for g, img in pairs:
                h, hi = fm @ g % p, fi @ img % p
                k = h.astype(np.int8).tobytes()
                if k in imap:
                    if not (imap[k][1] == hi).all():
                        return None
                else:
                    imap[k] = (h, hi)
                    nxt.append(k)
        frontier = nxt
    if len(imap) != pset.n:
        return None
    perm = pset.indices(np.array([imap[k][1] for k in _row_keys(
        pset.elements.reshape(pset.n, -1))]))
    if (perm < 0).any() or len(set(perm.tolist())) != pset.n:
        return None
    return perm.astype(pset.dtype)


BENCH_WITNESSES = [pytest.param(case, kind, id=f"{case}-{kind}")
                   for case, kind in (("flagship", "B"), ("flagship", "H"),
                                      ("str_closed_c", "B"))]


@pytest.mark.parametrize("case, kind", BENCH_WITNESSES)
def test_hom_extension_matches_dict_bfs(request, case, kind):
    """On each P of the benchmark's witnesses, the level-batched extension
    of generator images gives the dict BFS's permutation for both SL_2
    generators.  Three mutants return None from both: P's first generator
    sent to 1, or to the image of P's last generator, and P's first
    generator listed twice, its copy sent to that image.  The last is a
    bijection on the images first reached, so only the check of every
    (element, generator) pair refuses it."""
    s, hb, gv = _theta_case(request, case)
    gen_x = hb[0]["generator"]
    pset = sg.PermGroupOnSet(hb[0][kind], s.Z if kind == "H" else s.Z2,
                             gen_x)
    gens, images, _ = sg.sl2_images(s, kind, gen_x, gv)
    one = FpMatrix.identity(s.v.p, s.n + 1)
    for img in images:
        perm = sg._hom_from_gen_images(pset, gens, img)
        assert perm is not None
        assert (perm == _dict_bfs_hom(pset, gens, img)).all()
        for mutant in ((gens, [one] + img[1:]), (gens, img[-1:] + img[1:]),
                       (gens + gens[:1], img + img[-1:])):
            assert _dict_bfs_hom(pset, *mutant) is None
            assert sg._hom_from_gen_images(pset, *mutant) is None


def _stabilizer_walk(pset, chain, sub):
    """sub's conjugation orbit under chain's group, walked with a
    stabilizer, N(sub)'s chain at g_0, into which the walk sifts its
    Schreier generators: the reference for the orbit-only walk of checks
    (iii) and (iv)."""
    hs = sub.stack

    def targets(points, t, t_inv, gens, gens_inv):
        x = pset.mul(t[:, None], gens)
        x_inv = pset.image(pset.mul(gens_inv, t_inv[:, None]))
        conj = pset.mul(pset.mul(x_inv[..., None, :], hs), x[..., None, :])
        return [np.sort(c).tobytes()
                for c in pset.pack(conj).reshape(-1, len(hs))]
    start = Chain.start(pset, np.sort(pset.codes(hs)).tobytes(),
                        pset._trivial())
    return walk(start, chain.gens, chain.gens_inv, targets)


@pytest.mark.parametrize("case, kind", BENCH_WITNESSES)
def test_orbit_only_walks_match_stabilizer_walks(request, case, kind):
    """Checks (iii) and (iv) walk Aut_S(P)'s conjugation orbit under
    O^{p'}(Theta) and under Theta with no stabilizer: its length equals
    that of the walk that also grows the normalizer's chain, and its
    Schreier generators generate that normalizer."""
    s, hb, gv = _theta_case(request, case)
    th = sg.theta_witness(s, kind, 0, hb, gv)
    pset, aut_s = th.pset, th.aut_s
    for chain in (th.theta,
                  pset.normal_closure(pset.chain_of(aut_s), th.theta.gens)):
        orbit = pset.conjugation_orbit(chain, aut_s)
        ref = _stabilizer_walk(pset, chain, aut_s)
        assert len(orbit.points) == len(ref.points) > 1
        assert pset.chain(orbit.schreier_generators()).order() == \
            ref.stabilizer.order() == chain.order() // len(ref.points)


def test_chains_of_random_generator_triples_match_dict_bfs(flagship,
                                                         flagship_hb):
    """A chain grown from any generators, in any order, has the order of
    their dict BFS: 40 random triples of the normalizing automorphisms and
    Theta_0's generators on the flagship's B_0.  A triple can reach new
    orbit points whose Schreier generators under the earlier generators
    are needed, so this catches a stabilizer that misses them."""
    s, (_, _, hb, gv) = flagship[3], flagship_hb
    th = sg.theta_witness(s, "B", 0, hb, gv)
    pset = th.pset
    perms = np.concatenate([pset.conjugation_perms(
        *sg.normalizer_mats(s, pset, *s.normalizer)), th.theta0.gens])
    rng = np.random.default_rng(1)
    for _ in range(40):
        triple = perms[rng.permutation(len(perms))[:3]]
        assert pset.chain(triple).order() == len(_bfs(list(triple)))


def _assert_listed(group, ref_keys):
    """group lists the elements whose bytes are ref_keys, each row at its
    index and times its inverse the identity."""
    codec = group.codec
    assert {m.tobytes() for m in group.stack} == set(ref_keys)
    assert group.order() == len(group.stack) == len(ref_keys)
    assert [group.index[k] for k in codec.keys(codec.image(group.stack))] \
        == list(range(group.order()))
    prods = codec.mul(codec.load(group.stack), codec.load(group.inverses))
    assert (prods == codec.identity).all()


def test_listed_join_matches_bfs_on_both_codecs(flagship, flagship_hb):
    """`Listed.trivial(codec).join` lists the group that BFS lists, with
    every inverse right: S_5 and SL_2(5) as matrices against
    `MatGroup.cache`, and Theta_0 and Aut_S(P) of the flagship's B_0 as
    permutations against a dict BFS."""
    s5 = MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1])),
                      perm_matrix(5, cycle_perm(5, list(range(5))))])
    sl25 = MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                        FpMatrix(5, [[1, 0], [1, 1]])])
    for g in (s5, sl25):
        listed = Listed.trivial(MatCodec(5, g.dim)).join(
            *_stacks(g.generators))
        _assert_listed(listed, g.cache().keys())
    s, (_, _, hb, gv) = flagship[3], flagship_hb
    th = sg.theta_witness(s, "B", 0, hb, gv)
    for gens in (th.theta0.gens, th.aut_s.gens):
        _assert_listed(th.pset.close(gens), _bfs(list(gens)))


def test_dropping_a_lambda_generator_fails_check_iv(flagship, flagship_hb,
                                                    monkeypatch):
    """Check (iv) compares |Lambda_P| with |Theta| / |Aut_S(P)^Theta|: with
    the last generator of Lambda_P's chain dropped, on the flagship's B_0,
    Lambda_P is a proper subgroup of N_Theta(Aut_S(P)) and (iv) fails
    while every other check holds."""
    s, (_, _, hb, gv) = flagship[3], flagship_hb
    local = sg.local_automorphisms

    def dropped(s, pset):
        inn, aut_s, aut_s_chain, lam = local(s, pset)
        return inn, aut_s, aut_s_chain, pset.chain(lam.gens[:-1])
    th = sg.theta_witness(s, "B", 0, hb, gv)
    lam = local(s, th.pset)[3]
    assert dropped(s, th.pset)[3].order() < lam.order() == 2000
    monkeypatch.setattr(sg, "local_automorphisms", dropped)
    mutant = sg.theta_witness(s, "B", 0, hb, gv)
    assert mutant.theta_order == th.theta_order == 12000
    assert not mutant.checks.pop("normalizer_equals_lambda")
    assert all(mutant.checks.values()) and not mutant.ok


def test_chains_start_at_x_in_every_basis():
    """The permutation chains start at x' = (c, u), whose orbit under
    Theta does not depend on the basis.  In this basis of str_closed c
    (the change of basis that one benchmark seed draws), the first
    translation among B_0's generators lies in an orbit of 2 points, so a
    chain at it would enumerate a stabilizer of 3,000 of Theta's 6,000
    elements; at x' the orbit has 120 points and the stabilizer 50."""
    g, _ = zoo.strongly_closed_example(5, "c")
    rng = np.random.default_rng([963, 1])
    while True:
        t = FpMatrix(5, rng.integers(0, 5, size=(4, 4)))
        if t.is_invertible():
            break
    gt = MatGroup(5, [t @ m @ t.inverse() for m in g.generators])
    v = FpModule(5, 4, gt)
    syl = class_GG(gt).sylow
    s, _ = sg.build_s(v, syl)
    hb = sg.hb_subgroups(s, *sg.choose_x_a(s, gt, syl))
    th = sg.theta_witness(s, "B", 0, hb, mu.compute_gvee(
        gt, syl, mr.canonical_subspaces(v, syl)))
    pset = th.pset
    assert th.ok and th.theta_order == 6000
    assert pset.gen_idx[0] == pset.index[hb[0]["generator"].key()]
    assert (len(th.theta.points), th.theta.stabilizer.order()) == (120, 50)
    translation = walk(Chain.start(pset, int(pset.gen_idx[1]), None),
                       th.theta.gens, th.theta.gens_inv)
    assert len(translation.points) == 2


def test_perm_codes_refused_beyond_int64(flagship):
    """An automorphism's code packs k generator images in base |P|: with
    |P| = 5, 27 generators fit int64 (5^27 < 2^63) and 28 raise
    CapExceeded."""
    _, _, _, s, _ = flagship
    z = s.translation(s.Z.basis[0])
    assert sg.PermGroupOnSet(MatGroup(5, [z] * 27), s.Z, z).n == 5
    with pytest.raises(CapExceeded, match="do not fit int64"):
        sg.PermGroupOnSet(MatGroup(5, [z] * 28), s.Z, z)


def test_perm_cap_counts_what_a_chain_stores(flagship, flagship_hb,
                                             monkeypatch):
    """_PERM_CAP bounds the orbit points and enumerated elements that one
    group keeps: on the flagship's B_0, Theta (order 12,000) keeps 120
    orbit points and a stabilizer of 100 elements, so a cap of 220 admits
    it and 219 refuses it."""
    s, (_, _, hb, gv) = flagship[3], flagship_hb
    th = sg.theta_witness(s, "B", 0, hb, gv)
    assert (len(th.theta.points), th.theta.stabilizer.order()) == (120, 100)
    monkeypatch.setattr(sg, "_PERM_CAP", 220)
    assert sg.theta_witness(s, "B", 0, hb, gv).theta_order == 12000
    monkeypatch.setattr(sg, "_PERM_CAP", 219)
    with pytest.raises(CapExceeded, match="exceeds cap 219"):
        sg.theta_witness(s, "B", 0, hb, gv)
