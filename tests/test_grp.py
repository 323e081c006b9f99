import itertools
import time

import numpy as np
import pytest

from fusionseed import chain, gfp, grp, modrep, mu, zoo
from fusionseed.errors import (CapExceeded, InvariantViolation,
                             SubgroupViolation)
from fusionseed.gfp import FpMatrix
from fusionseed.grp import (MatGroup, class_GG, intermediate_subgroups,
                            o_pprime, product_covers,
                            sylow_normalizer_via_orbit)
from fusionseed.modrep import sym_power_matrix
from fusionseed.zoo import cycle_perm, perm_matrix


def s5_group(p=5):
    return MatGroup(p, [perm_matrix(p, cycle_perm(5, [0, 1])),
                        perm_matrix(p, cycle_perm(5, [0, 1, 2, 3, 4]))])


def a5_group(p=5):
    return MatGroup(p, [perm_matrix(p, cycle_perm(5, [0, 1, 2])),
                        perm_matrix(p, cycle_perm(5, [0, 1, 2, 3, 4]))])


def test_enumerate_trivial_and_sl2():
    triv = MatGroup(5, [FpMatrix.identity(5, 3)])
    assert triv.order() == 1
    sl25 = MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                        FpMatrix(5, [[1, 0], [1, 1]])])
    assert sl25.order() == 120  # p(p^2-1)
    assert s5_group().order() == 120


def test_cap_exceeded(monkeypatch):
    """FUSIONSEED_CAP is read when a group is enumerated, not at import:
    SL_2(7), of order 336, exceeds a cap of 100 and fits one of 336."""
    g = MatGroup(7, [FpMatrix(7, [[1, 1], [0, 1]]),
                     FpMatrix(7, [[1, 0], [1, 1]])])
    monkeypatch.setenv("FUSIONSEED_CAP", "100")
    with pytest.raises(CapExceeded):
        g.order()
    monkeypatch.setenv("FUSIONSEED_CAP", "336")
    assert g.order() == 336


def test_class_gg_sl2_automizer_is_squares():
    # diag(a, a^-1) conjugates the unipotent to its a^2 power, so the
    # automizer of SL_2(p) itself has order (p-1)/2
    sl25 = MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                        FpMatrix(5, [[1, 0], [1, 1]])])
    rep = class_GG(sl25)
    assert rep.status == "in_G_only"
    assert rep.sylow.automizer_order == 2
    assert rep.sylow.normalizer_N.order() == 20
    assert rep.sylow.centralizer_C.order() == 10


def test_class_gg_gl2_full_automizer():
    gl25 = MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                        FpMatrix(5, [[1, 0], [1, 1]]),
                        FpMatrix(5, [[2, 0], [0, 1]])])
    rep = class_GG(gl25)
    assert rep.status == "in_GG"
    assert rep.sylow.automizer_order == 4


def test_class_gg_a5():
    rep = class_GG(a5_group())
    assert rep.status == "in_G_only"
    assert rep.sylow.automizer_order == 2


def test_class_gg_normal_sylow():
    u = perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))
    sigma2 = perm_matrix(5, [0, 2, 4, 1, 3])   # i -> 2i normalizes <u>
    rep = class_GG(MatGroup(5, [u, sigma2]))
    assert rep.status == "not_in_G"
    assert "normal" in rep.reason


def test_class_gg_p_not_dividing():
    g = MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1]))])
    assert class_GG(g).status == "not_in_G"


def test_class_gg_p_not_dividing_large_element_orders():
    """A Singer cycle of GL_3(23), of order 23^3 - 1 = 12,166: every word
    has a large order prime to p, and the search still ends quickly."""
    singer = MatGroup(23, [FpMatrix(23, [[0, 0, 10], [1, 0, 1], [0, 1, 0]])])
    t0 = time.time()
    rep = class_GG(singer)
    assert (rep.status, rep.group_order) == ("not_in_G", 12166)
    assert rep.reason == "p does not divide |G|"
    assert time.time() - t0 < 20


def test_o_pprime_s5_and_sl2():
    s5 = s5_group()
    rep = class_GG(s5)
    a5 = o_pprime(s5, rep.sylow)
    assert a5.order() == 60
    sl25 = MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                        FpMatrix(5, [[1, 0], [1, 1]])])
    assert o_pprime(sl25, class_GG(sl25).sylow).order() == 120


def test_o_pprime_s7():
    p = 7
    s7 = MatGroup(p, [perm_matrix(p, cycle_perm(7, [0, 1])),
                      perm_matrix(p, cycle_perm(7, list(range(7))))])
    assert s7.order() == 5040
    a7 = o_pprime(s7, class_GG(s7).sylow)
    assert a7.order() == 2520
    # normality and p'-quotient
    for gen in s7.generators:
        for h in a7.generators:
            assert a7.contains(gen @ h @ gen.inverse())
    assert (s7.order() // a7.order()) % p != 0


def test_product_covers():
    s5 = s5_group()
    rep = class_GG(s5)
    a5 = o_pprime(s5, rep.sylow)
    transp = MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1]))])
    triv = MatGroup(5, [FpMatrix.identity(5, 5)])
    assert product_covers(s5, s5, triv)
    assert product_covers(s5, a5, transp)
    assert not product_covers(s5, a5, triv)
    # 2I normalizes A5, but A5 x <2I> does not hold the transpositions
    outside = MatGroup(5, [FpMatrix.scalar(5, 5, 2)])
    assert not product_covers(s5, a5, outside)
    # <(1 2)> does not normalize <(0 1)>
    other = MatGroup(5, [perm_matrix(5, cycle_perm(5, [1, 2]))])
    with pytest.raises(SubgroupViolation):
        product_covers(s5, transp, other)


def test_intermediate_subgroups_small():
    s5 = s5_group()
    a5 = a5_group()
    assert [m.order() for m in intermediate_subgroups(a5, a5)] == [60]
    mids = intermediate_subgroups(a5, s5)
    assert sorted(m.order() for m in mids) == [60, 120]
    # a nonabelian quotient: the subgroups of S_3 over the trivial group
    s3 = MatGroup(5, [perm_matrix(5, cycle_perm(3, [0, 1])),
                      perm_matrix(5, cycle_perm(3, [0, 1, 2]))])
    triv = MatGroup(5, [FpMatrix.identity(5, 3)])
    assert [m.order() for m in intermediate_subgroups(triv, s3)] == \
        [1, 2, 2, 2, 3, 6]


def test_intermediate_subgroups_c2xc4():
    e12 = FpMatrix(5, [[1, 1], [0, 1]])
    e21 = FpMatrix(5, [[1, 0], [1, 1]])
    dz = FpMatrix(5, [[2, 0], [0, 1]])
    g0 = MatGroup(5, [sym_power_matrix(e12, 2), sym_power_matrix(e21, 2)])
    gbar = MatGroup(5, [sym_power_matrix(e12, 2), sym_power_matrix(e21, 2),
                        sym_power_matrix(dz, 2),
                        FpMatrix.scalar(5, 3, 2)])
    mids = intermediate_subgroups(g0, gbar)
    assert len(mids) == 8  # subgroup count of C_2 x C_4
    assert sorted(m.order() for m in mids) == [60, 120, 120, 120,
                                               240, 240, 240, 480]


def _conjugates(g, u):
    """The distinct conjugates h u h^-1 over every element h of g."""
    p = g.p.p
    conj = g.elements_stack().astype(np.int64) @ u.a % p @ \
        g.inverses_stack().astype(np.int64) % p
    return [FpMatrix(p, a) for a in np.unique(conj, axis=0)]


def test_orbit_stabilizer_consistency():
    # |G : N| equals the number of Sylow subgroups counted by conjugates
    for g in (s5_group(), MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                                       FpMatrix(5, [[1, 0], [1, 1]])])):
        rep = class_GG(g)
        syl = rep.sylow
        conj = _conjugates(g, syl.u)
        subgroups = set()
        for c in conj:
            subgroups.add(min(c.pow(k).key() for k in range(1, 5)))
        assert len(subgroups) * syl.normalizer_N.order() == g.order()


def gl2_group(p=5):
    return MatGroup(p, [FpMatrix(p, [[1, 1], [0, 1]]),
                        FpMatrix(p, [[1, 0], [1, 1]]),
                        FpMatrix(p, [[2, 0], [0, 1]])])


def scan_normalizer_centralizer(g, u):
    """Key sets of N_G(<u>) and C_G(<u>) by a scan of g's element stack."""
    p = g.p.p
    upows = np.array([u.pow(k).a for k in range(1, p)])
    stack, inverses = g.elements_stack(), g.inverses_stack()
    n_keys, c_keys = set(), set()
    for lo in range(0, len(stack), 4096):
        s = stack[lo:lo + 4096]
        conj = (s.astype(np.int64) @ u.a % p) @ \
            inverses[lo:lo + 4096].astype(np.int64) % p
        hits = (conj[:, None] == upows[None]).all(axis=(2, 3))
        n_keys.update(m.tobytes() for m in s[hits.any(axis=1)])
        c_keys.update(m.tobytes() for m in s[hits[:, 0]])
    return n_keys, c_keys


ENUMERABLE_CORPUS = [(k, spec) for k, spec in enumerate(zoo.table_corpus())
                     if spec.instantiable and spec.tag != "extraspecial_p7"]


@pytest.mark.parametrize("k, spec", ENUMERABLE_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in
                              ENUMERABLE_CORPUS])
def test_class_gg_matches_bfs_and_scan(k, spec, corpus_bfs):
    """class_GG's |G| (from U's orbit), N_G(U) and C_G(U) against BFS
    enumeration and a normalizer/centralizer scan of the enumerated G."""
    g, _ = zoo.build_family(spec)
    rep = class_GG(g)
    assert g._stack is None                 # the orbit route, not BFS
    bfs = corpus_bfs(k)
    assert rep.group_order == g.order() == bfs.order()
    n_keys, c_keys = scan_normalizer_centralizer(bfs, rep.sylow.u)
    assert set(rep.sylow.normalizer_N.keys()) == n_keys
    assert set(rep.sylow.centralizer_C.keys()) == c_keys


@pytest.mark.parametrize("k, spec", ENUMERABLE_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in
                              ENUMERABLE_CORPUS])
def test_o_pprime_chain_matches_bfs(k, spec, corpus_bfs):
    """The chain-backed O^{p'}(G) against its BFS enumeration: the order,
    a sift of every element of G (those outside O^{p'}(G) included), and
    the answers of is_normal_in and product_covers."""
    g, _ = zoo.build_family(spec)
    syl = class_GG(g).sylow
    opp = o_pprime(g, syl)
    assert opp._stack is None and g._stack is None
    bfs_opp = MatGroup(g.p, opp.generators).cache()
    assert opp.order() == bfs_opp.order()

    bfs = corpus_bfs(k)
    stack, inverses = bfs.elements_stack(), bfs.inverses_stack()
    inside = opp.members(stack, inverses)
    keys = bfs_opp.keys()
    assert inside.tolist() == [m.tobytes() in keys for m in stack]
    assert inside.sum() == opp.order() <= g.order()
    # proper, except on the sl2p_mu_law rows: SL_2(p) is perfect
    assert (opp.order() < g.order()) == (spec.tag != "sl2p_mu_law")
    assert g.members(stack, inverses).all()      # G's own chain

    u_chain = grp._table_closure(g, [syl.u],
                                 [g.chain.word_action([0], syl.exponent)])
    u_bfs = MatGroup(g.p, [syl.u])
    for chained, enumerated in ((opp, bfs_opp), (u_chain, u_bfs)):
        assert chained.is_normal_in(g) == enumerated.is_normal_in(g)
    assert opp.is_normal_in(g) and not u_chain.is_normal_in(g)
    assert u_chain._stack is None
    triv = MatGroup(g.p, [FpMatrix.identity(g.p, g.dim)])
    for x in (syl.normalizer_N, syl.centralizer_C, triv):
        assert (product_covers(g, opp, x)
                == product_covers(g, bfs_opp, x))
    # Frattini: G = O^{p'}(G) N_G(U)
    assert product_covers(g, opp, syl.normalizer_N)
    assert opp._stack is None


SMALL_CORPUS = [(k, spec) for k, spec in ENUMERABLE_CORPUS
                if spec.tag in ("sl2p_simple", "str_closed", "sn_deleted",
                                "sn_perm", "gl2_3", "extraspecial_p3")]


def _products(h, x):
    """Key set of every product of an element of h and one of x, both
    enumerated."""
    p, n = h.p.p, h.dim
    prods = (h.elements_stack().astype(np.int64)[:, None]
             @ x.elements_stack().astype(np.int64) % p)
    return {m.tobytes() for m in prods.reshape(-1, n, n).astype(np.int8)}


def _outside(g_keys, p, n):
    """A transvection I + E_ij that is not in the group, or None."""
    for i, j in itertools.permutations(range(n), 2):
        m = np.eye(n, dtype=np.int64)
        m[i, j] = 1
        if FpMatrix(p, m).key() not in g_keys:
            return FpMatrix(p, m)
    return None


@pytest.mark.parametrize("k, spec", SMALL_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in SMALL_CORPUS])
def test_product_covers_against_brute_force(k, spec):
    """product_covers(g, h, x) against |hx| counted over enumerated
    elements, for h in {G, O^{p'}(G)} and x in {N_G(U), C_G(U), 1, G-vee,
    each mu-preimage of check_d}, and false when h or x leaves g."""
    g, v = zoo.build_family(spec)
    syl = class_GG(g).sylow
    opp = o_pprime(g, syl)
    gv = mu.compute_gvee(g, syl, modrep.canonical_subspaces(v, syl))
    image = mu.mu_image(gv)
    pres = [mu.preimage(gv, d) for d in
            (mu.named(g.p, name) for name in ("Delta_-1", "Delta_0"))
            if d <= image]
    triv = MatGroup(g.p, [FpMatrix.identity(g.p, g.dim)])
    bfs = MatGroup(g.p, g.generators).cache()
    g_keys = set(bfs.keys())
    answers = []
    for h, h_bfs in ((g, bfs), (opp, MatGroup(g.p, opp.generators))):
        for x in [syl.normalizer_N, syl.centralizer_C, triv, gv.group] + pres:
            covers = product_covers(g, h, x)
            assert covers == (_products(h_bfs, x) == g_keys)
            answers.append(covers)
    assert True in answers and False in answers
    assert g._stack is None and opp._stack is None
    out = _outside(g_keys, g.p.p, g.dim)
    if out is not None:     # GL_2(3) itself has nothing outside
        assert not product_covers(g, MatGroup(g.p, [out]), triv)
        assert not product_covers(g, g, MatGroup(g.p, [out]))


@pytest.mark.parametrize("k, spec", SMALL_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in SMALL_CORPUS])
def test_o_pprime_from_conjugates_of_u(k, spec, monkeypatch):
    """O^{p'}(G) is generated by conjugates of u, is normal in G, and has
    the BFS order also when the draws first hit conjugates that the
    closure already holds."""
    g, _ = zoo.build_family(spec)
    syl = class_GG(g).sylow
    bfs = MatGroup(g.p, g.generators).cache()
    conj_keys = {c.key() for c in _conjugates(bfs, syl.u)}
    opp = o_pprime(g, syl)
    bfs_opp = MatGroup(g.p, opp.generators).cache()
    assert all(c.key() in conj_keys for c in opp.generators)
    assert bfs_opp.is_normal_in(bfs)

    # draw first an orbit point whose closure with u is proper, if any,
    # then every orbit point that closure holds, then the rest
    chain, size = g.chain, len(g.chain.orbit)

    def conjugate(j):
        t_inv = FpMatrix(g.p, chain.trans_inv[j])
        return t_inv @ syl.u @ t_inv.inverse()

    u_perm = chain.word_action([0], syl.exponent)

    def closure(j):
        conj, perm = grp._conjugate_of_u(g, j, u_perm)
        return grp._table_closure(g, [syl.u, conj], [u_perm, perm])
    closures = {j: closure(j) for j in range(1, min(size, 12))}
    first = min(closures, key=lambda j: len(closures[j].chain.orbit))
    held = [chain.orbit[key] for key in closures[first].chain.orbit]
    order = [first] + [j for j in held if j not in (0, first)]
    order += [j for j in range(1, size) if j not in order]
    monkeypatch.setattr(grp, "_orbit_draws", lambda n: iter(order))
    forced = o_pprime(g, syl)
    assert forced.order() == bfs_opp.order()
    assert forced.generators[1] == conjugate(first)
    later = {chain.orbit[grp.MatCodec(g.p, g.dim, c).base]
             for c in forced.generators[2:]}
    assert not later & set(held)


def test_o_pprime_needs_the_chain_at_u():
    g = s5_group()
    syl = class_GG(g).sylow
    g.chain = None
    with pytest.raises(InvariantViolation, match="orbit chain"):
        o_pprime(g, syl)
    other = class_GG(g).sylow
    g.chain.codec.u = other.u.pow(2)
    with pytest.raises(InvariantViolation, match="orbit chain"):
        o_pprime(g, other)


def test_class_gg_checks_an_enumerated_order(monkeypatch):
    """On an enumerated G, |U^G| |N_G(U)| must equal the counted |G|."""
    u = class_GG(gl2_group()).sylow.u
    g = gl2_group()
    assert g.order() == 480
    # a wrong walk: N = U and 6 orbit points give 30
    monkeypatch.setattr(grp, "sylow_normalizer_via_orbit",
                        lambda *args, **kw: (MatGroup(5, [u]), 6))
    with pytest.raises(InvariantViolation, match="= 30 but"):
        class_GG(g)


def test_batched_keys_match_matrix_powers():
    """The float64 products and the line keys of the orbit route against
    FpMatrix arithmetic, up to the largest supported prime: the key of
    <y^-1 u y> is y^-1 (log u) y scaled to a first nonzero entry of 1, and
    u^k gives the same key for every k < p."""
    rng = np.random.default_rng(5)
    for p in (7, 97):
        x = rng.integers(0, p, (12, 8, 8))
        y = rng.integers(0, p, (12, 8, 8))
        prod = grp._mulmod(x.astype(np.float64), y.astype(np.float64), p)
        assert (prod == x @ y % p).all()
        u = _order_p_element(p, 8, rng)
        ys = [_invertible(p, 8, rng) for _ in range(12)]
        y, y_inv = grp._stacks(ys)
        keys = grp.MatCodec(p, 8, u).locate(y, y_inv)
        assert keys == [_fp_line_key(m.inverse() @ u @ m) for m in ys]
        for k in range(2, p):
            assert grp.MatCodec(p, 8, u.pow(k)).locate(y, y_inv) == keys


def _invertible(p, n, rng):
    """A random invertible n x n FpMatrix."""
    while True:
        m = FpMatrix(p, rng.integers(0, p, (n, n)))
        if m.is_invertible():
            return m


def _order_p_element(p, n, rng):
    """A random conjugate of a unipotent Jordan form of order p: blocks of
    size at most p, the first as large as n allows."""
    j = np.eye(n, dtype=np.int64)
    at, size = 0, min(p, n)
    while at < n:
        j[range(at, at + size - 1), range(at + 1, at + size)] = 1
        at += size
        size = int(rng.integers(1, min(p, n - at) + 1)) if at < n else 0
    x = _invertible(p, n, rng)
    return x.inverse() @ FpMatrix(p, j) @ x


def _fp_log(c):
    """log c = sum over k < p of (-1)^(k+1) (c - 1)^k / k, in FpMatrix
    arithmetic."""
    p = c.p.p
    nil = c - FpMatrix.identity(p, c.rows)
    log = nil * 0
    for k in range(1, p):
        log = log + nil.pow(k) * pow((-1) ** (k + 1) * k, -1, p)
    return log


def _fp_line_key(c):
    """The line key of <c>: int8 bytes of log c over its first nonzero
    entry."""
    log = _fp_log(c).a.ravel()
    first = int(log[np.flatnonzero(log)[0]])
    return (log * pow(first, -1, c.p.p) % c.p.p).astype(np.int8).tobytes()


def _powers_key(x, p):
    """Key of each <x[i]>: the least int8 bytes among x[i], ..., x[i]^(p-1).

    Bytes compare as unsigned, so the least is found entry by entry: a
    power replaces the best so far where it is smaller at the first entry
    in which the two differ.
    """
    k = x.shape[0]
    rows = np.arange(k)
    best = x.astype(np.uint8).reshape(k, -1)
    cur = x
    for _ in range(p - 2):
        cur = grp._mulmod(cur, x, p)
        cand = cur.astype(np.uint8).reshape(k, -1)
        first = (cand != best).argmax(axis=1)
        less = cand[rows, first] < best[rows, first]
        best[less] = cand[less]
    return chain._row_keys(best)


def _line_and_powers_keys(p, u, t, t_inv, gens, gens_inv):
    """Keys of <(t g)^-1 u^j (t g)> for each pair of a row of t and a
    generator g, pairs in the walk's order, and for j = 1, 2 and p - 1: the
    walk's line keys (those of the codec at u^j) and `_powers_key`s."""
    n = gens.shape[-1]
    line, powers = [], []
    for j in (1, 2, p - 1):
        uj = u.pow(j)
        codec = chain.MatCodec(p, n, uj)
        for lo in range(0, len(t), 512):
            tc, tc_inv = t[lo:lo + 512], t_inv[lo:lo + 512]
            line += codec.targets(None, tc, tc_inv, gens, gens_inv)
            x = grp._mulmod(tc[:, None], gens, p).reshape(-1, n, n)
            x_inv = grp._mulmod(gens_inv, tc_inv[:, None], p).reshape(x.shape)
            powers += _powers_key(grp._mulmod(grp._mulmod(
                x_inv, uj.a.astype(np.float64), p), x, p), p)
    return line, powers


def _assert_same_partition(a, b):
    """a[i] == a[j] exactly when b[i] == b[j]."""
    assert len(set(a)) == len(set(b)) == len(set(zip(a, b)))


@pytest.mark.parametrize("k, spec", ENUMERABLE_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in
                              ENUMERABLE_CORPUS])
def test_line_keys_match_powers_keys(k, spec):
    """Over every (point, generator) pair of U's orbit walk, two
    conjugates of u, u^2 or u^-1 get equal line keys exactly when they get
    equal least-power keys; the pairs' line keys at u are the points that
    the walk's action table records."""
    g, _ = zoo.build_family(spec)
    class_GG(g)
    p, walked = g.p.p, g.chain
    t, t_inv = (walked.codec.load(a) for a in (walked.trans,
                                              walked.trans_inv))
    line, powers = _line_and_powers_keys(p, walked.codec.u, t, t_inv,
                                         walked.gens, walked.gens_inv)
    _assert_same_partition(line, powers)
    assert line[:walked.action.size] == [walked.points[j]
                                         for j in walked.action.ravel()]


def test_line_keys_match_powers_keys_on_extraspecial_p7():
    """The same on 2,000 elements of a breadth-first walk of the p = 7
    extraspecial normalizer's generators, whose orbit is not walked."""
    spec = next(s for s in zoo.table_corpus() if s.tag == "extraspecial_p7")
    g, _ = zoo.build_family(spec)
    u = grp.order_p_element(g)[0]
    gens, gens_inv = grp._stacks(g.generators)
    t, t_inv, i = [np.eye(g.dim)], [np.eye(g.dim)], 0
    seen = {t[0].tobytes()}
    while len(t) < 2000:
        for x, x_inv in zip(grp._mulmod(t[i], gens, 7),
                            grp._mulmod(gens_inv, t_inv[i], 7)):
            if x.tobytes() not in seen and len(t) < 2000:
                seen.add(x.tobytes())
                t.append(x)
                t_inv.append(x_inv)
        i += 1
    line, powers = _line_and_powers_keys(7, u, np.array(t), np.array(t_inv),
                                         gens, gens_inv)
    _assert_same_partition(line, powers)
    assert len(set(line)) < len(line) // 3


@pytest.mark.parametrize("p, n", [(3, 2), (3, 8), (5, 5), (5, 8), (7, 8),
                                  (97, 8)])
def test_log_of_an_order_p_element_is_exact(p, n):
    """exp(log u) = u and log(u^k) = k log u for every k < p, p < n
    included, with exp(L) = sum over j < p of L^j / j!."""
    rng = np.random.default_rng(p * n)
    for _ in range(3):
        u = _order_p_element(p, n, rng)
        assert u != FpMatrix.identity(p, n) and u.pow(p) == \
            FpMatrix.identity(p, n)
        log = FpMatrix(p, chain._log(u.a, p).astype(np.int64))
        assert log == _fp_log(u)
        term = total = FpMatrix.identity(p, n)
        for j in range(1, p):
            term = term @ log * pow(j, -1, p)
            total = total + term
        assert total == u
        for k in range(2, p):
            assert (chain._log(u.pow(k).a, p) == log.a * k % p).all()


def test_orbit_bound_is_exact(monkeypatch):
    """S_7 on F_7^7 has 120 Sylow 7-subgroups, each with a normalizer of
    order 42: a cap of 120 admits the orbit, a cap of 119 refuses it."""
    s7 = MatGroup(7, [perm_matrix(7, cycle_perm(7, [0, 1])),
                      perm_matrix(7, cycle_perm(7, list(range(7))))])
    u = class_GG(s7).sylow.u
    monkeypatch.setenv("FUSIONSEED_CAP", "120")
    _, orbit = sylow_normalizer_via_orbit(7, 7, s7.generators, u)
    assert orbit == 120
    monkeypatch.setenv("FUSIONSEED_CAP", "119")
    with pytest.raises(CapExceeded, match="orbit exceeds bound 119"):
        sylow_normalizer_via_orbit(7, 7, s7.generators, u)


def test_class_gg_without_order_p_element_raises(monkeypatch):
    monkeypatch.setattr(grp, "order_p_element", lambda g: None)
    with pytest.raises(InvariantViolation, match="Cauchy"):
        class_GG(s5_group())


def brute_force_class(g):
    """Independent recount: enumerate order-p elements and their subgroups."""
    p = g.p.p
    order = g.order()
    vp = 0
    tmp = order
    while tmp % p == 0:
        vp += 1
        tmp //= p
    if vp != 1:
        return {"status": "not_in_G"}
    stack = g.elements_stack()
    ident = FpMatrix.identity(g.p, g.dim)
    order_p = []
    for i in range(stack.shape[0]):
        m = FpMatrix(g.p, stack[i])
        if m != ident and m.pow(p) == ident:
            order_p.append(m)
    subgroups = {}
    for m in order_p:
        key = min(m.pow(k).key() for k in range(1, p))
        subgroups.setdefault(key, m)
    u = next(iter(subgroups.values()))
    n_count = 0
    c_count = 0
    upow = {u.pow(k).key() for k in range(1, p)}
    for i in range(stack.shape[0]):
        m = FpMatrix(g.p, stack[i])
        if (m @ u @ m.inverse()).key() in upow:
            n_count += 1
            if (m @ u) == (u @ m):
                c_count += 1
    if len(subgroups) == 1:
        return {"status": "not_in_G"}
    autom = n_count // c_count
    return {"status": "in_GG" if autom == p - 1 else "in_G_only",
            "automizer": autom, "n": n_count, "n_subgroups": len(subgroups)}


def test_class_gg_against_brute_force():
    cases = [s5_group(), a5_group(),
             MatGroup(5, [FpMatrix(5, [[1, 1], [0, 1]]),
                          FpMatrix(5, [[1, 0], [1, 1]])])]
    for g in cases:
        fast = class_GG(g)
        brute = brute_force_class(g)
        assert fast.status == brute["status"]
        if fast.sylow:
            assert fast.sylow.automizer_order == brute["automizer"]
            assert fast.sylow.normalizer_N.order() == brute["n"]


def test_index_too_large():
    from fusionseed.errors import IndexTooLarge
    big = MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1])),
                       perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))])
    triv = MatGroup(5, [FpMatrix.identity(5, 5)])
    with pytest.raises((IndexTooLarge, SubgroupViolation)):
        intermediate_subgroups(triv, big)


def _reference_chain(g, gens, u):
    """U's orbit under <gens> by a plain walk, each point keyed by the line
    through its logarithm, and N(U) enumerated by BFS on the distinct
    Schreier generators: no table, no `chain.walk` and no coset growth."""
    p, n = g.p.p, g.dim
    h, h_inv = grp._stacks(gens)
    codec = chain.MatCodec(p, n, u)
    orbit = {codec.base: 0}
    trans, trans_inv = [np.eye(n)], [np.eye(n)]
    schreier = {}
    for t, t_inv in zip(trans, trans_inv):
        th, th_inv = grp._mulmod(t, h, p), grp._mulmod(h_inv, t_inv, p)
        points = chain._line_keys(
            grp._mulmod(grp._mulmod(th_inv, codec.log, p), th, p), codec.recip)
        for q, point in enumerate(points):
            if point not in orbit:
                orbit[point] = len(trans)
                trans.append(th[q])
                trans_inv.append(th_inv[q])
            else:
                s = FpMatrix(p, grp._mulmod(th[q], trans_inv[orbit[point]],
                                            p))
                schreier[s.key()] = s
    stab = MatGroup(g.p, list(schreier.values())
                    or [FpMatrix.identity(g.p, n)]).cache()
    return chain.Chain(codec, None, None, orbit,
                       list(orbit), None, np.array(trans_inv, dtype=np.int8),
                       stab, None, None)


def _key_walk_o_pprime(g, syl):
    """o_pprime's generators, and the chain of each closure on the way,
    each closure walked afresh by keys."""
    chain = g.chain
    size = len(chain.orbit)
    gens = [syl.u]
    subs = [_reference_chain(g, gens, syl.u)]
    for j in grp._orbit_draws(size):
        if len(subs[-1].orbit) == size:
            break
        t_inv = FpMatrix(g.p, chain.trans_inv[j])
        conj = t_inv @ syl.u @ t_inv.inverse()
        if not subs[-1].members(conj.a[None], conj.inverse().a[None])[0]:
            gens.append(conj)
            subs.append(_reference_chain(g, gens, syl.u))
    return gens, subs


@pytest.mark.parametrize("k, spec", ENUMERABLE_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in
                              ENUMERABLE_CORPUS])
def test_table_closures_match_key_walks(k, spec, monkeypatch, corpus_bfs):
    """Every closure that o_pprime walks on G's orbit table against a walk
    that keys each of its points: the same orbit and stabilizer key sets,
    and the same sift answers on every element of G; and o_pprime's
    generators against those of the closures walked by keys."""
    g, _ = zoo.build_family(spec)
    syl = class_GG(g).sylow
    closures = []
    real = grp._table_closure

    def recorded(*args):
        closures.append(real(*args))
        return closures[-1]
    monkeypatch.setattr(grp, "_table_closure", recorded)
    opp = o_pprime(g, syl)
    gens, refs = _key_walk_o_pprime(g, syl)
    assert closures[-1] is opp and opp.generators == gens
    assert len(closures) == len(refs)

    bfs = corpus_bfs(k)
    stack, inverses = bfs.elements_stack(), bfs.inverses_stack()
    for sub, ref in zip(closures, refs):
        assert set(sub.chain.orbit) == set(ref.orbit)
        assert set(sub.chain.stabilizer.index) == set(ref.stabilizer.keys())
        inside = sub.members(stack, inverses)
        assert inside.tolist() == ref.members(stack, inverses).tolist()
        assert inside.sum() == sub.order()
    assert closures[0].order() == g.p.p < len(stack)


def test_o_pprime_keys_only_its_draws(monkeypatch):
    """On the an_deleted group (|U^G| = 4,320) the only line keys that
    o_pprime computes are one per conjugate it sifts; walking each closure
    by keys made 12,982."""
    spec = next(s for s in zoo.table_corpus() if s.tag == "an_deleted")
    g, _ = zoo.build_family(spec)
    syl = class_GG(g).sylow
    rows, sifted = [], []
    real_keys, real_conj = chain._line_keys, grp._conjugate_of_u
    monkeypatch.setattr(chain, "_line_keys",
                        lambda x, recip: rows.append(len(x))
                        or real_keys(x, recip))
    monkeypatch.setattr(grp, "_conjugate_of_u",
                        lambda *a: sifted.append(1) or real_conj(*a))
    opp = o_pprime(g, syl)
    assert len(g.chain.orbit) == 4320 and opp.order() == 181440
    assert sifted and rows == [1] * len(sifted)


def _grown(p, n, gens):
    """<gens> grown by cosets, one generator at a time."""
    return MatGroup.of(chain.Listed.trivial(chain.MatCodec(p, n)).join(
        *grp._stacks(gens)))


def _assert_enumerated(group, bfs):
    """group's stack, inverses and keys against BFS enumeration."""
    p, n = group.p.p, group.dim
    stack, inverses = group.elements_stack(), group.inverses_stack()
    assert set(group.keys()) == set(bfs.keys())
    assert len(stack) == len(group.keys()) == bfs.order()
    assert [group.keys()[m.tobytes()] for m in stack] == \
        list(range(len(stack)))
    prods = stack.astype(np.int64) @ inverses.astype(np.int64) % p
    assert (prods == np.eye(n, dtype=np.int64)).all()


@pytest.mark.parametrize("k, spec", SMALL_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in SMALL_CORPUS])
def test_coset_growth_matches_bfs(k, spec, monkeypatch):
    """N_G(U), grown by cosets in U's orbit walk, and the groups that
    random subsets and products of G's generators generate, grown by
    cosets, against BFS enumeration of the same generators."""
    g, _ = zoo.build_family(spec)
    syl = class_GG(g).sylow
    n_grp = syl.normalizer_N
    _assert_enumerated(n_grp, MatGroup(g.p, n_grp.generators).cache())
    rng = np.random.default_rng(k)
    gens = g.generators
    pool = gens + [a @ b for a in gens for b in gens] + [syl.u]
    monkeypatch.setenv("FUSIONSEED_CAP", "20000")
    for _ in range(4):
        pick = [pool[i] for i in
                rng.choice(len(pool), size=rng.integers(1, 4), replace=False)]
        try:
            bfs = MatGroup(g.p, pick).cache()
        except CapExceeded:
            continue
        grown = _grown(g.p, g.dim, pick)
        _assert_enumerated(grown, bfs)
        assert {m.key() for m in grown.generators} <= {m.key() for m in pick}


@pytest.mark.parametrize("k, spec", SMALL_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in SMALL_CORPUS])
def test_subset_groups_have_small_generating_sets(k, spec):
    """C_G(U), G-vee and its mu-preimages keep their elements in the
    parent's index order but take as generators only the elements that the
    closure of the earlier ones lacks, which generate the same group."""
    g, v = zoo.build_family(spec)
    syl = class_GG(g).sylow
    gv = mu.compute_gvee(g, syl, modrep.canonical_subspaces(v, syl))
    image = mu.mu_image(gv)
    groups = [syl.centralizer_C, gv.group] + [
        mu.preimage(gv, d) for d in
        (mu.named(g.p, name) for name in ("Delta_-1", "Delta_0"))
        if d <= image]
    for sub in groups:
        order = sub.order()
        assert len(sub.generators) <= max(1, order.bit_length() - 1)
        _assert_enumerated(sub, MatGroup(g.p, sub.generators).cache())
    parent = syl.normalizer_N
    stack = parent.elements_stack()
    members = [i for i in range(len(stack))
               if stack[i].tobytes() in gv.group.keys()]
    assert (gv.group.elements_stack() == stack[members]).all()


def test_subset_group_refuses_a_subset_that_is_not_closed():
    g = s5_group().cache()
    with pytest.raises(SubgroupViolation, match="not a subgroup"):
        g.subset_group([0, 2])      # 1 and a 5-cycle
    with pytest.raises(SubgroupViolation, match="not a subgroup"):
        g.subset_group([1, 2, 3])   # no identity


@pytest.mark.parametrize("k, spec", SMALL_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in SMALL_CORPUS])
def test_orbit_chain_inverts_each_generator_at_most_once(k, spec,
                                                         monkeypatch):
    """U's orbit walk row-reduces each generator of G at most once (for
    its inverse) and the random word w never; the subproduct, Schreier
    generators and stabilizer elements carry inverses made from those
    already held."""
    g, _ = zoo.build_family(spec)
    u, w, e = grp.order_p_element(g)
    fresh = [FpMatrix(g.p, h.a) for h in g.generators]
    calls = []
    real = gfp._rref_array
    monkeypatch.setattr(gfp, "_rref_array",
                        lambda *a: calls.append(1) or real(*a))
    chain = grp._orbit_chain(g.p, g.dim, fresh, u, w)
    assert chain.order() == g.order()
    assert len(calls) <= len(fresh)
    # the chain's own generators: w first, then the subproduct and
    # generators of G, each inverse a product of inverses already held
    assert (chain.gens[0] == w.a).all() and w.pow(e) == u
    for x, x_inv in zip(chain.gens, chain.gens_inv):
        assert (grp._mulmod(x, x_inv, g.p.p) == np.eye(g.dim)).all()


FALLBACK_CORPUS = [(k, spec) for k, spec in ENUMERABLE_CORPUS
                   if spec.tag in ("str_closed", "sn_deleted", "monomial",
                                   "extraspecial_p5")]


@pytest.mark.parametrize("k, spec", FALLBACK_CORPUS,
                         ids=[f"{k}-{spec.tag}" for k, spec in
                              FALLBACK_CORPUS])
def test_orbit_walk_sifts_in_the_given_generators(k, spec, monkeypatch,
                                                  corpus_bfs):
    """With the random subproduct forced to the identity, U's orbit walk
    starts from <w> alone, a proper subgroup of G; the given generators
    that do not sift into the chain's group join it, so |G|, N_G(U) and
    C_G(U) still equal those of BFS and a scan."""
    monkeypatch.setattr(grp, "_subproduct",
                        lambda codec, gens, gens_inv: np.eye(codec.n)[None]
                        .repeat(2, axis=0))
    g, _ = zoo.build_family(spec)
    rep = class_GG(g)
    given = {h.key() for h in g.generators}
    assert len(g.chain.gens) > 1
    assert all(FpMatrix(g.p, x).key() in given for x in g.chain.gens[1:])
    bfs = corpus_bfs(k)
    assert rep.group_order == g.order() == bfs.order()
    n_keys, c_keys = scan_normalizer_centralizer(bfs, rep.sylow.u)
    assert set(rep.sylow.normalizer_N.keys()) == n_keys
    assert set(rep.sylow.centralizer_C.keys()) == c_keys


def test_orbit_walk_on_extraspecial_p7_keeps_few_generators():
    """The p = 7 extraspecial normalizer has 15 given generators; the chain
    of U's orbit ends with at most 4, and gives |G| = 15,482,880 and
    |N_G(U)| = 252."""
    spec = next(s for s in zoo.table_corpus() if s.tag == "extraspecial_p7")
    g, _ = zoo.build_family(spec)
    rep = class_GG(g)
    assert len(g.generators) == 15 and len(g.chain.gens) <= 4
    assert rep.group_order == g.order() == 15482880
    assert rep.sylow.normalizer_N.order() == 252
    assert g._stack is None
