import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionseed import cli, criterion as cr, gfp, grp, modrep as mr, mu, zoo
from fusionseed.criterion import E0, e0_menu
from fusionseed.gfp import FpMatrix, Subspace
from fusionseed.grp import MatGroup, class_GG, o_pprime
from fusionseed.modrep import FpModule
from fusionseed.zoo import cycle_perm, perm_matrix


def example_a_instance(p=5):
    """G = O^{p'}(Gamma) . mu^-1(Delta_-1) inside Gamma = S_p x scalars,
    acting on the full permutation module."""
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
    return FpModule(p, p, g), gamma


def example_c_instance(p=5):
    """Same ambient group on the quotient module V = F_p^p / constants,
    with G = O^{p'}(Gamma) . mu^-1(Delta_0)."""
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


def test_check_a_examples():
    v, _ = example_a_instance()
    gg = class_GG(v.group)
    cs = mr.canonical_subspaces(v, gg.sylow)
    assert cr.check_a(cs)
    # V2 + V2: dim Z0 = 2
    e12, e21 = FpMatrix(5, [[1, 1], [0, 1]]), FpMatrix(5, [[1, 0], [1, 1]])
    g22 = MatGroup(5, [FpMatrix(5, np.block(
        [[m.a, np.zeros((2, 2), int)], [np.zeros((2, 2), int), m.a]]))
        for m in (e12, e21)])
    v22 = FpModule(5, 4, g22)
    cs22 = mr.canonical_subspaces(v22, class_GG(g22).sylow)
    assert not cr.check_a(cs22)
    assert cs22.Z0.dim == 2


def test_check_b():
    # S5 x scalars on F5^5: Q_max = Z = Z0, passes
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4])),
            FpMatrix.scalar(5, 5, 2)]
    v = FpModule(5, 5, MatGroup(5, gens))
    cs = mr.canonical_subspaces(v, class_GG(v.group).sylow)
    ok, qmax = cr.check_b(v, cs)
    assert ok and qmax == cs.Z0
    # A5 on (zero-sum) + trivial line: invariant line outside Z0 -> fail
    a5 = MatGroup(5, [perm_matrix(5, cycle_perm(5, [0, 1, 2])),
                      perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))])
    big = FpModule(5, 5, a5)
    zs = gfp.kernel_basis(FpMatrix(5, np.ones((1, 5), dtype=np.int64)))
    w, _ = mr.submodule(big, zs)      # dim 4 zero-sum: socle is the constants
    gens4 = [FpMatrix(5, np.block(
        [[m.a, np.zeros((4, 1), int)], [np.zeros((1, 4), int), np.eye(1, dtype=int)]]))
        for m in w.gens()]
    v5 = FpModule(5, 5, MatGroup(5, gens4))
    cs5 = mr.canonical_subspaces(v5, class_GG(v5.group).sylow)
    ok5, qmax5 = cr.check_b(v5, cs5)
    assert not ok5 and qmax5.dim >= 1 and qmax5 != cs5.Z0


def test_check_b_against_exhaustive_invariant_search():
    # exhaustive invariant-subspace search inside Z agrees with Q_max
    cases = []
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4])),
            FpMatrix.scalar(5, 5, 2)]
    cases.append(FpModule(5, 5, MatGroup(5, gens)))
    g, v = zoo.symmetric(7, 9, "deleted", "S", 1)
    cases.append(v)
    for v in cases:
        gg = class_GG(v.group)
        cs = mr.canonical_subspaces(v, gg.sylow)
        _, qmax = cr.check_b(v, cs)
        assert cs.Z.dim <= 3
        best = 0
        best_space = None
        from itertools import product as iproduct
        p = v.p.p
        # enumerate all subspaces of Z by spans of subsets of vectors
        vecs = [np.array(c, dtype=np.int64) @ cs.Z.basis % p
                for c in iproduct(range(p), repeat=cs.Z.dim)]
        vecs = [w for w in vecs if w.any()]
        import itertools as it
        spaces = {Subspace.zero(v.p, v.dim).key(): Subspace.zero(v.p, v.dim)}
        for r in range(1, cs.Z.dim + 1):
            for combo in it.combinations(vecs, r):
                s = Subspace(v.p, v.dim, np.array(combo))
                spaces[s.key()] = s
        invariant = [s for s in spaces.values()
                     if all(gfp.image_of_subspace(g, s) == s
                            for g in v.gens())]
        max_inv = max(invariant, key=lambda s: s.dim)
        assert max_inv == qmax


def test_check_c():
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]
    v = FpModule(5, 5, MatGroup(5, gens))
    ok, w = cr.check_c(v)
    assert not ok and w.dim == 4
    v_sc = FpModule(5, 5, MatGroup(5, gens + [FpMatrix.scalar(5, 5, 2)]))
    ok2, w2 = cr.check_c(v_sc)
    assert ok2 and w2.dim == 5


def test_example_a_full_pipeline():
    v, _ = example_a_instance(5)
    assert v.group.order() == 240
    rep = cr.evaluate(v)
    assert rep.passes
    assert rep.cases == ["d2"]
    assert [e.tag() for e in rep.e0_menu] == ["H{0}"]
    assert rep.strongly_closed == [{"e0": "H{0}", "subgroup": "A0.H_0"}]
    assert rep.exotic[0]["verdict"] == "exotic"
    assert not rep.sigma_ok and rep.m == 5


def test_example_c_full_pipeline():
    v = example_c_instance(5)
    rep = cr.evaluate(v)
    assert rep.passes
    assert "d3" in rep.cases
    tags = [e.tag() for e in rep.e0_menu]
    # m = p - 1 = 0 mod (p-1) and sigma_ok: all nonempty I occur
    assert "B{0,1}" in tags and "B{0,1,2,3,4}" in tags
    # single classes carry the strongly closed subgroup, larger I never do
    single = [sc for sc in rep.strongly_closed if sc["e0"] == "B{0}"]
    assert single == [{"e0": "B{0}", "subgroup": "A0.B_0"}]
    multi = [sc for sc in rep.strongly_closed
             if sc["e0"].startswith("B{") and "," in sc["e0"]]
    assert multi == []


def test_s7_deleted_d2_full_menu():
    g, v = zoo.symmetric(7, 7, "deleted", "S", 1)
    rep = cr.evaluate(v)
    assert rep.passes and rep.cases == ["d2"]
    assert rep.m == 5 and rep.m % 6 == 5   # = -1 mod p-1
    assert rep.sigma_ok
    assert rep.e0_count == 2 ** 7 - 1


def test_failing_check_a_gives_no_cases():
    e12, e21 = FpMatrix(5, [[1, 1], [0, 1]]), FpMatrix(5, [[1, 0], [1, 1]])
    g22 = MatGroup(5, [FpMatrix(5, np.block(
        [[m.a, np.zeros((2, 2), int)], [np.zeros((2, 2), int), m.a]]))
        for m in (e12, e21)])
    rep = cr.evaluate(FpModule(5, 4, g22))
    assert not rep.passes and rep.cases == []
    assert "skipped" in rep.cond_d


def test_e0_menu_combinatorics():
    menu, count = e0_menu(["d2"], m=3, sigma_ok=True, p=5)
    assert count == 31
    menu, count = e0_menu(["d2"], m=5, sigma_ok=False, p=5)
    assert [e.tag() for e in menu] == ["H{0}"]
    # the projective case at p = 7 with only d3: a single B0
    menu, count = e0_menu(["d3"], m=7, sigma_ok=False, p=7)
    assert [e.tag() for e in menu] == ["B{0}"]
    menu, count = e0_menu(["d1"], m=4, sigma_ok=True, p=5)
    assert [e.tag() for e in menu] == ["H0+B*"]
    menu, count = e0_menu(["d1"], m=3, sigma_ok=True, p=5)
    assert [e.tag() for e in menu] == ["B0+H*"]


def test_strongly_closed_rules():
    v, _ = example_a_instance(5)
    gg = class_GG(v.group)
    cs = mr.canonical_subspaces(v, gg.sylow)
    assert cr.strongly_closed(v, cs, [E0("H", frozenset([0]))]) == \
        [{"e0": "H{0}", "subgroup": "A0.H_0"}]
    assert cr.strongly_closed(v, cs, [E0("H0+B*")]) == []
    assert cr.strongly_closed(v, cs, [E0("B", frozenset([0, 2]))]) == []


def test_exotic_lookup_rows():
    hit = cr.exotic_lookup(5, 3, 3, E0("B", frozenset([0])), 240)
    assert hit["verdict"] == "realizable" and hit["realized_by"] == "Sp_4(p)"
    full = E0("H", frozenset(range(7)))
    hit7 = cr.exotic_lookup(7, 5, 5, full, 5040)
    assert hit7["realized_by"].startswith("PSL_p(q)")
    miss = cr.exotic_lookup(5, 5, 5, E0("H", frozenset([0])), 240)
    assert miss["verdict"] == "exotic"


def test_enumerate_admissible_v4():
    e12, e21 = FpMatrix(5, [[1, 1], [0, 1]]), FpMatrix(5, [[1, 0], [1, 1]])
    dz = FpMatrix(5, [[2, 0], [0, 1]])
    g0 = MatGroup(5, [mr.sym_power_matrix(e12, 3), mr.sym_power_matrix(e21, 3)])
    gbar = MatGroup(5, g0.generators + [mr.sym_power_matrix(dz, 3)])
    v = FpModule(5, 4, gbar)
    passers = cr.enumerate_admissible(g0, gbar, v)
    assert [grp.order() for grp, _ in passers] == [480]
    rep = passers[0][1]
    assert rep.cases == ["d1", "d2", "d3"]
    tags = [e.tag() for e in rep.e0_menu]
    assert "H0+B*" in tags and "H{0}" in tags and "B{0}" in tags
    assert rep.e0_count == 33
    assert all(x["verdict"] == "exotic" for x in rep.exotic)


def test_report_deterministic_json(tmp_path):
    v, _ = example_a_instance(5)
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        cli._write(cr.evaluate(v).to_dict(), str(path))
    r1, r2 = (path.read_bytes() for path in paths)
    assert r1 == r2
    parsed = json.loads(r1)
    assert parsed["engine_version"] == cr.ENGINE_VERSION


def test_passing_count_matches_menu():
    v, _ = example_a_instance(5)
    rep = cr.evaluate(v)
    assert rep.e0_count == len(rep.e0_menu)
    assert len(rep.exotic) == len(rep.e0_menu)


def test_enumerate_admissible_empty_when_all_fail():
    # permutation matrices alone never satisfy [G, V] = V on F_p^p
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]
    a5gens = [perm_matrix(5, cycle_perm(5, [0, 1, 2])),
              perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]
    gbar = MatGroup(5, gens)
    g0 = MatGroup(5, a5gens)
    assert cr.enumerate_admissible(g0, gbar, FpModule(5, 5, gbar)) == []


def test_index_too_large_guard():
    from fusionseed.errors import IndexTooLarge
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]
    gbar = MatGroup(5, gens)
    triv = MatGroup(5, [FpMatrix.identity(5, 5)])
    with pytest.raises(IndexTooLarge):
        cr.enumerate_admissible(triv, gbar, FpModule(5, 5, gbar))


def test_evaluate_computes_o_pprime_once(monkeypatch):
    """The indecomposability test of a passing instance reuses the
    O^{p'}(G) that condition (d) computed."""
    calls = []

    def counted(*args, _fn=grp.o_pprime):
        calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(grp, "o_pprime", counted)
    monkeypatch.setattr(cr, "o_pprime", counted)
    _, v = zoo.symmetric(5, 5, "deleted", "S", 4)
    rep = cr.evaluate(v)
    assert rep.passes and rep.indecomposable
    assert len(calls) == 1


def _per_generator_check_b(v, cs):
    """check_b as one preimage and one intersection per generator: the
    reference for the stacked kernel."""
    q = cs.Z
    while True:
        nxt = q
        for g in v.gens():
            nxt = gfp.intersect(nxt, gfp.preimage_of_subspace(g, q))
        if nxt.dim == q.dim:
            return (q.is_zero() or q == cs.Z0), q
        q = nxt


@st.composite
def modules_and_subspaces(draw):
    """(module, subspace): 1-4 invertible generators over F_p, p in {3, 5,
    7}, all or some of them T B T^-1 with B block upper triangular, so
    that they keep the span of T's first k columns (0 < k < n), the others
    drawn at random; and a subspace that is that span, that span with up
    to two random vectors added (so that an invariant subspace can lie
    strictly inside it), or a random one."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))

    def entries(rows, cols):
        return np.array(draw(st.lists(st.integers(0, p - 1),
                                      min_size=rows * cols,
                                      max_size=rows * cols)),
                        dtype=np.int64).reshape(rows, cols)

    def invertible(size):
        m = entries(size, size)
        assume(FpMatrix(p, m).is_invertible())
        return m
    t = FpMatrix(p, invertible(n))
    keep = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if keep or draw(st.booleans()):
            block = np.zeros((n, n), dtype=np.int64)
            block[:k, :k] = invertible(k)
            block[k:, k:] = invertible(n - k)
            block[:k, k:] = entries(k, n - k)
            gens.append(t @ FpMatrix(p, block) @ t.inverse())
        else:
            gens.append(FpMatrix(p, invertible(n)))
    if draw(st.booleans()):
        space = Subspace(p, n, np.concatenate(
            [t.a[:, :k].T, entries(draw(st.integers(0, 2)), n)]))
    else:
        space = Subspace(p, n, entries(draw(st.integers(0, n)), n))
    return FpModule(p, n, MatGroup(p, gens)), space


@settings(max_examples=150, deadline=None, derandomize=True)
@given(modules_and_subspaces(), st.data())
def test_stacked_subspace_tests_match_per_generator_ones(case, data):
    """_subspace_invariant tests ann(S) g basis(S)^T = 0 for all generators
    at once, and check_b takes Q meet (meet of g^-1 Q) as one kernel of
    stacked rows: on random generator sets and subspaces over F_3, F_5 and
    F_7 both agree with one image_of_subspace or preimage_of_subspace per
    generator."""
    v, space = case
    assert cr._subspace_invariant(v, space) == all(
        gfp.image_of_subspace(g, space) == space for g in v.gens())
    z0 = Subspace(v.p, v.dim, space.basis[:data.draw(
        st.integers(0, space.dim))])
    cs = mr.CanonicalSubspaces(space, space, z0, space, 0)
    ok, q = cr.check_b(v, cs)
    assert (ok, q) == _per_generator_check_b(v, cs)
