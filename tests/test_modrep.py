import numpy as np
import pytest

from fusionseed import gfp, modrep as mr
from fusionseed.errors import (InvalidParams, NotUnipotentOfOrderP,
                               SubgroupViolation)
from fusionseed.gfp import FpMatrix, Subspace
from fusionseed.grp import MatGroup, class_GG, o_pprime
from fusionseed.modrep import FpModule
from fusionseed.zoo import cycle_perm, perm_matrix


def s5_module(scalars=False):
    gens = [perm_matrix(5, cycle_perm(5, [0, 1])),
            perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]
    if scalars:
        gens.append(FpMatrix.scalar(5, 5, 2))
    return FpModule(5, 5, MatGroup(5, gens))


def a5_module():
    return FpModule(5, 5, MatGroup(5, [
        perm_matrix(5, cycle_perm(5, [0, 1, 2])),
        perm_matrix(5, cycle_perm(5, [0, 1, 2, 3, 4]))]))


def sl2_natural(p=5):
    return FpModule(p, 2, MatGroup(p, [FpMatrix(p, [[1, 1], [0, 1]]),
                                       FpMatrix(p, [[1, 0], [1, 1]])]))


def blockdiag(p, a, b):
    n1, n2 = a.rows, b.rows
    out = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)
    out[:n1, :n1] = a.a
    out[n1:, n1:] = b.a
    return FpMatrix(p, out)


def test_jordan_profile_examples():
    v = FpModule(5, 4, MatGroup(5, [FpMatrix.identity(5, 4)]))
    assert mr.jordan_profile(v, FpMatrix.identity(5, 4)) == [1, 1, 1, 1]
    pm = s5_module()
    rep = class_GG(pm.group)
    assert mr.jordan_profile(pm, rep.sylow.u) == [5]
    sym3 = mr.sym_power(sl2_natural(), 3)
    rep3 = class_GG(sym3.group)
    assert mr.jordan_profile(sym3, rep3.sylow.u) == [4]
    with pytest.raises(NotUnipotentOfOrderP):
        mr.jordan_profile(pm, FpMatrix.scalar(5, 5, 2))


def test_jordan_profile_conjugation_invariant():
    pm = s5_module()
    rep = class_GG(pm.group)
    u = rep.sylow.u
    base = mr.jordan_profile(pm, u)
    rng = np.random.default_rng(0)
    stack = pm.group.elements_stack()
    for _ in range(10):
        g = FpMatrix(5, stack[int(rng.integers(stack.shape[0]))])
        assert mr.jordan_profile(pm, g @ u @ g.inverse()) == base


def test_minimally_active():
    pm = s5_module()
    rep = class_GG(pm.group)
    assert mr.is_minimally_active(pm, rep.sylow)
    # deleted permutation module of S5 (zero-sum, dim 4)
    zs = gfp.kernel_basis(FpMatrix(5, np.ones((1, 5), dtype=np.int64)))
    sub, _ = mr.submodule(pm, zs)
    rep_sub = class_GG(sub.group)
    assert mr.is_minimally_active(sub, rep_sub.sylow)
    assert mr.jordan_profile(sub, rep_sub.sylow.u) == [4]
    # V2 + V2 is not
    nat = sl2_natural()
    g = MatGroup(5, [blockdiag(5, a, a) for a in nat.gens()])
    v22 = FpModule(5, 4, g)
    rep22 = class_GG(g)
    assert not mr.is_minimally_active(v22, rep22.sylow)


def test_canonical_subspaces():
    pm = s5_module()
    rep = class_GG(pm.group)
    cs = mr.canonical_subspaces(pm, rep.sylow)
    assert cs.Z.basis.tolist() == [[1, 1, 1, 1, 1]]
    assert cs.UV.dim == 4 and cs.Z0 == cs.Z and cs.m == 5
    sym2 = mr.sym_power(sl2_natural(), 2)
    cs2 = mr.canonical_subspaces(sym2, class_GG(sym2.group).sylow)
    assert cs2.Z.dim == 1 and cs2.Z0 == cs2.Z and cs2.m == 3
    triv = FpModule(5, 3, MatGroup(5, [FpMatrix.identity(5, 3)]))
    syl_fake = class_GG(s5_module().group).sylow
    # trivial module: build directly with u = identity surrogate
    one = FpMatrix.identity(5, 3)
    Z = gfp.kernel_basis(one - one)
    assert Z.dim == 3


def test_fixed_and_commutator():
    pm = s5_module()
    triv = MatGroup(5, [FpMatrix.identity(5, 5)])
    assert mr.fixed_space(pm, triv).dim == 5
    assert mr.commutator_space(pm, triv).dim == 0
    assert mr.fixed_space(pm, pm.group).basis.tolist() == [[1, 1, 1, 1, 1]]
    assert mr.commutator_space(pm, pm.group).dim == 4
    pm_sc = s5_module(scalars=True)
    assert mr.commutator_space(pm_sc, pm_sc.group).dim == 5


def test_is_indecomposable():
    # deleted A5-module, dim 3
    a5 = a5_module()
    zs = gfp.kernel_basis(FpMatrix(5, np.ones((1, 5), dtype=np.int64)))
    sub, _ = mr.submodule(a5, zs)
    cvec = gfp.kernel_basis(FpMatrix(5, np.ones((1, 5), dtype=np.int64))) \
        .coordinates(np.ones(5, dtype=np.int64))
    const = Subspace(5, 4, np.array(cvec).reshape(1, -1))
    w, _ = mr.quotient_module(sub, const)
    assert w.dim == 3
    assert mr.is_indecomposable(w, class_GG(w.group).sylow)
    # full permutation module of A5: indecomposable of type 1/W/1
    assert mr.is_indecomposable(a5, class_GG(a5.group).sylow)
    # explicit direct sum is not
    gens = [blockdiag(5, g, FpMatrix.identity(5, 1)) for g in a5.gens()]
    vplus = FpModule(5, 6, MatGroup(5, gens))
    assert not mr.is_indecomposable(vplus, class_GG(vplus.group).sylow)


def test_u_exponents_read_conjugation_on_u():
    """u_exponents gives, for each g of N_G(U), the r with g u g^-1 = u^r,
    every r in 1..p-1 occurs, and an element outside N_G(U) raises."""
    pm = s5_module()
    syl = class_GG(pm.group).sylow
    n = syl.normalizer_N.elements_stack()
    rs = mr.u_exponents(syl.u, n)
    for g, r in zip(n, rs):
        g = FpMatrix(5, g)
        assert g @ syl.u @ g.inverse() == syl.u.pow(int(r))
    assert sorted(set(rs.tolist())) == [1, 2, 3, 4]
    outside = next(g.a for g in pm.group.generators
                   if all(g @ syl.u @ g.inverse() != syl.u.pow(k)
                          for k in range(1, 5)))
    with pytest.raises(SubgroupViolation):
        mr.u_exponents(syl.u, np.concatenate([n[:1], outside[None]]))


def test_w_filtration_and_scalar_law():
    pm = s5_module()
    rep = class_GG(pm.group)
    n = rep.sylow.normalizer_N.elements_stack()
    r2 = n[list(mr.u_exponents(rep.sylow.u, n)).index(2)]
    filt = mr.w_filtration(pm, rep.sylow,
                           check_elements=np.array([np.eye(5), r2]))
    assert [w.dim for w in filt.W] == [4, 3, 2, 1, 0]
    assert filt.quotient_dims == [1, 1, 1, 1]
    assert filt.scalar_reports[0] == {"r": 1, "t": 1, "law_holds": True}
    assert filt.scalar_reports[1]["law_holds"]
    assert filt.scalar_reports[1]["r"] == 2


def test_filtration_hypothesis():
    nat = sl2_natural()
    g = MatGroup(5, [blockdiag(5, a, a) for a in nat.gens()])
    v22 = FpModule(5, 4, g)
    from fusionseed.errors import FiltrationHypothesisFailed
    with pytest.raises(FiltrationHypothesisFailed):
        mr.w_filtration(v22, class_GG(g).sylow)


@pytest.mark.parametrize("k", [-1, 5])
def test_sym_power_out_of_range_is_a_parameter_error(k):
    """sym_power takes 0 <= k <= p - 1 and refuses any other k with
    InvalidParams, which the CLI maps to a one-line exit."""
    with pytest.raises(InvalidParams, match="0 <= k <= p-1"):
        mr.sym_power(sl2_natural(), k)


def test_dual_tensor_sym():
    triv = FpModule(5, 1, MatGroup(5, [FpMatrix.identity(5, 1)]))
    assert mr.dual(triv).gens()[0] == triv.gens()[0]
    nat = sl2_natural()
    assert mr.sym_power(nat, 2).dim == 3
    t = mr.tensor(nat, nat)
    assert t.dim == 4
    dims = sorted(m.dim for m, _ in mr.split_summands(t))
    assert dims == [1, 3]
    pm = s5_module()
    dd = mr.dual(mr.dual(pm))
    assert all(a == b for a, b in zip(dd.gens(), pm.gens()))


def test_split_summands():
    sym2 = mr.sym_power(sl2_natural(), 2)
    assert [m.dim for m, _ in mr.split_summands(sym2)] == [3]
    nat = sl2_natural()
    sym2m = mr.sym_power(nat, 2)
    g = MatGroup(5, [blockdiag(5, a, b)
                     for a, b in zip(nat.gens(), sym2m.gens())])
    v23 = FpModule(5, 5, g)
    assert sorted(m.dim for m, _ in mr.split_summands(v23)) == [2, 3]


def test_split_embeddings_are_invariant():
    nat = sl2_natural()
    t = mr.tensor(nat, nat)
    for piece, emb in mr.split_summands(t):
        space = Subspace(5, t.dim, emb.a)
        for g in t.gens():
            assert gfp.image_of_subspace(g, space) == space


def test_gona_oracle():
    # natural SL_2(5)-module plus trivial summands: the splitting law
    # V = C_V(O^{p'}(G)) + [O^{p'}(G), V] with commutator part of dim 2
    nat = sl2_natural()
    gens = [blockdiag(5, g, FpMatrix.identity(5, 2)) for g in nat.gens()]
    v = FpModule(5, 4, MatGroup(5, gens))
    rep = class_GG(v.group)
    u = rep.sylow.u
    assert gfp.image_basis(u - FpMatrix.identity(5, 4)).dim == 1
    opp = o_pprime(v.group, rep.sylow)
    fixed = mr.fixed_space(v, opp)
    comm = mr.commutator_space(v, opp)
    assert comm.dim == 2
    assert fixed.dim + comm.dim == 4
    assert gfp.intersect(fixed, comm).dim == 0


def test_hom_space_and_isomorphism():
    nat = sl2_natural()
    sym2 = mr.sym_power(nat, 2)
    dual = mr.dual(sym2)
    homs = mr.hom_space(sym2, dual)   # self-dual simple
    assert len(homs) == 1
    t = FpMatrix(5, homs[0])
    assert t.is_invertible()
    for g, gd in zip(sym2.gens(), dual.gens()):
        assert t @ g == gd @ t
    assert mr.hom_space(nat, mr.sym_power(nat, 3)) == []


def test_quotient_submodule_roundtrip():
    pm = s5_module()
    zs = gfp.kernel_basis(FpMatrix(5, np.ones((1, 5), dtype=np.int64)))
    sub, emb = mr.submodule(pm, zs)
    assert sub.dim == 4
    quo, proj = mr.quotient_module(pm, zs)
    assert quo.dim == 1
    # generator actions commute with the projection
    for g, gq in zip(pm.gens(), quo.gens()):
        assert (proj.a @ g.a % 5 == gq.a @ proj.a % 5).all()


def test_split_summands_dim_guard():
    from fusionseed.errors import DimTooLarge
    big = FpModule(5, 70, MatGroup(5, [FpMatrix.identity(5, 70)]))
    with pytest.raises(DimTooLarge):
        mr.split_summands(big)
