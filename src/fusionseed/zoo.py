"""Constructors for the module families exercised by the regression corpus.

Families: symmetric/alternating permutation-module variants, the rank-2
unipotent family V_i = Sym^{i-1}(natural) with its dimension p+-1
extensions, monomial (wreath-type) groups, and the extraspecial-normalizer
groups at p in {3, 5, 7}.  Corpus rows are data; `row_failures` judges them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gfp, grp, modrep, mu, tables
from .errors import ExtractionFailed, InvalidParams
from .gfp import FpMatrix, Subspace
from .grp import MatGroup, class_GG
from .modrep import FpModule
from .mu import primitive_root


@dataclass
class FamilySpec:
    tag: str
    params: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    instantiable: bool = True
    notes: str = ""


# -- basic matrices --------------------------------------------------------

def perm_matrix(p, images, n=None) -> FpMatrix:
    """Permutation matrix sending basis vector i to basis vector images[i]."""
    n = n or len(images)
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(images):
        a[j, i] = 1
    return FpMatrix(p, a)


def cycle_perm(n, cyc):
    img = list(range(n))
    for k in range(len(cyc)):
        img[cyc[k]] = cyc[(k + 1) % len(cyc)]
    return img


# -- SL_2(p) family ---------------------------------------------------------

def _sl2_gens(p):
    return FpMatrix(p, [[1, 1], [0, 1]]), FpMatrix(p, [[1, 0], [1, 1]])


def sl2p(p: int, kind):
    """(group, module) for the rank-2 family.

    kind: ('Vi', i) simple Sym^{i-1};
          ('SL2_Vi', i) SL_2(p)'s own image on Sym^{i-1}, without the
          diagonal torus and the scalars that ('Vi', i) adjoins;
          ('Vji', j, i) the dim p+1 indecomposable with socle dim i;
          ('V1p21',) the projective cover of the trivial module, dim p;
          ('Vext_pm1', which) for which in ('sub', 'quot'): the dim p-1
          modules W/1 and 1/W obtained from the projective cover.
    The group returned is the full extension image (with scalars); the
    simple-socle subgroup generators come first.
    """
    e12, e21 = _sl2_gens(p)
    zeta = primitive_root(p)
    dz = FpMatrix(p, [[zeta, 0], [0, 1]])
    if kind[0] in ("Vi", "SL2_Vi"):
        i = kind[1]
        if not 2 <= i <= p:
            raise InvalidParams(f"{kind[0]} needs 2 <= i <= p")
        k = i - 1
        gens = [modrep.sym_power_matrix(e12, k), modrep.sym_power_matrix(e21, k)]
        if kind[0] == "Vi":
            gens.append(modrep.sym_power_matrix(dz, k))
            if i % 2 == 1:
                # odd dimension: action factors through the projective
                # group; adjoin the full scalar group
                gens.append(FpMatrix.scalar(p, i, zeta))
        g = MatGroup(p, gens)
        return g, FpModule(p, i, g)
    if kind[0] == "Vji":
        j, i = kind[1], kind[2]
        if i + j != p + 1 or not 2 <= i <= p - 1 or not 2 <= j <= p - 1:
            raise InvalidParams("Vji needs i + j = p + 1, 2 <= i, j <= p - 1")
        summands = _coset_module_summands(p)
        for w, emb in summands:
            if w.dim == p + 1 and socle_min_dim(w) == i:
                grp = extension_group(w, zeta)
                return grp, FpModule(p, p + 1, grp)
        raise ExtractionFailed(f"no dim-{p+1} summand with socle dim {i}")
    if kind[0] == "V1p21":
        w = _projective_cover_trivial(p)
        return w.group, w
    if kind[0] == "Vext_pm1":
        which = kind[1]
        pcov = _projective_cover_trivial(p)
        if which == "sub":
            rad = modrep.commutator_space(pcov, pcov.group)
            sub, _ = modrep.submodule(pcov, rad)
            return sub.group, sub
        if which == "quot":
            soc = modrep.fixed_space(pcov, pcov.group)
            quo, _ = modrep.quotient_module(pcov, soc)
            return quo.group, quo
        raise InvalidParams("Vext_pm1 which must be 'sub' or 'quot'")
    raise InvalidParams(f"unknown sl2p kind {kind!r}")


def _coset_permutation_module(g: MatGroup) -> FpModule:
    """F_p[G/U] for U the Sylow p-subgroup that `class_GG` finds in G."""
    p = g.p.p
    rep = class_GG(g)
    u = rep.sylow.u
    upow = [u.pow(k).a for k in range(p)]
    stack = g.elements_stack()

    def coset_key(m64):
        return min(((m64 @ uk) % p).astype(np.int8).tobytes() for uk in upow)

    cosets = {}
    mats = {}
    for idx in range(stack.shape[0]):
        m64 = stack[idx].astype(np.int64)
        ck = coset_key(m64)
        if ck not in cosets:
            cosets[ck] = len(cosets)
            mats[cosets[ck]] = m64
    nc = len(cosets)
    gens = []
    for gen in g.generators:
        pm = np.zeros((nc, nc), dtype=np.int64)
        for ci in range(nc):
            tgt = coset_key((gen.a @ mats[ci]) % p)
            pm[cosets[tgt], ci] = 1
        gens.append(FpMatrix(p, pm))
    return FpModule(p, nc, MatGroup(p, gens))


@functools.lru_cache(maxsize=None)
def _coset_module_summands(p):
    """The summands of F_p[SL_2(p)/U], split once per p."""
    return tuple(modrep.split_summands(
        _coset_permutation_module(MatGroup(p, _sl2_gens(p)))))


def _projective_cover_trivial(p) -> FpModule:
    """The dim-p projective with trivial socle and top, from St (x) St."""
    e12, e21 = _sl2_gens(p)
    nat = FpModule(p, 2, MatGroup(p, [e12, e21]))
    st = modrep.sym_power(nat, p - 1)
    big = modrep.tensor(st, st)
    for w, emb in modrep.split_summands(big):
        if w.dim == p and socle_min_dim(w) == 1:
            return w
    raise ExtractionFailed("projective cover of the trivial module not found")


def socle_min_dim(v: FpModule) -> int:
    """Smallest dimension of a submodule spun from a U-fixed line."""
    rep = class_GG(v.group)
    u = rep.sylow.u
    fixed = gfp.kernel_basis(u - FpMatrix.identity(v.p, v.dim))
    best = v.dim
    p = v.p.p
    lines = _lines_of(fixed, p)
    for line in lines:
        sub = modrep.spin(v, Subspace(v.p, v.dim, line.reshape(1, -1)))
        best = min(best, sub.dim)
    return best


def top_min_dim(v: FpModule) -> int:
    return socle_min_dim(modrep.dual(v))


def _lines_of(s: Subspace, p: int):
    if s.dim == 0:
        return []
    out = []
    seen = set()
    for coeffs in itertools.product(range(p), repeat=s.dim):
        if all(c == 0 for c in coeffs):
            continue
        v = np.zeros(s.ambient, dtype=np.int64)
        for c, row in zip(coeffs, s.basis):
            v = (v + c * row) % p
        key = Subspace(s.p, s.ambient, v.reshape(1, -1)).key()
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def extension_group(w: FpModule, zeta: int) -> MatGroup:
    """Adjoin the diagonal-twist intertwiner to the simple-socle action.

    w must carry the two standard unipotent generators (in order); the
    intertwiner T satisfies T rho(s) T^-1 = rho(d s d^-1) for d = diag(zeta, 1)
    and is normalized to act trivially on Z/Z0 with T^{p-1} scalar.
    """
    p = w.p.p
    r0, r1 = w.gens()[0], w.gens()[1]
    twisted = FpModule(w.p, w.dim, MatGroup(
        w.p, [r0.pow(zeta), r1.pow(pow(zeta, p - 2, p))]))
    homs = modrep.hom_space(w, twisted)
    if not homs:
        raise ExtractionFailed("no intertwiner: action does not extend")
    for c in modrep.random_combinations(homs, p, np.random.default_rng(1)):
        T = FpMatrix(w.p, c)
        if T.is_invertible():
            break
    else:
        raise ExtractionFailed("no invertible intertwiner")
    # normalize: trivial action on Z/Z0, T^{p-1} scalar
    rep = class_GG(w.group)
    cs = modrep.canonical_subspaces(w, rep.sylow)
    endo = modrep.endo_basis(w)
    for coeffs in itertools.product(range(p), repeat=len(endo)):
        e = np.zeros((w.dim, w.dim), dtype=np.int64)
        for cc, b in zip(coeffs, endo):
            e = (e + cc * np.array(b)) % p
        cand = FpMatrix(w.p, T.a @ e % p)
        if not cand.is_invertible():
            continue
        if cs.Z.dim > cs.Z0.dim:
            t_scal = modrep._action_scalar(cand, cs.Z, cs.Z0)
            if t_scal != 1:
                continue
        power = cand.pow(p - 1)
        diag = power.a[np.arange(w.dim), np.arange(w.dim)]
        off = power.a.copy()
        off[np.arange(w.dim), np.arange(w.dim)] = 0
        if off.any() or not (diag == diag[0]).all():
            continue
        return MatGroup(w.p, [r0, r1, cand])
    raise ExtractionFailed("intertwiner could not be normalized")


# -- symmetric / alternating family -----------------------------------------

def _perm_gens(n: int, group: str):
    """Images lists of two generators of S_n or A_n."""
    if group == "S":
        return [cycle_perm(n, [0, 1]), cycle_perm(n, list(range(n)))]
    if group == "A":
        # an n-cycle is even only for odd n
        cyc = list(range(n)) if n % 2 == 1 else list(range(1, n))
        return [cycle_perm(n, [0, 1, 2]), cycle_perm(n, cyc)]
    raise InvalidParams("group must be 'S' or 'A'")


def symmetric(p: int, n: int, kind: str, group: str = "S",
              scalar_order: int = 1):
    """(group, module) for permutation-module variants.

    kind in {'full', 'deleted', 'sub', 'quot'}:
      full    = F_p^n;
      deleted = zero-sum if p does not divide n, else zero-sum/constants;
      sub     = zero-sum (type W/1 when p | n);
      quot    = F_p^n / constants (type 1/W when p | n).
    group in {'S', 'A'}; scalar_order | p-1 adjoins scalars of that order.
    """
    if not p <= n <= 2 * p - 1:
        raise InvalidParams("need p <= n <= 2p - 1")
    gens = [perm_matrix(p, img) for img in _perm_gens(n, group)]
    if scalar_order > 1:
        if (p - 1) % scalar_order:
            raise InvalidParams("scalar_order must divide p-1")
        z = pow(primitive_root(p), (p - 1) // scalar_order, p)
        gens.append(FpMatrix.scalar(p, n, z))
    return _permutation_module(p, n, kind, gens)


def _permutation_module(p: int, n: int, kind: str, gens):
    """(group, module) of `symmetric`'s kind for the group that the n x n
    monomial matrices gens generate on F_p^n."""
    big = FpModule(p, n, MatGroup(p, gens))
    if kind == "full":
        return big.group, big
    ones = np.ones((1, n), dtype=np.int64)
    zero_sum = gfp.kernel_basis(FpMatrix(p, ones))
    if kind == "sub" or (kind == "deleted" and n % p != 0):
        sub, _ = modrep.submodule(big, zero_sum)
        return sub.group, sub
    if kind == "quot":
        const = Subspace(p, n, ones)
        quo, _ = modrep.quotient_module(big, const)
        return quo.group, quo
    if kind == "deleted":
        sub, _ = modrep.submodule(big, zero_sum)
        cvec = zero_sum.coordinates(np.ones(n, dtype=np.int64))
        const = Subspace(p, n - 1, np.array(cvec).reshape(1, -1))
        quo, _ = modrep.quotient_module(sub, const)
        return quo.group, quo
    raise InvalidParams(f"unknown symmetric kind {kind!r}")


# -- monomial (wreath-type) family -------------------------------------------

def monomial(p: int, n: int, t: int, R, h_type: str):
    """Monomial group: diagonal part cut out by the (t, R) conditions,
    extended by a 2-transitive permutation part.

    R is 'full', 'trivial', or a list of (x, y) residue pairs generating a
    subgroup of C_{p-1} x C_{p-1}.
    """
    if t <= 1 or (p - 1) % t:
        raise InvalidParams("need 1 < t dividing p-1")
    zeta = primitive_root(p)
    b = pow(zeta, (p - 1) // t, p)     # generator of the order-t subgroup
    diag_gens = []
    for j in range(n - 1):
        d = np.ones(n, dtype=np.int64)
        d[j] = b
        d[j + 1] = pow(b, p - 2, p)
        diag_gens.append(FpMatrix(p, np.diag(d)))
    # unliftable R-elements simply do not occur in K
    for c, eps in _r_lifts(p, n, t, R).values():
        d = np.full(n, c, dtype=np.int64)
        d[0] = c * eps % p
        diag_gens.append(FpMatrix(p, np.diag(d)))
    if h_type in ("S", "A"):
        hgens = _perm_gens(n, h_type)
    elif h_type == "CpCp-1":
        if n != p:
            raise InvalidParams("CpCp-1 needs n = p")
        hgens = [[(i + 1) % p for i in range(p)],
                 [i * zeta % p for i in range(p)]]
    elif h_type == "PGL2":
        if n != p + 1:
            raise InvalidParams("PGL2 needs n = p + 1")
        hgens = [_pgl2_perm(p, 1, 1, 0, 1), _pgl2_perm(p, zeta, 0, 0, 1),
                 _pgl2_perm(p, 0, 1, 1, 0)]
    else:
        raise InvalidParams(f"unknown h_type {h_type!r}")
    gens = diag_gens + [perm_matrix(p, h, n=n) for h in hgens]
    g = MatGroup(p, gens)
    return g, FpModule(p, n, g)


def _pgl2_perm(p, a, b, c, d):
    """Action of [[a,b],[c,d]] on the projective line {0..p-1, p=infinity}."""
    img = [0] * (p + 1)
    inf = p
    for z in range(p):
        den = (c * z + d) % p
        if den == 0:
            img[z] = inf
        else:
            img[z] = (a * z + b) * pow(den, p - 2, p) % p
    den = c % p
    img[inf] = inf if den == 0 else a * pow(c, p - 2, p) % p
    return img


def _r_lifts(p, n, t, R) -> dict:
    """{(x, y): (c, eps)} over the liftable elements of R, in sorted order:
    the least c with c^t = y and eps = x c^-n in the order-t subgroup."""
    if R == "full":
        r_els = {(a, c) for a in range(1, p) for c in range(1, p)}
    elif R == "trivial":
        r_els = {(1, 1)}
    else:
        r_els = set(mu.DeltaSubgroup.generated(p, list(R)).elements)
    b = pow(primitive_root(p), (p - 1) // t, p)
    mu_t = {pow(b, k, p) for k in range(t)}
    lifts = {}
    for (x, y) in sorted(r_els):
        for c in range(1, p):
            eps = x * pow(pow(c, n, p), p - 2, p) % p   # x * c^{-n}
            if pow(c, t, p) == y and eps in mu_t:
                lifts[(x, y)] = (c, eps)
                break
    return lifts


def monomial_k_order(p, n, t, R) -> int:
    """|K| = t^{n-1} * |liftable part of R| (for order cross-checks)."""
    return t ** (n - 1) * len(_r_lifts(p, n, t, R))


# -- extraspecial-normalizer family ------------------------------------------

def _paulis(p):
    X = FpMatrix(p, [[0, 1], [1, 0]])
    Z = FpMatrix(p, [[1, 0], [0, p - 1]])
    H = FpMatrix(p, [[1, 1], [1, p - 1]])   # swaps X and Z under conjugation
    return X, Z, H


def _kron_chain(p, mats):
    out = mats[0].a
    for m in mats[1:]:
        out = np.kron(out, m.a)
    return FpMatrix(p, out)


def extraspecial(p: int):
    """(group, module) for the extraspecial-normalizer families.

    p = 3: GL_2(3) on its natural module.
    p = 5: the dim-4 normalizer of C_4 o 2^{1+4} (order 46080).
    p = 7: the dim-8 normalizer of C_3 x 2^{1+6} (order 15,482,880), by
           its 15 generators with nothing enumerated; `check` reads |G|
           from U's orbit walk.
    """
    if p == 3:
        gens = [FpMatrix(3, [[1, 1], [0, 1]]), FpMatrix(3, [[2, 0], [0, 1]]),
                FpMatrix(3, [[0, 1], [1, 0]])]
        g = MatGroup(3, gens)
        return g, FpModule(3, 2, g)
    if p == 5:
        X, Z, H = _paulis(5)
        I2 = FpMatrix.identity(5, 2)
        i_scal = 2  # 2^2 = -1 mod 5
        S = FpMatrix(5, [[1, 0], [0, i_scal]])
        CZ = FpMatrix(5, np.diag([1, 1, 1, 4]))
        swap = perm_matrix(5, [0, 2, 1, 3])
        gens = [
            _kron_chain(5, [X, I2]), _kron_chain(5, [Z, I2]),
            _kron_chain(5, [I2, X]), _kron_chain(5, [I2, Z]),
            FpMatrix.scalar(5, 4, 2),
            _kron_chain(5, [H, I2]), _kron_chain(5, [I2, H]),
            _kron_chain(5, [S, I2]), _kron_chain(5, [I2, S]),
            CZ, swap,
        ]
        g = MatGroup(5, gens)
        return g, FpModule(5, 4, g)
    if p == 7:
        X, Z, H = _paulis(7)
        I2 = FpMatrix.identity(7, 2)
        CZ12 = FpMatrix(7, np.diag([1, 1, 1, 6, 1, 1, 1, 6]))
        CZ23 = FpMatrix(7, np.diag([1, 1, 1, 6] * 2))
        CZ13 = FpMatrix(7, np.diag([1, 1, 1, 1, 1, 6, 1, 6]))
        swap12 = perm_matrix(7, [0, 1, 4, 5, 2, 3, 6, 7])
        swap23 = perm_matrix(7, [0, 2, 1, 3, 4, 6, 5, 7])
        gens = [
            _kron_chain(7, [X, I2, I2]), _kron_chain(7, [Z, I2, I2]),
            _kron_chain(7, [I2, X, I2]), _kron_chain(7, [I2, Z, I2]),
            _kron_chain(7, [I2, I2, X]), _kron_chain(7, [I2, I2, Z]),
            FpMatrix.scalar(7, 8, 2),   # order-3 scalar
            _kron_chain(7, [H, I2, I2]), _kron_chain(7, [I2, H, I2]),
            _kron_chain(7, [I2, I2, H]),
            CZ12, CZ23, CZ13, swap12, swap23,
        ]
        g = MatGroup(7, gens)
        return g, FpModule(7, 8, g)
    raise InvalidParams("extraspecial supports p in {3, 5, 7}")


def heavy_extraspecial_check(v: FpModule) -> dict:
    """The Sylow-local summary that `check --heavy` writes, for any module v.

    It starts from `grp.class_GG`, so an instance that class_GG rejects
    gets plain `check`'s answer: its `not_in_G` status, |G| and reason.
    Otherwise it gives the local data at U; O^{p'}(G) is not computed, and
    G is enumerated only where class_GG enumerates it, when no random
    generator word has order divisible by p.
    """
    p = v.p.p
    gg = class_GG(v.group)
    if gg.status == "not_in_G":
        return {"gg_status": gg.status, "group_order": gg.group_order,
                "reason": gg.reason}
    syl = gg.sylow
    ngrp = syl.normalizer_N
    n_order = ngrp.order()
    cs = modrep.canonical_subspaces(v, syl)
    gv = mu.compute_gvee(ngrp, syl, cs)
    image = mu.mu_image(gv)
    return {
        "group_order": gg.group_order,
        "orbit": gg.group_order // n_order,
        "normalizer_order": n_order,
        "n_over_u": n_order // p,
        "automizer": syl.automizer_order,
        "mu_image": image.sorted_pairs(),
        "mu_name": mu.recognize(image)["name"],
        "z_dims": {"Z": cs.Z.dim, "Z0": cs.Z0.dim},
    }


# The generators of the strongly closed examples, as elements (images of
# 0, ..., 4; scalar) of S_5 x F_5^*: generators of O^{p'}(G), then the
# elements of the mu-preimage.  They are fixed data, so that the emitted
# files do not depend on how U's orbit walk numbers its points; the tests
# derive each group again from the engine.
_STR_CLOSED = {
    "a": [("40123", 1), ("34120", 1), ("01234", 1), ("12340", 1),
          ("23401", 1), ("34012", 1), ("40123", 1), ("30241", 3),
          ("43210", 4), ("14203", 2), ("02413", 3), ("32104", 4),
          ("42031", 2), ("41302", 3), ("10432", 4), ("04321", 4),
          ("03142", 2), ("31420", 2), ("20314", 2), ("24130", 3),
          ("21043", 4), ("13024", 3)],
    "c": [("40123", 1), ("34120", 1), ("01234", 1), ("12340", 1),
          ("23401", 1), ("30241", 2), ("34012", 1), ("02413", 2),
          ("41302", 2), ("40123", 1), ("24130", 2), ("13024", 2),
          ("43210", 4), ("32104", 4), ("10432", 4), ("04321", 4),
          ("21043", 4), ("14203", 3), ("42031", 3), ("03142", 3),
          ("31420", 3), ("20314", 3)],
}


def strongly_closed_example(p: int, which: str):
    """The two worked strongly-closed instances over G = S_p x F_p^*, at
    p = 5, generated by the pinned elements of `_STR_CLOSED`.

    which = 'a': the full permutation module with the automizer cut down to
    O^{p'}(G) . mu^-1(Delta_-1) (index 2, case d2, single H-class menu,
    strongly closed A0.H_0, exotic).
    which = 'c': the quotient module F_p^p / constants with the automizer
    O^{p'}(G) . mu^-1(Delta_0) (case d3, every nonempty class set I).
    """
    kinds = {"a": "full", "c": "quot"}
    if which not in kinds:
        raise InvalidParams("which must be 'a' or 'c'")
    if p != 5:
        raise InvalidParams("the strongly closed examples are pinned at p = 5")
    gens = [perm_matrix(p, [int(i) for i in images]) * c
            for images, c in _STR_CLOSED[which]]
    return _permutation_module(p, p, kinds[which], gens)


# -- corpus -------------------------------------------------------------------

def table_corpus():
    """Desk-scale corpus entries plus metadata-only rows."""
    entries = []
    entries.append(FamilySpec(
        "sl2p_simple", {"p": 5, "kind": ("Vi", 3), "admissible": True},
        expected={
            "passing_orders": [120, 240, 480],
            "by_order": {
                120: {"cases": ["d2"], "e0_count": 31,
                      "realizable": {"H{0,1,2,3,4}": "PSL_p(q), v_p(q-1)=1"}},
                240: {"cases": ["d3"], "e0_count": 1,
                      "realizable": {"B{0}": "Sp_4(p)"}},
                480: {"cases": ["d1"], "e0_count": 1,
                      "realizable": {"B0+H*": "Co_1"}},
            }}))
    entries.append(FamilySpec(
        "sl2p_simple", {"p": 5, "kind": ("Vi", 4)},
        expected={"cases": ["d1", "d2", "d3"], "e0_count": 33,
                  "all_exotic": True}))
    # the dim p+1 extensions with socle dimension i: mu = Delta_{i-1}
    for i, name in ((2, "Delta_1"), (3, "Delta_2"), (4, "Delta_-1")):
        entries.append(FamilySpec(
            "sl2p_ext", {"p": 5, "kind": ("Vji", 6 - i, i)},
            expected={"mu_name": name}))
    entries.append(FamilySpec(
        "str_closed", {"p": 5, "which": "a"},
        expected={"cases": ["d2"], "e0": ["H{0}"],
                  "strongly_closed": "A0.H_0", "exotic": True}))
    entries.append(FamilySpec(
        "str_closed", {"p": 5, "which": "c"},
        expected={"cases": ["d3"], "e0_count": 31,
                  "strongly_closed": "A0.B_0"}))
    entries.append(FamilySpec(
        "sn_deleted", {"p": 5, "n": 5, "group": "S", "scalar_order": 4},
        expected={"cases": ["d1"], "e0": ["B0+H*"],
                  "realizable": {"B0+H*": "Co_1"}}))
    entries.append(FamilySpec(
        "sn_deleted", {"p": 7, "n": 7, "group": "S", "scalar_order": 1},
        expected={"cases": ["d2"], "e0_count": 127,
                  "realizable": {"full_H": "PSL_p(q), v_p(q-1)=1"}}))
    entries.append(FamilySpec(
        "sn_deleted", {"p": 5, "n": 6, "group": "S", "scalar_order": 1},
        expected={"cases": ["d3"], "e0": ["B{0}"],
                  "realizable": {"B{0}": "PSL_n(q), p|q-1, p<n<2p"}}))
    entries.append(FamilySpec(
        "an_deleted", {"p": 7, "n": 9, "group": "S", "scalar_order": 1},
        expected={"cases": ["d3"], "e0": ["B{0}"],
                  "realizable": {"B{0}": "PSL_n(q), p|q-1, p<n<2p"}}))
    entries.append(FamilySpec(
        "sn_perm", {"p": 5, "n": 5, "group": "S", "scalar_order": 4,
                    "admissible": True},
        expected={"passers": {240: {"cases": ["d2"], "e0": ["H{0}"],
                                    "realizable": None,
                                    "strongly_closed": "A0.H_0"}}}))
    entries.append(FamilySpec(
        "monomial", {"p": 5, "n": 5, "t": 4, "R": "full", "h_type": "S"},
        expected={"group_order": 122880,
                  "passers": {61440: {"cases": ["d2"], "e0": ["H{0}"],
                                      "realizable": "A_{pn}"},
                              30720: {"cases": ["d3"], "e0": ["B{0}"],
                                      "realizable": None}}}))
    entries.append(FamilySpec(
        "monomial", {"p": 5, "n": 5, "t": 2, "R": "trivial", "h_type": "S"},
        expected={"group_order": 1920, "cases": ["d3"], "e0": ["B{0}"],
                  "realizable": {"B{0}": "POmega^+_{2n}(q)"}}))
    entries.append(FamilySpec(
        "monomial", {"p": 5, "n": 6, "t": 2, "R": "trivial",
                     "h_type": "PGL2"},
        expected={"h_order": 120, "two_transitive": True}))
    entries.append(FamilySpec(
        "gl2_3", {"p": 3},
        expected={"dim": 4, "mu_name": "Delta_-1", "exotic": True}))
    entries.append(FamilySpec(
        "extraspecial_p3", {"p": 3},
        expected={"group_order": 48, "profile": [2]}))
    entries.append(FamilySpec(
        "extraspecial_p5", {"p": 5},
        expected={"group_order": 46080, "quotient_order": 720,
                  "cases": ["d1", "d2", "d3"], "e0_count": 33,
                  "realizable": {"H0+B*": "E_8(q), p=5, q=+-2 mod 5"}}))
    entries.append(FamilySpec(
        "extraspecial_p7", {"p": 7, "heavy": True},
        expected={"n_over_u": 36, "mu_name": "Delta_3",
                  "group_order": 15482880}))
    # SL_2(p) on V_i obeys the simple-family law mu = {(u^2, u^(i-1))}
    for p in (5, 7):
        for i in range(2, p + 1):
            law = {(u * u % p, pow(u, i - 1, p)) for u in range(1, p)}
            entries.append(FamilySpec(
                "sl2p_mu_law", {"p": p, "kind": ("SL2_Vi", i)},
                expected={"mu_image": [list(pair) for pair in sorted(law)]}))
    # metadata-only rows (not constructible from first principles here)
    for row in tables.REALIZABILITY_ROWS:
        if not row.instantiable:
            entries.append(FamilySpec(
                f"table-{row.table}", {"family": row.family},
                expected={"row": row.family}, instantiable=False,
                notes="metadata only: realizing representation out of desk scale"))
    for row in tables.MODULE_SURVEY_ROWS:
        if not row["instantiable"]:
            entries.append(FamilySpec(
                "table-survey", {"G0": row["G0"], "p": row["p"]},
                expected={"mu_Gbar": row["mu_Gbar"], "ER": row["ER"]},
                instantiable=False,
                notes="metadata only"))
    return entries


# Row keys that describe the row's construction, not its `check` report:
# `two_transitive` says the permutation part of a monomial group is
# 2-transitive, which no report records.
ROW_KEYS_NOT_COMPARED = {"two_transitive"}
# row key -> the report field that must equal the row's value
_ROW_FIELDS = {"group_order": "group_order", "dim": "dim", "cases": "cases",
               "e0": "e0_menu", "e0_count": "e0_count",
               "profile": "jordan_profile", "n_over_u": "n_over_u"}


def _passing(rep) -> dict:
    return {x["group_order"]: x["report"] for x in rep["passing"]}


def _verdict_holds(rep, e0: str, family) -> bool:
    """e0's verdict is realizable by `family`, or exotic for family None."""
    verdict = "exotic" if family is None else "realizable"
    return any(x["e0"] == e0 and x["verdict"] == verdict
               and x["realized_by"] == family for x in rep["exotic"])


def _key_holds(rep, key: str, want, q: dict) -> bool:
    """Whether the report meets one row key; an unknown key fails."""
    if key in _ROW_FIELDS:
        return rep[_ROW_FIELDS[key]] == want
    if key == "mu_name":     # the heavy `result` block names mu at top level
        return want == (rep["mu_name"] if "mu_name" in rep
                        else rep["mu"]["recognized"]["name"])
    if key == "mu_image":
        return rep["mu"]["image"] == want
    if key in ("exotic", "all_exotic"):
        return want == (bool(rep["exotic"]) and all(
            x["verdict"] == "exotic" for x in rep["exotic"]))
    if key == "realizable":
        full_h = "H{" + ",".join(map(str, range(q["p"]))) + "}"
        return all(_verdict_holds(rep, full_h if e0 == "full_H" else e0, fam)
                   for e0, fam in want.items())
    if key == "strongly_closed":
        return any(sc["subgroup"] == want for sc in rep["strongly_closed"])
    if key == "quotient_order":
        return rep["group_order"] % want == 0
    if key == "h_order":
        return rep["group_order"] == want * monomial_k_order(
            q["p"], q["n"], q["t"], q["R"])
    if key == "passing_orders":
        return sorted(_passing(rep)) == sorted(want)
    return key in ROW_KEYS_NOT_COMPARED


def _nested_failures(rep, key: str, want: dict, q: dict) -> list:
    """`passers` or `by_order`: a row for each admissible group's order."""
    got = _passing(rep)
    failed = [key] if key == "passers" and set(want) != set(got) else []
    for order, row in want.items():
        if key == "passers" and "realizable" in row:
            # one family (None: exotic) for each class set of its e0
            row = {**row, "realizable": dict.fromkeys(row["e0"],
                                                      row["realizable"])}
        if order not in got:
            failed.append(f"{key}.{order}")
        else:
            failed += [f"{key}.{order}.{name}"
                       for name in row_failures(got[order], row, q)]
    return failed


def row_failures(report: dict, expected: dict, params: dict) -> list:
    """Names of the keys of a corpus row's `expected` that `report` misses.

    report: the row's `check` report as JSON reads it back; an admissible
    row's also carries the `passing` list of its admissible report, and
    the heavy row's is the `result` block of its heavy report.  Nested
    keys are named by their path, as in `by_order.240.cases`.  Empty when
    the report meets the row.
    """
    failed = []
    for key, want in expected.items():
        try:
            if key in ("passers", "by_order"):
                failed += _nested_failures(report, key, want, params)
            elif not _key_holds(report, key, want, params):
                failed.append(key)
        except (KeyError, TypeError, IndexError):
            failed.append(key)
    return failed


def build_family(spec: FamilySpec):
    """(group, module) for an instantiable corpus entry."""
    build = _BUILDERS.get(spec.tag)
    if build is None:
        raise InvalidParams(f"not instantiable: {spec.tag}")
    return build(spec.params)


def _gl23_two_two():
    """The dim-4 type 2/2 module of GL_2(3), from the coset module."""
    g, _ = extraspecial(3)
    for w, emb in modrep.split_summands(_coset_permutation_module(g)):
        if w.dim == 4:
            return w.group, w
    raise ExtractionFailed("dim-4 type 2/2 summand absent from F_3[G/U]")


# tag -> constructor of (group, module) from the entry's params
_BUILDERS = {
    **dict.fromkeys(("sl2p_simple", "sl2p_ext", "sl2p_mu_law"),
                    lambda q: sl2p(q["p"], q["kind"])),
    **dict.fromkeys(("sn_deleted", "an_deleted"),
                    lambda q: symmetric(q["p"], q["n"], "deleted", q["group"],
                                        q["scalar_order"])),
    "str_closed": lambda q: strongly_closed_example(q["p"], q["which"]),
    "sn_perm": lambda q: symmetric(q["p"], q["n"], "full", q["group"],
                                   q["scalar_order"]),
    "monomial": lambda q: monomial(q["p"], q["n"], q["t"], q["R"],
                                   q["h_type"]),
    "gl2_3": lambda q: _gl23_two_two(),
    "extraspecial_p3": lambda q: extraspecial(3),
    "extraspecial_p5": lambda q: extraspecial(5),
    "extraspecial_p7": lambda q: extraspecial(7),
}


def emit_instance(spec: FamilySpec, heavy: bool = False) -> dict:
    """Instance file payload for a corpus entry."""
    # heavy is not read; bench/workloads.py passes it
    g, v = build_family(spec)
    return {
        "p": int(v.p),
        "dim": v.dim,
        "generators": [gen.a.reshape(-1).tolist() for gen in g.generators],
        "family": {"tag": spec.tag, "params": _json_params(spec.params)},
    }


def _json_params(params: dict) -> dict:
    out = {}
    for k, val in params.items():
        out[k] = list(val) if isinstance(val, tuple) else val
    return out
