"""Module-theoretic analysis of F_pG-modules V = F_p^n.

Covers Jordan profiles, minimal activity, the canonical subspaces
Z = C_V(U), Z0 = Z meet [U,V], A0 = Z + [U,V], the W-filtration,
indecomposability, dual/tensor/symmetric-power constructions, Hom spaces
and a meataxe-style splitter into indecomposable direct summands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gfp
from .errors import (DimensionMismatch, DimTooLarge,
                     FiltrationHypothesisFailed, InvalidParams,
                     InvariantViolation, NotUnipotentOfOrderP, PrimeMismatch,
                     SubgroupViolation)
from .gfp import FpMatrix, Subspace, as_prime
from .grp import MatGroup, SylowData, o_pprime


@dataclass
class FpModule:
    """The module F_p^dim with a matrix group acting on column vectors."""
    p: object
    dim: int
    group: MatGroup

    def __post_init__(self):
        self.p = as_prime(self.p)
        if self.dim < 1 or self.group.dim != self.dim:
            raise DimensionMismatch("module and group dimensions differ")
        if self.group.p.p != self.p.p:
            raise PrimeMismatch("module and group primes differ")

    def gens(self):
        return self.group.generators


@dataclass
class CanonicalSubspaces:
    Z: Subspace
    UV: Subspace          # [U, V] = im(u - 1)
    Z0: Subspace
    A0: Subspace
    m: int


@dataclass
class Filtration:
    W: list                       # W_1 > W_2 > ... > W_m = 0
    quotient_dims: list
    scalar_reports: list = field(default_factory=list)


def jordan_profile(v: FpModule, x: FpMatrix):
    """Multiset (sorted desc) of Jordan block sizes of x acting on v.

    Requires x^p = 1.  Block counts come from the ranks of (x-1)^k.
    """
    p = v.p.p
    if x.pow(p) != FpMatrix.identity(v.p, v.dim):
        raise NotUnipotentOfOrderP("x^p != 1")
    n = v.dim
    one = FpMatrix.identity(v.p, n)
    ranks = [n]
    m = x - one
    cur = one
    for _ in range(p):
        cur = cur @ m
        ranks.append(gfp.rank(cur))
        if ranks[-1] == 0:
            break
    while len(ranks) < p + 2:
        ranks.append(0)
    # number of blocks of size >= k is ranks[k-1] - ranks[k]
    blocks = []
    for k in range(1, p + 1):
        geq_k = ranks[k - 1] - ranks[k]
        geq_k1 = ranks[k] - ranks[k + 1]
        blocks.extend([k] * (geq_k - geq_k1))
    blocks.sort(reverse=True)
    if sum(blocks) != n:
        raise InvariantViolation(f"Jordan blocks {blocks} do not sum to {n}")
    return blocks


def is_minimally_active(v: FpModule, syl: SylowData) -> bool:
    profile = jordan_profile(v, syl.u)
    return sum(1 for b in profile if b > 1) <= 1


def canonical_subspaces(v: FpModule, syl: SylowData) -> CanonicalSubspaces:
    """Z = C_V(U), [U, V], Z0 and A0 at U = <syl.u>, and m.  They depend on
    u alone, so they are computed once per SylowData and kept on it."""
    if syl.subspaces is None:
        one = FpMatrix.identity(v.p, v.dim)
        m = syl.u - one
        Z = gfp.kernel_basis(m)
        UV = gfp.image_basis(m)
        Z0 = gfp.intersect(Z, UV)
        A0 = gfp.add(Z, UV)
        syl.subspaces = CanonicalSubspaces(Z, UV, Z0, A0, v.dim - Z.dim + 1)
    return syl.subspaces


def _minus_one(v: FpModule, h: MatGroup) -> np.ndarray:
    """The stack of g - 1 over h's generators g."""
    return np.array([g.a for g in h.generators]) - np.eye(v.dim,
                                                          dtype=np.int64)


def fixed_space(v: FpModule, h: MatGroup) -> Subspace:
    """Common fixed space of h: the kernel of the stacked g - 1 over its
    generators."""
    return gfp.kernel_basis(FpMatrix(v.p, _minus_one(v, h).reshape(-1, v.dim)))


def commutator_space(v: FpModule, h: MatGroup) -> Subspace:
    """[h, V] = sum of im(g - 1) over generators, spanned by the columns of
    every g - 1."""
    return Subspace(v.p, v.dim,
                    _minus_one(v, h).transpose(0, 2, 1).reshape(-1, v.dim))


def spin(v: FpModule, seed: Subspace) -> Subspace:
    """Smallest G-invariant subspace containing the seed."""
    cur = seed
    while True:
        nxt = cur
        for g in v.gens():
            nxt = gfp.add(nxt, gfp.image_of_subspace(g, cur))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def submodule(v: FpModule, sub: Subspace):
    """Module on an invariant subspace; returns (module, embed rows)."""
    p = v.p.p
    B = sub.basis          # r x n, rows span
    gens = []
    for g in v.gens():
        img = (g.a @ B.T) % p          # n x r, columns are images
        coords = np.array([sub.coordinates(img[:, j]) for j in range(sub.dim)],
                          dtype=np.int64).T
        gens.append(FpMatrix(v.p, coords))
    return FpModule(v.p, sub.dim, MatGroup(v.p, gens)), \
        FpMatrix(v.p, B)


def quotient_module(v: FpModule, sub: Subspace):
    """Module on V / sub; returns (module, projection matrix q x n)."""
    p = v.p.p
    n = v.dim
    pivots = set(sub._pivots)
    free = [c for c in range(n) if c not in pivots]
    q = len(free)

    # projection = reduce against the basis, then read off free coordinates
    P = np.array([sub.reduce(e)[free] for e in np.eye(n, dtype=np.int64)],
                 dtype=np.int64).T
    L = np.zeros((n, q), dtype=np.int64)
    for k, c in enumerate(free):
        L[c, k] = 1
    gens = [FpMatrix(v.p, P @ g.a % p @ L) for g in v.gens()]
    return FpModule(v.p, q, MatGroup(v.p, gens)), \
        FpMatrix(v.p, P)


def is_indecomposable(v: FpModule, syl: SylowData) -> bool:
    """Indecomposability test.

    For minimally active modules with nontrivial U-action this is the exact
    criterion `opp_fixed_in_commutator`; otherwise falls back to summand
    splitting.
    """
    trivial_u = syl.u == FpMatrix.identity(v.p, v.dim)
    if not trivial_u and is_minimally_active(v, syl):
        return opp_fixed_in_commutator(v, o_pprime(v.group, syl))
    return len(split_summands(v)) == 1


def opp_fixed_in_commutator(v: FpModule, opp: MatGroup) -> bool:
    """C_V(O) <= [O, V] for O = O^{p'}(G).

    For a minimally active module on which U acts nontrivially this holds
    exactly when V is indecomposable.
    """
    return gfp.contains(commutator_space(v, opp), fixed_space(v, opp))


def w_filtration(v: FpModule, syl: SylowData, check_elements=None,
                 exponents=None) -> Filtration:
    """W_1 = [U,V], W_{i+1} = [U, W_i]; requires dim Z0 = 1.

    For each g of the (m, n, n) stack check_elements of N_G(U) elements
    the report records (r, t) and whether g multiplies W_i/W_{i+1} by
    t * r^i for every i: one `gfp.solve_many` per level for all g.  The r
    with g u g^-1 = u^r are exponents, or `u_exponents` when None.
    """
    cs = canonical_subspaces(v, syl)
    if cs.Z0.dim != 1:
        raise FiltrationHypothesisFailed(f"dim Z0 = {cs.Z0.dim} != 1")
    p = v.p.p
    one = FpMatrix.identity(v.p, v.dim)
    m = syl.u - one
    chain = [cs.UV]
    while not chain[-1].is_zero():
        chain.append(gfp.image_of_subspace(m, chain[-1]))
    qdims = [chain[i].dim - chain[i + 1].dim for i in range(len(chain) - 1)]
    filt = Filtration(chain, qdims)
    if check_elements is None or not len(check_elements):
        return filt
    mats = np.asarray(check_elements, dtype=np.int64)
    r = u_exponents(syl.u, mats) if exponents is None else exponents
    t = _action_scalars(mats, Subspace.full(v.p, v.dim), cs.A0)
    ok = np.ones(len(mats), dtype=bool)
    t_ri = t
    for i in range(len(chain) - 1):
        t_ri = t_ri * r % p
        ok &= _action_scalars(mats, chain[i], chain[i + 1]) == t_ri
    filt.scalar_reports = [{"r": int(ri), "t": int(ti), "law_holds": bool(o)}
                           for ri, ti, o in zip(r, t, ok)]
    return filt


def u_exponents(u: FpMatrix, mats) -> np.ndarray:
    """The r with g u g^-1 = u^r, that is g u = u^r g, for each g of the
    (m, n, n) stack mats; SubgroupViolation if some g does not normalize
    <u>."""
    p = u.p.p
    mats = np.asarray(mats, dtype=np.int64)
    upow = np.array([u.pow(k).a for k in range(p)])
    hit = (mats[:, None] @ u.a % p == upow @ mats[:, None] % p).all(
        axis=(2, 3))
    if not hit.any(axis=1).all():
        raise SubgroupViolation("element does not normalize U")
    return hit.argmax(axis=1)


def _action_scalar(g: FpMatrix, space: Subspace, modulo: Subspace) -> int:
    """Scalar by which g acts on space/modulo (must be 1-dimensional)."""
    return int(_action_scalars(g.a[None], space, modulo)[0])


def _action_scalars(mats: np.ndarray, space: Subspace, modulo: Subspace
                    ) -> np.ndarray:
    """The scalar c with g w = c w mod modulo, for w in space outside
    modulo, for each g of the (m, n, n) stack mats: one solve for all g.
    space/modulo must be a line that each g leaves invariant."""
    if space.dim - modulo.dim != 1:
        raise InvariantViolation("quotient not a line")
    w = next((w for w in space.basis if not modulo.contains_vector(w)), None)
    if w is None:
        raise InvariantViolation("no coset representative found")
    rows = np.concatenate([modulo.basis, w.reshape(1, -1)], axis=0)
    x, ok = gfp.solve_many(FpMatrix(space.p, rows.T), mats @ w)
    if not ok.all():
        raise InvariantViolation("space not g-invariant mod subspace")
    return x[:, -1]


def dual(v: FpModule) -> FpModule:
    gens = [g.inverse().transpose() for g in v.gens()]
    return FpModule(v.p, v.dim, MatGroup(v.p, gens))


def tensor(v: FpModule, w: FpModule) -> FpModule:
    if v.p.p != w.p.p:
        raise PrimeMismatch("tensor factors over different primes")
    gens = [FpMatrix(v.p, np.kron(a.a, b.a))
            for a, b in zip(v.gens(), w.gens())]
    return FpModule(v.p, v.dim * w.dim, MatGroup(v.p, gens))


def _sym_exponents(n: int, k: int):
    exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    return sorted(exps, reverse=True)


def sym_power_matrix(M: FpMatrix, k: int) -> FpMatrix:
    """Action of M on the degree-k monomial basis (lex order)."""
    p = M.p.p
    n = M.rows
    exps = _sym_exponents(n, k)
    idx = {e: i for i, e in enumerate(exps)}
    out = np.zeros((len(exps), len(exps)), dtype=np.int64)
    for j, e in enumerate(exps):
        poly = {tuple([0] * n): 1}
        for i, ei in enumerate(e):
            for _ in range(ei):
                new = {}
                for mono, c in poly.items():
                    for r in range(n):
                        if M.a[r, i]:
                            m2 = list(mono)
                            m2[r] += 1
                            m2 = tuple(m2)
                            new[m2] = (new.get(m2, 0) + c * int(M.a[r, i])) % p
                poly = new
        for mono, c in poly.items():
            out[idx[mono], j] = c
    return FpMatrix(M.p, out)


def sym_power(v: FpModule, k: int) -> FpModule:
    if not 0 <= k <= v.p.p - 1:
        raise InvalidParams(f"sym_power needs 0 <= k <= p-1, got k = {k}")
    gens = [sym_power_matrix(g, k) for g in v.gens()]
    dim = len(_sym_exponents(v.dim, k))
    return FpModule(v.p, dim, MatGroup(v.p, gens))


# -- endomorphism algebra and splitting -----------------------------------

def _endo_basis_cyclic(gens, p, n, rng):
    """End basis via a cyclic vector and the spinning-relations method."""
    gen_arrs = [g.a for g in gens]
    for attempt in range(4):
        if attempt == 0:
            v0 = np.zeros(n, dtype=np.int64)
            v0[0] = 1
        else:
            v0 = rng.integers(0, p, size=n).astype(np.int64)
            if not v0.any():
                v0[0] = 1
        B = [v0]
        ops = [np.eye(n, dtype=np.int64)]     # E_k with b_k = E_k v0... as maps w -> e(b_k)
        span = Subspace(p, n, v0.reshape(1, -1))
        edges = []                             # (gen index, source k, target coords)
        queue = [0]
        while queue:
            k = queue.pop(0)
            for gi, G in enumerate(gen_arrs):
                img = G @ B[k] % p
                if span.contains_vector(img):
                    edges.append((gi, k, img))
                else:
                    B.append(img)
                    ops.append(G @ ops[k] % p)
                    span = gfp.add(span, Subspace(p, n, img.reshape(1, -1)))
                    queue.append(len(B) - 1)
        if span.dim < n:
            continue
        Bmat = np.array(B, dtype=np.int64).T       # columns are b_k
        Binv = FpMatrix(p, Bmat).inverse().a
        # constraints: for each closed edge, e(G b_k) = G e(b_k):
        # express G b_k = sum c_j b_j  =>  sum c_j E_j w = G E_k w for all w
        cons = []
        for gi, k, img in edges:
            coeff = Binv @ img % p
            Mc = np.zeros((n, n), dtype=np.int64)
            for j, c in enumerate(coeff):
                if c:
                    Mc = (Mc + c * ops[j]) % p
            cons.append((Mc - gen_arrs[gi] @ ops[k]) % p)
        big = np.concatenate(cons, axis=0) if cons else np.zeros((1, n), dtype=np.int64)
        ker = gfp.kernel_basis(FpMatrix(p, big))
        basis = []
        for w in ker.basis:
            C = np.array([op @ w % p for op in ops], dtype=np.int64).T
            basis.append(C @ Binv % p)
        return basis
    return None


def endo_basis(v: FpModule):
    """Basis of the endomorphism algebra End_G(V) as n x n arrays."""
    rng = np.random.default_rng(0)
    basis = _endo_basis_cyclic(v.gens(), v.p.p, v.dim, rng)
    if basis is None:
        if v.dim > 26:
            raise DimTooLarge("module is not cyclic and too large for the "
                              "direct endomorphism solve")
        basis = hom_space(v, v)
    return basis


def _fitting_split(v: FpModule, e_arr):
    """(kernel, image) of the stabilized power of an endomorphism, or None."""
    p = v.p.p
    n = v.dim
    f = FpMatrix(v.p, e_arr)
    steps = max(1, int(np.ceil(np.log2(n))) + 1)
    for _ in range(steps):
        f = f @ f
    r = gfp.rank(f)
    if r == 0 or r == n:
        return None
    return gfp.kernel_basis(f), gfp.image_basis(f)


def random_combinations(basis, p: int, rng) -> list:
    """The basis matrices, then 40 combinations of them whose coefficients
    in [0, p) rng draws, one combination at a time."""
    out = [np.array(b, dtype=np.int64) for b in basis]
    for _ in range(40):
        coeffs = rng.integers(0, p, size=len(basis))
        comb = np.zeros_like(out[0])
        for c, b in zip(coeffs, out):
            comb = (comb + int(c) * b) % p
        out.append(comb)
    return out


def split_summands(v: FpModule, seed: int = 1):
    """Indecomposable direct summands with inclusion maps.

    Returns a list of (FpModule, embed) where embed rows are the summand's
    basis inside the original coordinates.  Deterministic for a fixed seed.
    """
    if v.dim > 64:
        raise DimTooLarge("split_summands is desk-scale (dim <= 64)")
    rng = np.random.default_rng(seed)
    p = v.p.p

    def compose_embed(outer_rows: FpMatrix, inner_rows: FpMatrix) -> FpMatrix:
        return FpMatrix(v.p, inner_rows.a @ outer_rows.a % p)

    def rec(mod: FpModule, embed: FpMatrix):
        n = mod.dim
        if n == 0:
            return []
        for cand in random_combinations(endo_basis(mod), p, rng):
            diag = cand[np.arange(n), np.arange(n)]
            off = cand.copy()
            off[np.arange(n), np.arange(n)] = 0
            if not off.any() and (diag == diag[0]).all():
                continue  # scalar: useless
            res = _fitting_split(mod, cand)
            if res is None:
                continue
            ker, img = res
            m1, e1 = submodule(mod, ker)
            m2, e2 = submodule(mod, img)
            return rec(m1, compose_embed(embed, e1)) + \
                rec(m2, compose_embed(embed, e2))
        return [(mod, embed)]

    out = rec(v, FpMatrix.identity(v.p, v.dim))
    if sum(m.dim for m, _ in out) != v.dim:
        raise InvariantViolation("summand dimensions do not add up")
    return out


def hom_space(v: FpModule, w: FpModule):
    """Basis of Hom_G(V, W): matrices T with T rho_V(g) = rho_W(g) T."""
    if v.p.p != w.p.p:
        raise PrimeMismatch("hom over different primes")
    p = v.p.p
    rows = []
    for gv, gw in zip(v.gens(), w.gens()):
        Iv = np.eye(v.dim, dtype=np.int64)
        Iw = np.eye(w.dim, dtype=np.int64)
        A = (np.kron(Iw, gv.a.T) - np.kron(gw.a, Iv)) % p
        rows.append(A)
    big = np.concatenate(rows, axis=0)
    ker = gfp.kernel_basis(FpMatrix(p, big))
    return [vec.reshape(w.dim, v.dim) for vec in ker.basis]
