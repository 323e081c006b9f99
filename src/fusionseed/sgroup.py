"""The p-group S = A x| U and its local automorphism data.

S-elements are affine matrices [[u^k, c], [0, 1]] for c in A = F_p^n and u
the Sylow generator's matrix, so S is a subgroup of Gamma = A x| G in the
same representation.  Z(S), [S,S], Z_2(S) and A_0 are subspaces of A; the
essential-candidate subgroups H_i = Z<x a^i> and B_i = Z_2<x a^i> are
listed MatGroups.  The automorphisms of such a P that Gamma, S and P
induce, |C_Gamma(P)|, and whether one P is Gamma-conjugate into another
(step-2 condition (1)) come from one F_p solve per exponent k with g u
g^-1 = u^k over N_G(U) or U, and from a scan of C_G(U), so neither Gamma
nor A x| N_G(U) is ever built.  The local automorphism groups are
permutation groups on P's elements over the permutation codec of
`fusionseed.chain` (`PermGroupOnSet`), keyed by exact codes of their
generator images: Inn(P) and Aut_S(P) as its `chain.Listed` groups, grown
by cosets, Lambda_P, Theta, Theta_0 and O^{p'}(Theta) as its one-level
chains, and verified against their contracts.  Lambda_P and O^{p'}(Theta)
grow from Aut_S(P)'s chain, built once, Theta_0's generators are walked
together, and Theta grows from Theta_0's chain; the SL_2 lifts are
extended from their generator images a BFS level at a time; checks (iii)
and (iv) walk the conjugation orbit of Aut_S(P) with no stabilizer and
read its length and its Schreier generators.

S itself is never enumerated, at any scale: the S-classes of the H_i come
from a subspace test (the S-conjugates of (c, u) are the (c + w, u) with w
in S'), A's uniqueness as abelian subgroup of index p from dim Z(S), and
|Gamma| = p^n |G| is a number.  The only matrix groups listed are the
H_i and B_i that are read (`cmd_sgroup` reads class 0 only) and subgroups
of N_G(U).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gfp, modrep, mu
from .errors import CapExceeded, InvariantViolation, MuTooSmall, SplitFailed
from .gfp import FpMatrix, Subspace
from .chain import (Chain, Listed, MatCodec, PermCodec, _mulmod, _row_keys,
                    _stacks, greedy, walk)
from .grp import MatGroup, SylowData
from .modrep import FpModule


# -- S and its subgroups as affine matrices ---------------------------------

class SGroup:
    """S = A x| U with cached u-powers and the distinguished subspaces.

    An S-element (c, u^k) is the affine matrix [[u^k, c], [0, 1]] of Gamma =
    A x| G, so (c, u^k)(b, u^l) = (c + u^k b, u^(k+l)); subgroups of S are
    MatGroups of such matrices.
    """

    def __init__(self, v: FpModule, syl: SylowData):
        self.v = v
        self.p = v.p.p
        self.n = v.dim
        self.u = syl.u
        self.syl = syl
        self.upow = [syl.u.pow(k).a for k in range(self.p)]
        cs = modrep.canonical_subspaces(v, syl)
        self.cs = cs
        self.Z = cs.Z                    # Z(S) inside A
        self.Sprime = cs.UV              # [S, S] = [U, A]
        self.A0 = cs.A0
        self.Z0 = cs.Z0
        # Z_2(S): preimage in A of C_{A/Z}(u)
        self.Z2 = self._z2()

    @functools.cached_property
    def normalizer(self) -> tuple:
        """N_G(U)'s element stack, its inverse stack, and for each element
        g the r with g u g^-1 = u^r: computed once for every solve that
        ranges over N_G(U) and for the W-filtration's scalar law."""
        N = self.syl.normalizer_N
        mats = N.elements_stack()
        return mats, N.inverses_stack(), modrep.u_exponents(self.u, mats)

    def gamma_order(self) -> int:
        """|Gamma| = p^n |G|, without building Gamma."""
        return self.p ** self.n * self.v.group.order()

    def translation(self, w) -> FpMatrix:
        """The translation (w, u^0) of A, with its inverse (-w, u^0)."""
        one, w = np.eye(self.n, dtype=np.int64), np.asarray(w, dtype=np.int64)
        return FpMatrix(self.v.p, _affine_array(one, w),
                        _affine_array(one, -w % self.p))

    def subgroup(self, space: Subspace, *extra: FpMatrix) -> MatGroup:
        """<space, extra> for a subspace of A and S-elements, listed: the
        translations by the p^dim vectors of space, listed at once, then
        grown by the cosets of each of extra outside them (`Listed.join`).
        Its generators are space's basis translations and those of
        extra."""
        p, n = self.p, self.n
        coeffs = np.array(list(itertools.product(range(p), repeat=space.dim)),
                          dtype=np.int64).reshape(-1, space.dim)
        vecs = coeffs @ space.basis % p
        one = np.eye(n, dtype=np.int64)
        codec = MatCodec(p, n + 1)
        stack = _affine_array(one, vecs).astype(np.int8)
        group = Listed(codec, stack,
                       _affine_array(one, -vecs % p).astype(np.int8),
                       dict(zip(codec.keys(stack), range(len(stack)))),
                       codec.load(_affine_array(one, space.basis)),
                       codec.load(_affine_array(one, -space.basis % p)))
        if extra:
            group = group.join(*_stacks(extra))
        return MatGroup.of(group)

    def _z2(self) -> Subspace:
        p, n = self.p, self.n
        one = np.eye(n, dtype=np.int64)
        m = (self.u.a - one) % p
        if self.Z.dim == n:
            return Subspace.full(self.p, n)
        C = gfp.annihilator(self.Z)
        return gfp.kernel_basis(FpMatrix(self.p, C @ m % p))

    def sigma(self, a_vec) -> np.ndarray:
        """sum_{i<p} u^i a  (the p-th power obstruction of (a, 1))."""
        s = np.zeros(self.n, dtype=np.int64)
        a = np.array(a_vec, dtype=np.int64)
        for k in range(self.p):
            s = (s + self.upow[k] @ a) % self.p
        return s


def _affine(p, block, vec) -> FpMatrix:
    return FpMatrix(p, _affine_array(block, vec))


def _affine_array(block, vec) -> np.ndarray:
    """The affine matrix [[block, vec], [0, 1]] of w -> block w + vec, or
    the stack of them for stacks of blocks and of vectors."""
    vec = np.asarray(vec, dtype=np.int64)
    n = vec.shape[-1]
    a = np.zeros(vec.shape[:-1] + (n + 1, n + 1), dtype=np.int64)
    a[..., :n, :n] = block
    a[..., :n, n] = vec
    a[..., n, n] = 1
    return a


@dataclass
class BuildReport:
    dims: dict
    checks: dict
    ok: bool


def build_s(v: FpModule, syl: SylowData) -> tuple[SGroup, BuildReport]:
    """Construct S and verify the structural size laws.

    A_unique: two distinct abelian subgroups of index p meet in Z(S) with
    index p^2, so A is the unique one exactly when |S : Z(S)| > p^2.
    """
    s = SGroup(v, syl)
    p, n = s.p, s.n
    dims = {
        "S": n + 1, "Z": s.Z.dim, "Sprime": s.Sprime.dim,
        "Z0": s.Z0.dim, "Z2": s.Z2.dim, "A0": s.A0.dim,
    }
    z2_meet_sp = gfp.intersect(s.Z2, s.Sprime)
    checks = {
        # |Z(S)| * |[S,S]| = |S| / p
        "center_commutator_law": s.Z.dim + s.Sprime.dim == n,
        "Z0_is_line": s.Z0.dim == 1,
        "A0_index_p": s.A0.dim == n - 1,
        "Z2_over_Z_is_p": s.Z2.dim == s.Z.dim + 1,
        "Z2_inside_A0": gfp.contains(s.A0, s.Z2),
        "Z2_meet_Sprime_rank2": z2_meet_sp.dim == 2,
        "A_unique": s.Z.dim <= n - 2,
    }
    ok = all(checks.values())
    return s, BuildReport(dims, checks, ok)


def choose_x_a(s: SGroup, g: MatGroup, syl: SylowData):
    """x = (0, u) and the translation a = (a, u^0), with a spanning the
    N_G(U)-invariant complement of A0/S'.

    The complement line in A/S' is the kernel of the average of any
    projection onto A0/S' over the distinct images of N_G(U) in GL(A/S').
    U acts trivially on A/S' and |N_G(U) : U| is prime to p, so this is the
    average over coset representatives of U in N_G(U).
    """
    p, n = s.p, s.n
    x = _affine(s.v.p, s.u.a, np.zeros(n, dtype=np.int64))
    N = syl.normalizer_N
    # coordinates of A/S'
    quot_mod, proj = modrep.quotient_module(
        FpModule(s.v.p, n, N), s.Sprime)
    q = quot_mod.dim
    # image of A0 in the quotient
    a0_rows = np.array([proj.apply(w) for w in s.A0.basis], dtype=np.int64)
    W0 = Subspace(s.v.p, q, a0_rows)
    if W0.dim != q - 1:
        raise InvariantViolation("A0/S' must be a hyperplane of A/S'")
    # a projector onto W0 along an arbitrary complement direction:
    # write v = w + t*e_comp with w in W0, send v to w
    comp_col = [c for c in range(q) if c not in W0._pivots][0]
    E = np.eye(q, dtype=np.int64)
    basisext = np.concatenate([W0.basis, E[comp_col].reshape(1, -1)], axis=0)
    Bx = FpMatrix(s.v.p, basisext.T)
    Binv = Bx.inverse().a
    sel = np.diag([1] * W0.dim + [0])
    P0 = (basisext.T @ sel @ Binv) % p
    # average over the distinct images of N in GL(A/S'); column k of
    # lift_mat solves proj x = e_k, so it lifts a quotient vector as
    # `gfp.solve` would (proj has full row rank: solve is linear)
    lift_mat = gfp.solve_many(proj, np.eye(q, dtype=np.int64))[0].T
    images, inverses = (proj.a @ stack.astype(np.int64) % p @ lift_mat % p
                        for stack in (N.elements_stack(), N.inverses_stack()))
    _, first = np.unique(images.reshape(len(images), -1), axis=0,
                         return_index=True)
    acc = (images[first] @ P0 % p @ inverses[first] % p).sum(axis=0) % p
    Pbar = acc * pow(len(first) % p, p - 2, p) % p
    L = gfp.kernel_basis(FpMatrix(s.v.p, Pbar))
    if L.dim != 1:
        raise InvariantViolation("invariant complement must be a line")
    # lift the line generator back to A
    lift = lift_mat @ L.basis[0] % p
    # verification: S'<a> is N-invariant
    spa = gfp.add(s.Sprime, Subspace(s.v.p, n, lift.reshape(1, -1)))
    if not gfp.invariant(np.array([g.a for g in N.generators]), spa):
        raise InvariantViolation("S'<a> not normalizer-invariant")
    if s.A0.contains_vector(lift):
        raise InvariantViolation("a must lie outside A0")
    return x, s.translation(lift)


def class_label(s: SGroup, m: FpMatrix, a: FpMatrix) -> int:
    """Class label i of the Z<x a^i>-style subgroups holding m = (c, u^k),
    for the translation a that `choose_x_a` returns.

    For k != 0 the label is gamma / k, where gamma is the A/A0-coordinate
    of c in units of a's.
    """
    p, n = s.p, s.n
    unit = _a_mod_a0_coord(s, a.a[:n, n])
    if not unit:
        raise InvariantViolation("a must lie outside A0")
    for k in range(1, p):
        if (m.a[:n, :n] == s.upow[k]).all():
            gamma = _a_mod_a0_coord(s, m.a[:n, n])
            return gamma * pow(unit * k, p - 2, p) % p
    raise InvariantViolation("element lies inside A")


def _a_mod_a0_coord(s: SGroup, vec) -> int:
    """Coordinate of vec in the line A/A0: after reduction by A0's echelon
    basis, its entry at the one column where A0 has no pivot."""
    r = s.A0.reduce(vec)
    free = [c for c in range(s.n) if c not in s.A0._pivots]
    if len(free) != 1:
        raise InvariantViolation("A0 must be a hyperplane of A")
    return int(r[free[0]])


class _ClassSubgroups(dict):
    """{"generator": x a^i}, with H_i = Z<x a^i> and B_i = Z_2<x a^i>
    enumerated when first read and checked to have order |Z| p or |Z_2| p."""

    def __init__(self, s: SGroup, i: int, gen: FpMatrix):
        super().__init__(generator=gen)
        self.s, self.i = s, i

    def __missing__(self, kind):
        space, name = {"H": (self.s.Z, "Z"), "B": (self.s.Z2, "Z_2")}[kind]
        group = self.s.subgroup(space, self["generator"])
        if group.order() != self.s.p ** (space.dim + 1):
            raise InvariantViolation(f"|{kind}_{self.i}| is not |{name}| p")
        self[kind] = group
        return group


def hb_subgroups(s: SGroup, x, a):
    """H_i = Z<x a^i> and B_i = Z_2<x a^i> for 0 <= i <= p-1, each
    enumerated only when it is first read.

    The S-conjugates of x' = (c, u) are the (c + w, u) with w in S' =
    Im(1 - u).  So those of H_0's generator x stay in class 0 exactly when
    S' lies in A0, and one lies in H_1, whose elements over u are the
    (t_1 + z, u) with z in Z, exactly when t_1 - t_0 lies in S' + Z.
    """
    p, n = s.p, s.n
    out = {}
    for i in range(p):
        gen = x @ a.pow(i)
        label = class_label(s, gen, a)
        if label != i:
            raise InvariantViolation(f"x a^{i} has class label {label}")
        out[i] = _ClassSubgroups(s, i, gen)
    if not gfp.contains(s.A0, s.Sprime):
        raise InvariantViolation("an S-conjugate of H_0 left class 0")
    t0, t1 = (out[i]["generator"].a[:n, n] for i in (0, 1))
    if gfp.add(s.Sprime, s.Z).contains_vector((t1 - t0) % p):
        raise InvariantViolation("an S-conjugate of x lies in H_1")
    return out


# -- automorphisms of P keyed by generator images ----------------------------

_PERM_CAP = 10 ** 6       # orbit points and elements stored for one group


class PermGroupOnSet(PermCodec):
    """Automorphisms of P = <W, x'> <= S, with W = P meet A and x' = (c, u),
    as permutations of P's elements, over the permutation codec of
    `fusionseed.chain`.

    An automorphism is fixed by the images of P's k generators, so its code
    packs their element indices in base |P|: an exact int64 key, refused
    with CapExceeded when |P|^k does not fit.  Its groups are
    `chain.Listed`s, or `chain.Chain`s at g_0 = x' whose stabilizers are
    `chain.Listed`s; _PERM_CAP bounds what one group stores.  x' leads the
    generators: it lies outside A, and its orbit does not depend on the
    basis, where a translation's orbit under Theta can be a few points,
    leaving most of Theta to its listed stabilizer.
    """

    def __init__(self, group: MatGroup, space: Subspace, x: FpMatrix):
        self.group, self.space, self.x = group, space, x
        self.annihilator = gfp.annihilator(space)
        self.elements = group.elements_stack()
        self.index = group.keys()
        gen_idx = [self.index[g.key()] for g in group.generators]
        g0 = self.index[x.key()]
        if g0 in gen_idx:
            gen_idx.remove(g0)
        gen_idx.insert(0, g0)
        n, k = group.order(), len(gen_idx)
        if n ** k >= 1 << 63:
            raise CapExceeded(f"automorphism codes |P|^k = {n}^{k} "
                              "do not fit int64")
        super().__init__(n, gen_idx, _PERM_CAP)

    def indices(self, mats: np.ndarray) -> np.ndarray:
        """Element index of each matrix of a (..., d, d) stack; -1 for a
        matrix outside P."""
        d = self.group.dim
        idx = [self.index.get(k, -1)
               for k in _row_keys(mats.reshape(-1, d * d))]
        return np.array(idx, dtype=np.int64).reshape(mats.shape[:-2])

    def _conjugated(self, mats, invs, elems) -> np.ndarray:
        """Index of m e m^-1 for each matrix m of the (m, d, d) stack mats
        (inverses invs) and each e of the stack elems; each m must
        normalize P."""
        p = self.group.p.p
        mats, invs = mats.astype(np.int64), invs.astype(np.int64)
        idx = self.indices(mats[:, None] @ elems.astype(np.int64) % p
                           @ invs[:, None] % p)
        if (idx < 0).any():
            raise InvariantViolation("a normalizing element moves P")
        return idx

    def conjugation_perms(self, mats, invs) -> np.ndarray:
        """The automorphisms of P that conjugation by each matrix of the
        (m, d, d) stack mats (inverses invs) induces."""
        return self._conjugated(mats, invs, self.elements).astype(self.dtype)

    def close(self, gens) -> Listed:
        """<gens>, listed."""
        gens = np.asarray(gens, dtype=self.dtype).reshape(-1, self.n)
        return Listed.trivial(self).join(gens, self.inv(gens))

    def normalizing(self, perms: np.ndarray, sub: Listed) -> np.ndarray:
        """Whether each permutation t normalizes sub: t h t^-1 lies in sub
        for each generator h of sub, evaluated at P's generators only."""
        inv = self.inv(perms)[:, self.gen_idx]
        vals = perms[np.arange(len(perms))[None, :, None], sub.gens[:, inv]]
        return sub.members(vals).all(axis=0)

    # -- one-level chains at g_0 ------------------------------------------

    def chain_of(self, group: Listed) -> Chain:
        """The listed group as a chain at g_0, read off its elements: the
        orbit of g_0 is walked with no stabilizer, so the transversal
        follows the walk, and the stabilizer is the elements that fix g_0,
        generated by the orbit's Schreier generators (Schreier's lemma)."""
        g0 = int(self.gen_idx[0])
        orbit = walk(Chain.start(self, g0, None), group.gens, group.gens_inv)
        schreier = orbit.schreier_generators()
        codes = self.codes(schreier)
        _, first = np.unique(codes, return_index=True)
        one = self.codes(self.identity[None])[0]
        gens = schreier[np.sort(first[codes[first] != one])]
        fix = np.flatnonzero(group.stack[:, g0] == g0)
        stab = Listed(self, group.stack[fix], group.inverses[fix],
                      dict(zip(self.keys(self.image(group.stack[fix])),
                               range(len(fix)))),
                      gens, self.inv(gens))
        return dataclasses.replace(orbit, stabilizer=stab)

    def chain(self, perms, base: Chain | None = None) -> Chain:
        """<base, perms> as a chain (base the trivial group if None)."""
        perms = np.asarray(perms, dtype=self.dtype).reshape(-1, self.n)
        return self._sift_in(self._trivial() if base is None else base,
                             self.image(perms), lambda i: perms[i])

    def chain_by_conjugation(self, mats, invs, base: Chain) -> Chain:
        """<base, the automorphisms that conjugation by the (m, d, d) stack
        mats (inverses invs) induces> as a chain: only the generator images
        of each matrix are read, and a full permutation is formed only for
        the matrices that join."""
        return self._sift_in(
            base, self._conjugated(mats, invs, self.elements[self.gen_idx]),
            lambda i: self.conjugation_perms(mats[i:i + 1], invs[i:i + 1])[0])

    def normal_closure(self, chain: Chain, under: np.ndarray) -> Chain:
        """The normal closure of the chain's group under <under>, grown from
        the chain: each generator h of the closure, those joined on the way
        included, has its conjugates t h t^-1 by under sifted in.  So
        t N t^-1 <= N for every t, and every element that joins is a
        conjugate of one of the chain's generators."""
        under = np.asarray(under, dtype=self.dtype).reshape(-1, self.n)
        under_inv = self.inv(under)
        rows = np.arange(len(under))[:, None]
        done = 0
        while done < len(chain.gens):
            h = chain.gens[done]
            done += 1
            chain = self._sift_in(
                chain, under[rows, h[under_inv[:, self.gen_idx]]],
                lambda i, h=h: under[i][h[under_inv[i]]])
        return chain

    def conjugation_orbit(self, chain: Chain, sub: Listed) -> Chain:
        """The orbit sub^G for G the group of chain, walked by `chain.walk`
        with each conjugate x^-1 sub x keyed by its sorted codes and no
        stabilizer kept: it has |sub^G| = |G| / |N_G(sub)| points, and its
        Schreier generators generate N_G(sub).  _PERM_CAP bounds its
        points."""
        hs = sub.stack

        def targets(points, t, t_inv, gens, gens_inv):
            x = self.mul(t[:, None], gens)
            x_inv = self.image(self.mul(gens_inv, t_inv[:, None]))
            conj = self.mul(self.mul(x_inv[..., None, :], hs), x[..., None, :])
            return [np.sort(c).tobytes()
                    for c in self.pack(conj).reshape(-1, len(hs))]
        start = Chain.start(self, np.sort(self.codes(hs)).tobytes(), None)
        orbit = walk(start, chain.gens, chain.gens_inv, targets)
        self.bound(len(orbit.points), 0)
        return orbit

    def _trivial(self) -> Chain:
        return Chain.start(self, int(self.gen_idx[0]), Listed.trivial(self))

    def _sift_in(self, chain: Chain, images, build) -> Chain:
        """chain grown by candidates given as an (m, k) stack of generator
        images; a candidate outside the group joins as build(i), its full
        permutation."""
        def join(ch, i):
            perm = build(i)[None]
            return ch.join(perm, self.inv(perm))
        return greedy(chain, np.asarray(images), Chain.members, join)


def _hom_from_gen_images(pset: PermGroupOnSet, gens, images):
    """Permutation of the subgroup induced by generator images, or None.

    Right multiplication by each generator, and by each image, is a map of
    P's element indices: one stacked product each (an image outside P
    gives None).  The map is extended along a BFS of P's elements, a level
    at a time on those index maps, and every (element, generator) pair is
    checked: an element reached twice must get the same image both times.
    So the map is a homomorphism whenever it returns non-None, and an
    automorphism once its images are |P| distinct elements of P.
    """
    p, d = pset.group.p.p, pset.group.dim
    elems = pset.elements.astype(np.float64)
    moves = [pset.indices(_mulmod(elems, m.a.astype(np.float64), p))
             for m in list(gens) + list(images)]
    if any((m < 0).any() for m in moves):
        return None
    step, step_img = np.array(moves[:len(gens)]), np.array(moves[len(gens):])
    one = pset.index[np.eye(d, dtype=np.int8).tobytes()]
    image = np.full(pset.n, -1, dtype=np.int64)
    image[one] = one
    level = np.array([one])
    while len(level):
        # the pairs (element, generator), element-major
        reached = step[:, level].T.ravel()
        reached_img = step_img[:, image[level]].T.ravel()
        new = image[reached] < 0
        fresh, first = np.unique(reached[new], return_index=True)
        image[fresh] = reached_img[new][first]
        if (image[reached] != reached_img).any():
            return None
        level = fresh
    if (image < 0).any() or np.bincount(image, minlength=pset.n).max() > 1:
        return None
    return image.astype(pset.dtype)


# -- Inn(P), Aut_S(P), Lambda_P and C_Gamma(P) by F_p solves -----------------
#
# An element (a, g) of Gamma conjugating Q = <W, (c, u)> into a subgroup
# Q' = <W', (c', u)> of S maps Q's image U in G into U, so g lies in N_G(U)
# (and a centralizing one in C_G(U)).  With g u g^-1 = u^k, it conjugates Q
# into Q' exactly when gW <= W' and
#     (1 - u^k) a = c'_k - g c  mod W',   c'_k = (1 + u + ... + u^(k-1)) c',
# and for Q' = Q the solutions a form a coset of T = {a : (1 - u) a in W}:
# one `gfp.solve_many` per exponent k, and no ambient group is enumerated.

def conjugators(s: SGroup, src: PermGroupOnSet, dst: PermGroupOnSet,
                mats, invs, ks) -> tuple[np.ndarray, np.ndarray]:
    """(a, g) in Gamma conjugating src = <W, (c, u)> into dst = <W',
    (c', u)>, as stacks of affine matrices and of their inverses: one for
    each g of the (m, n, n) stack mats of N_G(U) elements (inverses invs,
    exponents ks: g u g^-1 = u^k) that admits one, in stack order.  The g
    with the same k share the matrix q (1 - u^k), so each k takes one
    solve for all of them."""
    p, n = s.p, s.n
    one = np.eye(n, dtype=np.int64)
    q = dst.annihilator
    c, c_dst = src.x.a[:n, n], dst.x.a[:n, n]
    mats, invs = mats.astype(np.int64), invs.astype(np.int64)
    # whether g maps W into W'
    keeps = ~(q @ mats @ src.space.basis.T % p).any(axis=(1, 2))
    ck = np.cumsum([u @ c_dst for u in s.upow], axis=0) % p  # ck[k-1] = c'_k
    a = np.zeros((len(mats), n), dtype=np.int64)
    found = np.zeros(len(mats), dtype=bool)
    # not np.unique, whose first call imports numpy.ma (tens of ms)
    for k in sorted(set(ks[keeps].tolist())):
        sel = np.flatnonzero(keeps & (ks == k))
        a[sel], found[sel] = gfp.solve_many(
            FpMatrix(p, q @ (one - s.upow[k]) % p),
            (ck[k - 1] - mats[sel] @ c) % p @ q.T % p)
    g, g_inv, a = mats[found], invs[found], a[found]
    return (_affine_array(g, a),
            _affine_array(g_inv, -(g_inv @ a[..., None])[..., 0] % p))


def normalizer_mats(s: SGroup, pset: PermGroupOnSet, mats, invs, ks
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The (a, g) in Gamma normalizing P that generate, with g in the
    (m, n, n) stack mats of N_G(U) elements (inverses invs, exponents ks),
    the automorphisms of P they induce: the translations by a basis of T and
    the `conjugators` of P into itself, as stacks of affine matrices and
    of their inverses."""
    p, n = s.p, s.n
    one = np.eye(n, dtype=np.int64)
    q = pset.annihilator
    t = gfp.kernel_basis(FpMatrix(p, q @ (one - s.u.a) % p)).basis
    conj, conj_inv = conjugators(s, pset, pset, mats, invs, ks)
    return (np.concatenate([_affine_array(one, t), conj]),
            np.concatenate([_affine_array(one, -t % p), conj_inv]))


def local_automorphisms(s: SGroup, pset: PermGroupOnSet):
    """Inn(P), Aut_S(P), Aut_S(P)'s chain and Lambda_P: the automorphisms
    of P induced by conjugation by P's generators, by the elements of S
    normalizing P, and by the elements of Gamma normalizing P.  The first
    two are small p-groups and are listed; Lambda_P is a `chain.Chain`,
    grown from Aut_S(P)'s chain (N_S(P) <= N_Gamma(P)) by the generator
    images of the normalizing elements of Gamma.  N_S(P) is generated by
    the translations normalizing P and one (a, u), if any (the u^j with a
    normalizing (a, u^j) form a subgroup of U), so u alone is solved for,
    with exponent 1."""
    inn = pset.conjugation_perms(*_stacks(pset.group.generators))
    aut_s = pset.close(pset.conjugation_perms(*normalizer_mats(
        s, pset, np.array(s.upow[1:2]), np.array(s.upow[-1:]),
        np.ones(1, dtype=np.int64))))
    aut_s_chain = pset.chain_of(aut_s)
    lam = pset.chain_by_conjugation(*normalizer_mats(s, pset, *s.normalizer),
                                    base=aut_s_chain)
    return pset.close(inn), aut_s, aut_s_chain, lam


def centralizer_order(s: SGroup, pset: PermGroupOnSet) -> int:
    """|C_Gamma(P)|: (a, g) centralizes P = <W, (c, u)> exactly when g in
    C_G(U) fixes W pointwise and (1 - u) a = c - g c.  That is solvable
    when c - g c lies in Im(1 - u) = [U, A] = S', and its solutions are a
    coset of ker(1 - u) = Z."""
    p, n = s.p, s.n
    mats = s.syl.centralizer_C.elements_stack().astype(np.int64)
    w = pset.space.basis.T
    c = pset.x.a[:n, n]
    fixes = ((mats @ w - w) % p == 0).all(axis=(1, 2))
    solvable = ~((c - mats @ c) % p @ gfp.annihilator(s.Sprime).T % p).any(
        axis=1)
    return p ** s.Z.dim * int((fixes & solvable).sum())


@dataclass
class ThetaReport:
    kind: str
    p_order: int
    inn_order: int
    theta_order: int
    theta0_over_inn: int
    checks: dict
    ok: bool
    pset: PermGroupOnSet = field(repr=False, default=None)
    theta: Chain = field(repr=False, default=None)
    theta0: Chain = field(repr=False, default=None)
    inn: Listed = field(repr=False, default=None)
    aut_s: Listed = field(repr=False, default=None)


def sl2_images(s: SGroup, kind: str, gen_x: FpMatrix, gvee: mu.GVee):
    """(gens, (images_E12, images_E21), what): generators of P = H_i (kind
    "H") or B_i with x' = gen_x, and their images under the lifts of
    SL_2(p)'s standard generators E12 and E21 from which Theta_0 is built;
    what names the failure when one of them is not an automorphism."""
    p, n = s.p, s.n
    t = -1 if kind == "H" else 0
    # alpha in G-vee with mu(alpha) generating Delta_t
    gen_r = mu.primitive_root(p)
    alpha_mat = None
    gv_stack = gvee.group.elements_stack()
    want = (gen_r, pow(gen_r, t % (p - 1), p))
    for j in range(gv_stack.shape[0]):
        key = gv_stack[j].tobytes()
        if gvee.mu_values[key] == want:
            alpha_mat = FpMatrix(s.v.p, gv_stack[j])
            break
    if alpha_mat is None:
        raise MuTooSmall(f"no G-vee element with mu generating Delta_{t}")

    z0 = s.translation(s.Z0.basis[0])
    if kind == "H":
        # P = Z^* x P^* with Z^* = C_Z(alpha), P^* = Z0<x> = C_p^2;
        # SL_2 standard generators act on the (z0, x) coordinates:
        # E12: z0 -> z0, x -> z0 x ; E21: z0 -> z0 x, x -> x
        zstar = gfp.intersect(
            s.Z, gfp.kernel_basis(alpha_mat - FpMatrix.identity(s.v.p, n)))
        if zstar.dim != s.Z.dim - 1:
            raise InvariantViolation("C_Z(alpha) must be a hyperplane of Z")
        zs_gens = [s.translation(w) for w in zstar.basis]
        gens_P = zs_gens + [z0, gen_x]
        img1 = zs_gens + [z0, z0 @ gen_x]
        img2 = zs_gens + [z0 @ gen_x, gen_x]
        what = "SL_2 generators must define automorphisms of C_p^2 x Z^*"
    else:
        # P = Z^* x P^* with P^* = (Z2 meet S')<x> extraspecial p^{1+2}
        z2sp = gfp.intersect(s.Z2, s.Sprime)
        if z2sp.dim != 2:
            raise InvariantViolation("Z_2 meet S' must have rank 2")
        # v-vector: a generator of (Z2 meet S') - Z0 with [x, v] = z0-normalized
        vvec = next(np.array(w, dtype=np.int64) for w in z2sp.basis
                    if not s.Z0.contains_vector(w))
        # [x, v] = (u - 1) v ; rescale v so that [x, v] = z0 exactly
        comm = (s.u.a @ vvec - vvec) % p
        coef = _line_coeff(s, s.Z0.basis[0], comm)
        if not coef:
            raise InvariantViolation("[x, v] must be a nonzero multiple of z0")
        vel = s.translation(vvec * pow(coef, p - 2, p) % p)
        zstar = _alpha_complement_in_z(s, alpha_mat)
        zs_gens = [s.translation(w) for w in zstar.basis]
        gens_P = zs_gens + [z0, vel, gen_x]
        # E12: x -> v x, v -> v ; E21: v -> x v, x -> x
        img1 = zs_gens + [z0, vel, vel @ gen_x]
        img2 = zs_gens + [z0, gen_x @ vel, gen_x]
        what = "SL_2 lifts must define automorphisms of the extraspecial part"
    return gens_P, (img1, img2), what


def theta_witness(s: SGroup, kind: str, i: int, hb,
                  gvee: mu.GVee) -> ThetaReport:
    """Build Theta <= Aut(P) for P = H_i or B_i and verify its contract.

    Checks: (i) Aut_S(P) is Sylow-p in Theta, (ii) O^{p'}(Theta)/Inn(P) has
    order |SL_2(p)|, (iii) normalizer elements of Aut_S(P) in O^{p'}(Theta)
    move Z into Z0 only, (iv) N_Theta(Aut_S(P)) equals the restrictions of
    subgroup-normalizing ambient automorphisms.  Lambda_P, Theta, Theta_0
    and O^{p'}(Theta) are `chain.Chain`s, so none is enumerated, and each
    check is an identity of orders or a sift of generators.
    """
    p, n = s.p, s.n
    t = -1 if kind == "H" else 0
    image = mu.mu_image(gvee)
    if not mu.contains_delta_t(image, t):
        raise MuTooSmall(f"mu-image lacks Delta_{t}")
    P = hb[i]["H" if kind == "H" else "B"]
    gen_x = hb[i]["generator"]
    if gen_x.order() != p:
        raise SplitFailed("P does not split over P meet A")
    pset = PermGroupOnSet(P, s.Z if kind == "H" else s.Z2, gen_x)

    gens_P, images, what = sl2_images(s, kind, gen_x, gvee)
    theta0_gens = [_hom_from_gen_images(pset, gens_P, img)
                   for img in images]
    if any(perm is None for perm in theta0_gens):
        raise InvariantViolation(what)

    inn, aut_s, aut_s_chain, lam = local_automorphisms(s, pset)
    # Theta_0's generators are walked together: they are few, and each
    # joined alone would walk Theta_0's orbit again
    theta0_gens = np.concatenate([theta0_gens, inn.gens])
    theta0 = walk(pset._trivial(), theta0_gens, pset.inv(theta0_gens))
    theta = pset.chain(lam.gens, base=theta0)
    # O^{p'}(Theta): normal closure of the Sylow-p subgroup Aut_S(P)
    opp = pset.normal_closure(aut_s_chain, theta.gens)

    gx = pset.gen_idx
    sl2_order = p * (p * p - 1)
    checks = {}
    checks["aut_s_in_theta"] = bool(theta.contains(aut_s.gens[:, gx]).all())
    theta_order = theta.order()
    checks["aut_s_is_sylow"] = aut_s.order() == _p_part(theta_order, p)
    checks["theta0_over_inn_is_sl2"] = \
        theta0.order() == inn.order() * sl2_order
    # two groups are equal when each one's generators lie in the other
    checks["opp_is_theta0"] = bool(theta0.contains(opp.gens[:, gx]).all()
                                   and opp.contains(theta0.gens[:, gx]).all())
    # (iii): N_{O^{p'}(Theta)}(Aut_S(P)) moves each z of Z into z Z0.  The
    # automorphisms that do form a subgroup (f(z z') = f(z) f(z') and Z0 is
    # a subgroup of Z), so the Schreier generators of Aut_S(P)'s orbit,
    # which generate the normalizer, decide it
    schreier = pset.conjugation_orbit(opp, aut_s).schreier_generators()
    z_idx = [pset.index[k] for k in s.subgroup(s.Z).keys()]
    z_els = pset.elements[z_idx].astype(np.int64)
    img = pset.elements[schreier[:, z_idx]].astype(np.int64)
    diff = (img[..., :n, n] - z_els[:, :n, n]) % p
    checks["normalizer_fixes_Z_mod_Z0"] = bool(
        (img[..., :n, :n] == np.eye(n, dtype=np.int64)).all()
        and not (diff @ gfp.annihilator(s.Z0).T % p).any())
    # (iv): N_Theta(Aut_S(P)) equals Lambda_P.  Lambda_P <= Theta by
    # construction, and Lambda_P <= N_Theta(Aut_S(P)) once its generators
    # normalize Aut_S(P); then the two are equal exactly when |Lambda_P| =
    # |N_Theta(Aut_S(P))| = |Theta| / |Aut_S(P)^Theta|
    conjugates = len(pset.conjugation_orbit(theta, aut_s).points)
    checks["normalizer_equals_lambda"] = bool(
        pset.normalizing(lam.gens, aut_s).all()
        and lam.order() * conjugates == theta_order)

    ok = all(checks.values())
    return ThetaReport(kind, pset.n, inn.order(), theta_order,
                       theta0.order() // inn.order(), checks, ok,
                       pset=pset, theta=theta, theta0=theta0, inn=inn,
                       aut_s=aut_s)


def _p_part(order: int, p: int) -> int:
    """The largest power of p dividing order."""
    part = 1
    while order % (part * p) == 0:
        part *= p
    return part


def _line_coeff(s: SGroup, line_vec, w):
    """c with w = c * line_vec, or None."""
    lv = np.array(line_vec, dtype=np.int64) % s.p
    w = np.array(w, dtype=np.int64) % s.p
    nz = np.nonzero(lv)[0]
    if nz.size == 0:
        return None
    c = int(w[nz[0]]) * pow(int(lv[nz[0]]), s.p - 2, s.p) % s.p
    if ((c * lv) % s.p == w).all():
        return c
    return None


def _alpha_complement_in_z(s: SGroup, alpha_mat: FpMatrix) -> Subspace:
    """C_Z(alpha), the invariant complement of Z0 in Z (B-case helper)."""
    fixed = gfp.intersect(
        s.Z, gfp.kernel_basis(alpha_mat - FpMatrix.identity(s.v.p, s.n)))
    if fixed.dim == s.Z.dim - 1 and not gfp.contains(fixed, s.Z0):
        return fixed
    # alpha acts trivially on all of Z in the B-case; fall back to any
    # complement of Z0 in Z (unused by the Theta_0 construction then)
    rows = [w for w in s.Z.basis if not s.Z0.contains_vector(w)]
    comp = Subspace(s.v.p, s.n, np.array(rows[:s.Z.dim - 1], dtype=np.int64)
                    .reshape(-1, s.n)) if rows else Subspace.zero(s.v.p, s.n)
    if comp.dim == s.Z.dim - 1:
        return comp
    return fixed


def _centralizer_order(ambient: MatGroup, P: MatGroup) -> int:
    """|C_ambient(P)|: the elements of ambient commuting with P's
    generators."""
    return len(ambient._scan_commuting(P.generators))


# -- step-2 witness conditions ---------------------------------------------

def step2_conditions(s: SGroup, thetas) -> dict:
    """Verify the saturation-witness conditions on Gamma = A x| G.

    thetas: the `theta_witness` reports of the class representatives Q.
    (1) pairwise non-conjugacy in Gamma (and no containment),
    (2) each Q is p-centric in Gamma,
    (3) Out_S(Q) has order p and is non-normal in Theta/Inn(Q).
    """
    p = s.p
    report = {"gamma_order": s.gamma_order(), "conditions": {}}
    # (1) no Q is Gamma-conjugate into another (nor contained in it); a
    # conjugator (a, g) has g in N_G(U), so one solve per exponent of g
    # decides it
    cond1 = not any(len(conjugators(s, a.pset, b.pset, *s.normalizer)[0])
                    for a, b in itertools.permutations(thetas, 2))
    report["conditions"]["pairwise_nonconjugate"] = cond1

    # (2) p-centric: Z(Q) is Sylow-p in C_Gamma(Q)
    cond2 = True
    centric = []
    for th in thetas:
        c_order = centralizer_order(s, th.pset)
        zq = _centralizer_order(th.pset.group, th.pset.group)
        p_centric = _p_part(c_order, p) == zq
        centric.append({"centralizer_order": c_order, "center_order": zq,
                        "p_centric": p_centric})
        cond2 &= p_centric
    report["conditions"]["p_centric"] = cond2
    report["centric_detail"] = centric

    # (3) Out_S(Q) of order p, non-normal in Theta/Inn: some generator of
    # Theta fails to normalize Aut_S(Q) Inn(Q)
    cond3 = True
    for th in thetas:
        outs = th.aut_s.order() // int(
            th.inn.members(th.pset.image(th.aut_s.stack)).sum())
        order_p = outs == p
        aut_s_inn = th.aut_s.join(th.inn.gens, th.pset.inv(th.inn.gens))
        nonnormal = not th.pset.normalizing(th.theta.gens, aut_s_inn).all()
        cond3 &= order_p and nonnormal
    report["conditions"]["strongly_p_embedded_normalizer"] = cond3
    report["theta_checks"] = [{"kind": th.kind, "ok": th.ok,
                               "checks": th.checks} for th in thetas]
    report["ok"] = cond1 and cond2 and cond3 and all(t.ok for t in thetas)
    return report

