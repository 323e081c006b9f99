"""Black-box finite matrix group engine.

Groups are given by generating matrices; a group whose elements are all
held keeps them as a `chain.Listed`, which a breadth-first closure with
canonical byte keys fills, or which grows by the cosets of new generators
(`Listed.join`).  Every enumeration and every walk of U's orbit is bounded
by one element cap (`element_cap`).  The chain layer is
`fusionseed.chain`, on its matrix codec `MatCodec`; the automorphism
groups of `sgroup` share it.  The Sylow data never enumerates G: U's orbit
walk (`chain.walk`) runs on a few random elements of G, and G's given
generators are sifted in, so it is exact: it gives N_G(U), listed and grown
by cosets, and leaves on G a one-level `chain.Chain` that gives |G| and
membership by a sift.  One pass over N_G(U)'s elements labels each g with
the r of g u g^-1 = u^r (`u_exponents`): C_G(U) is the r = 1 subset, and
G-vee's mu and the solves of `sgroup` read the same labels.  O^{p'}(G) is
the normal closure of U under the generators of G's chain
(`chain.normal_closure`, the same closure that gives `sgroup`'s
O^{p'}(Theta)), a chain at U on G's codec, never enumerated.  The groups
between a normal G0 and G come from a walk of G0's cosets whose steps are
sifts into G0, so G is not enumerated there either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .chain import (Chain, Listed, MatCodec, _floormod, _mulmod, _stacks,
                    element_cap, greedy, normal_closure, walk)
from .errors import (CapExceeded, IndexTooLarge, InvariantViolation,
                     SubgroupViolation)
from .gfp import FpMatrix, Prime, as_prime

_CHUNK = 1 << 15


class MatGroup:
    """Matrix group over F_p given by invertible generators.

    A group whose elements are all held keeps them as a `chain.Listed`
    (`listed`): the int8 element and inverse stacks and the key -> index
    dict.  BFS (`cache`) fills it, or `of` hands one over.  A group that is
    not listed but carries a `chain.Chain` (left by
    `sylow_normalizer_via_orbit` or `o_pprime`) reads its order from the
    chain and tests membership by a sift; any other group lists itself for
    both.
    """

    def __init__(self, p, generators):
        self.p: Prime = as_prime(p)
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator (use identity for trivial)")
        self.dim = gens[0].rows
        for g in gens:
            if g.p.p != self.p.p or g.rows != self.dim or g.cols != self.dim:
                raise SubgroupViolation("generator size/prime mismatch")
            if not g.is_invertible():
                raise SubgroupViolation("generator not invertible")
        self.generators = gens
        self.listed = None        # chain.Listed of every element, once held
        self.chain = None         # chain.Chain of this group, if walked

    @classmethod
    def of(cls, listed: Listed) -> "MatGroup":
        """The group that listed holds, generated by listed's generators
        (by the identity when it has none)."""
        p, n = listed.codec.p, listed.codec.n
        group = cls(p, [FpMatrix(p, a, a_inv) for a, a_inv in
                        zip(listed.gens, listed.gens_inv)]
                    or [FpMatrix.identity(p, n)])
        group.listed = listed
        return group

    @property
    def _stack(self):
        """The element stack, or None while the group is not listed."""
        return None if self.listed is None else self.listed.stack

    # -- enumeration ------------------------------------------------------
    def cache(self) -> "MatGroup":
        if self.listed is not None:
            return self
        p, n, cap = self.p.p, self.dim, element_cap()
        gen64 = [g.a for g in self.generators]
        geninv64 = [g.inverse().a for g in self.generators]
        elems = [np.eye(n, dtype=np.int8)]
        invs = [np.eye(n, dtype=np.int8)]
        keys = {elems[0].tobytes(): 0}
        frontier = [0]
        while frontier:
            F = np.array([elems[i] for i in frontier], dtype=np.int64)
            FI = np.array([invs[i] for i in frontier], dtype=np.int64)
            new_frontier = []
            for g, gi in zip(gen64, geninv64):
                P = (F @ g % p).astype(np.int8)
                Q = (gi @ FI % p).astype(np.int8)
                for j in range(P.shape[0]):
                    k = P[j].tobytes()
                    if k not in keys:
                        keys[k] = len(elems)
                        elems.append(P[j])
                        invs.append(Q[j])
                        new_frontier.append(len(elems) - 1)
                        if len(elems) > cap:
                            raise CapExceeded(
                                f"group order exceeds cap {cap}")
            frontier = new_frontier
        self.listed = Listed(MatCodec(self.p, n),
                             np.array(elems, dtype=np.int8),
                             np.array(invs, dtype=np.int8), keys,
                             *_stacks(self.generators))
        return self

    def subset_group(self, indices) -> "MatGroup":
        """Subgroup from a closed index subset of this group's elements,
        listed in index order.  Its generators are those that `Listed.join`
        takes from the subset in that order: each element that the closure
        of the earlier ones lacks.  The subset is refused unless that
        closure is the subset itself."""
        held = self.cache().listed
        codec = held.codec
        idx = np.asarray(sorted(indices), dtype=np.int64)
        stack, inverses = held.stack[idx], held.inverses[idx]
        closure = Listed.trivial(codec).join(stack, inverses)
        if closure.order() != len(idx):
            raise SubgroupViolation("index subset is not a subgroup")
        keys = dict(zip(codec.keys(stack), range(len(idx))))
        return MatGroup.of(Listed(codec, stack, inverses, keys, closure.gens,
                                  closure.gens_inv))

    def _lookup(self):
        """The group's `chain.Listed`, or else its chain, or else the
        listing that BFS makes."""
        return self.listed or self.chain or self.cache().listed

    def order(self) -> int:
        return self._lookup().order()

    def elements_stack(self) -> np.ndarray:
        return self.cache().listed.stack

    def inverses_stack(self) -> np.ndarray:
        return self.cache().listed.inverses

    def keys(self):
        return self.cache().listed.index

    def members(self, stack: np.ndarray, inv_stack=None) -> np.ndarray:
        """Whether each matrix of a (k, n, n) stack with entries in [0, p)
        lies in the group; inv_stack holds their inverses (read only by the
        sift)."""
        return self._lookup().members(stack, inv_stack)

    def is_normal_in(self, other: "MatGroup") -> bool:
        """True iff other's generators conjugate this group into itself."""
        p, n = self.p.p, self.dim
        g, g_inv = _stacks(other.generators)
        h, h_inv = _stacks(self.generators)
        conj = _mulmod(_mulmod(g[:, None], h, p), g_inv[:, None], p)
        conj_inv = _mulmod(_mulmod(g[:, None], h_inv, p), g_inv[:, None], p)
        return bool(self.members(conj.reshape(-1, n, n),
                                 conj_inv.reshape(-1, n, n)).all())

    def is_abelian(self) -> bool:
        gens = self.generators
        return all((a @ b) == (b @ a) for i, a in enumerate(gens)
                   for b in gens[i + 1:])


# -- Sylow data ----------------------------------------------------------

@dataclass
class SylowData:
    u: FpMatrix
    normalizer_N: MatGroup
    centralizer_C: MatGroup
    automizer_order: int
    # the r with g u g^-1 = u^r for each g of normalizer_N's element stack
    exponents: np.ndarray = field(repr=False, compare=False)
    # modrep.CanonicalSubspaces at u, kept by `modrep.canonical_subspaces`
    subspaces: object = field(default=None, repr=False, compare=False)


@dataclass
class GGReport:
    status: str                # 'not_in_G' | 'in_G_only' | 'in_GG'
    group_order: int
    reason: str = ""
    sylow: SylowData | None = None


ORDER_P_WORDS = 10000    # seeded random generator words searched for u


def order_p_element(g: MatGroup) -> tuple[FpMatrix, FpMatrix] | None:
    """(u, w): an element u = w^e of order p, for w the first of
    ORDER_P_WORDS seeded random generator words whose order p divides, w
    carrying its inverse w^(ep - 1); or None.

    A word's semisimple part has order dividing L = lcm(p^i - 1, i <= n),
    so w^L, a power of w's unipotent part prime to p, is 1 exactly when p
    does not divide the order of w; p-th powers take it down to order p,
    so e = L p^i.  Words are formed and powered 100 at a time: the 100
    prefixes of the next 100 letters are a scan of products, one stacked
    product per doubling of the prefix length.
    """
    p, n = g.p.p, g.dim
    exponent = math.lcm(*(p ** i - 1 for i in range(1, n + 1)))
    rng = random.Random(1)
    gens = np.array([h.a for h in g.generators], dtype=np.float64)
    word = np.eye(n)
    for _ in range(ORDER_P_WORDS // 100):
        words = gens[[rng.randrange(len(gens)) for _ in range(100)]]
        words[0] = _mulmod(word, words[0], p)
        shift = 1
        while shift < len(words):
            words[shift:] = _mulmod(words[:-shift], words[shift:], p)
            shift *= 2
        word, unipotent = words[-1], np.eye(n)
        for bit in bin(exponent)[2:]:          # square and multiply
            unipotent = _mulmod(unipotent, unipotent, p)
            if bit == "1":
                unipotent = _mulmod(unipotent, words, p)
        for q, m in enumerate(unipotent):
            if (m != np.eye(n)).any():
                u, e = FpMatrix(g.p, m.astype(np.int64)), exponent
                while u.pow(p) != FpMatrix.identity(g.p, n):
                    u, e = u.pow(p), e * p
                w = FpMatrix(g.p, words[q].astype(np.int64))
                return u, FpMatrix(g.p, w.a, w.pow(e * p - 1).a)
    return None


def sylow_data(g: MatGroup, u: FpMatrix,
               w: FpMatrix) -> tuple[SylowData, int]:
    """Local data at U = <u>, for u a power of w, and |U^G|, from U's
    orbit walk (leaving its chain, whose first generator is w, on g):
    N_G(U), each of its elements labelled by its exponent r
    (`u_exponents`, on the walk's codec), and C_G(U), the elements with
    r = 1."""
    p, codec = g.p.p, MatCodec(g.p, g.dim, u)
    ngrp, orbit = sylow_normalizer_via_orbit(g.p, g.dim, g.generators, u,
                                             into=g, root=w, codec=codec)
    r = u_exponents(codec, ngrp.elements_stack(), ngrp.inverses_stack())
    cgrp = ngrp.subset_group(np.flatnonzero(r == 1))
    autom = ngrp.order() // cgrp.order()
    if (p - 1) % autom:
        raise InvariantViolation(
            f"automizer order {autom} does not divide p - 1 = {p - 1}")
    return SylowData(u, ngrp, cgrp, autom, r), orbit


def u_exponents(codec: MatCodec, mats, mats_inv) -> np.ndarray:
    """The r with g u g^-1 = u^r, for u = codec.u, for each g of the stack
    mats (inverses mats_inv), _CHUNK elements at a time: g L g^-1 = r L
    for L = log u (`MatCodec.log`), so r is read at L's first nonzero entry
    and the rest of the product is checked against r L.  SubgroupViolation
    if some g does not normalize <u>."""
    p, log = codec.p, codec.log.ravel()
    at = int(np.flatnonzero(log)[0])
    out = np.empty(len(mats), dtype=np.int64)
    for lo in range(0, len(mats), _CHUNK):
        x = codec.mul(codec.mul(codec.load(mats[lo:lo + _CHUNK]), codec.log),
                      codec.load(mats_inv[lo:lo + _CHUNK]))
        x = x.reshape(len(x), -1)
        r = _floormod(x[:, at] * codec.recip[int(log[at])], p)
        if (_floormod(r[:, None] * log, p) != x).any():
            raise SubgroupViolation("element does not normalize U")
        out[lo:lo + len(x)] = r
    return out


def class_GG(g: MatGroup) -> GGReport:
    """Classify g against the order-p non-normal-Sylow classes.

    U's orbit walk leaves its chain on g, so |G| = |U^G| |N_G(U)| is g's
    order from then on; it is checked if g is enumerated.  g is enumerated
    only when no random word has order divisible by p.  'in_GG'
    additionally requires automizer order exactly p - 1.
    """
    p = g.p.p
    found = order_p_element(g)
    if found is None:
        order = g.order()
        if order % p:
            return GGReport("not_in_G", order,
                            reason="p does not divide |G|")
        raise InvariantViolation(
            f"Cauchy: p = {p} divides |G| = {order} but no element of "
            "order p was found")
    syl, orbit = sylow_data(g, *found)
    order = orbit * syl.normalizer_N.order()
    if g.listed is not None and order != g.listed.order():
        raise InvariantViolation(
            f"|U^G| |N_G(U)| = {order} but |G| = {g.listed.order()}")
    if (order // p) % p == 0:
        return GGReport("not_in_G", order, reason="p^2 divides |G|")
    if orbit == 1:
        return GGReport("not_in_G", order, reason="Sylow p-subgroup is normal")
    status = "in_GG" if syl.automizer_order == p - 1 else "in_G_only"
    return GGReport(status, order, sylow=syl)


def o_pprime(g: MatGroup, syl: SylowData) -> MatGroup:
    """O^{p'}(G), the normal closure of U = <u> under G's chain generators
    (`chain.normal_closure`), grown from <u>'s chain at U on the codec of
    G's chain; it is never enumerated.  The closure is generated by
    conjugates of u, p-elements, so it lies in O^{p'}(G); its U-orbit must
    be G's, so that it holds every Sylow p-subgroup and is O^{p'}(G)."""
    chain = g.chain
    if chain is None or chain.codec.u != syl.u:
        raise InvariantViolation("o_pprime needs G's orbit chain at u")
    codec = chain.codec
    start = Chain.start(codec, codec.base, Listed.trivial(codec))
    closure = normal_closure(start.join(*_stacks([syl.u])), chain.gens,
                             chain.gens_inv)
    if len(closure.orbit) != len(chain.orbit):
        raise InvariantViolation("the conjugates of u miss part of U's orbit")
    sub = MatGroup(g.p, [FpMatrix(g.p, a, a_inv) for a, a_inv in
                         zip(closure.gens, closure.gens_inv)])
    sub.chain = closure
    return sub


def product_covers(g: MatGroup, h: MatGroup, x: MatGroup) -> bool:
    """True iff g = hx, for x normalizing h; g itself is not enumerated.

    When h and x lie in g and x normalizes h, hx is a subgroup of g of
    order |h| |x| / |h meet x|, so it is g exactly when that order is |g|.
    Raises SubgroupViolation when x does not normalize h.
    """
    if not all(g.members(*_stacks(k.generators)).all() for k in (h, x)):
        return False
    if not h.is_normal_in(x):
        raise SubgroupViolation("x must normalize h")
    meet = int(h.members(x.elements_stack(), x.inverses_stack()).sum())
    return h.order() * x.order() == meet * g.order()


def _subgroups_of_table(mul, e: int, size: int):
    """All subgroups of a finite group given by a Cayley table."""
    full = frozenset(range(size))

    def closure(seed):
        seen = set(seed) | {e}
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(seen):
                    for c in (mul[a][b], mul[b][a]):
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(seen)

    subs = {frozenset([e])}
    work = [frozenset([e])]
    while work:
        h = work.pop()
        for x in range(size):
            if x in h:
                continue
            k = closure(h | {x})
            if k not in subs:
                subs.add(k)
                if k != full:
                    work.append(k)
    return subs


INDEX_BOUND = 64    # cosets of G0 that `intermediate_subgroups` accepts


def intermediate_subgroups(g0: MatGroup, gbar: MatGroup) -> list[MatGroup]:
    """All subgroups H with g0 <= H <= gbar, for g0 normal in gbar and
    generated inside it (by some of gbar's generators, or as O^{p'}(gbar)),
    of index at most INDEX_BOUND.  H is generated by g0's generators and
    coset representatives; neither gbar nor H is enumerated.

    The cosets of g0 are the orbit of g0 under gbar's generators, walked by
    `chain.walk` with no stabilizer kept: t lies in the coset of the
    representative r_d exactly when t r_d^-1 sifts into g0, and a t in no
    known coset is a new representative.  The walk's action table holds
    the coset of r_c g, so the coset of r_i r_j follows r_j's path from
    coset i with no further sift.
    """
    if not g0.is_normal_in(gbar):
        raise SubgroupViolation("g0 not normal in gbar")
    p, n = gbar.p.p, gbar.dim
    reps, reps_inv = np.eye(n)[None], np.eye(n)[None]

    def cosets(labels, t, t_inv, gens, gens_inv):
        nonlocal reps, reps_inv
        found = []
        for x, x_inv in zip(_mulmod(t[:, None], gens, p).reshape(-1, n, n),
                            _mulmod(gens_inv, t_inv[:, None], p).reshape(
                                -1, n, n)):
            hits = np.flatnonzero(g0.members(_mulmod(x, reps_inv, p),
                                             _mulmod(reps, x_inv, p)))
            if not len(hits):
                if len(reps) == INDEX_BOUND:
                    raise IndexTooLarge("index above the subgroup-"
                                        "enumeration bound")
                reps = np.concatenate([reps, x[None]])
                reps_inv = np.concatenate([reps_inv, x_inv[None]])
            found.append(int(hits[0]) if len(hits) else len(reps) - 1)
        return found
    walked = walk(Chain.start(MatCodec(p, n), 0, None),
                  *_stacks(gbar.generators), targets=cosets)
    mul = [[i] for i in range(len(reps))]
    for j in range(1, len(reps)):
        c, k = walked.parent[j]
        for row in mul:
            row.append(int(walked.action[row[c], k]))
    subs = _subgroups_of_table(mul, 0, len(reps))
    return [MatGroup(gbar.p, g0.generators
                     + [FpMatrix(gbar.p, reps[c], reps_inv[c])
                        for c in sorted(sub) if c != 0])
            for sub in sorted(subs, key=lambda s: (len(s), sorted(s)))]


# -- Sylow normalizer by orbit-stabilizer ---------------------------------

def sylow_normalizer_via_orbit(p, dim, generators, u: FpMatrix,
                               into: MatGroup | None = None,
                               root: FpMatrix | None = None,
                               codec: MatCodec | None = None):
    """N_G(<u>) for G = <generators> without enumerating G, u being a power
    of root (u itself when root is None), an element of G that carries its
    inverse.

    Returns (N as MatGroup, orbit size); |G| then equals orbit_size * |N|
    by orbit-stabilizer.  When `into` is the MatGroup of these generators,
    the walk's chain is left on it, which then gives its order and
    membership without enumeration.  The walk runs on codec, the
    `MatCodec` at u, when given.  Raises CapExceeded when the orbit has
    more points than the element cap.
    """
    chain = _orbit_chain(p, dim, generators, u, root or u, codec)
    if into is not None:
        into.chain = chain
    return MatGroup.of(chain.stabilizer), len(chain.orbit)


def _orbit_chain(p, dim, generators, u: FpMatrix, root: FpMatrix,
                 codec: MatCodec | None = None) -> Chain:
    """The chain at U = <u> of G = <generators>, for u a power of root in
    G: U's conjugation orbit, each point keyed by the line through its
    logarithm (the matrix codec's key, `base` at U), walked by `chain.walk`
    from the trivial group on candidates in turn (`chain.greedy`): root, a
    seeded random subproduct of the generators (`_subproduct`), then the
    generators.  A candidate joins only when it does not sift into the
    chain's group so far (`Chain.members`), so the chain has few
    generators, root first; and each of G's generators lies in its group
    or joined it, so that group is G (Holt, Eick & O'Brien, §4.4).  codec
    is the `MatCodec` at u, built here when None."""
    if codec is None:
        codec = MatCodec(p, dim, u)
    gens, gens_inv = _stacks(generators)
    (w,), (w_inv,) = _stacks([root])
    s, s_inv = _subproduct(codec, gens, gens_inv)
    x = np.concatenate([[w, s], gens])
    x_inv = np.concatenate([[w_inv, s_inv], gens_inv])
    return greedy(Chain.start(codec, codec.base, Listed.trivial(codec)),
                  np.arange(len(x)),
                  lambda chain, idx: chain.members(x[idx], x_inv[idx]),
                  lambda chain, i: chain.join(x[i:i + 1], x_inv[i:i + 1]))


def _subproduct(codec: MatCodec, gens, gens_inv):
    """A seeded random subproduct of the float64 stack gens (each generator
    in turn taken or not) and its inverse, the reversed product of the
    inverses taken."""
    rng = random.Random(1)
    s = s_inv = np.eye(codec.n)
    for g, g_inv in zip(gens, gens_inv):
        if rng.random() < 0.5:
            s, s_inv = codec.mul(s, g), codec.mul(g_inv, s_inv)
    return s, s_inv
