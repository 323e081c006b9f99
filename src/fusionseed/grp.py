"""Black-box finite matrix group engine.

Groups are given by generating matrices; enumeration is a breadth-first
closure with canonical byte keys, capped by default at 2e7 elements
(override with the FUSIONSEED_CAP environment variable).  The Sylow data
never enumerates G: U's orbit walk gives N_G(U) and leaves on G a one-level
chain (`OrbitChain`) that gives |G| and membership by a sift, C_G(U) is a
scan inside N_G(U), and O^{p'}(G) is the normal closure of U on generators,
whose every closure is sifted through its own chain, never enumerated.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

from .errors import (CapExceeded, IndexTooLarge, InvariantViolation,
                     SubgroupViolation)
from .gfp import FpMatrix, Prime, as_prime

DEFAULT_CAP = int(os.environ.get("FUSIONSEED_CAP", 2 * 10 ** 7))
_CHUNK = 1 << 15


class MatGroup:
    """Matrix group over F_p given by invertible generators.

    The element cache, once built, holds the full element stack (int8),
    a key -> index dict, and the matching stack of inverses.  A group that
    is not enumerated but carries an `OrbitChain` (left by
    `sylow_normalizer_via_orbit`) reads its order from the chain and tests
    membership by a sift; any other group enumerates itself for both.
    """

    def __init__(self, p, generators, cap: int = DEFAULT_CAP):
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
        self.cap = cap
        self._stack = None        # (N, n, n) int8
        self._inv_stack = None    # (N, n, n) int8
        self._keys = None         # bytes -> index
        self.chain = None         # OrbitChain of this group, if walked

    # -- enumeration ------------------------------------------------------
    def cache(self) -> "MatGroup":
        if self._stack is not None:
            return self
        p, n = self.p.p, self.dim
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
                        if len(elems) > self.cap:
                            raise CapExceeded(
                                f"group order exceeds cap {self.cap}")
            frontier = new_frontier
        self._stack = np.array(elems, dtype=np.int8)
        self._inv_stack = np.array(invs, dtype=np.int8)
        self._keys = keys
        return self

    @classmethod
    def from_elements(cls, p, generators, stack, inv_stack, keys,
                      cap: int = DEFAULT_CAP) -> "MatGroup":
        """Wrap an already-closed element set (no re-enumeration)."""
        g = cls.__new__(cls)
        g.p = as_prime(p)
        g.generators = list(generators)
        g.dim = stack.shape[1]
        g.cap = cap
        g._stack = np.ascontiguousarray(stack, dtype=np.int8)
        g._inv_stack = np.ascontiguousarray(inv_stack, dtype=np.int8)
        g._keys = dict(keys)
        g.chain = None
        return g

    def subset_group(self, indices, generators=None) -> "MatGroup":
        """Subgroup from a closed index subset of this group's cache."""
        self.cache()
        idx = np.asarray(sorted(indices), dtype=np.int64)
        stack = self._stack[idx]
        inv_stack = self._inv_stack[idx]
        keys = {stack[i].tobytes(): i for i in range(len(idx))}
        if generators is None:
            generators = [self.element(int(i)) for i in idx]
        return MatGroup.from_elements(self.p, generators, stack, inv_stack,
                                      keys, self.cap)

    def _sifts(self) -> bool:
        return self._stack is None and self.chain is not None

    def order(self) -> int:
        if self._sifts():
            return self.chain.order()
        return len(self.cache()._keys)

    def elements_stack(self) -> np.ndarray:
        return self.cache()._stack

    def inverses_stack(self) -> np.ndarray:
        return self.cache()._inv_stack

    def keys(self):
        return self.cache()._keys

    def element(self, i: int) -> FpMatrix:
        return FpMatrix(self.p, self.cache()._stack[i])

    def contains(self, m: FpMatrix) -> bool:
        if self._sifts():
            return bool(self.chain.members(m.a[None], m.inverse().a[None])[0])
        return m.key() in self.cache()._keys

    def members(self, stack: np.ndarray, inv_stack: np.ndarray) -> np.ndarray:
        """Whether each matrix of a (k, n, n) stack with entries in [0, p)
        lies in the group; inv_stack holds their inverses (read only by the
        sift)."""
        if self._sifts():
            return self.chain.members(stack, inv_stack)
        keys = self.cache()._keys
        return np.array([k in keys for k in
                         _row_keys(stack.reshape(len(stack), self.dim ** 2))],
                        dtype=bool)

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        ok = other.cache()._keys
        return all(k in ok for k in self.cache()._keys)

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

    # -- scans -------------------------------------------------------------
    def _scan_commuting(self, mats) -> list:
        """Indices of elements commuting with every matrix in mats."""
        p = self.p.p
        self.cache()
        N = self._stack.shape[0]
        out = []
        m64 = [m.a for m in mats]
        for lo in range(0, N, _CHUNK):
            S = self._stack[lo:lo + _CHUNK].astype(np.int64)
            mask = np.ones(S.shape[0], dtype=bool)
            for m in m64:
                mask &= (S @ m % p == m @ S % p).all(axis=(1, 2))
            out.extend((lo + np.nonzero(mask)[0]).tolist())
        return out

    def centralizer_of(self, mats) -> "MatGroup":
        return self.subset_group(self._scan_commuting(mats))


# -- Sylow data ----------------------------------------------------------

@dataclass
class SylowData:
    u: FpMatrix
    normalizer_N: MatGroup
    centralizer_C: MatGroup
    automizer_order: int

    def r_of(self, g: FpMatrix) -> int:
        """Exponent r with g u g^-1 = u^r."""
        conj = g @ self.u @ g.inverse()
        for r in range(1, int(self.u.p)):
            if conj == self.u.pow(r):
                return r
        raise SubgroupViolation("element does not normalize U")


@dataclass
class GGReport:
    status: str                # 'not_in_G' | 'in_G_only' | 'in_GG'
    group_order: int
    reason: str = ""
    sylow: SylowData | None = None


ORDER_P_WORDS = 10000    # seeded random generator words searched for u


def order_p_element(g: MatGroup) -> FpMatrix | None:
    """An element of order p from the first of ORDER_P_WORDS seeded random
    generator words whose order p divides, or None.

    A word's semisimple part has order dividing L = lcm(p^i - 1, i <= n),
    so w^L, a power of w's unipotent part prime to p, is 1 exactly when p
    does not divide the order of w; p-th powers take it down to order p.
    Words are powered 100 at a time.
    """
    p, n = g.p.p, g.dim
    exponent = math.lcm(*(p ** i - 1 for i in range(1, n + 1)))
    rng = random.Random(1)
    gens = [h.a.astype(np.float64) for h in g.generators]
    word = np.eye(n)
    for _ in range(ORDER_P_WORDS // 100):
        words = []
        for _ in range(100):
            word = _mulmod(word, gens[rng.randrange(len(gens))], p)
            words.append(word)
        words, unipotent = np.array(words), np.eye(n)
        for bit in bin(exponent)[2:]:          # square and multiply
            unipotent = _mulmod(unipotent, unipotent, p)
            if bit == "1":
                unipotent = _mulmod(unipotent, words, p)
        for m in unipotent:
            if (m != np.eye(n)).any():
                u = FpMatrix(g.p, m.astype(np.int64))
                while u.pow(p) != FpMatrix.identity(g.p, n):
                    u = u.pow(p)
                return u
    return None


def sylow_data(g: MatGroup, u: FpMatrix) -> tuple[SylowData, int]:
    """Local data at U = <u> and |U^G|, from U's orbit walk (bounded by
    g's element cap, and leaving its chain on g) and a centralizer scan
    inside N_G(U)."""
    p = g.p.p
    ngrp, orbit = sylow_normalizer_via_orbit(g.p, g.dim, g.generators, u,
                                             max_orbit=g.cap, into=g)
    cgrp = ngrp.centralizer_of([u])
    autom = ngrp.order() // cgrp.order()
    if (p - 1) % autom:
        raise InvariantViolation(
            f"automizer order {autom} does not divide p - 1 = {p - 1}")
    return SylowData(u, ngrp, cgrp, autom), orbit


def class_GG(g: MatGroup) -> GGReport:
    """Classify g against the order-p non-normal-Sylow classes.

    U's orbit walk leaves its chain on g, so |G| = |U^G| |N_G(U)| is g's
    order from then on; it is checked if g is enumerated.  g is enumerated
    only when no random word has order divisible by p.  'in_GG'
    additionally requires automizer order exactly p - 1.
    """
    p = g.p.p
    u = order_p_element(g)
    if u is None:
        order = g.order()
        if order % p:
            return GGReport("not_in_G", order,
                            reason="p does not divide |G|")
        raise InvariantViolation(
            f"Cauchy: p = {p} divides |G| = {order} but no element of "
            "order p was found")
    syl, orbit = sylow_data(g, u)
    order = orbit * syl.normalizer_N.order()
    if g._stack is not None and order != len(g._keys):
        raise InvariantViolation(
            f"|U^G| |N_G(U)| = {order} but |G| = {len(g._keys)}")
    if (order // p) % p == 0:
        return GGReport("not_in_G", order, reason="p^2 divides |G|")
    if orbit == 1:
        return GGReport("not_in_G", order, reason="Sylow p-subgroup is normal")
    status = "in_GG" if syl.automizer_order == p - 1 else "in_G_only"
    return GGReport(status, order, sylow=syl)


def o_pprime(g: MatGroup, syl: SylowData) -> MatGroup:
    """O^{p'}(G), the normal closure of U = <u>: each generator of the
    closure is conjugated by G's generators, and a conjugate that does not
    sift through the closure's chain becomes a new generator (and is
    conjugated in turn).  Each closure gets its chain from a fresh walk of
    U's orbit; none is enumerated."""
    p = g.p.p
    x, x_inv = _stacks(g.generators)
    gens, gens_inv = [syl.u], [syl.u.inverse()]
    sub = _walked(g, gens, syl.u)
    i = 0
    while i < len(gens):
        conj = _mulmod(_mulmod(x, gens[i].a, p), x_inv, p)
        conj_inv = _mulmod(_mulmod(x, gens_inv[i].a, p), x_inv, p)
        for q in np.flatnonzero(~sub.members(conj, conj_inv)):
            # a closure made for an earlier conjugate may hold this one
            if not sub.members(conj[q:q + 1], conj_inv[q:q + 1])[0]:
                gens.append(FpMatrix(g.p, conj[q].astype(np.int64)))
                gens_inv.append(FpMatrix(g.p, conj_inv[q].astype(np.int64)))
                sub = _walked(g, gens, syl.u)
        i += 1
    return sub


def _walked(g: MatGroup, gens: list, u: FpMatrix) -> MatGroup:
    """The subgroup <gens> of g, holding u, with the chain of U's orbit."""
    sub = MatGroup(g.p, gens, cap=g.cap)
    sylow_normalizer_via_orbit(g.p, g.dim, sub.generators, u,
                               max_orbit=g.cap, into=sub)
    return sub


def product_covers(g: MatGroup, h: MatGroup, x: MatGroup) -> bool:
    """True iff g = hx, for x normalizing h; g itself is not enumerated.

    hx is then a subgroup, holds g when it holds g's generators, and equals
    g when also |h| |x| / |h meet x| = |g|.  Raises SubgroupViolation when
    x does not normalize h.
    """
    if not h.is_normal_in(x):
        raise SubgroupViolation("x must normalize h")
    p = g.p.p
    xs, xs_inv = x.elements_stack(), x.inverses_stack()
    xs64, xs_inv64 = xs.astype(np.float64), xs_inv.astype(np.float64)
    for a, a_inv in zip(*_stacks(g.generators)):
        # a lies in hx iff a y^-1 (inverse y a^-1) lies in h for some y in x
        if not h.members(_mulmod(a, xs_inv64, p),
                         _mulmod(xs64, a_inv, p)).any():
            return False
    meet = int(h.members(xs, xs_inv).sum())
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


def intermediate_subgroups(g0: MatGroup, gbar: MatGroup,
                           max_index: int = 64) -> list[MatGroup]:
    """All subgroups H with g0 <= H <= gbar, for g0 normal of small index."""
    g0.cache()
    gbar.cache()
    if not g0.is_subgroup_of(gbar):
        raise SubgroupViolation("g0 not contained in gbar")
    index = gbar.order() // g0.order()
    if index > max_index:
        raise IndexTooLarge(f"index {index} > {max_index}")
    if not g0.is_normal_in(gbar):
        raise SubgroupViolation("g0 not normal in gbar")
    p = gbar.p.p
    stack = gbar.elements_stack()
    keys = gbar.keys()
    g0_idx = [keys[k] for k in g0.keys()]
    coset_of = np.full(gbar.order(), -1, dtype=np.int64)
    coset_of[g0_idx] = 0
    # identity is in g0; rep of coset 0 is the identity index
    ident_key = FpMatrix.identity(gbar.p, gbar.dim).key()
    reps = [keys[ident_key]]
    g0_stack64 = stack[g0_idx].astype(np.int64)
    queue = [0]
    gen64 = [g.a for g in gbar.generators]
    while queue:
        c = queue.pop()
        r64 = stack[reps[c]].astype(np.int64)
        for g in gen64:
            t = (r64 @ g) % p
            ti = keys[t.astype(np.int8).tobytes()]
            if coset_of[ti] == -1:
                new_c = len(reps)
                reps.append(ti)
                members = (t @ g0_stack64) % p
                for j in range(members.shape[0]):
                    coset_of[keys[members[j].astype(np.int8).tobytes()]] = new_c
                queue.append(new_c)
    size = len(reps)
    if size != index:
        raise InvariantViolation(
            f"{size} cosets of G0 found in G, but |G : G0| = {index}")
    mul = [[0] * size for _ in range(size)]
    for i in range(size):
        a = stack[reps[i]].astype(np.int64)
        for j in range(size):
            b = stack[reps[j]].astype(np.int64)
            mul[i][j] = int(coset_of[keys[(a @ b % p).astype(np.int8).tobytes()]])
    subs = _subgroups_of_table(mul, 0, size)
    out = []
    for sub in sorted(subs, key=lambda s: (len(s), sorted(s))):
        idx = [i for i in range(gbar.order()) if coset_of[i] in sub]
        gens = g0.generators + [gbar.element(reps[c]) for c in sorted(sub) if c != 0]
        out.append(gbar.subset_group(idx, generators=gens))
    return out


def scalar_subgroup(g: MatGroup) -> MatGroup:
    """Subgroup of scalar matrices in g."""
    stack = g.elements_stack()
    n = g.dim
    diag = stack[:, np.arange(n), np.arange(n)]
    is_scalar = (diag == diag[:, :1]).all(axis=1)
    off = stack.copy()
    off[:, np.arange(n), np.arange(n)] = 0
    is_scalar &= ~off.any(axis=(1, 2))
    return g.subset_group(np.nonzero(is_scalar)[0].tolist())


# -- Sylow normalizer by orbit-stabilizer ---------------------------------

_ORBIT_CHUNK = 64   # orbit points conjugated per batched product


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for broadcastable float64 stacks with entries in [0, p).

    Every product sum (at most n (p - 1)^2) is exact in float64, and so is
    the floor of its quotient by p; numpy multiplies float64 stacks through
    BLAS, several times faster than int64 stacks.
    """
    x = a @ b
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _stacks(mats) -> tuple[np.ndarray, np.ndarray]:
    """float64 stacks of the matrices mats and of their inverses."""
    return (np.array([m.a for m in mats], dtype=np.float64),
            np.array([m.inverse().a for m in mats], dtype=np.float64))


def _row_keys(rows: np.ndarray) -> list:
    """int8 bytes of each row of a (k, w) array reduced mod p."""
    rows = np.ascontiguousarray(rows, dtype=np.int8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


def _subgroup_keys(x: np.ndarray, p: int) -> list:
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
        cur = _mulmod(cur, x, p)
        cand = cur.astype(np.uint8).reshape(k, -1)
        first = (cand != best).argmax(axis=1)
        less = cand[rows, first] < best[rows, first]
        best[less] = cand[less]
    return _row_keys(best)


@dataclass
class OrbitChain:
    """A one-level exact chain of H at the base point U = <u>.

    `orbit` maps the key of each conjugate <T_j^-1 u T_j> to j, `trans_inv`
    holds T_j^-1 (int8), and `stabilizer` is N_H(U), enumerated.  The orbit
    is complete and the stabilizer holds every Schreier generator, so
    |H| = |orbit| |N_H(U)|, and m lies in H exactly when <m^-1 u m> is an
    orbit point j and m T_j^-1 lies in N_H(U): a sift with no random step.
    """
    u: FpMatrix
    orbit: dict
    trans_inv: np.ndarray
    stabilizer: MatGroup

    def order(self) -> int:
        return len(self.orbit) * self.stabilizer.order()

    def members(self, stack: np.ndarray, inv_stack: np.ndarray) -> np.ndarray:
        """Whether each matrix of stack (inverses in inv_stack) lies in H."""
        p, n = self.u.p.p, self.u.rows
        uf = self.u.a.astype(np.float64)
        stab_keys = self.stabilizer.keys()
        out = np.zeros(len(stack), dtype=bool)
        for lo in range(0, len(stack), _CHUNK):
            m = stack[lo:lo + _CHUNK].astype(np.float64)
            m_inv = inv_stack[lo:lo + _CHUNK].astype(np.float64)
            keys = _subgroup_keys(_mulmod(_mulmod(m_inv, uf, p), m, p), p)
            j = np.array([self.orbit.get(k, -1) for k in keys],
                         dtype=np.int64)
            hit = np.flatnonzero(j >= 0)
            n_part = _mulmod(m[hit], self.trans_inv[j[hit]].astype(np.float64),
                             p)
            out[lo + hit] = [k in stab_keys for k in
                             _row_keys(n_part.reshape(len(hit), n * n))]
        return out


def sylow_normalizer_via_orbit(p, dim, generators, u: FpMatrix,
                               max_orbit: int = 10 ** 6,
                               into: MatGroup | None = None):
    """N_G(<u>) for G = <generators> without enumerating G.

    Returns (N as MatGroup, orbit size); |G| then equals orbit_size * |N|
    by orbit-stabilizer.  When `into` is the MatGroup of these generators,
    the walk's `OrbitChain` is left on it, which then gives its order and
    membership without enumeration.  Raises CapExceeded when the orbit has
    more than max_orbit points.
    """
    chain = _orbit_chain(p, dim, generators, u, max_orbit)
    if into is not None:
        into.chain = chain
    return chain.stabilizer, len(chain.orbit)


def _orbit_chain(p, dim, generators, u: FpMatrix,
                 max_orbit: int) -> OrbitChain:
    """Walks the conjugation orbit of U = <u> under <generators> level by
    level, in chunks of _ORBIT_CHUNK points conjugated by every generator
    at once, keeping a transversal T with T^-1 u T the point it reaches.
    The Schreier generators (t g) T_j^-1 that are not yet in the stabilizer
    generate N_G(U) (Schreier's lemma).
    """
    pp = int(p)
    n = dim
    gens = np.array([g.a for g in generators], dtype=np.float64)
    gens_inv = np.array([g.inverse().a for g in generators],
                        dtype=np.float64)
    m = len(gens)
    uf = u.a.astype(np.float64)
    orbit = {_subgroup_keys(uf[None], pp)[0]: 0}
    trans = np.zeros((1024, n, n), dtype=np.int8)
    trans_inv = np.zeros_like(trans)
    trans[0] = trans_inv[0] = np.eye(n, dtype=np.int8)
    stab_gens = []
    stab = MatGroup(p, [FpMatrix.identity(p, n)]).cache()
    stab_keys = stab.keys()
    lo, hi = 0, 1
    while lo < hi:
        for c in range(lo, hi, _ORBIT_CHUNK):
            t = trans[c:min(c + _ORBIT_CHUNK, hi)].astype(np.float64)
            t_inv = trans_inv[c:c + len(t)].astype(np.float64)
            reps = _mulmod(_mulmod(t_inv, uf, pp), t, pp)
            # pair q = (point c + q // m, generator q % m)
            conj = _mulmod(_mulmod(gens_inv, reps[:, None], pp), gens, pp)
            keys = _subgroup_keys(conj.reshape(-1, n, n), pp)
            tg = _mulmod(t[:, None], gens, pp).reshape(-1, n, n)
            targets = np.array([orbit.get(k, -1) for k in keys])
            fresh = []
            for q in np.flatnonzero(targets < 0):
                j = orbit.get(keys[q])
                if j is None:
                    if len(orbit) >= max_orbit:
                        raise CapExceeded(
                            f"Sylow orbit exceeds bound {max_orbit}")
                    j = orbit[keys[q]] = len(orbit)
                    fresh.append(q)
                targets[q] = j
            if fresh:
                size = len(orbit)
                if size > len(trans):
                    grow = max(size, 2 * len(trans))
                    trans = np.resize(trans, (grow, n, n))
                    trans_inv = np.resize(trans_inv, (grow, n, n))
                fresh = np.array(fresh)
                trans[size - len(fresh):size] = tg[fresh]
                trans_inv[size - len(fresh):size] = _mulmod(
                    gens_inv[fresh % m], t_inv[fresh // m], pp)
            # every pair that did not find a new point gives a Schreier
            # generator (one that did gives the identity)
            pairs = np.ones(len(keys), dtype=bool)
            pairs[fresh] = False
            schreier = _mulmod(tg[pairs],
                               trans_inv[targets[pairs]].astype(np.float64),
                               pp)
            skeys = _row_keys(schreier.reshape(-1, n * n))
            # a closure made for an earlier one may already hold a later one
            for q in [q for q, k in enumerate(skeys) if k not in stab_keys]:
                if skeys[q] not in stab_keys:
                    stab_gens.append(
                        FpMatrix(p, schreier[q].astype(np.int64)))
                    stab = MatGroup(p, stab_gens).cache()
                    stab_keys = stab.keys()
        lo, hi = hi, len(orbit)
    return OrbitChain(u, orbit, trans_inv[:len(orbit)].copy(), stab)
