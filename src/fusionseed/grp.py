"""Black-box finite matrix group engine.

Groups are given by generating matrices; enumeration is a breadth-first
closure with canonical byte keys, or grows a group already enumerated by
the cosets of one new generator (`MatGroup.extend`).  Every enumeration and
every orbit walk is bounded by one element cap (`element_cap`).
The Sylow data never enumerates G: U's orbit walk gives N_G(U), grown by
cosets, and leaves on G a one-level chain (`OrbitChain`) that gives |G|
and membership by a sift, along with each generator's permutation of the
orbit; C_G(U) is a scan inside N_G(U).  O^{p'}(G) is generated by
conjugates of u read from that chain until its own U-orbit is G's, never
enumerated; each closure walks G's orbit by permutations read from G's
table, so none of its points is keyed again.  The groups between a normal
G0 and G come from a walk of G0's cosets whose steps are sifts into G0,
so G is not enumerated there either.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

from .errors import (CapExceeded, IndexTooLarge, InvalidInstance,
                     InvariantViolation, SubgroupViolation)
from .gfp import FpMatrix, Prime, as_prime

_CHUNK = 1 << 15


def element_cap() -> int:
    """The bound on a group's enumerated elements and on an orbit walk's
    points: the FUSIONSEED_CAP environment variable, or 2e7 when it is
    unset.  Read once per enumeration or walk; raises InvalidInstance when
    the variable is not a positive integer."""
    text = os.environ.get("FUSIONSEED_CAP")
    if text is None:
        return 2 * 10 ** 7
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidInstance(
            f"FUSIONSEED_CAP must be a positive integer, got {text!r}")
    return cap


class MatGroup:
    """Matrix group over F_p given by invertible generators.

    The element cache, once built, holds the full element stack (int8),
    a key -> index dict, and the matching stack of inverses.  A group that
    is not enumerated but carries an `OrbitChain` (left by
    `sylow_normalizer_via_orbit` or `o_pprime`) reads its order from the
    chain and tests membership by a sift; any other group enumerates itself
    for both.
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
        self._stack = None        # (N, n, n) int8
        self._inv_stack = None    # (N, n, n) int8
        self._keys = None         # bytes -> index
        self.chain = None         # OrbitChain of this group, if walked

    # -- enumeration ------------------------------------------------------
    def cache(self) -> "MatGroup":
        if self._stack is not None:
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
        self._stack = np.array(elems, dtype=np.int8)
        self._inv_stack = np.array(invs, dtype=np.int8)
        self._keys = keys
        return self

    @classmethod
    def from_elements(cls, p, generators, stack, inv_stack,
                      keys) -> "MatGroup":
        """Wrap an already-closed element set (no re-enumeration); keys,
        the key -> index dict of the stack, is taken over, not copied."""
        g = cls.__new__(cls)
        g.p = as_prime(p)
        g.generators = list(generators)
        g.dim = stack.shape[1]
        g._stack = np.ascontiguousarray(stack, dtype=np.int8)
        g._inv_stack = np.ascontiguousarray(inv_stack, dtype=np.int8)
        g._keys = keys
        g.chain = None
        return g

    @classmethod
    def trivial(cls, p, n: int) -> "MatGroup":
        """The enumerated trivial group of degree n."""
        eye = np.eye(n, dtype=np.int8)
        return cls.from_elements(p, [FpMatrix(p, eye, eye)], eye[None],
                                 eye[None], {eye.tobytes(): 0})

    def extend(self, m: FpMatrix) -> "MatGroup":
        """<self, m>, enumerated, for m outside the enumerated self.

        The new group is a union of right cosets K r of K = self (Dimino's
        algorithm): a rep r times a generator g either lies in a coset
        already listed, or starts the new coset K (r g).  The reps are taken
        a level at a time.  K's elements come first, then each coset in the
        order found.  Inverses are products of those already held:
        (k r)^-1 = r^-1 k^-1, with (r g)^-1 = g^-1 r^-1.
        """
        p, n, cap = self.p.p, self.dim, element_cap()
        gens = (self.generators if len(self._keys) > 1 else []) + [m]
        g, g_inv = _stacks(gens)
        k = self._stack.astype(np.float64)
        keys = dict(self._keys)
        stacks = [self._stack]
        reps, reps_inv = [np.eye(n)], [np.eye(n)]
        lo = 0
        while lo < len(reps):
            r, r_inv = np.array(reps[lo:]), np.array(reps_inv[lo:])
            lo = len(reps)
            x = _mulmod(r[:, None], g, p).reshape(-1, n, n)
            x_inv = _mulmod(g_inv, r_inv[:, None], p).reshape(-1, n, n)
            for q, key in enumerate(_row_keys(x.reshape(-1, n * n))):
                if key in keys:
                    continue
                if len(keys) + len(k) > cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
                coset = _mulmod(k, x[q], p).astype(np.int8)
                keys.update(zip(_row_keys(coset.reshape(-1, n * n)),
                                range(len(keys), len(keys) + len(k))))
                stacks.append(coset)
                reps.append(x[q])
                reps_inv.append(x_inv[q])
        inv_stacks = _mulmod(np.array(reps_inv[1:])[:, None],
                             self._inv_stack.astype(np.float64), p)
        return MatGroup.from_elements(
            self.p, gens, np.concatenate(stacks),
            np.concatenate([self._inv_stack,
                            inv_stacks.reshape(-1, n, n).astype(np.int8)]),
            keys)

    def subset_group(self, indices) -> "MatGroup":
        """Subgroup from a closed index subset of this group's cache, its
        elements in index order.  An element is a generator when the
        closure of the generators before it in that order lacks it."""
        self.cache()
        idx = np.asarray(sorted(indices), dtype=np.int64)
        stack = self._stack[idx]
        inv_stack = self._inv_stack[idx]
        keys = {stack[i].tobytes(): i for i in range(len(idx))}
        closure = MatGroup.trivial(self.p, self.dim)
        for i, key in enumerate(keys):
            if key not in closure._keys:
                closure = closure.extend(
                    FpMatrix(self.p, stack[i], inv_stack[i]))
        if len(closure._keys) != len(keys):
            raise SubgroupViolation("index subset is not a subgroup")
        return MatGroup.from_elements(self.p, closure.generators, stack,
                                      inv_stack, keys)

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
        """The i-th element, carrying its inverse from the inverse stack."""
        self.cache()
        return FpMatrix(self.p, self._stack[i], self._inv_stack[i])

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
    word: tuple | None = None    # (w, e): u = w^e, w a word in G's generators


@dataclass
class GGReport:
    status: str                # 'not_in_G' | 'in_G_only' | 'in_GG'
    group_order: int
    reason: str = ""
    sylow: SylowData | None = None


ORDER_P_WORDS = 10000    # seeded random generator words searched for u


def order_p_element(g: MatGroup) -> tuple[FpMatrix, list, int] | None:
    """(u, w, e): an element u = w^e of order p, for w the first of
    ORDER_P_WORDS seeded random generator words (w as a list of generator
    indices, read left to right) whose order p divides; or None.

    A word's semisimple part has order dividing L = lcm(p^i - 1, i <= n),
    so w^L, a power of w's unipotent part prime to p, is 1 exactly when p
    does not divide the order of w; p-th powers take it down to order p,
    so e = L p^i.  Words are powered 100 at a time.
    """
    p, n = g.p.p, g.dim
    exponent = math.lcm(*(p ** i - 1 for i in range(1, n + 1)))
    rng = random.Random(1)
    gens = [h.a.astype(np.float64) for h in g.generators]
    word, letters = np.eye(n), []
    for _ in range(ORDER_P_WORDS // 100):
        words = []
        for _ in range(100):
            letters.append(rng.randrange(len(gens)))
            word = _mulmod(word, gens[letters[-1]], p)
            words.append(word)
        words, unipotent = np.array(words), np.eye(n)
        for bit in bin(exponent)[2:]:          # square and multiply
            unipotent = _mulmod(unipotent, unipotent, p)
            if bit == "1":
                unipotent = _mulmod(unipotent, words, p)
        for q, m in enumerate(unipotent):
            if (m != np.eye(n)).any():
                u, e = FpMatrix(g.p, m.astype(np.int64)), exponent
                while u.pow(p) != FpMatrix.identity(g.p, n):
                    u, e = u.pow(p), e * p
                return u, letters[:len(letters) - len(words) + q + 1], e
    return None


def sylow_data(g: MatGroup, u: FpMatrix) -> tuple[SylowData, int]:
    """Local data at U = <u> and |U^G|, from U's orbit walk (leaving its
    chain on g) and a centralizer scan inside N_G(U)."""
    p = g.p.p
    ngrp, orbit = sylow_normalizer_via_orbit(g.p, g.dim, g.generators, u,
                                             into=g)
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
    found = order_p_element(g)
    if found is None:
        order = g.order()
        if order % p:
            return GGReport("not_in_G", order,
                            reason="p does not divide |G|")
        raise InvariantViolation(
            f"Cauchy: p = {p} divides |G| = {order} but no element of "
            "order p was found")
    u, word, e = found
    syl, orbit = sylow_data(g, u)
    syl.word = (word, e)
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
    """O^{p'}(G), generated by u and conjugates T_j^-1 u T_j from G's chain
    at u, for orbit indices j in a seeded shuffle; a conjugate that sifts
    into the closure so far is skipped.  The closure, made of p-elements,
    lies in O^{p'}(G); once its U-orbit is G's, it holds every Sylow
    p-subgroup and so is O^{p'}(G).  None is enumerated, and no orbit point
    is keyed: each closure walks G's orbit on its generators' permutations
    of it (`_table_closure`), u's read off u's word in G's generators and
    T_j^-1 u T_j's composed along j's path in G's walk."""
    chain = g.chain
    if chain is None or chain.u != syl.u or syl.word is None:
        raise InvariantViolation("o_pprime needs G's orbit chain at u and "
                                 "u's word in G's generators")
    size = len(chain.orbit)
    u_perm = chain.word_action(*syl.word)
    gens, perms = [syl.u], [u_perm]
    sub = _table_closure(g, gens, perms)
    for j in _orbit_draws(size):
        if len(sub.chain.orbit) == size:
            break
        conj, perm = _conjugate_of_u(g, j, u_perm)
        if not sub.contains(conj):
            gens.append(conj)
            perms.append(perm)
            sub = _table_closure(g, gens, perms)
    if len(sub.chain.orbit) != size:
        raise InvariantViolation("the conjugates of u miss part of U's orbit")
    return sub


def _orbit_draws(size: int):
    """1, ..., size - 1 in a seeded lazy Fisher-Yates shuffle."""
    rng = random.Random(1)
    swapped = {}
    for i in range(1, size):
        k = rng.randrange(i, size)
        yield swapped.get(k, k)
        swapped[k] = swapped.pop(i, i)


def _conjugate_of_u(g: MatGroup, j: int, u_perm: np.ndarray):
    """T_j^-1 u T_j, with its inverse, and its permutation of U's orbit
    (T_j^-1, then u, then T_j) for u's permutation u_perm; T_j is the
    product of G's generators along j's path in G's walk."""
    p, chain = g.p.p, g.chain
    path = chain.path(j)
    t = np.eye(g.dim)
    for k in path:
        t = _mulmod(t, g.generators[k].a.astype(np.float64), p)
    t_inv = chain.trans_inv[j].astype(np.float64)
    u, u_inv = _stacks([chain.u])
    t_perm = chain.word_action(path)
    back = np.empty_like(t_perm)
    back[t_perm] = np.arange(len(t_perm))
    return (FpMatrix(g.p, _mulmod(_mulmod(t_inv, u[0], p), t, p),
                     _mulmod(_mulmod(t_inv, u_inv[0], p), t, p)),
            t_perm[u_perm[back]])


def _table_closure(g: MatGroup, gens: list, perms: list) -> MatGroup:
    """The subgroup <gens> of g, whose generators permute the points of G's
    chain as perms (perms[k][i] the point reached from i), with the chain
    of U's orbit under it: that orbit is walked on perms, so no point is
    keyed; its points keep their keys in G's orbit."""
    sub = MatGroup(g.p, gens)
    table = np.stack(perms, axis=1)
    index, *walked = _walk(g.p, gens, 0,
                           lambda points, *_: table[points].ravel().tolist())
    keys = list(g.chain.orbit)
    sub.chain = OrbitChain(g.chain.u, {keys[i]: j for j, i in
                                       enumerate(index)}, *walked)
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

    The cosets are found by a walk under gbar's generators: t = r_c g lies
    in the coset of the representative r_d exactly when t r_d^-1 sifts into
    g0, and a t in no known coset is a new representative.  Each step
    records the coset of r_c g, so the coset of r_i r_j follows r_j's word
    from coset i with no further sift.
    """
    if not g0.is_normal_in(gbar):
        raise SubgroupViolation("g0 not normal in gbar")
    p, n = gbar.p.p, gbar.dim
    gens, gens_inv = _stacks(gbar.generators)
    reps, reps_inv = np.eye(n)[None], np.eye(n)[None]
    step = [[0] * len(gens)]      # step[c][k]: the coset of r_c g_k
    word = [None]                 # word[d] = (c, k) when r_d = r_c g_k
    queue = [0]
    while queue:
        c = queue.pop()
        for k in range(len(gens)):
            t = _mulmod(reps[c], gens[k], p)
            t_inv = _mulmod(gens_inv[k], reps_inv[c], p)
            hits = np.flatnonzero(g0.members(_mulmod(t, reps_inv, p),
                                             _mulmod(reps, t_inv, p)))
            if len(hits):
                step[c][k] = int(hits[0])
                continue
            if len(reps) == INDEX_BOUND:
                raise IndexTooLarge("index above the subgroup-enumeration "
                                    "bound")
            step[c][k] = len(reps)
            queue.append(len(reps))
            reps = np.concatenate([reps, t[None]])
            reps_inv = np.concatenate([reps_inv, t_inv[None]])
            step.append([0] * len(gens))
            word.append((c, k))
    size = len(reps)
    mul = [[i] for i in range(size)]
    for j in range(1, size):
        c, k = word[j]
        for row in mul:
            row.append(step[row[c]][k])
    subs = _subgroups_of_table(mul, 0, size)
    return [MatGroup(gbar.p, g0.generators
                     + [FpMatrix(gbar.p, reps[c], reps_inv[c])
                        for c in sorted(sub) if c != 0])
            for sub in sorted(subs, key=lambda s: (len(s), sorted(s)))]


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
    `action[j, k]` (int32) is the point that H's k-th generator takes j
    to, and `parent[j] = (i, k)` when T_j = T_i g_k ((-1, -1) at U).
    """
    u: FpMatrix
    orbit: dict
    trans_inv: np.ndarray
    stabilizer: MatGroup
    action: np.ndarray
    parent: np.ndarray

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

    def path(self, j: int) -> list:
        """Generator indices k_1, ..., k_d with T_j = g_k1 ... g_kd."""
        word = []
        while j > 0:
            j, k = self.parent[j]
            word.append(int(k))
        return word[::-1]

    def word_action(self, word, e: int = 1) -> np.ndarray:
        """The permutation of the orbit points (point i goes to perm[i]) by
        w^e, for w = g_k1 g_k2 ... given as its generator indices."""
        perm = np.arange(len(self.orbit))
        for k in word:
            perm = self.action[perm, k]
        power = np.arange(len(perm))
        while e:
            if e & 1:
                power = perm[power]
            perm, e = perm[perm], e >> 1
        return power


def sylow_normalizer_via_orbit(p, dim, generators, u: FpMatrix,
                               into: MatGroup | None = None):
    """N_G(<u>) for G = <generators> without enumerating G.

    Returns (N as MatGroup, orbit size); |G| then equals orbit_size * |N|
    by orbit-stabilizer.  When `into` is the MatGroup of these generators,
    the walk's `OrbitChain` is left on it, which then gives its order and
    membership without enumeration.  Raises CapExceeded when the orbit has
    more points than the element cap.
    """
    chain = _orbit_chain(p, dim, generators, u)
    if into is not None:
        into.chain = chain
    return chain.stabilizer, len(chain.orbit)


def _orbit_chain(p, dim, generators, u: FpMatrix) -> OrbitChain:
    """The chain at U = <u> of <generators>: U's conjugation orbit, each
    point keyed by `_subgroup_keys`, walked by `_walk`."""
    pp, n = int(p), dim
    uf = u.a.astype(np.float64)

    def keys(points, t, t_inv, gens, gens_inv):
        reps = _mulmod(_mulmod(t_inv, uf, pp), t, pp)
        conj = _mulmod(_mulmod(gens_inv, reps[:, None], pp), gens, pp)
        return _subgroup_keys(conj.reshape(-1, n, n), pp)

    base = _subgroup_keys(uf[None], pp)[0]
    return OrbitChain(u, *_walk(p, generators, base, keys))


def _walk(p, generators, base, targets):
    """Walks the orbit of a base point under <generators> level by level,
    in chunks of _ORBIT_CHUNK points moved by every generator at once,
    keeping a transversal T with T_j taking the base point to point j.

    `targets(points, t, t_inv, gens, gens_inv)` gives the label of the
    point that each pair (chunk point, generator) reaches, pair q being
    (q // m, q % m), from the labels `points` of the chunk's points and
    their T and T^-1; the base point's label is `base`.  The Schreier
    generators (t g) T_j^-1 that are not yet in the stabilizer generate it
    (Schreier's lemma), which grows by cosets (`MatGroup.extend`).  The
    walk stops with CapExceeded beyond `element_cap()` points.

    Returns the dict label -> point index, T^-1 (int8), the stabilizer,
    each generator's action on the points and each point's parent.
    """
    pp, cap = int(p), element_cap()
    n = generators[0].rows
    gens, gens_inv = _stacks(generators)
    m = len(gens)
    index, labels = {base: 0}, [base]
    trans = np.zeros((1024, n, n), dtype=np.int8)
    trans_inv = np.zeros_like(trans)
    trans[0] = trans_inv[0] = np.eye(n, dtype=np.int8)
    action = np.zeros((1024, m), dtype=np.int32)
    parent = np.full((1024, 2), -1, dtype=np.int32)
    stab = MatGroup.trivial(p, n)
    lo, hi = 0, 1
    while lo < hi:
        for c in range(lo, hi, _ORBIT_CHUNK):
            t = trans[c:min(c + _ORBIT_CHUNK, hi)].astype(np.float64)
            t_inv = trans_inv[c:c + len(t)].astype(np.float64)
            labs = targets(labels[c:c + len(t)], t, t_inv, gens, gens_inv)
            tg = _mulmod(t[:, None], gens, pp).reshape(-1, n, n)
            reached = np.array([index.get(k, -1) for k in labs])
            fresh = []
            for q in np.flatnonzero(reached < 0):
                j = index.get(labs[q])
                if j is None:
                    if len(index) >= cap:
                        raise CapExceeded(
                            f"Sylow orbit exceeds bound {cap}")
                    j = index[labs[q]] = len(index)
                    labels.append(labs[q])
                    fresh.append(q)
                reached[q] = j
            action[c:c + len(t)] = reached.reshape(len(t), m)
            if fresh:
                size = len(index)
                if size > len(trans):
                    grow = max(size, 2 * len(trans))
                    trans, trans_inv, action, parent = (
                        np.resize(a, (grow,) + a.shape[1:])
                        for a in (trans, trans_inv, action, parent))
                new = slice(size - len(fresh), size)
                fresh = np.array(fresh)
                trans[new] = tg[fresh]
                trans_inv[new] = _mulmod(gens_inv[fresh % m],
                                         t_inv[fresh // m], pp)
                parent[new] = np.stack([c + fresh // m, fresh % m], axis=1)
            # every pair that did not find a new point gives a Schreier
            # generator (one that did gives the identity)
            pairs = np.ones(len(labs), dtype=bool)
            pairs[fresh] = False
            pairs = np.flatnonzero(pairs)
            schreier = _mulmod(tg[pairs],
                               trans_inv[reached[pairs]].astype(np.float64),
                               pp)
            skeys = _row_keys(schreier.reshape(-1, n * n))
            # an extension made for an earlier one may hold a later one
            for q in [q for q, k in enumerate(skeys) if k not in stab._keys]:
                if skeys[q] not in stab._keys:
                    i, k = divmod(int(pairs[q]), m)
                    s_inv = _mulmod(
                        trans[reached[pairs[q]]].astype(np.float64),
                        _mulmod(gens_inv[k], t_inv[i], pp), pp)
                    stab = stab.extend(FpMatrix(p, schreier[q], s_inv))
        lo, hi = hi, len(index)
    size = len(index)
    return index, trans_inv[:size].copy(), stab, action[:size], parent[:size]
