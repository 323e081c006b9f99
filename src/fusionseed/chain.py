"""One-level chains of groups given by generators, over two codecs.

A chain of H at a base point keeps H's orbit of that point with a
transversal (T_j takes the base point to point j) and the base point's
stabilizer, which holds every Schreier generator (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005, §4.1-4.4).  So |H| =
|orbit| |stabilizer|, and x lies in H exactly when x takes the base point
to some point j and x T_j^-1 lies in the stabilizer: a sift with no random
step.  `walk` grows a chain by new generators, `Listed` holds a group
with every element listed and grows it by cosets (Dimino's algorithm,
`grow`), `greedy` sifts candidates into a group one at a time, and
`normal_closure` grows a chain into the normal closure of its group under
other generators by sifting the conjugates of its generators in: O^{p'}(G)
on the matrix codec and O^{p'}(Theta) on the permutation codec.

Elements act on the right: `mul(a, b)` is a, then b.  A codec multiplies
whole stacks, keys them, acts on points and carries its own limit:
- `MatCodec`: matrices mod p, stored as int8 and multiplied as float64;
  its points are the conjugates of U = <u>, keyed by the lines through
  their logarithms (`_line_keys`), equal exactly for equal groups.
- `PermCodec`: permutations keyed by their images of some points, the
  sift form (`image`) of an element; its points are images of the first.
A stabilizer is a group with `order`, `members` and `join`: a `Listed`,
or a `Chain` at another point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CapExceeded, InvalidInstance

_CHUNK = 64            # orbit points moved per batched step of `walk`
_SIFT_CHUNK = 1 << 15  # elements sifted per batch by `Chain.members`


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


# -- matrices mod p -----------------------------------------------------------

def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for broadcastable float64 stacks with entries in [0, p).

    Every product sum (at most n (p - 1)^2) is exact in float64, and so is
    the floor of its quotient by p; numpy multiplies float64 stacks through
    BLAS, several times faster than int64 stacks.
    """
    return _floormod(a @ b, p)


def _floormod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float64 array of exact integers."""
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


def _log(u: np.ndarray, p: int) -> np.ndarray:
    """log u = sum over k < p of (-1)^(k+1) N^k / k mod p, N = u - 1, as a
    float64 matrix, for u of order p.

    (u - 1)^p = u^p - 1 = 0 mod p, so the series stops before its first
    denominator divisible by p, and it is exact: exp(log u) = u and
    log(u^k) = k log u.
    """
    nil = _floormod(np.asarray(u, dtype=np.float64) - np.eye(len(u)), p)
    log, power = np.zeros_like(nil), nil
    for k in range(1, p):
        log += pow(k if k % 2 else -k, -1, p) * power
        power = _mulmod(power, nil, p)
    return _floormod(log, p)


def _line_keys(x: np.ndarray, recip: np.ndarray) -> list:
    """Key of the line through each nonzero x[i] (a float64 stack mod p,
    recip[a] being 1 / a mod p): its int8 bytes scaled so that its first
    nonzero entry is 1."""
    rows = x.reshape(-1, x.shape[-2] * x.shape[-1])
    first = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return _row_keys(_floormod(rows * recip[first.astype(np.intp)][:, None],
                               len(recip)))


class MatCodec:
    """n x n matrices mod p acting on the conjugates of U = <u> (u None
    when no point is read); FUSIONSEED_CAP bounds the orbit points and,
    apart, a group's elements.  A point <x^-1 u x> is keyed by the line
    through x^-1 L x for L = `_log`(u), and `base` is U's key: log(u^k) =
    k L, log commutes with conjugation and exp inverts it, so conjugates of
    u generate one group exactly when their logs span one line."""

    def __init__(self, p, n: int, u=None):
        self.p, self.n, self.u, self.cap = int(p), n, u, element_cap()
        self.identity = np.eye(n, dtype=np.int8)
        if u is not None:       # recip[a] = 1 / a mod p
            self.log, self.recip = _log(u.a, self.p), np.float64(
                [pow(a, self.p - 2, self.p) for a in range(self.p)])
            self.base = _line_keys(self.log[None], self.recip)[0]

    def mul(self, a, b):
        return _mulmod(a, b, self.p)

    def load(self, x):
        return np.asarray(x, dtype=np.float64)

    def image(self, x):
        return x

    def keys(self, x) -> list:
        return _row_keys(x.reshape(-1, self.n * self.n))

    def targets(self, labels, t, t_inv, gens, gens_inv) -> list:
        """Keys of <(t g)^-1 u (t g)>, pair q being (t[q // m], g[q % m])
        for m generators: the lines through (t g)^-1 L (t g)."""
        p = self.p
        reps = _mulmod(_mulmod(t_inv, self.log, p), t, p)
        return _line_keys(_mulmod(_mulmod(gens_inv, reps[:, None], p),
                                  gens, p), self.recip)

    def locate(self, x, x_inv) -> list:
        """Keys of <x^-1 u x> for the stack x (inverses x_inv): the lines
        through x^-1 L x."""
        return _line_keys(_mulmod(_mulmod(self.load(x_inv), self.log,
                                          self.p), x, self.p), self.recip)

    def bound(self, points: int, elements: int) -> None:
        if points > self.cap:
            raise CapExceeded(f"Sylow orbit exceeds bound {self.cap}")
        if elements > self.cap:
            raise CapExceeded(f"group order exceeds cap {self.cap}")


# -- permutations -------------------------------------------------------------

class PermCodec:
    """Permutations of n points (int16 when n allows), x then y being y[x],
    keyed by their images of the points gen_idx packed in base n into exact
    int64 codes; cap bounds the orbit points and elements that one group
    stores, counted together."""

    def __init__(self, n: int, gen_idx, cap: int):
        self.n, self.gen_idx, self.cap = n, np.asarray(gen_idx), cap
        self.weights = n ** np.arange(len(self.gen_idx), dtype=np.int64)
        self.dtype = np.int16 if n <= 1 << 15 else np.int32
        self.identity = np.arange(n, dtype=self.dtype)

    def mul(self, a, b):
        """b[a] row by row over broadcast leading axes; a may be a stack of
        sift forms."""
        rows = np.arange(0, b.size, self.n).reshape(b.shape[:-1] + (1,))
        return b.reshape(-1)[rows + a]

    def load(self, x):
        return x

    def inv(self, perms: np.ndarray) -> np.ndarray:
        """The inverse of each row of a (m, n) permutation stack."""
        inv = np.empty_like(perms)
        inv[np.arange(len(perms))[:, None], perms] = self.identity
        return inv

    def image(self, x):
        return x[..., self.gen_idx]

    def pack(self, images: np.ndarray) -> np.ndarray:
        """Codes of a (..., k) stack of images."""
        return images.astype(np.int64) @ self.weights

    def codes(self, perms: np.ndarray) -> np.ndarray:
        return self.pack(self.image(perms))

    def keys(self, images) -> list:
        return self.pack(images).ravel().tolist()

    def targets(self, labels, t, t_inv, gens, gens_inv) -> list:
        return gens[:, labels].T.ravel().tolist()

    def locate(self, images, images_inv=None) -> list:
        return images[:, 0].tolist()

    def bound(self, points: int, elements: int) -> None:
        if points + elements > self.cap:
            raise CapExceeded(f"automorphism group exceeds cap {self.cap}")


# -- listed groups ------------------------------------------------------------

@dataclass
class Listed:
    """A group H = <gens> over a codec with every element held.

    `stack` lists the elements and `inverses` their inverses, row by row;
    `index` maps the key of each element's sift form to its row.  `gens`
    (inverses `gens_inv`) are loaded, as the codec multiplies them.
    """
    codec: object
    stack: np.ndarray
    inverses: np.ndarray
    index: dict
    gens: np.ndarray
    gens_inv: np.ndarray

    @classmethod
    def trivial(cls, codec) -> "Listed":
        """The trivial group, with no generator."""
        one = codec.identity[None]
        none = codec.load(one[:0])
        return cls(codec, one, one, {codec.keys(codec.image(one))[0]: 0},
                   none, none)

    def order(self) -> int:
        return len(self.index)

    def members(self, x, x_inv=None) -> np.ndarray:
        """Whether each element of the stack x, given by its sift forms,
        lies in H; x_inv is not read."""
        codec = self.codec
        return np.fromiter(map(self.index.__contains__, codec.keys(x)),
                           dtype=bool).reshape(
            x.shape[:x.ndim - codec.identity.ndim])

    def join(self, xs, xs_inv, stored: int = 0) -> "Listed":
        """H grown by the cosets of each element of the stack xs (inverses
        xs_inv), in stack order, that lies outside it so far (`grow`);
        stored counts the points kept beside it against the codec's
        limit."""
        codec = self.codec

        def join(group, i):
            return grow(group,
                        np.concatenate([group.gens, codec.load(xs[i:i + 1])]),
                        np.concatenate([group.gens_inv,
                                        codec.load(xs_inv[i:i + 1])]),
                        stored)
        return greedy(self, codec.image(xs), Listed.members, join)


# -- chains -------------------------------------------------------------------

@dataclass
class Chain:
    """A one-level chain of H = <gens> at a base point over a codec.

    `orbit` maps each point's label to its index j, `points` lists the
    labels, and `trans[j]` is T_j with its inverse in `trans_inv`.
    `action[j, k]` (int32) is the point that H's k-th generator takes j to,
    and `parent[j] = (i, k)` when T_j = T_i g_k ((-1, -1) at the base).
    """
    codec: object
    gens: np.ndarray
    gens_inv: np.ndarray
    orbit: dict
    points: list
    trans: np.ndarray
    trans_inv: np.ndarray
    stabilizer: object
    action: np.ndarray
    parent: np.ndarray

    @classmethod
    def start(cls, codec, base, stabilizer) -> "Chain":
        """The chain of the trivial group at the point labelled base."""
        one = codec.identity[None]
        none = codec.load(one[:0])
        return cls(codec, none, none, {base: 0}, [base], one, one, stabilizer,
                   np.zeros((1, 0), dtype=np.int32),
                   np.full((1, 2), -1, dtype=np.int32))

    def order(self) -> int:
        return len(self.orbit) * self.stabilizer.order()

    def members(self, x, x_inv=None) -> np.ndarray:
        """Whether each element of the stack x lies in H; x_inv holds the
        inverses, which the permutation codec does not read."""
        codec = self.codec
        out = np.zeros(len(x), dtype=bool)
        for lo in range(0, len(x), _SIFT_CHUNK):
            xs = codec.load(x[lo:lo + _SIFT_CHUNK])
            xi = None if x_inv is None else x_inv[lo:lo + _SIFT_CHUNK]
            j = np.fromiter(map(self.orbit.get, codec.locate(xs, xi),
                                repeat(-1)), dtype=np.int64, count=len(xs))
            hit = np.flatnonzero(j >= 0)
            res = codec.mul(xs[hit], codec.load(self.trans_inv[j[hit]]))
            out[lo + hit] = self.stabilizer.members(res)
        return out

    contains = members      # the sift's name on the automorphism side

    def join(self, xs, xs_inv, stored: int = 0) -> "Chain":
        return walk(self, xs, xs_inv, stored=stored)

    def schreier_generators(self) -> np.ndarray:
        """T_i g_k T_l^-1 for every point i and generator k, l being the
        point that g_k takes i to: by Schreier's lemma they generate the
        base point's stabilizer (those along the transversal's tree are
        1)."""
        codec = self.codec
        i, k = np.divmod(np.arange(self.action.size), self.action.shape[1])
        return codec.mul(codec.mul(codec.load(self.trans[i]), self.gens[k]),
                         codec.load(self.trans_inv[self.action.ravel()]))


def walk(chain: Chain, new, new_inv, targets=None, stored: int = 0) -> Chain:
    """chain grown by the generators new (inverses new_inv).

    The orbit is walked level by level, _CHUNK points at a time, each moved
    by several generators at once: first the old points by the new
    generators, then each new level by all of them.  A point first reached
    from point i by g_k gets T = T_i g_k, so points are numbered in pair
    order (point-major) within each chunk.  `targets(labels, t, t_inv,
    gens, gens_inv)`, the codec's action by default, labels the points that
    the pairs reach.  A pair that reaches a known point l gives a Schreier
    generator T_i g_k T_l^-1; with those of the old points under the old
    generators, held already, they generate the stabilizer (Schreier's
    lemma), and those of a chunk that it lacks join it.  The codec's limit is checked
    after every chunk, with stored more points kept beside the chain.  A
    chain started with no stabilizer walks the orbit alone, unbounded.
    """
    codec = chain.codec
    targets = targets or codec.targets
    gens = np.concatenate([chain.gens, new])
    gens_inv = np.concatenate([chain.gens_inv, new_inv])
    m, old_m = len(gens), len(chain.gens)
    orbit, points = dict(chain.orbit), list(chain.points)
    trans, trans_inv, parent = (_resized(a, 2 * len(points)) for a in
                                (chain.trans, chain.trans_inv, chain.parent))
    action = np.zeros((len(trans), m), dtype=np.int32)
    action[:len(points), :old_m] = chain.action
    stab = chain.stabilizer
    lo, hi, use = 0, len(points), np.arange(old_m, m)
    while lo < hi:
        g, g_inv = gens[use], gens_inv[use]
        for c in range(lo, hi, _CHUNK):
            t = codec.load(trans[c:min(c + _CHUNK, hi)])
            t_inv = codec.load(trans_inv[c:c + len(t)])
            labs = targets(points[c:c + len(t)], t, t_inv, g, g_inv)
            reached = np.fromiter(map(orbit.get, labs, repeat(-1)),
                                  dtype=np.int64, count=len(labs))
            fresh = []
            for q in np.flatnonzero(reached < 0).tolist():
                j = reached[q] = orbit.setdefault(labs[q], len(points))
                if j == len(points):
                    points.append(labs[q])
                    fresh.append(q)
            action[c:c + len(t), use] = reached.reshape(len(t), len(use))
            if fresh:
                if len(points) > len(trans):
                    trans, trans_inv, action, parent = (
                        _resized(a, len(points))
                        for a in (trans, trans_inv, action, parent))
                new_points = slice(len(points) - len(fresh), len(points))
                i, k = np.divmod(np.array(fresh), len(use))
                trans[new_points] = codec.mul(t[i], g[k])
                trans_inv[new_points] = codec.mul(g_inv[k], t_inv[i])
                parent[new_points] = np.stack([c + i, use[k]], axis=1)
            if stab is None:
                continue
            codec.bound(stored + len(points), _held(stab))
            # the pairs that found no new point give Schreier generators;
            # those outside the stabilizer join it, formed in full
            pairs = np.ones(len(labs), dtype=bool)
            pairs[fresh] = False
            i, k = np.divmod(np.flatnonzero(pairs), len(use))
            l = reached[pairs]
            tg = codec.mul(codec.image(t)[:, None], g)
            schreier = codec.mul(tg.reshape((-1,) + tg.shape[2:])[pairs],
                                 codec.load(trans_inv[l]))
            out = np.flatnonzero(~stab.members(schreier))
            if len(out):
                i, k, l = i[out], k[out], l[out]
                stab = stab.join(
                    codec.mul(codec.mul(t[i], g[k]), codec.load(trans_inv[l])),
                    codec.mul(codec.load(trans[l]),
                              codec.mul(g_inv[k], t_inv[i])),
                    stored + len(points))
        lo, hi, use = hi, len(points), np.arange(m)
    # one copy at a time, so that the peak holds one spare transversal
    trans = trans[:len(points)].copy()
    trans_inv = trans_inv[:len(points)].copy()
    return Chain(codec, gens, gens_inv, orbit, points, trans, trans_inv, stab,
                 action[:len(points)], parent[:len(points)])


def _resized(a: np.ndarray, rows: int) -> np.ndarray:
    """a's rows at the top of an array of 2^k >= max(rows, 64) rows."""
    size = 1 << max(6, (rows - 1).bit_length())
    out = np.empty((size,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def _held(group) -> int:
    """The points and elements that a stabilizer stores."""
    if isinstance(group, Chain):
        return len(group.points) + _held(group.stabilizer)
    return group.order()


def greedy(group, candidates, member, join):
    """group grown by candidates in turn: member(group, candidates) sifts
    those left, and the first outside the group joins as join(group, i)."""
    idx = np.arange(len(candidates))
    while len(idx):
        out = ~member(group, candidates[idx])
        if not out.any():
            break
        at = int(out.argmax())
        group = join(group, idx[at])
        idx = idx[at + 1:]
    return group


def normal_closure(chain: Chain, under, under_inv) -> Chain:
    """The normal closure of the chain's group under <under> (inverses
    under_inv, loaded), grown from the chain: for each generator h of the
    closure, those joined on the way included, the conjugates t^-1 h t by
    every t in under are sifted in turn (`greedy`, on their sift forms),
    and each that lies outside joins by `Chain.join`.  So t^-1 N t <= N for
    every t, and every element that joins is a conjugate of one of the
    chain's generators: the textbook normal closure over a chain (Holt,
    Eick & O'Brien, 2005), on either codec."""
    codec = chain.codec
    done = 0
    while done < len(chain.gens):
        h, h_inv = chain.gens[done], chain.gens_inv[done]
        done += 1
        x = codec.mul(codec.mul(under_inv, h), under)
        x_inv = codec.mul(codec.mul(under_inv, h_inv), under)
        chain = greedy(chain, np.arange(len(x)),
                       lambda ch, idx: ch.members(codec.image(x[idx]),
                                                  x_inv[idx]),
                       lambda ch, i: ch.join(x[i:i + 1], x_inv[i:i + 1]))
    return chain


def grow(group: Listed, gens, gens_inv, stored: int = 0) -> Listed:
    """<K, gens> listed, for K the listed group and gens (inverses
    gens_inv) every generator of the new group.

    The new group is a union of right cosets K r (Dimino's algorithm): a
    rep r times a generator g lies in a coset already listed or starts the
    coset K (r g).  The reps are taken a level at a time; K's elements come
    first, then each coset in the order found.  Inverses are products of
    those already held: (k r)^-1 = r^-1 k^-1, with (r g)^-1 = g^-1 r^-1.
    The codec's limit counts the elements, with stored points beside them.
    From the trivial group with one generator, the levels are its powers,
    which `_powers` lists in the same order with fewer products.
    """
    if len(group.index) == 1 and len(gens) == 1:
        return _powers(group.codec, gens, gens_inv, stored)
    codec, stack, inv = group.codec, group.stack, group.inverses
    k, one = codec.load(stack), codec.load(codec.identity)
    keys, stacks, reps, reps_inv = dict(group.index), [stack], [one], [one]
    lo = 0
    while lo < len(reps):
        r, r_inv = np.array(reps[lo:]), np.array(reps_inv[lo:])
        lo = len(reps)
        x = codec.mul(r[:, None], gens).reshape((-1,) + one.shape)
        x_inv = codec.mul(gens_inv, r_inv[:, None]).reshape(x.shape)
        for q, key in enumerate(codec.keys(codec.image(x))):
            if key not in keys:
                codec.bound(stored, len(keys) + len(k))
                coset = codec.mul(k, x[q]).astype(stack.dtype)
                keys.update(zip(codec.keys(codec.image(coset)),
                                range(len(keys), len(keys) + len(k))))
                stacks.append(coset)
                reps.append(x[q])
                reps_inv.append(x_inv[q])
    reps_inv = np.array(reps_inv[1:], dtype=one.dtype).reshape(
        (-1, 1) + one.shape)
    inverses = codec.mul(reps_inv, codec.load(inv)).astype(inv.dtype)
    inverses = inverses.reshape((-1,) + inv.shape[1:])
    return Listed(codec, np.concatenate(stacks),
                  np.concatenate([inv, inverses]), keys, gens, gens_inv)


def _powers(codec, x, x_inv, stored: int = 0) -> Listed:
    """<x> listed as 1, x, x^2, ..., as `grow` lists it from the trivial
    group, in a logarithmic number of products: the s elements listed so
    far are followed by their products with x^s until 1 recurs.  The
    inverse of x^i is x^(o - i), o being the order of x."""
    one = codec.identity[None]
    stack, step, key = codec.load(one), x, codec.keys(codec.image(one))[0]
    while True:
        more = codec.mul(stack, step)
        keys = codec.keys(codec.image(more))
        end = keys.index(key) if key in keys else len(more)
        stack = np.concatenate([stack, more[:end]])
        codec.bound(stored, len(stack))
        if end < len(more):
            break
        step = codec.mul(step, step)
    stack, order = stack.astype(one.dtype), len(stack)
    return Listed(codec, stack, stack[-np.arange(order) % order],
                  dict(zip(codec.keys(codec.image(stack)), range(order))),
                  x, x_inv)

