"""G-vee and the homomorphism mu into Delta = (Z/p)^x x (Z/p)^x.

mu(g) = (r, s) where g u g^-1 = u^r and g scales the line Z0 by s; r is
read from the exponents that `grp.sylow_data` labels N_G(U) with, and G-vee
keeps r and s as arrays aligned with its element stack.
Named Delta-subgroup families: Delta, Delta_i, Delta_{k/l}, (1/d)Delta_i,
products Delta_a*Delta_b, and index-2 extensions Delta_i.2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (InvariantViolation, NotASubgroup, UnknownName,
                     Z0NotLine)
from .gfp import as_prime
from .grp import MatGroup, SylowData
from .modrep import CanonicalSubspaces


def primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise InvariantViolation(f"no primitive root mod {p}")


class DeltaSubgroup:
    """Subgroup of (Z/p)^x x (Z/p)^x as an explicit element set."""

    __slots__ = ("p", "elements")

    def __init__(self, p, elements):
        self.p = as_prime(p)
        els = frozenset((int(a) % self.p.p, int(b) % self.p.p)
                        for a, b in elements)
        if (1, 1) not in els:
            raise NotASubgroup("missing identity")
        for (a, b) in els:
            if a == 0 or b == 0:
                raise NotASubgroup("entries must be units")
            for (c, d) in els:
                if (a * c % self.p.p, b * d % self.p.p) not in els:
                    raise NotASubgroup("not closed under multiplication")
        self.elements = els

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, pair) -> bool:
        return (pair[0] % self.p.p, pair[1] % self.p.p) in self.elements

    def __eq__(self, other):
        return (isinstance(other, DeltaSubgroup) and other.p.p == self.p.p
                and other.elements == self.elements)

    def __hash__(self):
        return hash((self.p.p, self.elements))

    def __le__(self, other: "DeltaSubgroup") -> bool:
        return self.elements <= other.elements

    def __repr__(self):
        return f"DeltaSubgroup(p={self.p.p}, {sorted(self.elements)})"

    def sorted_pairs(self):
        return sorted(self.elements)

    @staticmethod
    def generated(p, pairs) -> "DeltaSubgroup":
        pp = int(p)
        els = {(1, 1)}
        frontier = [(1, 1)]
        pairs = [(int(a) % pp, int(b) % pp) for a, b in pairs]
        while frontier:
            nxt = []
            for (a, b) in frontier:
                for (c, d) in pairs:
                    e = (a * c % pp, b * d % pp)
                    if e not in els:
                        els.add(e)
                        nxt.append(e)
            frontier = nxt
        return DeltaSubgroup(p, els)


def _delta_full(p: int) -> set:
    return {(a, b) for a in range(1, p) for b in range(1, p)}


def _delta_i(p: int, i: int) -> set:
    return {(r, pow(r, i % (p - 1), p)) for r in range(1, p)}


def _delta_kl(p: int, k: int, ell: int) -> set:
    g = primitive_root(p)
    return set(DeltaSubgroup.generated(
        p, [(pow(g, ell, p), pow(g, k, p))]).elements)


def _frac_delta_i(p: int, d: int, i: int) -> set:
    powers = {pow(r, d, p) for r in range(1, p)}
    return {(u, pow(u, i % (p - 1), p)) for u in powers}


def named(p, name: str) -> DeltaSubgroup:
    """Construct a named Delta-subgroup.

    Accepted: 'Delta', 'Delta_i', 'Delta_k/l', '(1/d)Delta_i',
    'Delta_a*Delta_b'.
    """
    pp = int(as_prime(p))
    name = name.strip().replace(" ", "")
    if name == "Delta":
        return DeltaSubgroup(p, _delta_full(pp))
    m = re.fullmatch(r"Delta_(-?\d+)", name)
    if m:
        return DeltaSubgroup(p, _delta_i(pp, int(m.group(1))))
    m = re.fullmatch(r"Delta_(-?\d+)/(-?\d+)", name)
    if m:
        return DeltaSubgroup(p, _delta_kl(pp, int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"\(1/(\d+)\)Delta_(-?\d+)", name)
    if m:
        d, i = int(m.group(1)), int(m.group(2))
        if (pp - 1) % d != 0:
            raise UnknownName(f"{d} does not divide p-1")
        return DeltaSubgroup(p, _frac_delta_i(pp, d, i))
    m = re.fullmatch(r"Delta_(-?\d+)\*Delta_(-?\d+)", name)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        return DeltaSubgroup.generated(
            p, list(_delta_i(pp, a)) + list(_delta_i(pp, b)))
    raise UnknownName(name)


def _canon_exponent(p: int, i: int) -> int:
    """Report exponent i in {-1, 0, 1, ..., p-3} (p-2 aliases to -1)."""
    i = i % (p - 1)
    return -1 if i == p - 2 else i


def recognize(d: DeltaSubgroup) -> dict:
    """Most specific family name for a Delta-subgroup.

    Returns {'name': str, 'order': int, 'extra_generator': pair or None}.
    """
    p = d.p.p
    els = set(d.elements)
    out = {"order": len(els), "extra_generator": None}
    if els == _delta_full(p):
        out["name"] = "Delta"
        return out
    for i in range(p - 1):
        if els == _delta_i(p, i):
            out["name"] = f"Delta_{_canon_exponent(p, i)}"
            return out
    # cyclic of order p-1 with non-surjective-free shape: Delta_{k/l}
    if len(els) == p - 1:
        for ell in range(2, p - 1):
            for k in range(p - 1):
                if np.gcd(k, ell) == 1 and els == _delta_kl(p, k, ell):
                    out["name"] = f"Delta_{k}/{ell}"
                    return out
    # fractional families (1/d)Delta_i
    for dd in range(2, p):
        if (p - 1) % dd:
            continue
        for i in range(p - 1):
            if els == _frac_delta_i(p, dd, i):
                out["name"] = f"(1/{dd})Delta_{i}"
                return out
    # product of two full diagonal families
    product_name = None
    g = primitive_root(p)
    for a in range(p - 1):
        for b in range(a + 1, p - 1):
            prod = DeltaSubgroup.generated(
                d.p, [(g, pow(g, a, p)), (g, pow(g, b, p))])
            if els == prod.elements:
                product_name = (f"Delta_{_canon_exponent(p, a)}"
                                f"*Delta_{_canon_exponent(p, b)}")
                break
        if product_name:
            break
    # index-2 extension of some Delta_i; the dot-notation does not pin the
    # extension, so the extra generator is always reported explicitly
    if len(els) == 2 * (p - 1):
        for i in range(p - 1):
            di = _delta_i(p, i)
            if di <= els:
                extra = sorted(els - di)[0]
                out["name"] = f"Delta_{_canon_exponent(p, i)}.2"
                out["extra_generator"] = extra
                if product_name:
                    out["alias"] = product_name
                return out
    if product_name:
        out["name"] = product_name
        return out
    out["name"] = f"unnamed subgroup of order {len(els)}"
    return out


def contains_delta_t(d: DeltaSubgroup, t: int) -> bool:
    return _delta_i(d.p.p, t % (d.p.p - 1)) <= d.elements


# -- G-vee ----------------------------------------------------------------

@dataclass
class GVee:
    """Elements of N_G(U) acting trivially on Z/Z0, with mu(g) = (r[i],
    s[i]) for the i-th element g of the group's stack."""
    group: MatGroup                    # G-vee as a matrix group
    r: np.ndarray                      # g u g^-1 = u^r
    s: np.ndarray                      # g z0 = s z0

    def order(self) -> int:
        return self.group.order()


def compute_gvee(g: MatGroup, syl: SylowData,
                 cs: CanonicalSubspaces) -> GVee:
    """Scan N_G(U) for elements with [alpha, Z] <= Z0, and read mu: r from
    N_G(U)'s exponents (`SylowData.exponents`) and s from alpha z0, for all
    members of a chunk at once."""
    if cs.Z0.dim != 1:
        raise Z0NotLine(f"dim Z0 = {cs.Z0.dim}")
    p = g.p.p
    N = syl.normalizer_N
    z0 = cs.Z0.basis[0]
    nzc = np.nonzero(z0)[0][0]
    z0_inv = pow(int(z0[nzc]), p - 2, p)
    stack = N.elements_stack()
    members, s = [], []
    for lo in range(0, len(stack), 1 << 14):
        S = stack[lo:lo + (1 << 14)].astype(np.int64)
        # (alpha - 1) Z <= Z0: alpha z - z lies in <z0> for z in Z's basis
        ok = np.ones(S.shape[0], dtype=bool)
        for z in cs.Z.basis:
            img = (S @ z - z) % p
            coef = img[:, nzc] * z0_inv % p
            ok &= ((coef[:, None] * z0[None, :]) % p == img).all(axis=1)
        img = S[ok] @ z0 % p
        s.append(img[:, nzc] * z0_inv % p)
        if (s[-1][:, None] * z0 % p != img).any():
            raise InvariantViolation("Z0 not preserved")
        members.append(lo + np.flatnonzero(ok))
    members = np.concatenate(members)
    return GVee(N.subset_group(members), syl.exponents[members],
                np.concatenate(s))


def mu_image(gv: GVee) -> DeltaSubgroup:
    """Set of mu-values; checked to form a subgroup of Delta of order
    |G-vee| / p (mu is faithful modulo U)."""
    pairs = set(zip(gv.r.tolist(), gv.s.tolist()))
    try:
        d = DeltaSubgroup(gv.group.p, pairs)
    except NotASubgroup as exc:
        raise NotASubgroup(f"mu-image not a subgroup: {exc}") from exc
    p = gv.group.p.p
    if d.order * p != gv.order():
        raise NotASubgroup(
            f"|mu image| = {d.order} != |G-vee|/p = {gv.order() / p}; "
            "action not faithful or computation error")
    return d


def preimage(gv: GVee, d: DeltaSubgroup) -> MatGroup:
    """Subgroup {g in G-vee : mu(g) in d}; always contains U."""
    inside = np.zeros((d.p.p, d.p.p), dtype=bool)
    inside[tuple(np.array(d.sorted_pairs()).T)] = True
    return gv.group.subset_group(np.flatnonzero(inside[gv.r, gv.s]))
