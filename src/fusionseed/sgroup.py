"""The p-group S = A x| U and its local automorphism data.

S-elements are pairs (a, k) for a in A = F_p^n and k in Z/p, multiplying by
(a, k)(b, l) = (a + u^k b, k + l) where u is the Sylow generator's matrix.
Z(S), [S,S], Z_2(S) and A_0 are subspaces of A; the essential-candidate
subgroups H_i = Z<x a^i> and B_i = Z_2<x a^i> are realized as explicit
element sets, and the local automorphism groups Theta are built as
permutation groups on those sets and verified against their contracts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gfp, modrep, mu
from .errors import CapExceeded, MuTooSmall, SplitFailed
from .gfp import FpMatrix, Subspace
from .grp import MatGroup, SylowData
from .modrep import FpModule

DESK_S_LIMIT = 6    # refuse full S-element enumeration above p**DESK_S_LIMIT


# -- element arithmetic ----------------------------------------------------

class SGroup:
    """S = A x| U with cached u-powers and the distinguished subspaces."""

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

    def gamma_order(self) -> int:
        """|Gamma| = p^n |G|, without building Gamma.

        Raises CapExceeded when it is above G's element cap.
        """
        g = self.v.group
        order = self.p ** self.n * g.order()
        if order > g.cap:
            raise CapExceeded(f"|Gamma| = {order} exceeds cap {g.cap}")
        return order

    @functools.cached_property
    def gamma(self) -> MatGroup:
        """Gamma = A x| G, enumerated on first use and kept.

        Raises CapExceeded before enumerating when p^n |G| is above G's
        element cap.
        """
        self.gamma_order()
        return semidirect_affine(self.v, self.v.group).cache()

    def _z2(self) -> Subspace:
        p, n = self.p, self.n
        one = np.eye(n, dtype=np.int64)
        m = (self.u.a - one) % p
        if self.Z.dim == n:
            return Subspace.full(self.p, n)
        # rows C with kernel exactly Z: kernel of Z-basis as column space
        C = gfp.kernel_basis(FpMatrix(self.p, self.Z.basis)).basis
        return gfp.kernel_basis(FpMatrix(self.p, C @ m % p))

    # -- element ops ------------------------------------------------------
    def e(self, vec, k: int):
        return (tuple(int(x) % self.p for x in vec), k % self.p)

    def identity(self):
        return (tuple([0] * self.n), 0)

    def mul(self, x, y):
        (a, k), (b, l) = x, y
        vec = (np.array(a, dtype=np.int64)
               + self.upow[k] @ np.array(b, dtype=np.int64)) % self.p
        return (tuple(int(t) for t in vec), (k + l) % self.p)

    def inv(self, x):
        (a, k) = x
        vec = (-(self.upow[(-k) % self.p] @ np.array(a, dtype=np.int64))) % self.p
        return (tuple(int(t) for t in vec), (-k) % self.p)

    def power(self, x, e: int):
        out = self.identity()
        cur = x
        e %= self.order_bound()
        if e < 0:
            cur = self.inv(cur)
            e = -e
        while e:
            if e & 1:
                out = self.mul(out, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return out

    def order_bound(self):
        return self.p ** (self.n + 1)

    def sigma(self, a_vec) -> np.ndarray:
        """sum_{i<p} u^i a  (the p-th power obstruction of (a, 1))."""
        s = np.zeros(self.n, dtype=np.int64)
        a = np.array(a_vec, dtype=np.int64)
        for k in range(self.p):
            s = (s + self.upow[k] @ a) % self.p
        return s

    def element_order(self, x) -> int:
        cur = x
        k = 1
        while cur != self.identity():
            cur = self.mul(cur, x)
            k += 1
        return k

    def subgroup_elements(self, gens):
        """BFS closure of S-elements."""
        seen = {self.identity()}
        frontier = [self.identity()]
        gens = list(gens)
        while frontier:
            nxt = []
            for f in frontier:
                for g in gens:
                    h = self.mul(f, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                    h2 = self.mul(g, f)
                    if h2 not in seen:
                        seen.add(h2)
                        nxt.append(h2)
            frontier = nxt
        return seen

    def all_elements(self):
        if self.n + 1 > DESK_S_LIMIT:
            raise CapExceeded(f"|S| = p^{self.n + 1} above the desk limit")
        out = []
        from itertools import product
        for vec in product(range(self.p), repeat=self.n):
            for k in range(self.p):
                out.append((vec, k))
        return out

    def subspace_elements(self, s: Subspace, shift_k: int = 0):
        """All (w, shift_k) with w in the subspace."""
        from itertools import product
        out = []
        basis = s.basis
        for coeffs in product(range(self.p), repeat=s.dim):
            w = np.zeros(self.n, dtype=np.int64)
            for c, row in zip(coeffs, basis):
                w = (w + c * row) % self.p
            out.append((tuple(int(t) for t in w), shift_k))
        return out


@dataclass
class BuildReport:
    dims: dict
    checks: dict
    ok: bool


def build_s(v: FpModule, syl: SylowData) -> tuple[SGroup, BuildReport]:
    """Construct S and verify the structural size laws."""
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
    }
    ok = all(checks.values())
    return s, BuildReport(dims, checks, ok)


def choose_x_a(s: SGroup, g: MatGroup, syl: SylowData):
    """x = (0, 1) and a spanning the N_G(U)-invariant complement of A0/S'.

    The complement line in A/S' is found by averaging any projection onto
    A0/S' over coset representatives of U in N_G(U) (order prime to p).
    """
    p, n = s.p, s.n
    x = s.e([0] * n, 1)
    N = syl.normalizer_N
    N.cache()
    # coordinates of A/S'
    quot_mod, proj = modrep.quotient_module(
        FpModule(s.v.p, n, N), s.Sprime)
    q = quot_mod.dim
    # image of A0 in the quotient
    a0_rows = np.array([proj.apply(w) for w in s.A0.basis], dtype=np.int64)
    W0 = Subspace(s.v.p, q, a0_rows)
    assert W0.dim == q - 1
    # a projector onto W0 along an arbitrary complement direction:
    # write v = w + t*e_comp with w in W0, send v to w
    comp_col = [c for c in range(q) if c not in W0._pivots][0]
    E = np.eye(q, dtype=np.int64)
    basisext = np.concatenate([W0.basis, E[comp_col].reshape(1, -1)], axis=0)
    Bx = FpMatrix(s.v.p, basisext.T)
    Binv = Bx.inverse().a
    sel = np.diag([1] * W0.dim + [0])
    P0 = (basisext.T @ sel @ Binv) % p
    # average over coset reps of U in N
    stack = N.elements_stack()
    keys_done = set()
    reps = []
    for i in range(stack.shape[0]):
        m64 = stack[i].astype(np.int64)
        ck = min(((m64 @ uk) % p).astype(np.int8).tobytes() for uk in
                 (s.upow[k] for k in range(p)))
        if ck in keys_done:
            continue
        keys_done.add(ck)
        reps.append(m64)
    acc = np.zeros((q, q), dtype=np.int64)
    for r64 in reps:
        gq = quot_action(proj, r64, p, n, q)
        acc = (acc + gq @ P0 % p @ _inv_arr(gq, p)) % p
    inv_cnt = pow(len(reps) % p, p - 2, p)
    Pbar = acc * inv_cnt % p
    L = gfp.kernel_basis(FpMatrix(s.v.p, Pbar))
    assert L.dim == 1, "invariant complement must be a line"
    # lift the line generator back to A
    lift = _lift_from_quotient(s, proj, L.basis[0])
    a = s.e(lift, 0)
    # verification: S'<a> is N-invariant
    spa = gfp.add(s.Sprime, Subspace(s.v.p, n, lift.reshape(1, -1)))
    for gen in N.generators:
        assert gfp.image_of_subspace(gen, spa) == spa, \
            "S'<a> not normalizer-invariant"
    assert not s.A0.contains_vector(lift), "a must lie outside A0"
    return x, a


def quot_action(proj: FpMatrix, g64: np.ndarray, p: int, n: int, q: int):
    """Action induced on A/S' coordinates by g."""
    L = _lift_matrix(proj, p, n, q)
    return proj.a @ g64 % p @ L % p


def _lift_matrix(proj: FpMatrix, p: int, n: int, q: int):
    # right inverse of proj: proj uses free coordinates of the RREF, so the
    # unit vectors at those coordinates lift the quotient basis
    L = np.zeros((n, q), dtype=np.int64)
    for k in range(q):
        # solve proj @ x = e_k ; proj has full row rank
        x = gfp.solve(proj, np.eye(q, dtype=np.int64)[k])
        L[:, k] = x
    return L


def _lift_from_quotient(s: SGroup, proj: FpMatrix, vec_q: np.ndarray):
    x = gfp.solve(proj, vec_q)
    return np.asarray(x, dtype=np.int64) % s.p


def _inv_arr(a: np.ndarray, p: int) -> np.ndarray:
    return FpMatrix(p, a).inverse().a


def class_label(s: SGroup, subgroup_elements) -> tuple:
    """(kind-invariant) class label i of Z<x a^i>-style subgroups.

    For a generator (c, k) with k != 0, the label is gamma / k where gamma
    is the A/A0-coordinate of c.
    """
    p, n = s.p, s.n
    for (c, k) in subgroup_elements:
        if k % p:
            gamma = _a_mod_a0_coord(s, np.array(c, dtype=np.int64))
            return gamma * pow(k, p - 2, p) % p
    raise ValueError("subgroup lies inside A")


def _a_mod_a0_coord(s: SGroup, vec) -> int:
    """Coordinate of vec in A/A0 w.r.t. the chosen a (0 if inside A0)."""
    a_vec = np.array(s._chosen_a[0], dtype=np.int64)
    # coefficient of a: reduce vec by A0 then match against a
    r = np.array(vec, dtype=np.int64) % s.p
    for i, c in enumerate(s.A0._pivots):
        if r[c]:
            r = (r - r[c] * s.A0.basis[i]) % s.p
    ra = a_vec.copy()
    for i, c in enumerate(s.A0._pivots):
        if ra[c]:
            ra = (ra - ra[c] * s.A0.basis[i]) % s.p
    nz = np.nonzero(ra)[0]
    assert nz.size
    return int(r[nz[0]]) * pow(int(ra[nz[0]]), s.p - 2, s.p) % s.p


def hb_subgroups(s: SGroup, x, a):
    """H_i = Z<x a^i> and B_i = Z_2<x a^i> for 0 <= i <= p-1."""
    p = s.p
    s._chosen_a = a
    out = {}
    for i in range(p):
        ai = s.power(a, i)
        gen = s.mul(x, ai)
        H = s.subgroup_elements(s.subspace_elements(s.Z) + [gen])
        B = s.subgroup_elements(s.subspace_elements(s.Z2) + [gen])
        assert len(H) == p ** (s.Z.dim + 1)
        assert len(B) == p ** (s.Z2.dim + 1)
        out[i] = {"H": H, "B": B, "generator": gen}
    if s.n + 1 <= DESK_S_LIMIT:
        # S-conjugacy: conjugates of H_0 stay in class 0 and never hit H_1
        H0 = out[0]["H"]
        H1 = out[1]["H"]
        for t in s.all_elements():
            ti = s.inv(t)
            conj = frozenset(s.mul(s.mul(t, h), ti) for h in H0)
            assert class_label(s, conj) == 0
            assert conj != frozenset(H1)
    return out


# -- permutation automorphism machinery ------------------------------------

class PermGroupOnSet:
    """Automorphisms of a finite group as permutations of its element list."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.n = len(self.elements)

    def identity_perm(self):
        return np.arange(self.n, dtype=np.int64)

    def perm_from_map(self, fn):
        arr = np.empty(self.n, dtype=np.int64)
        for i, e in enumerate(self.elements):
            arr[i] = self.index[fn(e)]
        return arr

    @staticmethod
    def key(perm) -> bytes:
        return perm.astype(np.int32).tobytes()

    def _close_with(self, gens, cap=10 ** 6):
        seen = {}
        ident = self.identity_perm()
        seen[self.key(ident)] = ident
        frontier = [ident]
        while frontier:
            nxt = []
            for f in frontier:
                for g in gens:
                    h = f[g]
                    k = self.key(h)
                    if k not in seen:
                        seen[k] = h
                        nxt.append(h)
                        if len(seen) > cap:
                            raise CapExceeded("perm closure exceeds cap")
            frontier = nxt
        return seen

    def close(self, perms, cap=10 ** 6):
        """Closure of a perm collection, selecting generators greedily."""
        gens = []
        seen = {self.key(self.identity_perm()): self.identity_perm()}
        for g in perms:
            if self.key(g) not in seen:
                gens.append(g)
                seen = self._close_with(gens, cap=cap)
        return seen


def _hom_from_gen_images(s: SGroup, pset: PermGroupOnSet, gens, images):
    """Permutation of the subgroup induced by generator images, or None.

    Extends multiplicatively along a BFS and verifies consistency, so the
    result is an automorphism whenever it returns non-None.
    """
    ident = s.identity()
    imap = {ident: ident}
    frontier = [ident]
    pairs = list(zip(gens, images))
    while frontier:
        nxt = []
        for f in frontier:
            for g, img in pairs:
                h = s.mul(f, g)
                hi = s.mul(imap[f], img)
                if h in imap:
                    if imap[h] != hi:
                        return None
                else:
                    imap[h] = hi
                    nxt.append(h)
        frontier = nxt
    if len(imap) != pset.n:
        return None
    if len(set(imap.values())) != pset.n:
        return None
    return pset.perm_from_map(lambda e: imap[e])


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
    theta: dict = field(repr=False, default=None)      # key -> perm
    inn: dict = field(repr=False, default=None)
    aut_s: dict = field(repr=False, default=None)
    opp_theta: dict = field(repr=False, default=None)


def theta_witness(s: SGroup, kind: str, i: int, hb,
                  gvee: mu.GVee) -> ThetaReport:
    """Build Theta <= Aut(P) for P = H_i or B_i and verify its contract.

    Checks: (i) Aut_S(P) is Sylow-p in Theta, (ii) O^{p'}(Theta)/Inn(P) has
    order |SL_2(p)|, (iii) normalizer elements of Aut_S(P) in O^{p'}(Theta)
    move Z into Z0 only, (iv) N_Theta(Aut_S(P)) equals the restrictions of
    subgroup-normalizing ambient automorphisms.
    """
    p, n = s.p, s.n
    t = -1 if kind == "H" else 0
    image = mu.mu_image(gvee)
    if not mu.contains_delta_t(image, t):
        raise MuTooSmall(f"mu-image lacks Delta_{t}")
    P_el = hb[i]["H" if kind == "H" else "B"]
    gen_x = hb[i]["generator"]
    if s.element_order(gen_x) != p:
        raise SplitFailed("P does not split over P meet A")
    pset = PermGroupOnSet(sorted(P_el))

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

    z0 = s.Z0.basis[0]
    if kind == "H":
        # P = Z^* x P^* with Z^* = C_Z(alpha), P^* = Z0<x> = C_p^2;
        # SL_2 standard generators act on the (z0, x) coordinates:
        # E12: z0 -> z0, x -> z0 x ; E21: z0 -> z0 x, x -> x
        zstar = gfp.intersect(
            s.Z, gfp.kernel_basis(alpha_mat - FpMatrix.identity(s.v.p, n)))
        assert zstar.dim == s.Z.dim - 1
        zs_gens = [s.e(w, 0) for w in zstar.basis]
        gens_P = zs_gens + [s.e(z0, 0), gen_x]
        img1 = zs_gens + [s.e(z0, 0), s.mul(s.e(z0, 0), gen_x)]
        img2 = zs_gens + [s.mul(s.e(z0, 0), gen_x), gen_x]
        perm1 = _hom_from_gen_images(s, pset, gens_P, img1)
        perm2 = _hom_from_gen_images(s, pset, gens_P, img2)
        assert perm1 is not None and perm2 is not None, \
            "SL_2 generators must define automorphisms of C_p^2 x Z^*"
        theta0_gens = [perm1, perm2]
    else:
        # P = Z^* x P^* with P^* = (Z2 meet S')<x> extraspecial p^{1+2}
        z2sp = gfp.intersect(s.Z2, s.Sprime)
        assert z2sp.dim == 2
        # v-vector: a generator of (Z2 meet S') - Z0 with [x, v] = z0-normalized
        vvec = None
        for w in z2sp.basis:
            if not s.Z0.contains_vector(w):
                vvec = np.array(w, dtype=np.int64)
                break
        assert vvec is not None
        # [x, v] = (u - 1) v ; rescale v so that [x, v] = z0 exactly
        comm = (s.u.a @ vvec - vvec) % p
        coef = _line_coeff(s, z0, comm)
        assert coef is not None and coef != 0
        vvec = vvec * pow(coef, p - 2, p) % p
        comm = (s.u.a @ vvec - vvec) % p
        assert (comm == np.array(z0)).all()
        zstar = _alpha_complement_in_z(s, alpha_mat)
        vel = s.e(vvec, 0)
        zs_gens = [s.e(w, 0) for w in zstar.basis]
        gens_P = zs_gens + [s.e(z0, 0), vel, gen_x]
        # E12: x -> v x, v -> v ; E21: v -> x v, x -> x
        img_e12 = zs_gens + [s.e(z0, 0), vel, s.mul(vel, gen_x)]
        img_e21 = zs_gens + [s.e(z0, 0), s.mul(gen_x, vel), gen_x]
        perm1 = _hom_from_gen_images(s, pset, gens_P, img_e12)
        perm2 = _hom_from_gen_images(s, pset, gens_P, img_e21)
        assert perm1 is not None and perm2 is not None, \
            "SL_2 lifts must define automorphisms of the extraspecial part"
        theta0_gens = [perm1, perm2]

    # inner automorphisms and Aut_S(P)
    inn = _inner_perms(s, pset, P_el)
    aut_s = _induced_perms_from_normalizer_in_s(s, pset, P_el)

    # Lambda_P: restrictions of ambient (Gamma) automorphisms normalizing P
    lam = _lambda_perms(s, pset)

    inn_gens = _perm_gens_of(pset, inn)
    lam_gens = _perm_gens_of(pset, lam)
    theta = pset.close(lam_gens + theta0_gens + inn_gens)
    theta0 = pset.close(theta0_gens + inn_gens)

    # O^{p'}(Theta): normal closure of the Sylow-p subgroup Aut_S(P)
    opp = _opp_of_perm_group(pset, theta, aut_s, p)

    sl2_order = p * (p * p - 1)
    checks = {}
    aut_s_keys = set(aut_s)
    checks["aut_s_in_theta"] = aut_s_keys <= set(theta)
    theta_order = len(theta)
    vp = 0
    tmp = theta_order
    while tmp % p == 0:
        vp += 1
        tmp //= p
    checks["aut_s_is_sylow"] = (len(aut_s) == p ** vp)
    checks["theta0_over_inn_is_sl2"] = len(theta0) == len(inn) * sl2_order
    checks["opp_is_theta0"] = set(opp) == set(theta0)
    # (iii): normalizer of Aut_S(P) inside O^{p'}(Theta) moves Z into Z0
    norm_opp = _normalizer_in(pset, opp, aut_s)
    z_els = s.subspace_elements(s.Z)
    ok3 = True
    for perm in norm_opp.values():
        for ze in z_els:
            img = pset.elements[perm[pset.index[ze]]]
            diff = (np.array(img[0]) - np.array(ze[0])) % p
            if img[1] != ze[1] or not s.Z0.contains_vector(diff):
                ok3 = False
    checks["normalizer_fixes_Z_mod_Z0"] = ok3
    # (iv): N_Theta(Aut_S(P)) equals Lambda_P
    norm_theta = _normalizer_in(pset, theta, aut_s)
    checks["normalizer_equals_lambda"] = set(norm_theta) == set(lam)

    ok = all(checks.values())
    return ThetaReport(kind, len(P_el), len(inn), theta_order,
                       len(theta0) // len(inn), checks, ok,
                       pset=pset, theta=theta, inn=inn,
                       aut_s=aut_s, opp_theta=theta0)


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


def _inner_perms(s: SGroup, pset: PermGroupOnSet, P_el):
    """Inn(P), closed from conjugation by a small generating set."""
    gens = _small_generating_set(s, P_el)
    perms = [pset.perm_from_map(lambda e, t=t0: s.mul(s.mul(t, e), s.inv(t)))
             for t0 in gens]
    return pset.close(perms)


def _induced_perms_from_normalizer_in_s(s: SGroup, pset, P_el):
    """Aut_S(P): permutations induced by N_S(P)."""
    P_set = frozenset(P_el)
    p_gens = _small_generating_set(s, P_el)
    out = {}
    for t0 in s.all_elements():
        ti = s.inv(t0)
        if any(s.mul(s.mul(t0, h), ti) not in P_set for h in p_gens):
            continue
        perm = pset.perm_from_map(
            lambda e, t=t0: s.mul(s.mul(t, e), s.inv(t)))
        out[PermGroupOnSet.key(perm)] = perm
    return out


def _perm_gens_of(pset, group_dict):
    """Small generating subset of a closed perm-group dict."""
    gens = []
    closed = {pset.key(pset.identity_perm()): pset.identity_perm()}
    for key, perm in group_dict.items():
        if key not in closed:
            gens.append(perm)
            closed = pset._close_with(gens)
        if len(closed) == len(group_dict):
            break
    return gens


def semidirect_affine(v: FpModule, g: MatGroup) -> MatGroup:
    """Gamma = A x| G as (n+1) x (n+1) affine matrices."""
    p, n = v.p.p, v.dim
    gens = []
    for m in g.generators:
        a = np.eye(n + 1, dtype=np.int64)
        a[:n, :n] = m.a
        gens.append(FpMatrix(v.p, a))
    for j in range(n):
        a = np.eye(n + 1, dtype=np.int64)
        a[j, n] = 1
        gens.append(FpMatrix(v.p, a))
    return MatGroup(v.p, gens, cap=g.cap)


def affine_of_s_element(s: SGroup, e) -> FpMatrix:
    (c, k) = e
    n = s.n
    a = np.eye(n + 1, dtype=np.int64)
    a[:n, :n] = s.upow[k % s.p]
    a[:n, n] = np.array(c, dtype=np.int64)
    return FpMatrix(s.v.p, a)


def _s_element_of_affine(s: SGroup, mat64) -> tuple:
    n = s.n
    vec = tuple(int(t) % s.p for t in mat64[:n, n])
    blk = mat64[:n, :n] % s.p
    for k in range(s.p):
        if (blk == s.upow[k]).all():
            return (vec, k)
    return None


def _lambda_perms(s: SGroup, pset):
    """Restrictions to P of ambient automorphisms normalizing P.

    Scans Gamma = A x| G for elements normalizing P and records the induced
    permutations of P.
    """
    p = s.p
    P_aff_index = {affine_of_s_element(s, e).key(): pset.index[e]
                   for e in pset.elements}
    P_stack = np.array([affine_of_s_element(s, e).a for e in pset.elements],
                       dtype=np.int64)
    P_gens = _small_generating_set(s, pset.elements)
    P_gen_aff = [affine_of_s_element(s, e).a for e in P_gens]
    stack = s.gamma.elements_stack()
    inv_stack = s.gamma.inverses_stack()
    out = {}
    for lo in range(0, stack.shape[0], 1 << 13):
        S64 = stack[lo:lo + (1 << 13)].astype(np.int64)
        SI64 = inv_stack[lo:lo + (1 << 13)].astype(np.int64)
        mask = np.ones(S64.shape[0], dtype=bool)
        for q in P_gen_aff:
            conj = (S64 @ q % p) @ SI64 % p
            ok = np.array([conj[j].astype(np.int8).tobytes() in P_aff_index
                           for j in range(conj.shape[0])])
            mask &= ok
        for j in np.nonzero(mask)[0]:
            conj_all = (S64[j] @ P_stack % p) @ SI64[j] % p
            perm = np.array(
                [P_aff_index[conj_all[t].astype(np.int8).tobytes()]
                 for t in range(conj_all.shape[0])], dtype=np.int64)
            out[PermGroupOnSet.key(perm)] = perm
    return out


def _small_generating_set(s: SGroup, P_el):
    """A few elements generating P (greedy closure growth)."""
    target = frozenset(P_el)
    gens = []
    have = {s.identity()}
    for e in sorted(P_el):
        if e not in have:
            gens.append(e)
            have = s.subgroup_elements(gens)
            if have == target:
                break
    return gens


def _opp_of_perm_group(pset, group_dict, sylow_dict, p):
    """Normal closure of the Sylow-p subgroup inside a closed perm group."""
    psyl = _perm_gens_of(pset, sylow_dict)
    conj_gens = {}
    for g in group_dict.values():
        ginv = np.argsort(g)
        for sp in psyl:
            c = g[sp[ginv]]
            conj_gens[PermGroupOnSet.key(c)] = c
    return pset.close(list(conj_gens.values()))


def _normalizer_in(pset, group_dict, subgroup_dict):
    """{g in group : g normalizes the subgroup} (conjugates of generators)."""
    subgroup_keys = set(subgroup_dict)
    sub_gens = _perm_gens_of(pset, subgroup_dict)
    out = {}
    for key, g in group_dict.items():
        ginv = np.argsort(g)
        ok = True
        for sp in sub_gens:
            if PermGroupOnSet.key(g[sp[ginv]]) not in subgroup_keys:
                ok = False
                break
        if ok:
            out[key] = g
    return out


# -- step-2 witness conditions ---------------------------------------------

def step2_conditions(s: SGroup, thetas) -> dict:
    """Verify the saturation-witness conditions on Gamma = A x| G.

    thetas: the `theta_witness` reports of the class representatives Q.
    (1) pairwise non-conjugacy in Gamma (and no containment),
    (2) each Q is p-centric in Gamma,
    (3) Out_S(Q) has order p and is non-normal in Theta/Inn(Q).
    """
    p = s.p
    gamma = s.gamma
    report = {"gamma_order": gamma.order(), "conditions": {}}
    q_sets = [th.pset.elements for th in thetas]
    # (1) pairwise Gamma-conjugacy / containment via subgroup orbits,
    # compared through affine element keys (orbit members may leave S)
    cond1 = True
    orbits = []
    targets = []
    for els in q_sets:
        orbits.append(_gamma_orbit_of_subgroup(s, gamma, els))
        targets.append(frozenset(affine_of_s_element(s, e).key()
                                 for e in els))
    for a in range(len(q_sets)):
        for b in range(len(q_sets)):
            if a == b:
                continue
            for member in orbits[a]:
                if member <= targets[b]:
                    cond1 = False
    report["conditions"]["pairwise_nonconjugate"] = cond1

    # (2) p-centric: Z(Q) is Sylow-p in C_Gamma(Q)
    cond2 = True
    centric = []
    for els in q_sets:
        c_order = _gamma_centralizer_order(s, gamma, els)
        zq = _center_order(s, els)
        vp = 0
        tmp = c_order
        while tmp % p == 0:
            vp += 1
            tmp //= p
        centric.append({"centralizer_order": c_order, "center_order": zq,
                        "p_centric": p ** vp == zq})
        cond2 &= p ** vp == zq
    report["conditions"]["p_centric"] = cond2
    report["centric_detail"] = centric

    # (3) Out_S(Q) of order p, non-normal in Theta/Inn
    cond3 = True
    for th in thetas:
        outs = len(th.aut_s) // max(1, len(set(th.aut_s) & set(th.inn)))
        order_p = outs == p
        # non-normality: some theta-conjugate of Aut_S(P) leaves Aut_S(P)Inn
        aut_keys = set(th.aut_s)
        coset_keys = set()
        for ak, aperm in th.aut_s.items():
            for ik, iperm in th.inn.items():
                coset_keys.add(PermGroupOnSet.key(aperm[iperm]))
        nonnormal = False
        for key, gperm in th.theta.items():
            ginv = np.argsort(gperm)
            for sk, sperm in th.aut_s.items():
                c = gperm[sperm[ginv]]
                if PermGroupOnSet.key(c) not in coset_keys:
                    nonnormal = True
                    break
            if nonnormal:
                break
        cond3 &= order_p and nonnormal
    report["conditions"]["strongly_p_embedded_normalizer"] = cond3
    report["theta_checks"] = [{"kind": th.kind, "ok": th.ok,
                               "checks": th.checks} for th in thetas]
    report["ok"] = cond1 and cond2 and cond3 and all(t.ok for t in thetas)
    return report


def _gamma_orbit_of_subgroup(s: SGroup, gamma: MatGroup, els):
    """Orbit of a subgroup under Gamma-conjugation, as affine key sets."""
    p = s.p
    el_mats = [affine_of_s_element(s, e).a for e in els]
    start = frozenset(m.astype(np.int8).tobytes() for m in el_mats)
    seen = {start}
    gens64 = [(g.a, g.inverse().a) for g in gamma.generators]
    queue = [el_mats]
    while queue:
        mats = queue.pop()
        for g64, gi64 in gens64:
            conj = [(g64 @ m % p) @ gi64 % p for m in mats]
            key = frozenset(m.astype(np.int8).tobytes() for m in conj)
            if key not in seen:
                seen.add(key)
                queue.append(conj)
    return seen


def _gamma_centralizer_order(s: SGroup, gamma: MatGroup, els) -> int:
    p = s.p
    gens = _small_generating_set(s, els)
    gen64 = [affine_of_s_element(s, e).a for e in gens]
    stack = gamma.elements_stack()
    total = 0
    for lo in range(0, stack.shape[0], 1 << 14):
        S64 = stack[lo:lo + (1 << 14)].astype(np.int64)
        mask = np.ones(S64.shape[0], dtype=bool)
        for q in gen64:
            mask &= (S64 @ q % p == q @ S64 % p).all(axis=(1, 2))
        total += int(mask.sum())
    return total


def _center_order(s: SGroup, els) -> int:
    gens = _small_generating_set(s, els)
    cnt = 0
    for e in els:
        if all(s.mul(e, g) == s.mul(g, e) for g in gens):
            cnt += 1
    return cnt


def unique_abelian_index_p(s: SGroup) -> bool:
    """Exhaustively check that A is the unique abelian index-p subgroup."""
    p, n = s.p, s.n
    if n + 1 > DESK_S_LIMIT:
        raise CapExceeded("exhaustive index-p scan is desk-scale only")
    # index-p subgroups = kernels of epimorphisms S -> C_p, i.e. hyperplanes
    # of S / [S,S] (exponent p, so Frattini = [S,S])
    sp = s.Sprime
    quot_dim = n + 1 - sp.dim
    count_abelian = 0
    from itertools import product
    seen = set()
    for coeffs in product(range(p), repeat=quot_dim):
        if all(c == 0 for c in coeffs):
            continue
        # functional on S/S': fn(a, k) = f_A(a mod S') + c_k * k
        key = _normalize_functional(coeffs, p)
        if key in seen:
            continue
        seen.add(key)
        els = [e for e in s.all_elements()
               if _functional_value(s, coeffs, e) == 0]
        assert len(els) == p ** n
        gens = _small_generating_set(s, els)
        if all(s.mul(a, b) == s.mul(b, a)
               for ii, a in enumerate(gens) for b in gens[ii + 1:]):
            count_abelian += 1
    return count_abelian == 1


def _normalize_functional(coeffs, p):
    arr = [c % p for c in coeffs]
    first = next(c for c in arr if c)
    inv = pow(first, p - 2, p)
    return tuple(c * inv % p for c in arr)


def _functional_value(s: SGroup, coeffs, e) -> int:
    (c, k) = e
    # coordinates of (c mod S', k) in S/S'
    p = s.p
    r = np.array(c, dtype=np.int64) % p
    sp = s.Sprime
    for i, col in enumerate(sp._pivots):
        if r[col]:
            r = (r - r[col] * sp.basis[i]) % p
    free = [col for col in range(s.n) if col not in sp._pivots]
    vals = [int(r[col]) for col in free] + [k % p]
    return sum(cc * vv for cc, vv in zip(coeffs, vals)) % p
