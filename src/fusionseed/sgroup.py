"""The p-group S = A x| U and its local automorphism data.

S-elements are affine matrices [[u^k, c], [0, 1]] for c in A = F_p^n and
u the Sylow generator's matrix, so S is a subgroup of Gamma = A x| G in the
same representation.  Z(S), [S,S], Z_2(S) and A_0 are subspaces of A; the
essential-candidate subgroups H_i = Z<x a^i> and B_i = Z_2<x a^i> are
MatGroups, and the local automorphism groups Theta are built as
permutation groups on their elements and verified against their contracts.
Gamma itself is only ever read through its generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gfp, modrep, mu
from .errors import CapExceeded, InvariantViolation, MuTooSmall, SplitFailed
from .gfp import FpMatrix, Subspace
from .grp import MatGroup, SylowData, _row_keys
from .modrep import FpModule

DESK_S_LIMIT = 6    # refuse full S-element enumeration above p**DESK_S_LIMIT
_CONJ_CHUNK = 1 << 12   # ambient elements conjugated per batched product


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
        """Gamma = A x| G by its generators, never enumerated.

        Raises CapExceeded when p^n |G| is above G's element cap.
        """
        self.gamma_order()
        return semidirect_affine(self.v, self.v.group)

    @functools.cached_property
    def S(self) -> MatGroup:
        """S = A x| U, enumerated; refused above p**DESK_S_LIMIT elements."""
        if self.n + 1 > DESK_S_LIMIT:
            raise CapExceeded(f"|S| = p^{self.n + 1} above the desk limit")
        return semidirect_affine(self.v, MatGroup(self.v.p, [self.u])).cache()

    # A subgroup P of S outside A maps onto U in G, so an (a, g) in Gamma
    # that normalizes (centralizes) P has g in N_G(U) (C_G(U)): these two
    # ambients hold every element of Gamma that normalizes (centralizes) P.
    @functools.cached_property
    def a_by_normalizer(self) -> MatGroup:
        """A x| N_G(U), enumerated."""
        return semidirect_affine(self.v, self.syl.normalizer_N).cache()

    @functools.cached_property
    def a_by_centralizer(self) -> MatGroup:
        """A x| C_G(U), enumerated."""
        return semidirect_affine(self.v, self.syl.centralizer_C).cache()

    def translation(self, w) -> FpMatrix:
        """The translation (w, u^0) of A."""
        return _affine(self.v.p, np.eye(self.n, dtype=np.int64), w)

    def subgroup(self, space: Subspace, *extra: FpMatrix) -> MatGroup:
        """<space, extra> for a subspace of A and S-elements, enumerated."""
        gens = [self.translation(w) for w in space.basis] + list(extra)
        return MatGroup(self.v.p, gens).cache()

    def _z2(self) -> Subspace:
        p, n = self.p, self.n
        one = np.eye(n, dtype=np.int64)
        m = (self.u.a - one) % p
        if self.Z.dim == n:
            return Subspace.full(self.p, n)
        # rows C with kernel exactly Z: kernel of Z-basis as column space
        C = gfp.kernel_basis(FpMatrix(self.p, self.Z.basis)).basis
        return gfp.kernel_basis(FpMatrix(self.p, C @ m % p))

    def sigma(self, a_vec) -> np.ndarray:
        """sum_{i<p} u^i a  (the p-th power obstruction of (a, 1))."""
        s = np.zeros(self.n, dtype=np.int64)
        a = np.array(a_vec, dtype=np.int64)
        for k in range(self.p):
            s = (s + self.upow[k] @ a) % self.p
        return s


def _affine(p, block, vec) -> FpMatrix:
    """The affine matrix [[block, vec], [0, 1]] of w -> block w + vec."""
    n = len(vec)
    a = np.eye(n + 1, dtype=np.int64)
    a[:n, :n] = block
    a[:n, n] = vec
    return FpMatrix(p, a)


def semidirect_affine(v: FpModule, g: MatGroup) -> MatGroup:
    """A x| g as (n+1) x (n+1) affine matrices, not enumerated."""
    one = np.eye(v.dim, dtype=np.int64)
    gens = [_affine(v.p, m.a, np.zeros(v.dim, dtype=np.int64))
            for m in g.generators]
    gens += [_affine(v.p, one, e) for e in one]
    return MatGroup(v.p, gens, cap=g.cap)


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
    """x = (0, u) and the translation a = (a, u^0), with a spanning the
    N_G(U)-invariant complement of A0/S'.

    The complement line in A/S' is found by averaging any projection onto
    A0/S' over coset representatives of U in N_G(U) (order prime to p).
    """
    p, n = s.p, s.n
    x = _affine(s.v.p, s.u.a, np.zeros(n, dtype=np.int64))
    N = syl.normalizer_N
    N.cache()
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
    if L.dim != 1:
        raise InvariantViolation("invariant complement must be a line")
    # lift the line generator back to A
    lift = _lift_from_quotient(s, proj, L.basis[0])
    # verification: S'<a> is N-invariant
    spa = gfp.add(s.Sprime, Subspace(s.v.p, n, lift.reshape(1, -1)))
    if any(gfp.image_of_subspace(gen, spa) != spa for gen in N.generators):
        raise InvariantViolation("S'<a> not normalizer-invariant")
    if s.A0.contains_vector(lift):
        raise InvariantViolation("a must lie outside A0")
    return x, s.translation(lift)


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
    raise ValueError("element lies inside A")


def _a_mod_a0_coord(s: SGroup, vec) -> int:
    """Coordinate of vec in the line A/A0: after reduction by A0's echelon
    basis, its entry at the one column where A0 has no pivot."""
    r = np.array(vec, dtype=np.int64) % s.p
    for i, c in enumerate(s.A0._pivots):
        if r[c]:
            r = (r - r[c] * s.A0.basis[i]) % s.p
    free = [c for c in range(s.n) if c not in s.A0._pivots]
    if len(free) != 1:
        raise InvariantViolation("A0 must be a hyperplane of A")
    return int(r[free[0]])


def hb_subgroups(s: SGroup, x, a):
    """H_i = Z<x a^i> and B_i = Z_2<x a^i> for 0 <= i <= p-1."""
    p = s.p
    out = {}
    for i in range(p):
        gen = x @ a.pow(i)
        H = s.subgroup(s.Z, gen)
        B = s.subgroup(s.Z2, gen)
        if H.order() != p ** (s.Z.dim + 1) or \
                B.order() != p ** (s.Z2.dim + 1):
            raise InvariantViolation(f"|H_{i}| or |B_{i}| is not |Z| p or "
                                     "|Z_2| p")
        out[i] = {"H": H, "B": B, "generator": gen}
    if s.n + 1 <= DESK_S_LIMIT:
        # S-conjugacy: conjugates of H_0 stay in class 0 and never hit H_1
        # (a conjugate equal to H_1 would hold a conjugate of x a^0)
        for c in s.S.conjugates_of(out[0]["generator"]):
            if class_label(s, c, a) != 0:
                raise InvariantViolation("an S-conjugate of H_0 left class 0")
            if out[1]["H"].contains(c):
                raise InvariantViolation("an S-conjugate of x lies in H_1")
    return out


# -- permutation automorphism machinery ------------------------------------

class PermGroupOnSet:
    """Automorphisms of a subgroup P of S as permutations of P's elements,
    indexed by P's int8 element stack and its keys."""

    def __init__(self, group: MatGroup):
        self.group = group
        self.elements = group.elements_stack()
        self.index = group.keys()
        self.n = group.order()

    def identity_perm(self):
        return np.arange(self.n, dtype=np.int64)

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

    def perm_of_images(self, images: np.ndarray):
        """The permutation sending element j to images[j], or None when an
        image lies outside P."""
        idx = [self.index.get(k)
               for k in _row_keys(images.reshape(self.n, -1))]
        return None if None in idx else np.array(idx, dtype=np.int64)


def _hom_from_gen_images(pset: PermGroupOnSet, gens, images):
    """Permutation of the subgroup induced by generator images, or None.

    Extends multiplicatively along a BFS and verifies consistency, so the
    result is an automorphism whenever it returns non-None.
    """
    p = pset.group.p.p
    ident = np.eye(pset.group.dim, dtype=np.int64)
    imap = {ident.astype(np.int8).tobytes(): (ident, ident)}
    frontier = [ident.astype(np.int8).tobytes()]
    pairs = [(g.a, img.a) for g, img in zip(gens, images)]
    while frontier:
        nxt = []
        for f in frontier:
            fm, fi = imap[f]
            for g, img in pairs:
                h, hi = fm @ g % p, fi @ img % p
                k = h.astype(np.int8).tobytes()
                if k in imap:
                    if not (imap[k][1] == hi).all():
                        return None
                else:
                    imap[k] = (h, hi)
                    nxt.append(k)
        frontier = nxt
    if len(imap) != pset.n:
        return None
    perm = pset.perm_of_images(
        np.array([imap[k][1] for k in _row_keys(
            pset.elements.reshape(pset.n, -1))]))
    if perm is None or len(set(perm.tolist())) != pset.n:
        return None
    return perm


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
    P = hb[i]["H" if kind == "H" else "B"]
    gen_x = hb[i]["generator"]
    if gen_x.order() != p:
        raise SplitFailed("P does not split over P meet A")
    pset = PermGroupOnSet(P)

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
    theta0_gens = [_hom_from_gen_images(pset, gens_P, img)
                   for img in (img1, img2)]
    if any(perm is None for perm in theta0_gens):
        raise InvariantViolation(what)

    # inner automorphisms, Aut_S(P) and Lambda_P: the restrictions of the
    # automorphisms of Gamma normalizing P
    inn = _conjugation_perms(P, pset)
    aut_s = _conjugation_perms(s.S, pset)
    lam = _conjugation_perms(s.a_by_normalizer, pset)

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
    z_idx = [pset.index[k] for k in s.subgroup(s.Z).keys()]
    z_els = pset.elements[z_idx].astype(np.int64)
    ok3 = True
    for perm in norm_opp.values():
        img = pset.elements[perm[z_idx]].astype(np.int64)
        diff = (img[:, :n, n] - z_els[:, :n, n]) % p
        if not (img[:, :n, :n] == np.eye(n, dtype=np.int64)).all() or \
                not all(s.Z0.contains_vector(d) for d in diff):
            ok3 = False
    checks["normalizer_fixes_Z_mod_Z0"] = ok3
    # (iv): N_Theta(Aut_S(P)) equals Lambda_P
    norm_theta = _normalizer_in(pset, theta, aut_s)
    checks["normalizer_equals_lambda"] = set(norm_theta) == set(lam)

    ok = all(checks.values())
    return ThetaReport(kind, pset.n, len(inn), theta_order,
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


def _conjugation_perms(ambient: MatGroup, pset: PermGroupOnSet) -> dict:
    """key -> perm of the automorphisms of P that conjugation by the
    elements of ambient normalizing P induces.

    An element normalizes P when it conjugates P's generators into P; the
    automorphism depends only on those images, so each is formed once.
    """
    p = ambient.p.p
    gens = pset.group.generators
    stack = ambient.elements_stack()
    inv = ambient.inverses_stack()
    first = {}          # generator images -> first ambient index
    for lo in range(0, len(stack), _CONJ_CHUNK):
        t = stack[lo:lo + _CONJ_CHUNK].astype(np.int64)
        ti = inv[lo:lo + _CONJ_CHUNK].astype(np.int64)
        conj = np.stack([t @ q.a % p @ ti % p for q in gens], axis=1)
        idx = [pset.index.get(k)
               for k in _row_keys(conj.reshape(len(t) * len(gens), -1))]
        for j in range(len(t)):
            images = tuple(idx[j * len(gens):(j + 1) * len(gens)])
            if None not in images:
                first.setdefault(images, lo + j)
    out = {}
    elems = pset.elements.astype(np.int64)
    for j in first.values():
        perm = pset.perm_of_images(stack[j].astype(np.int64) @ elems % p
                                   @ inv[j].astype(np.int64) % p)
        out[PermGroupOnSet.key(perm)] = perm
    return out


def _centralizer_order(ambient: MatGroup, P: MatGroup) -> int:
    """|C_ambient(P)|: the elements of ambient commuting with P's
    generators."""
    return len(ambient._scan_commuting(P.generators))


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
    report = {"gamma_order": s.gamma_order(), "conditions": {}}
    qs = [th.pset.group for th in thetas]
    # (1) pairwise Gamma-conjugacy / containment via subgroup orbits,
    # compared through affine element keys (orbit members may leave S)
    cond1 = True
    orbits = [_gamma_orbit_of_subgroup(s.gamma, q) for q in qs]
    targets = [frozenset(q.keys()) for q in qs]
    for a in range(len(qs)):
        for b in range(len(qs)):
            if a == b:
                continue
            for member in orbits[a]:
                if member <= targets[b]:
                    cond1 = False
    report["conditions"]["pairwise_nonconjugate"] = cond1

    # (2) p-centric: Z(Q) is Sylow-p in C_Gamma(Q)
    cond2 = True
    centric = []
    for q in qs:
        c_order = _centralizer_order(s.a_by_centralizer, q)
        zq = _centralizer_order(q, q)
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


def _gamma_orbit_of_subgroup(gamma: MatGroup, q: MatGroup):
    """Orbit of a subgroup under Gamma-conjugation, as affine key sets."""
    p = gamma.p.p
    seen = {frozenset(q.keys())}
    gens = [(g.a, g.inverse().a) for g in gamma.generators]
    queue = [q.elements_stack().astype(np.int64)]
    while queue:
        mats = queue.pop()
        for g, gi in gens:
            conj = g @ mats % p @ gi % p
            key = frozenset(_row_keys(conj.reshape(len(conj), -1)))
            if key not in seen:
                seen.add(key)
                queue.append(conj)
    return seen


def unique_abelian_index_p(s: SGroup) -> bool:
    """Exhaustively check that A is the unique abelian index-p subgroup."""
    p, n = s.p, s.n
    if n + 1 > DESK_S_LIMIT:
        raise CapExceeded("exhaustive index-p scan is desk-scale only")
    # index-p subgroups = kernels of epimorphisms S -> C_p, i.e. preimages
    # of the hyperplanes of S / [S,S] (exponent p, so Frattini = [S,S]); S/S'
    # has the coordinates (c at the free columns of S', k) of (c, u^k)
    sp = s.Sprime
    free = [col for col in range(n) if col not in sp._pivots]
    count_abelian = 0
    from itertools import product
    for coeffs in product(range(p), repeat=len(free) + 1):
        if next((c for c in coeffs if c), 0) != 1:
            continue        # one functional per kernel: first nonzero is 1
        hyper = gfp.kernel_basis(FpMatrix(p, [coeffs])).basis
        lifts = []
        for row in hyper:
            c = np.zeros(n, dtype=np.int64)
            c[free] = row[:-1]
            lifts.append(_affine(s.v.p, s.upow[row[-1]], c))
        k = s.subgroup(sp, *lifts)
        if k.order() != p ** n:
            raise InvariantViolation("a kernel of S -> C_p has index != p")
        count_abelian += k.is_abelian()
    return count_abelian == 1
