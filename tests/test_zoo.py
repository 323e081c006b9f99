import hashlib

import numpy as np
import pytest

from fusionseed import cli, criterion as cr, modrep as mr, mu, zoo
from fusionseed.errors import InvalidParams
from fusionseed.grp import MatGroup, class_GG, o_pprime


def test_sl2p_simple_modules():
    g, v = zoo.sl2p(5, ("Vi", 4))
    assert v.dim == 4
    rep = class_GG(g)
    assert mr.jordan_profile(v, rep.sylow.u) == [4]
    assert rep.status == "in_GG"
    g3, v3 = zoo.sl2p(5, ("Vi", 3))
    assert v3.dim == 3 and g3.order() == 480   # projective group x scalars
    with pytest.raises(InvalidParams):
        zoo.sl2p(5, ("Vi", 6))


def test_sl2p_projective_cover():
    g, v = zoo.sl2p(5, ("V1p21",))
    assert v.dim == 5
    rep = class_GG(g)
    assert mr.jordan_profile(v, rep.sylow.u) == [5]
    assert zoo.socle_min_dim(v) == 1 and zoo.top_min_dim(v) == 1
    assert mr.is_indecomposable(v, rep.sylow)


def test_sl2p_dim_p_plus_1_socles():
    for i in (2, 3, 4):
        g, v = zoo.sl2p(5, ("Vji", 6 - i, i))
        assert v.dim == 6
        assert zoo.socle_min_dim(v) == i
        assert zoo.top_min_dim(v) == 6 - i
        rep = class_GG(g)
        assert rep.status == "in_GG"
        assert mr.is_minimally_active(v, rep.sylow)


def test_sl2p_splits_the_coset_module_once(monkeypatch):
    """The three dim p+1 rows share one split of F_5[SL_2(5)/U]."""
    zoo._coset_module_summands.cache_clear()
    splits = []
    real = mr.split_summands
    monkeypatch.setattr(mr, "split_summands",
                        lambda *a, **kw: splits.append(1) or real(*a, **kw))
    for i in (2, 3, 4):
        zoo.sl2p(5, ("Vji", 6 - i, i))
    assert len(splits) == 1


def test_sl2p_dim_p_minus_1():
    g, vs = zoo.sl2p(5, ("Vext_pm1", "sub"))
    assert vs.dim == 4 and zoo.socle_min_dim(vs) == 1
    g2, vq = zoo.sl2p(5, ("Vext_pm1", "quot"))
    assert vq.dim == 4 and zoo.socle_min_dim(vq) == 3
    for v in (vs, vq):
        rep = class_GG(v.group)
        assert mr.is_minimally_active(v, rep.sylow)
        assert mr.is_indecomposable(v, rep.sylow)


def test_symmetric_families():
    g, v = zoo.symmetric(5, 5, "deleted", "S", 1)
    assert v.dim == 3
    rep = class_GG(g)
    assert mr.is_minimally_active(v, rep.sylow)
    assert mr.is_indecomposable(v, rep.sylow)
    g, v = zoo.symmetric(7, 8, "deleted", "S", 1)
    assert v.dim == 7
    g, v = zoo.symmetric(5, 5, "full", "S", 1)
    assert v.dim == 5
    assert mr.is_indecomposable(v, class_GG(g).sylow)   # type 1/W/1
    with pytest.raises(InvalidParams):
        zoo.symmetric(5, 11, "deleted")


def test_symmetric_sub_quot_types():
    g, v = zoo.symmetric(5, 5, "sub", "S", 1)     # zero-sum, type W/1
    assert v.dim == 4 and zoo.socle_min_dim(v) == 1
    g, v = zoo.symmetric(5, 5, "quot", "S", 1)    # mod constants, type 1/W
    assert v.dim == 4 and zoo.socle_min_dim(v) == 3


def test_monomial_construction():
    g, v = zoo.monomial(5, 5, 4, "full", "S")
    assert g.order() == 122880   # |C_4 wr S_5|
    with pytest.raises(InvalidParams):
        zoo.monomial(5, 5, 1, "full", "S")
    with pytest.raises(InvalidParams):
        zoo.monomial(5, 5, 3, "full", "S")  # 3 does not divide 4


def test_monomial_pgl2():
    g, v = zoo.monomial(5, 6, 2, "trivial", "PGL2")
    k = zoo.monomial_k_order(5, 6, 2, "trivial")
    assert g.order() == 120 * k
    # the permutation part acts 2-transitively on the diagonal characters:
    # count orbits on ordered distinct pairs via the permutation generators
    perms = []
    for gen in g.generators:
        a = gen.a
        if (a != 0).sum() == 6 and ((a == 1).sum() == 6):
            img = [int(np.nonzero(a[:, j])[0][0]) for j in range(6)]
            perms.append(img)
    pairs = {(i, j) for i in range(6) for j in range(6) if i != j}
    seen = set()
    orbit = [(0, 1)]
    seen.add((0, 1))
    while orbit:
        cur = orbit.pop()
        for img in perms:
            nxt = (img[cur[0]], img[cur[1]])
            if nxt not in seen:
                seen.add(nxt)
                orbit.append(nxt)
    assert seen == pairs


def test_monomial_k_characters_distinct():
    # V restricted to the diagonal part splits into n pairwise distinct
    # characters (the coordinate characters)
    g, v = zoo.monomial(5, 5, 4, "full", "S")
    diags = [gen.a.diagonal() for gen in g.generators
             if (gen.a == np.diag(gen.a.diagonal())).all()]
    n = 5
    for i in range(n):
        for j in range(i + 1, n):
            assert any(d[i] != d[j] for d in diags)


def test_extraspecial_p3():
    g, v = zoo.extraspecial(3)
    assert g.order() == 48
    rep = class_GG(g)
    assert mr.jordan_profile(v, rep.sylow.u) == [2]
    assert mr.is_minimally_active(v, rep.sylow)


def test_extraspecial_p5():
    g, v = zoo.extraspecial(5)
    assert g.order() == 46080    # |C_4 o 2^{1+4}| * |S_6|
    gg = class_GG(g)
    assert gg.status == "in_GG"
    opp = o_pprime(g, gg.sylow)
    # the odd-order part has the full symmetric-group quotient
    assert g.order() // 64 == 720


def test_extraspecial_p7_builds_generators_only():
    """extraspecial(7) gives the 15 generators on dim 8 and enumerates
    nothing: neither G's elements nor its orbit chain exist yet."""
    g, v = zoo.extraspecial(7)
    assert len(g.generators) == 15
    assert v.dim == g.dim == 8 and v.group is g
    assert g._stack is None and g.chain is None


def test_gl23_two_two_module():
    g, v = zoo.build_family(zoo.FamilySpec("gl2_3", {"p": 3}))
    assert v.dim == 4 and g.order() == 48
    rep = cr.evaluate(v)
    assert rep.passes
    assert rep.mu_report["recognized"]["name"] == "Delta_-1"
    assert all(x["verdict"] == "exotic" for x in rep.exotic)


def test_corpus_size_and_metadata():
    entries = zoo.table_corpus()
    assert len([e for e in entries if e.instantiable]) >= 16
    assert any(not e.instantiable for e in entries)
    # the non-realizable-at-desk-scale rows stay as metadata
    meta = [e for e in entries if not e.instantiable]
    assert any("2F4" in str(e.params) for e in meta)


def test_emit_instance_roundtrip():
    spec = [e for e in zoo.table_corpus() if e.tag == "sn_deleted"][0]
    payload = zoo.emit_instance(spec)
    assert payload["p"] == 5 and payload["dim"] == 3
    assert payload["family"]["tag"] == "sn_deleted"
    assert all(len(gen) == 9 for gen in payload["generators"])


def test_zoo_modules_minimally_active_and_indecomposable():
    """Every instantiable zoo module is minimally active; the criterion's
    indecomposability oracle agrees with the splitter."""
    mods = []
    mods.append(zoo.sl2p(5, ("Vi", 3))[1])
    mods.append(zoo.sl2p(5, ("Vi", 4))[1])
    mods.append(zoo.sl2p(5, ("Vji", 2, 4))[1])
    mods.append(zoo.symmetric(5, 5, "deleted", "S", 4)[1])
    mods.append(zoo.symmetric(5, 6, "deleted", "S", 1)[1])
    mods.append(zoo.extraspecial(5)[1])
    for v in mods:
        rep = class_GG(v.group)
        assert mr.is_minimally_active(v, rep.sylow)
        assert mr.is_indecomposable(v, rep.sylow)
        # dim Z0 = 1 and m = min(dim, p) on minimally active modules
        cs = mr.canonical_subspaces(v, rep.sylow)
        assert cs.Z0.dim == 1
        assert cs.m == min(v.dim, v.p.p)


def test_ext_minact_inheritance():
    """Indecomposable summands of dim <= p+1 of modules with minimally
    active constituents stay minimally active."""
    nat = zoo.sl2p(5, ("Vi", 2))[1]
    big = mr.tensor(nat, mr.sym_power(nat, 2))   # dim 6
    for w, _ in mr.split_summands(big):
        if w.dim <= 6:
            rep = class_GG(w.group)
            assert mr.is_minimally_active(w, rep.sylow)


def test_monomial_other_permutation_parts():
    # affine part at n = p: the diagonal subgroup keeps U non-normal
    g, v = zoo.monomial(5, 5, 4, "trivial", "CpCp-1")
    k = zoo.monomial_k_order(5, 5, 4, "trivial")
    assert g.order() == k * 20
    rep = class_GG(g)
    assert rep.status == "in_GG"
    # alternating part at n = p + 2
    g, v = zoo.monomial(5, 7, 2, "trivial", "A")
    k = zoo.monomial_k_order(5, 7, 2, "trivial")
    assert g.order() == k * 2520


def test_strongly_closed_example_constructors():
    """Each pinned example is O^{p'}(G) . mu^-1(target) for G = S_5 x F_5^*
    on the full (a) or quotient (c) permutation module, with O^{p'}(G) and
    the mu-preimage computed by the engine: the two groups' elements,
    listed by BFS, are the same."""
    for which, kind, target in (("a", "full", "Delta_-1"),
                                ("c", "quot", "Delta_0")):
        g, v = zoo.strongly_closed_example(5, which)
        _, big = zoo.symmetric(5, 5, kind, "S", 4)
        gg = class_GG(big.group)
        gv = mu.compute_gvee(big.group, gg.sylow,
                             mr.canonical_subspaces(big, gg.sylow))
        pre = mu.preimage(gv, mu.named(5, target))
        opp = o_pprime(big.group, gg.sylow)
        derived = MatGroup(5, opp.generators + pre.generators)
        assert set(g.keys()) == set(derived.keys())
        assert v.group is g and v.dim == big.dim
    g, v = zoo.strongly_closed_example(5, "a")
    assert g.order() == 240 and v.dim == 5
    g, v = zoo.strongly_closed_example(5, "c")
    assert v.dim == 4
    rep = cr.evaluate(v)
    assert rep.passes and "d3" in rep.cases
    with pytest.raises(InvalidParams, match="pinned at p = 5"):
        zoo.strongly_closed_example(7, "a")


# sha256 of the file that `zoo emit TAG --index I` writes, for every
# instantiable corpus row: a change to any corpus input shows here
EMITTED_SHA256 = {
    ("sl2p_simple", 0): "a5d508fd3610cda896781248488258ef"
                        "578158dd2586f2b1b37a9c3fad483007",
    ("sl2p_simple", 1): "bf4dd7dded1375c59aadb751b462a766"
                        "8e1b722769e3a6ca208b3d205a3d2a62",
    ("sl2p_ext", 0): "995e9e9cfefdb8c58298b22dc6901dd0"
                     "12beed0f799f61bdb569dbe8c0cc8c58",
    ("sl2p_ext", 1): "77eedbdab1baf48846c575a92be7daa6"
                     "b0560ee68ad117074cb6c93c0c8a6520",
    ("sl2p_ext", 2): "e3b6f26275f8e974b826268265eab973"
                     "1cf98525457aa03f042977b491368983",
    ("str_closed", 0): "c7b4a884d1eee4522482d83bafbe33a2"
                       "a6e50b8278f870acec7d8b1333d9d4e0",
    ("str_closed", 1): "0e3158a37ec2ef4729b70c1b825d45fa"
                       "ee787088a7a7872ec6ed5d9dd9ecb061",
    ("sn_deleted", 0): "52010f4d43d61f8199f6d819c042d050"
                       "ad4bc13185c2ff7f78727ad6b8afd935",
    ("sn_deleted", 1): "f3fb88caeb641c74d0d46fef23ab9f71"
                       "1279f08b837590e4cb140e7b1f50bb29",
    ("sn_deleted", 2): "3152241187695f7cc21684a5097a387e"
                       "a14024b914eb9b47b156488a7a4dee3c",
    ("an_deleted", 0): "ada7b2f4492e0168f6c148098168719f"
                       "af65292aeb416aa9d9569f692f413006",
    ("sn_perm", 0): "f4dd1c54326fc88c4ee72bcf1ff4ac5d"
                    "a0ac133ac37910328acdd90be2d4e818",
    ("monomial", 0): "bcd2632dfaf2331bd24407f1cf624a22"
                     "20e2da301b8529a1f1969bafca000c70",
    ("monomial", 1): "b4269f2b721a554061e1306456a0aee1"
                     "690ff79cb9706f261cec6c3f88a34064",
    ("monomial", 2): "9c3f1360ee4d747df18cb765492cd708"
                     "2a574a0ae9d4699e05ba196c8bae5ae1",
    ("gl2_3", 0): "94f3f51d969de47d0a368f5f8d44d777"
                  "e4349e63631cff52f763356554798ff6",
    ("extraspecial_p3", 0): "77c02624dd085035b61ebc5842deaace"
                            "1a179fef14768ce382e3b4fbf6d207a6",
    ("extraspecial_p5", 0): "0b3439e145f29df711213d97bb0e535f"
                            "2e9410556a8a80faea7d5a7c5f66249c",
    ("extraspecial_p7", 0): "0358070912a00c8e72a48d4cb9cb3f1e"
                            "2ed952b744f33fa8ad588bd488e5ec45",
    ("sl2p_mu_law", 0): "9d3caefc309500b1708047e57f4b76bb"
                        "c2f4e1b729983180bd575159a2a83f8a",
    ("sl2p_mu_law", 1): "1bc2f991c4eaf7e6c261b4b856142a77"
                        "4397c545579203778932f0fe0c66c04e",
    ("sl2p_mu_law", 2): "13bfb99cf733f6eca6bb9bd8cfe2c69b"
                        "f9635d64186e76eb833f6c8d1180cf4a",
    ("sl2p_mu_law", 3): "1a538a09bdf21ceec467b948ca80a796"
                        "618d42ff5ebe49f5de8f112456659d99",
    ("sl2p_mu_law", 4): "59d982bb929e0b0fa4451dfaa76736da"
                        "76e7ec0da5feb966cb3e06b2c10795af",
    ("sl2p_mu_law", 5): "4fc587a55853f2bf9985f7ad4f5e9f77"
                        "2e1f2ca920a67de9b1cb703722f50587",
    ("sl2p_mu_law", 6): "17c980cf26c20a2550563b6a14f17eab"
                        "32172de77bdc7b2163109eb9d045daf8",
    ("sl2p_mu_law", 7): "b289ad60523d2caca7b29e66d2f15a84"
                        "c4984290a8372be2feb056318c2c425b",
    ("sl2p_mu_law", 8): "e5ed0d14cfbbd8d007375c451bf2aeed"
                        "fbb7fc8ab50bf368468b86d4692dc12a",
    ("sl2p_mu_law", 9): "b6b04d1f0d51beac9051c2436fbae24d"
                        "ee4f5961640299e5346f0d7ba33c9b15",
}


def test_emitted_corpus_files_are_pinned(tmp_path):
    seen, hashes = {}, {}
    for spec in zoo.table_corpus():
        if not spec.instantiable:
            continue
        index = seen[spec.tag] = seen.get(spec.tag, -1) + 1
        path = tmp_path / f"{spec.tag}_{index}.json"
        assert cli.main(["zoo", "emit", spec.tag, "--index", str(index),
                         "--out", str(path)]) == 0
        hashes[spec.tag, index] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    assert hashes == EMITTED_SHA256


# Each instantiable row's decisions, and those of each passer of an
# admissible row (keyed by its order), as `_decisions` reads them from the
# row's `check` report: (passes, cases, e0_count, the strongly closed
# subgroups, the number of "exotic" verdicts, every other verdict).  The
# heavy extraspecial_p7 row reports no decision.
CORPUS_DECISIONS = {
    ("sl2p_simple", 0): (True, ["d1"], 1, [], 0, ["B0+H* realizable Co_1"]),
    ("sl2p_simple", 0, 120):
        (True, ["d2"], 31, [], 30,
         ["H{0,1,2,3,4} realizable PSL_p(q), v_p(q-1)=1"]),
    ("sl2p_simple", 0, 240):
        (True, ["d3"], 1, [], 0,
         ["B{0} realizable Sp_4(p)"]),
    ("sl2p_simple", 0, 480):
        (True, ["d1"], 1, [], 0,
         ["B0+H* realizable Co_1"]),
    ("sl2p_simple", 1): (True, ["d1", "d2", "d3"], 33, [], 33, []),
    ("sl2p_ext", 0): (False, [], 0, [], 0, []),
    ("sl2p_ext", 1): (False, [], 0, [], 0, []),
    ("sl2p_ext", 2): (True, ["d2"], 1, [], 1, []),
    ("str_closed", 0): (True, ["d2"], 1, ["A0.H_0"], 1, []),
    ("str_closed", 1):
        (True, ["d3"], 31,
         ["A0.B_0", "A0.B_1", "A0.B_2", "A0.B_3", "A0.B_4"],
         31, []),
    ("sn_deleted", 0): (True, ["d1"], 1, [], 0, ["B0+H* realizable Co_1"]),
    ("sn_deleted", 1):
        (True, ["d2"], 127, [], 126,
         ["H{0,1,2,3,4,5,6} realizable PSL_p(q), v_p(q-1)=1"]),
    ("sn_deleted", 2):
        (True, ["d3"], 1, [], 0,
         ["B{0} realizable PSL_n(q), p|q-1, p<n<2p"]),
    ("an_deleted", 0):
        (True, ["d3"], 1, [], 0,
         ["B{0} realizable PSL_n(q), p|q-1, p<n<2p"]),
    ("sn_perm", 0): (False, [], 0, [], 0, []),
    ("sn_perm", 0, 240): (True, ["d2"], 1, ["A0.H_0"], 1, []),
    ("monomial", 0): (False, [], 0, [], 0, []),
    ("monomial", 0, 30720): (True, ["d3"], 1, [], 1, []),
    ("monomial", 0, 61440):
        (True, ["d2"], 1, [], 0,
         ["H{0} realizable A_{pn}"]),
    ("monomial", 1):
        (True, ["d3"], 1, [], 0,
         ["B{0} realizable POmega^+_{2n}(q)"]),
    ("monomial", 2): (True, ["d3"], 1, [], 1, []),
    ("gl2_3", 0): (True, ["d2"], 1, [], 1, []),
    ("extraspecial_p3", 0): (False, ["d1", "d2", "d3"], 9, [], 0, []),
    ("extraspecial_p5", 0):
        (True, ["d1", "d2", "d3"], 33, [], 32,
         ["H0+B* realizable E_8(q), p=5, q=+-2 mod 5"]),
    ("sl2p_mu_law", 0): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 1): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 2): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 3): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 4): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 5): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 6): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 7): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 8): (False, [], 0, [], 0, []),
    ("sl2p_mu_law", 9): (False, [], 0, [], 0, []),
}


def _decisions(report: dict) -> tuple:
    return (report["passes"], report["cases"], report["e0_count"],
            [c["subgroup"] for c in report["strongly_closed"]],
            sum(e["verdict"] == "exotic" for e in report["exotic"]),
            [f"{e['e0']} {e['verdict']} {e['realized_by']}"
             for e in report["exotic"] if e["verdict"] != "exotic"])


def test_corpus_decisions_are_pinned():
    seen, got = {}, {}
    for spec in zoo.table_corpus():
        if not spec.instantiable or spec.params.get("heavy") is True:
            continue
        index = seen[spec.tag] = seen.get(spec.tag, -1) + 1
        report = cli._row_report(spec)
        got[spec.tag, index] = _decisions(report)
        for passer in report.get("passing", []):
            got[spec.tag, index, passer["group_order"]] = _decisions(
                passer["report"])
    assert got == CORPUS_DECISIONS


def test_mu_law_rows():
    """One sl2p_mu_law row per (p, i), p in {5, 7} and 2 <= i <= p: SL_2(p)
    on V_i, whose mu-image is the row's law {(u^2, u^(i-1))}."""
    rows = [e for e in zoo.table_corpus() if e.tag == "sl2p_mu_law"]
    assert [(e.params["p"], e.params["kind"]) for e in rows] == [
        (p, ("SL2_Vi", i)) for p in (5, 7) for i in range(2, p + 1)]
    for e in rows:
        p, i = e.params["p"], e.params["kind"][1]
        law = {(u * u % p, pow(u, i - 1, p)) for u in range(1, p)}
        assert sorted(map(tuple, e.expected["mu_image"])) == sorted(law)
        g, v = zoo.build_family(e)
        # the first two generators of ('Vi', i): no torus, no scalars
        full = zoo.sl2p(p, ("Vi", i))[0]
        assert [m.a.tolist() for m in g.generators] == \
            [m.a.tolist() for m in full.generators[:2]]
        gg = class_GG(g)
        cs = mr.canonical_subspaces(v, gg.sylow)
        image = mu.mu_image(mu.compute_gvee(g, gg.sylow, cs))
        assert set(image.elements) == law, (p, i)


def test_build_family_refuses_an_unknown_tag():
    """The tag table has no entry for a tag outside the corpus, nor for a
    metadata-only row's tag."""
    with pytest.raises(InvalidParams, match="not instantiable: no_such"):
        zoo.build_family(zoo.FamilySpec("no_such", {"p": 5}))
    tags = {e.tag for e in zoo.table_corpus() if e.instantiable}
    for e in zoo.table_corpus():
        if e.tag not in tags:
            with pytest.raises(InvalidParams, match="not instantiable"):
                zoo.build_family(e)
