"""Command-line driver.

Commands:
  check <file> [--out F] [--heavy] [--seed N]   run the decision pipeline
  zoo list | zoo emit <tag> [--index K] [--out F]
  sgroup <file> [--seed N]                      structural + witness report
  regress [--filter TAG] [--heavy]              corpus regression run

Exit codes: 0 ok (including "fails criterion" verdicts), 2 invalid input,
3 cap exceeded / heavy compute gated / G0 of index above the bound,
4 a result check failed (an engine bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import criterion, modrep, mu, sgroup, zoo
from .errors import (CapExceeded, FusionseedError, HeavyComputeDisabled,
                     IndexTooLarge, InvalidInstance, InvariantViolation,
                     SubgroupViolation)
from .gfp import FpMatrix
from .grp import MatGroup, class_GG, o_pprime
from .modrep import FpModule


def _integer(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _load_instance(path: str):
    """(module, G0 or None, family) of an instance file.

    G0 is generated by the generators that `labels.g0_generators` indexes.
    Raises InvalidInstance for a file that is not a valid instance.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        p = _integer(data["p"], "p")
        dim = _integer(data["dim"], "dim")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        gens = []
        for flat in data["generators"]:
            if len(flat) != dim * dim:
                raise ValueError("generator entry count != dim^2")
            arr = np.array([_integer(x, "generator entry") for x in flat],
                           dtype=np.int64)
            gens.append(FpMatrix(p, arr.reshape(dim, dim)))
        group = MatGroup(p, gens)
        idx = data.get("labels", {}).get("g0_generators")
        g0 = None
        if idx:
            if not all(0 <= _integer(i, "g0_generators index") < len(gens)
                       for i in idx):
                raise ValueError(f"g0_generators {idx} must index the "
                                 f"{len(gens)} generators")
            g0 = MatGroup(p, [gens[i] for i in idx])
        family = data.get("family")
        if family is not None and not isinstance(family, dict):
            raise ValueError(f"family must be an object, got {family!r}")
    except (OSError, ValueError, TypeError, KeyError, AttributeError,
            SubgroupViolation) as exc:
        raise InvalidInstance(exc) from exc
    return FpModule(p, dim, group), g0, family


def _report_payload(rep, family, elapsed):
    payload = rep.to_dict()
    payload["family"] = family
    payload["elapsed_s"] = round(elapsed, 3)
    return payload


def cmd_check(args) -> int:
    v, g0, family = _load_instance(args.path)
    t0 = time.time()
    if family and family.get("tag") == "extraspecial_p7":
        # out of enumeration scale: orbit-stabilizer route, gated
        if not args.heavy:
            raise HeavyComputeDisabled(
                "the p = 7 extraspecial normalizer needs --heavy")
        res = zoo.heavy_extraspecial_check(v)
        payload = {"mode": "heavy", "family": family, "result": res,
                   "elapsed_s": round(time.time() - t0, 3)}
    elif g0 is not None:
        if not g0.is_normal_in(v.group):
            raise InvalidInstance("the group that g0_generators generate "
                                  "is not normal in G")
        passers = criterion.enumerate_admissible(g0, v.group, v,
                                                 seed=args.seed)
        payload = {
            "mode": "admissible",
            "family": family,
            "passing": [{"group_order": grp.order(),
                         "report": rep.to_dict()}
                        for grp, rep in passers],
            "elapsed_s": round(time.time() - t0, 3),
        }
    else:
        rep = criterion.evaluate(v, seed=args.seed)
        payload = _report_payload(rep, family, time.time() - t0)
    text = json.dumps(payload, sort_keys=True, indent=None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_zoo(args) -> int:
    entries = zoo.table_corpus()
    if args.sub == "list":
        for k, spec in enumerate(entries):
            mark = "" if spec.instantiable else "  [metadata only]"
            print(f"{k:3d}  {spec.tag:18s} {json.dumps(zoo._json_params(spec.params), sort_keys=True)}{mark}")
        return 0
    # emit
    matches = [s for s in entries
               if s.tag == args.tag and s.instantiable]
    if not matches:
        print(f"no instantiable family tagged {args.tag!r}", file=sys.stderr)
        return 2
    if not 0 <= args.index < len(matches):
        print(f"index {args.index} out of range: {len(matches)} "
              f"instantiable families tagged {args.tag!r}", file=sys.stderr)
        return 2
    payload = zoo.emit_instance(matches[args.index], heavy=args.heavy)
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sgroup(args) -> int:
    v, _, family = _load_instance(args.path)
    t0 = time.time()
    rep = criterion.evaluate(v, seed=args.seed)
    out = {"criterion_passes": rep.passes, "family": family}
    syl = rep.sylow
    if syl is not None:
        s, build = sgroup.build_s(v, syl)
        out["build"] = {"dims": build.dims, "checks": build.checks,
                        "ok": build.ok}
        N = syl.normalizer_N
        filt = modrep.w_filtration(
            v, syl, check_elements=[N.element(i) for i in range(N.order())])
        out["filtration"] = {
            "quotient_dims": filt.quotient_dims,
            "scalar_reports": filt.scalar_reports,
        }
        if rep.passes:
            image = mu.DeltaSubgroup(v.p, rep.mu_report["image"])
            kinds = [kind for kind, t in (("B", 0), ("H", -1))
                     if mu.contains_delta_t(image, t)]
            x, a = sgroup.choose_x_a(s, v.group, syl)
            hb = sgroup.hb_subgroups(s, x, a)
            thetas = [sgroup.theta_witness(s, kind, 0, hb, rep.gvee)
                      for kind in kinds]
            out["theta"] = [{"kind": th.kind, "ok": th.ok,
                             "theta_order": th.theta_order,
                             "checks": th.checks} for th in thetas]
            if thetas:
                s2 = sgroup.step2_conditions(s, thetas[:1])
                out["step2"] = {"gamma_order": s2["gamma_order"],
                                "conditions": s2["conditions"],
                                "ok": s2["ok"]}
    out["elapsed_s"] = round(time.time() - t0, 3)
    text = json.dumps(out, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_regress(args) -> int:
    failures = 0
    ran = 0
    for spec in zoo.table_corpus():
        if args.filter and args.filter not in spec.tag:
            continue
        if not spec.instantiable:
            print(f"SKIP (metadata) {spec.tag} {spec.params.get('family', spec.params.get('G0', ''))}")
            continue
        if spec.tag == "extraspecial_p7" and not args.heavy:
            print("SKIP (needs --heavy) extraspecial_p7")
            continue
        t0 = time.time()
        if spec.tag == "sl2p_ext":
            ok = _regress_sl2p_ext(spec)
        elif spec.tag == "sl2p_mu_law":
            ok = zoo.mu_law_holds(spec.params["p"])
        else:
            ok = _regress_entry(spec, heavy=args.heavy)
        ran += 1
        print(("PASS " if ok else "FAIL ") + spec.tag + " "
              + json.dumps(zoo._json_params(spec.params), sort_keys=True)
              + f" ({time.time() - t0:.2f} s)")
        failures += (not ok)
    print(f"regress: {ran} run, {failures} failed")
    return 1 if failures else 0


def _regress_sl2p_ext(spec) -> bool:
    p = spec.params["p"]
    expected = spec.expected["mu_by_socle"]
    got = {}
    for i in sorted(expected):
        g, v = zoo.sl2p(p, ("Vji", p + 1 - i, i))
        gg = class_GG(g)
        cs = modrep.canonical_subspaces(v, gg.sylow)
        image = mu.mu_image(mu.compute_gvee(g, gg.sylow, cs))
        got[i] = mu.recognize(image)["name"]
    return got == expected


def _regress_entry(spec, heavy=False) -> bool:
    exp = spec.expected
    try:
        if spec.tag == "extraspecial_p7":
            res = zoo.heavy_extraspecial_check(
                zoo.extraspecial(7, heavy=True)[1])
            return (res["n_over_u"] == exp["n_over_u"]
                    and res["mu_name"] == exp["mu_name"]
                    and res["group_order"] == exp["group_order"])
        g, v = zoo.build_family(spec, heavy=heavy)
    except FusionseedError as exc:
        print(f"  build error: {exc}")
        return False
    if "group_order" in exp and g.order() != exp["group_order"]:
        return False
    if spec.tag == "extraspecial_p3":
        gg = class_GG(g)
        return modrep.jordan_profile(v, gg.sylow.u) == exp["profile"]
    if "h_order" in exp:
        from .zoo import monomial_k_order
        q = spec.params
        k = monomial_k_order(q["p"], q["n"], q["t"], q["R"])
        return g.order() // k == exp["h_order"]
    if "passers" in exp or spec.params.get("admissible"):
        gg = class_GG(g)
        opp = o_pprime(g, gg.sylow)
        passers = criterion.enumerate_admissible(opp, g, v)
        ok = True
        if "passers" in exp:
            got = {grp.order(): rep for grp, rep in passers}
            if set(got) != set(exp["passers"]):
                return False
            for order, want in exp["passers"].items():
                rep = got[order]
                if rep.cases != want["cases"]:
                    ok = False
                for e0 in want["e0"]:
                    verd = [x for x in rep.exotic if x["e0"] == e0]
                    realized = verd[0]["realized_by"] if verd else "missing"
                    if want["realizable"] is None:
                        ok &= bool(verd) and verd[0]["verdict"] == "exotic"
                    else:
                        ok &= realized == want["realizable"]
                if "strongly_closed" in want:
                    ok &= any(sc["subgroup"] == want["strongly_closed"]
                              for sc in rep.strongly_closed)
        if "by_order" in exp:
            got = {grp.order(): rep for grp, rep in passers}
            if sorted(got) != sorted(exp["passing_orders"]):
                return False
            for order, want in exp["by_order"].items():
                rep = got[order]
                ok &= rep.cases == want["cases"]
                ok &= rep.e0_count == want["e0_count"]
                for e0, fam in want["realizable"].items():
                    verd = [x for x in rep.exotic if x["e0"] == e0]
                    ok &= bool(verd) and verd[0].get("realized_by") == fam
        return ok
    rep = criterion.evaluate(v)
    ok = True
    if "cases" in exp:
        ok &= rep.cases == exp["cases"]
    if "e0" in exp:
        ok &= [e.tag() for e in rep.e0_menu] == exp["e0"]
    if "e0_count" in exp:
        ok &= rep.e0_count == exp["e0_count"]
    if "mu_name" in exp:
        ok &= rep.mu_report.get("recognized", {}).get("name") == exp["mu_name"]
    if "dim" in exp:
        ok &= v.dim == exp["dim"]
    if exp.get("all_exotic"):
        ok &= all(x["verdict"] == "exotic" for x in rep.exotic)
    if exp.get("exotic"):
        ok &= all(x["verdict"] == "exotic" for x in rep.exotic)
    if "realizable" in exp:
        for e0, fam in exp["realizable"].items():
            if e0 == "full_H":
                e0 = "H{" + ",".join(str(i) for i in range(rep.p)) + "}"
            verd = [x for x in rep.exotic if x["e0"] == e0]
            ok &= bool(verd) and verd[0].get("realized_by") == fam
    if "strongly_closed" in exp:
        ok &= any(sc["subgroup"] == exp["strongly_closed"]
                  for sc in rep.strongly_closed)
    if "quotient_order" in exp:
        ok &= g.order() % exp["quotient_order"] == 0
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fusionseed")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run the decision pipeline on an instance")
    c.add_argument("path")
    c.add_argument("--out")
    c.add_argument("--heavy", action="store_true")
    c.add_argument("--seed", type=int, default=1)
    c.set_defaults(fn=cmd_check)

    z = sub.add_parser("zoo", help="list or emit corpus families")
    z.add_argument("sub", choices=["list", "emit"])
    z.add_argument("tag", nargs="?")
    z.add_argument("--index", type=int, default=0)
    z.add_argument("--out")
    z.add_argument("--heavy", action="store_true")
    z.set_defaults(fn=cmd_zoo)

    s = sub.add_parser("sgroup", help="structural report for an instance")
    s.add_argument("path")
    s.add_argument("--out")
    s.add_argument("--seed", type=int, default=1)
    s.set_defaults(fn=cmd_sgroup)

    r = sub.add_parser("regress", help="run the corpus regression")
    r.add_argument("--filter")
    r.add_argument("--heavy", action="store_true")
    r.set_defaults(fn=cmd_regress)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInstance as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, HeavyComputeDisabled, IndexTooLarge) as exc:
        print(f"cap: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
