"""Command-line driver.

Commands:
  check <file> [--out F] [--heavy]     run the decision pipeline
  zoo list | zoo emit <tag> [--index K] [--out F]
  sgroup <file> [--out F]              structural + witness report
  regress [--filter TAG]               corpus regression run

The command line, never the file, picks `check`'s route: `--heavy` writes
the Sylow-local summary of `zoo.heavy_extraspecial_check` for any file (or
`class_GG`'s `not_in_G` status and reason, as plain `check` reports them);
otherwise `check` gives the admissible report when the file sets
`labels.g0_generators` (an empty array is invalid input), and the
criterion report of G if not.  The file's `family` field is only echoed.

`regress` runs every instantiable corpus row as `check` runs the row's
emitted instance, and `zoo.row_failures` compares that report with the
row; a FAIL line names the keys the report misses.

Exit codes: 0 ok (including "fails criterion" verdicts), 2 invalid input
(including a FUSIONSEED_CAP that is not a positive integer), 3 cap
exceeded / G0 of index above the bound / out of memory, 4 a result check
failed (an engine bug) or any other engine error, each with one line on
stderr; 141 when the reader of stdout closed the pipe early (`| head`),
with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import criterion, modrep, mu, sgroup, zoo
from .errors import (CapExceeded, FusionseedError, IndexTooLarge,
                     InvalidInstance, InvariantViolation, SubgroupViolation)
from .gfp import FpMatrix, as_prime
from .grp import MatGroup, class_GG, element_cap, o_pprime
from .modrep import FpModule

EXIT_BROKEN_PIPE = 141     # the shell's status for a process killed by SIGPIPE


def _integer(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _load_instance(path: str):
    """(module, G0 or None, family) of an instance file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInstance(exc) from exc
    return _parse_instance(data)


def _parse_instance(data):
    """(module, G0 or None, family) of an instance payload.

    G0 is generated by the generators that `labels.g0_generators` indexes.
    Raises InvalidInstance for a payload that is not a valid instance.
    """
    try:
        if not isinstance(data, dict):
            raise ValueError("the instance must be a JSON object")
        for key in ("p", "dim", "generators"):
            if key not in data:
                raise ValueError(f"the instance has no {key!r} key")
        p = as_prime(_integer(data["p"], "p")).p
        dim = _integer(data["dim"], "dim")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        flats = data["generators"]
        if not isinstance(flats, list):
            raise ValueError("generators must be an array")
        gens = []
        for flat in flats:
            if not isinstance(flat, list):
                raise ValueError("each generator must be an array of entries")
            if len(flat) != dim * dim:
                raise ValueError("generator entry count != dim^2")
            # reduced as Python ints, so no entry overflows int64
            arr = np.array([_integer(x, "generator entry") % p for x in flat],
                           dtype=np.int64)
            gens.append(FpMatrix(p, arr.reshape(dim, dim)))
        group = MatGroup(p, gens)
        labels = data.get("labels", {})
        if not isinstance(labels, dict):
            raise ValueError("labels must be an object")
        idx = labels.get("g0_generators")
        g0 = None
        if idx is not None:
            if not isinstance(idx, list):
                raise ValueError("g0_generators must be an array")
            if not idx:
                raise ValueError("g0_generators must name at least one "
                                 "generator")
            if not all(0 <= _integer(i, "g0_generators index") < len(gens)
                       for i in idx):
                raise ValueError(f"g0_generators {idx} must index the "
                                 f"{len(gens)} generators")
            g0 = MatGroup(p, [gens[i] for i in idx])
        family = data.get("family")
        if family is not None and not isinstance(family, dict):
            raise ValueError(f"family must be an object, got {family!r}")
    except (ValueError, TypeError, KeyError, AttributeError,
            SubgroupViolation) as exc:
        raise InvalidInstance(exc) from exc
    return FpModule(p, dim, group), g0, family


def check_report(v, g0, family, heavy: bool = False) -> dict:
    """The payload `check` writes for an instance: with heavy, the
    Sylow-local summary of `zoo.heavy_extraspecial_check`; else the
    passers of every G0 <= H <= G when G0 is given, or the criterion
    report of G.  family is only echoed."""
    t0 = time.time()
    if heavy:
        payload = {"mode": "heavy", "family": family,
                   "result": zoo.heavy_extraspecial_check(v)}
    elif g0 is not None:
        if not g0.is_normal_in(v.group):
            raise InvalidInstance("the group that g0_generators generate "
                                  "is not normal in G")
        passers = criterion.enumerate_admissible(g0, v.group, v)
        payload = {
            "mode": "admissible",
            "family": family,
            "passing": [{"group_order": grp.order(),
                         "report": rep.to_dict()}
                        for grp, rep in passers],
        }
    else:
        payload = criterion.evaluate(v).to_dict()
        payload["family"] = family
    payload["elapsed_s"] = round(time.time() - t0, 3)
    return payload


def _write(payload: dict, out) -> None:
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_check(args) -> int:
    v, g0, family = _load_instance(args.path)
    _write(check_report(v, g0, family, args.heavy), args.out)
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
    _write(zoo.emit_instance(matches[args.index]), args.out)
    return 0


def cmd_sgroup(args) -> int:
    v, _, family = _load_instance(args.path)
    t0 = time.time()
    rep = criterion.evaluate(v)
    out = {"criterion_passes": rep.passes, "family": family}
    syl = rep.sylow
    if syl is not None:
        s, build = sgroup.build_s(v, syl)
        out["build"] = {"dims": build.dims, "checks": build.checks,
                        "ok": build.ok}
        if not rep.cond_a["ok"]:
            # the filtration needs Z0 to be a line, as condition (d) does
            out["filtration"] = rep.cond_d
        else:
            mats, _, exponents = s.normalizer
            filt = modrep.w_filtration(v, syl, check=(mats, exponents))
            # sorted, so that the report does not follow N's generating set
            out["filtration"] = {
                "quotient_dims": filt.quotient_dims,
                "scalar_reports": sorted(
                    filt.scalar_reports,
                    key=lambda r: (r["r"], r["t"], r["law_holds"])),
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
    _write(out, args.out)
    return 0


def _json_copy(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _row_report(spec) -> dict:
    """The report `zoo.row_failures` reads for a corpus row: `check` on
    the row's emitted instance, as JSON reads it back.

    A row whose params carry `"heavy": true` gives the `result` block of
    `check --heavy`.  A row with `passers` or `passing_orders` also gets
    the `passing` list of the admissible report with G0 = O^{p'}(G).
    """
    v, _, family = _parse_instance(zoo.emit_instance(spec))
    if spec.params.get("heavy") is True:
        return _json_copy(check_report(v, None, family, heavy=True))["result"]
    report = _json_copy(check_report(v, None, family))
    if "passers" in spec.expected or "passing_orders" in spec.expected:
        g0 = o_pprime(v.group, class_GG(v.group).sylow)
        report["passing"] = _json_copy(check_report(v, g0, family))["passing"]
    return report


def cmd_regress(args) -> int:
    failures = 0
    ran = 0
    for spec in zoo.table_corpus():
        if args.filter and args.filter not in spec.tag:
            continue
        if not spec.instantiable:
            print(f"SKIP (metadata) {spec.tag} {spec.params.get('family', spec.params.get('G0', ''))}")
            continue
        t0 = time.time()
        try:
            missed = zoo.row_failures(_row_report(spec), spec.expected,
                                      spec.params)
        except FusionseedError as exc:
            missed = [f"{type(exc).__name__}: {exc}"]
        ran += 1
        line = (("FAIL " if missed else "PASS ") + spec.tag + " "
                + json.dumps(zoo._json_params(spec.params), sort_keys=True)
                + f" ({time.time() - t0:.2f} s)")
        print(line + (": " + ", ".join(missed) if missed else ""))
        failures += bool(missed)
    print(f"regress: {ran} run, {failures} failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fusionseed")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run the decision pipeline on an instance")
    c.add_argument("path")
    c.add_argument("--out")
    c.add_argument("--heavy", action="store_true",
                   help="write the Sylow-local summary instead")
    c.set_defaults(fn=cmd_check)

    z = sub.add_parser("zoo", help="list or emit corpus families")
    z.add_argument("sub", choices=["list", "emit"])
    z.add_argument("tag", nargs="?")
    z.add_argument("--index", type=int, default=0)
    z.add_argument("--out")
    z.set_defaults(fn=cmd_zoo)

    s = sub.add_parser("sgroup", help="structural report for an instance")
    s.add_argument("path")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_sgroup)

    r = sub.add_parser("regress", help="run the corpus regression")
    r.add_argument("--filter")
    r.set_defaults(fn=cmd_regress)

    args = ap.parse_args(argv)
    try:
        element_cap()       # a malformed FUSIONSEED_CAP stops every command
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe shows up here
        return code
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvalidInstance as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, IndexTooLarge) as exc:
        print(f"cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("cap: out of memory", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    except FusionseedError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
