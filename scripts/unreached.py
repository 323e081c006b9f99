"""List the functions in src/ that no command enters: exit 1 unless each
one is allowlisted.

    python scripts/unreached.py

Under `sys.setprofile`, in this process, runs `report_diff.py`'s command
set on this tree (`zoo emit`, `check` and `sgroup` on every instantiable
corpus entry, and `check --heavy` on the heavy rows), then `zoo list` and
`regress`.  Every function and method defined in `src/fusionseed/`,
nested ones included and dunder methods left out, that none of these runs
entered is printed.  Each must be in ALLOWLIST with the test or benchmark
file that needs it; an allowlisted name that is entered, or that no longer
exists, is printed too.  Takes about 25 s on a 2-core box.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fusionseed")

# "module.qualname" -> why it stays although no command enters it
ALLOWLIST = {
    "modrep.is_indecomposable":
        "bench/tracer.py wraps it by name; tests/test_modrep.py, "
        "tests/test_zoo.py and tests/test_acceptance.py's criterion-7 "
        "oracle call it",
    "modrep.is_minimally_active":
        "is_indecomposable; tests/test_modrep.py and tests/test_zoo.py",
    "modrep.dual":
        "zoo.top_min_dim; tests/test_modrep.py and tests/test_acceptance.py's "
        "criterion-7 pool",
    "gfp.FpMatrix.transpose":
        "modrep.dual",
    "modrep.tensor":
        "zoo._projective_cover_trivial; tests/test_modrep.py, "
        "tests/test_zoo.py and tests/test_acceptance.py's criterion-7 pool",
    "modrep.sym_power":
        "zoo._projective_cover_trivial; tests/test_modrep.py and "
        "tests/test_acceptance.py's criterion-7 pool",
    "zoo._projective_cover_trivial":
        "the V1p21/Vext_pm1 kinds of tests/test_zoo.py and of "
        "tests/test_acceptance.py's criterion-7 pool",
    "zoo.top_min_dim":
        "tests/test_zoo.py's socle and projective-cover tests",
    "sgroup.SGroup.sigma":
        "tests/test_sgroup.py and tests/test_acceptance.py's criterion 5",
    "grp.MatGroup._stack":
        "bench/tracer.py reads it to tell a cache hit from a build",
    "grp.MatGroup.is_abelian":
        "tests/test_sgroup.py's exhaustive A_unique scan",
    "gfp.rref":
        "bench/tracer.py wraps it by name; tests/test_gfp.py",
    "gfp.solve":
        "bench/tracer.py wraps it by name; tests/test_gfp.py, whose "
        "solve_many test reads it as the reference",
    "gfp.preimage_of_subspace":
        "bench/tracer.py wraps it by name; tests/test_criterion.py's "
        "per-generator reference for check_b",
}


def defined() -> dict:
    """(file, first line, qualname) -> "module.qualname" for every
    non-dunder function in the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            short = code.co_name
            if not code.co_flags & inspect.CO_OPTIMIZED or \
                    short.startswith("<") or (
                    short.startswith("__") and short.endswith("__")):
                continue    # module and class bodies, lambdas, dunders
            out[path, code.co_firstlineno, code.co_qualname] = \
                f"{name[:-3]}.{code.co_qualname}"
    return out


def entered() -> set:
    """(file, first line, qualname) of every package function that the
    commands enter."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    import report_diff

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno,
                      code.co_qualname))

    child = compile(report_diff.CHILD, "report_diff.CHILD", "exec")
    argv = sys.argv
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()):
        sys.argv = ["report_diff.CHILD", work]
        sys.setprofile(profile)
        try:
            from fusionseed import cli     # import-time calls count
            exec(child, {"__name__": "report_diff_child"})
            cli.main(["zoo", "list"])
            cli.main(["regress"])
        finally:
            sys.setprofile(None)
            sys.argv = argv
    return seen


def main() -> int:
    functions = defined()
    seen = entered()
    unreached = sorted(name for key, name in functions.items()
                       if key not in seen)
    names = set(functions.values())
    problems = [f"unreached, not allowlisted: {name}" for name in unreached
                if name not in ALLOWLIST]
    problems += [f"allowlisted but {'entered' if name in names else 'gone'}: "
                 f"{name}" for name in sorted(ALLOWLIST)
                 if name not in unreached]
    for name in unreached:
        print(f"{name}: {ALLOWLIST.get(name, 'NOT ALLOWLISTED')}")
    for line in problems:
        print(line)
    print(f"unreached: {len(functions)} functions, {len(unreached)} "
          f"unreached, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
