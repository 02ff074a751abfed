"""Command-line verifier for the identity registry.

Subcommands:
    list    show every registry entry
    verify  evaluate identities at seeded sample points and compare sides
    sweep   walk one parameter across a grid, reporting both sides per point

Exit codes: 0 all requested checks passed, 2 at least one comparison
mismatched, 3 evaluation failure (divergence, pole, domain violation),
64 usage error, 141 stdout closed by its reader (as under `| head`; the
rest of the output is dropped quietly). The HYPERHARMONIC_SEED
environment variable overrides --seed when set.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import os
import sys
from contextlib import nullcontext

from .catalog import (DEFAULT_SEED, REGISTRY, Identity, VerifyReport,
                      build_registry, verify, with_perturbed_rhs)
from .errors import HyperharmonicError, UnknownIdentityError

USAGE_ERROR = 64
BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell reports for `| head`


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# formatting


def _fmt_float(v: float) -> str:
    return "%.17g" % v


def _fmt_value(v) -> str:
    """Compact human-readable scalar: drops a zero imaginary part."""
    c = complex(v)
    if c.imag == 0.0:
        return "%.10g" % c.real
    return "%.10g%+.10gj" % (c.real, c.imag)


def _fmt_params(ident: Identity, params: dict) -> str:
    if not params:
        return "(no parameters)"
    names = ident.param_names or tuple(params)
    return " ".join(f"{name}={_fmt_value(params[name])}" for name in names)


def _json_text(obj) -> str:
    """obj as indented JSON: two spaces a level, floats as %.17g, complex
    numbers as {"re": ..., "im": ...} on one line, keys as given. The
    parts are joined once, so a report is one write."""
    parts = []
    put = parts.append

    def walk(obj, pad):
        # floats first: they are most of a report's scalars
        if isinstance(obj, float):
            put(_fmt_float(obj))
        elif isinstance(obj, dict):
            if not obj:
                put("{}")
                return
            inner = pad + "  "
            sep = "{"
            for key, val in obj.items():
                put(f'{sep}{inner}"{key}": ')
                walk(val, inner)
                sep = ","
            put(pad + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                put("[]")
                return
            inner = pad + "  "
            sep = "["
            for val in obj:
                put(sep + inner)
                walk(val, inner)
                sep = ","
            put(pad + "]")
        elif isinstance(obj, complex):
            put('{"re": %s, "im": %s}'
                % (_fmt_float(obj.real), _fmt_float(obj.imag)))
        elif isinstance(obj, str):
            put('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
        elif obj is None:
            put("null")
        elif isinstance(obj, bool):
            put("true" if obj else "false")
        elif isinstance(obj, int):
            put(str(obj))
        else:
            raise TypeError(f"unexpected scalar {type(obj)!r}")

    # pad starts with the newline that precedes every indented line
    walk(obj, "\n")
    return "".join(parts)


def _jsonable_number(v):
    c = complex(v)
    return c.real if c.imag == 0.0 else c


def _report_payload(ident: Identity, report: VerifyReport | None,
                    err: str | None) -> dict:
    """The JSON entry of one identity: its report, or the error it raised."""
    if err is not None:
        return {"id": ident.id, "kind": ident.kind, "error": err}
    checks = []
    for chk in report.checks:
        checks.append({
            "params": {k: _jsonable_number(v) for k, v in chk.params.items()},
            "lhs": complex(chk.lhs),
            "rhs": complex(chk.rhs),
            "abs_err": chk.abs_err,
            "rel_err": chk.rel_err,
            "passed": chk.passed,
            "terms_used": chk.terms_used,
            "method": chk.method,
        })
    return {
        "id": report.identity_id,
        "kind": ident.kind,
        "tol": report.tol,
        "passed": report.passed,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# argument plumbing


def _finite(text: str, parse=float):
    """text parsed as a finite float (or complex), or None."""
    try:
        value = parse(text)
    except ValueError:
        return None
    return value if cmath.isfinite(value) else None


def _finite_arg(text: str) -> float:
    """argparse type of --from and --to."""
    value = _finite(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tol_arg(text: str) -> float:
    """argparse type of --tol."""
    value = _finite(text)
    if value is None or value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return value


def _id_arg(text: str) -> str:
    """argparse type of an identity id; the ids do not depend on the seed."""
    if text not in REGISTRY:
        raise argparse.ArgumentTypeError(f"unknown identity id {text!r}; "
                                         "run `hyperharmonic list`")
    return text


def _pin_arg(name_arg, parse):
    """The argparse type of a NAME=VALUE pin: (name_arg(NAME), VALUE
    parsed by parse as a finite number, a float where it is real)."""
    def pin(text: str) -> tuple:
        name, sep, value_text = text.partition("=")
        value = _finite(value_text, parse) if sep and name else None
        if value is None:
            raise argparse.ArgumentTypeError(
                f"expected NAME=VALUE with a finite VALUE, got {text!r}")
        return name_arg(name), value.real if value.imag == 0.0 else value
    return pin


def _resolve_seed(args) -> int:
    env = os.environ.get("HYPERHARMONIC_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise _UsageError(
                f"HYPERHARMONIC_SEED must be an integer, got {env!r}")
    return args.seed


def _output(path, **kwargs):
    """Context manager of FILE's handle: stdout for '-', None without FILE.
    A file is opened here, before any identity is evaluated, so that a path
    that cannot be written fails as a usage error."""
    if path is None or path == "-":
        return nullcontext(None if path is None else sys.stdout)
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list(args) -> int:
    registry = build_registry(_resolve_seed(args))
    width = max(len(i) for i in registry)
    for ident in registry.values():
        print(f"{ident.id:<{width}}  {ident.kind:<14}  "
              f"{len(ident.sample_points):>2} points  tol {ident.tol:g}  "
              f"{ident.description}")
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    if not (args.all or args.ids):
        raise _UsageError("verify needs --ids or --all")
    registry = build_registry(seed)
    ids = list(registry) if args.all else args.ids
    perturb = dict(args.perturb or ())
    for ident_id, eps in perturb.items():
        registry[ident_id] = with_perturbed_rhs(registry[ident_id], eps,
                                                registry)

    def run_one(ident_id):
        try:
            return verify(ident_id, tol=args.tol, registry=registry), None
        except HyperharmonicError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    with _output(args.json) as report_file:
        outcomes = [run_one(i) for i in ids]

        n_pass = n_fail = n_error = 0
        width = max(len(i) for i in ids)
        for ident_id, (report, err) in zip(ids, outcomes):
            if err is not None:
                n_error += 1
                print(f"{ident_id:<{width}}  ERROR  {err}", file=sys.stderr)
                continue
            status = "PASS" if report.passed else "FAIL"
            if report.passed:
                n_pass += 1
            else:
                n_fail += 1
            print(f"{ident_id:<{width}}  {status}  "
                  f"{len(report.checks)} points  tol {report.tol:g}")
            if not args.quiet:
                for chk in report.checks:
                    rel = ("rel %.3e" % chk.rel_err) if chk.rel_err is not None \
                        else "rel n/a"
                    mark = "ok" if chk.passed else "MISMATCH"
                    print(f"    {_fmt_params(registry[ident_id], chk.params)}: "
                          f"|lhs-rhs| = {chk.abs_err:.3e} ({rel}, "
                          f"{chk.terms_used} terms, {chk.method}) {mark}")

        print(f"{len(ids)} checked: {n_pass} passed, {n_fail} failed, "
              f"{n_error} errors")

        if report_file is not None:
            from datetime import datetime, timezone  # only a report reads the clock
            payload = {
                "run": {
                    "command": "verify",
                    "seed": seed,
                    "timestamp": datetime.now(timezone.utc)
                                         .strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "ids": ids,
                    "tol_override": args.tol,
                    "perturb": {k: perturb[k] for k in sorted(perturb)},
                },
                "results": [_report_payload(registry[i], *outcome)
                            for i, outcome in zip(ids, outcomes)],
            }
            report_file.write(_json_text(payload) + "\n")

    if n_error:
        return 3
    return 0 if n_fail == 0 else 2


def _cmd_sweep(args) -> int:
    _resolve_seed(args)  # validated only: the grid replaces the seeded points
    ident = REGISTRY[args.id]
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if args.param not in ident.param_names:
        raise _UsageError(
            f"{args.id} has no parameter {args.param!r}; "
            f"parameters: {', '.join(ident.param_names) or '(none)'}")
    fixed = dict(args.fixed or ())
    if args.param in fixed:
        raise _UsageError(f"--fixed pins the swept parameter {args.param!r}")
    for name in fixed:
        if name not in ident.param_names:
            raise _UsageError(f"{args.id} has no parameter {name!r}")
    missing = [n for n in ident.param_names
               if n != args.param and n not in fixed]
    if missing:
        raise _UsageError(
            f"sweep leaves parameters unpinned: {', '.join(missing)} "
            "(use --fixed NAME=VALUE)")

    lo, hi, steps = args.start, args.stop, args.steps
    grid = [lo + (hi - lo) * j / (steps - 1) for j in range(steps)]
    with _output(args.csv, newline="") as handle:
        report = verify(ident, tol=args.tol,
                        points=[{**fixed, args.param: val} for val in grid])
        rows = list(zip(grid, report.checks))
        if handle is not None:
            writer = csv.writer(handle)
            writer.writerow([args.param, "lhs_re", "lhs_im", "rhs_re",
                             "rhs_im", "abs_err", "rel_err", "passed"])
            for val, chk in rows:
                writer.writerow([
                    _fmt_float(val),
                    _fmt_float(chk.lhs.real), _fmt_float(chk.lhs.imag),
                    _fmt_float(chk.rhs.real), _fmt_float(chk.rhs.imag),
                    _fmt_float(chk.abs_err),
                    _fmt_float(chk.rel_err) if chk.rel_err is not None else "",
                    "true" if chk.passed else "false",
                ])
        else:
            for val, chk in rows:
                mark = "ok" if chk.passed else "MISMATCH"
                print(f"{args.param}={_fmt_value(val)}: "
                      f"lhs={_fmt_value(chk.lhs)} rhs={_fmt_value(chk.rhs)} "
                      f"|diff|={chk.abs_err:.3e} {mark}")

    n_fail = len(report.failures)
    if args.csv != "-":
        print(f"{steps} points swept: {steps - n_fail} passed, {n_fail} failed")
    return 0 if n_fail == 0 else 2


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first main() call and reused by
    every later one in the process (parse_args keeps no state)."""
    parser = _Parser(
        prog="hyperharmonic",
        description="Verify harmonic-number series identities numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="sample-point seed (default %(default)s; the "
                             "HYPERHARMONIC_SEED environment variable wins)")

    sub.add_parser("list", parents=[common],
                   help="show registry ids, kinds, and tolerances")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check identities at seeded sample points")
    p_verify.add_argument("--ids", nargs="+", type=_id_arg, metavar="ID",
                          help="identity ids to check")
    p_verify.add_argument("--all", action="store_true",
                          help="check the whole registry")
    p_verify.add_argument("--tol", type=_tol_arg, default=None,
                          help="override comparison tolerance for all ids")
    p_verify.add_argument("--perturb", action="append",
                          type=_pin_arg(_id_arg, float), metavar="ID=EPS",
                          help="scale the closed form of ID by (1+EPS); "
                               "fault injection for the failure path")
    p_verify.add_argument("--json", metavar="FILE",
                          help="write a JSON report to FILE ('-' = stdout)")
    p_verify.add_argument("--quiet", action="store_true",
                          help="suppress per-point lines")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="walk one parameter across a linear grid")
    p_sweep.add_argument("--id", required=True, type=_id_arg,
                         help="identity id")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--from", dest="start", type=_finite_arg, required=True,
                         help="grid start")
    p_sweep.add_argument("--to", dest="stop", type=_finite_arg, required=True,
                         help="grid end")
    p_sweep.add_argument("--steps", type=int, required=True,
                         help="number of grid points (>= 2)")
    p_sweep.add_argument("--fixed", action="append",
                         type=_pin_arg(str, complex), metavar="NAME=VALUE",
                         help="pin another parameter (repeatable)")
    p_sweep.add_argument("--tol", type=_tol_arg, default=None,
                         help="override the identity's tolerance")
    p_sweep.add_argument("--csv", metavar="FILE",
                         help="write rows as CSV to FILE ('-' = stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = {"list": _cmd_list, "verify": _cmd_verify, "sweep": _cmd_sweep}
        code = run[args.command](args)
        sys.stdout.flush()  # a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to the null device, so that the
        # flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except UnknownIdentityError as exc:
        print(f"error: unknown identity {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HyperharmonicError as exc:
        print(f"evaluation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
