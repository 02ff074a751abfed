"""Workload definitions: the ops each workload runs, and how one op is
run and checked.

An op is one `verify(id, points=[p], registry=reg)` call on one point or
one `cli.main(argv)` call. Inputs are pure functions of the workload
seed; the package sees only the generated registries, points and argv.

Every op is re-checked here rather than trusted: the pass rule is
recomputed from the returned lhs, rhs and tol (relative error when
|rhs| >= 1, absolute error otherwise), and CLI output is parsed back.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field

WORKLOADS = ("verify-all", "disk-sweep", "cli-report")

# disk-sweep: consecutive registry seeds, and the distances 1 - |x| of the
# grids that approach the disk boundary (x = k^2 for the elliptic pair)
DISK_SEEDS = 8
DISK_GAPS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
THMB_A = (0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0)

# cli-report: rounds per pass (one seed each) and sweep grid size
CLI_ROUNDS = 20
SWEEP_STEPS = 17

# outcome status of one op
OK, RAISED, MISMATCH, RECHECK = "ok", "raised", "mismatch", "recheck"


@dataclass(frozen=True)
class Op:
    kind: str          # "verify" or "cli"
    args: tuple        # verify: (registry index, id, point); cli: argv
    expect: tuple = ()  # cli: what the output must contain (see _check_cli)


@dataclass(frozen=True)
class Outcome:
    status: str
    terms: int
    err_over_tol: float
    fingerprint: str   # exact outputs, for the determinism guard
    bytes_out: int = 0
    ns: int = field(default=0, compare=False)  # latency of the package call


def recheck(lhs: complex, rhs: complex, tol: float) -> tuple[bool, float]:
    """The catalog's comparison rule, recomputed: (passed, err/tol)."""
    err = abs(lhs - rhs)
    if abs(rhs) >= 1.0:
        err /= abs(rhs)
    return err <= tol, err / tol


def direct_ids(registry: dict) -> list:
    """Identities summed inside the disk: those that do not set accel."""
    return [i for i, ident in registry.items() if not ident.accel]


def warmup_op(workload: str, registry: dict, seed: int) -> Op:
    """The op that set-up runs once: a cheap op of the workload's own kind."""
    if workload == "cli-report":
        return Op("cli", ("list", f"--seed={seed}"), ("list", len(registry)))
    first = direct_ids(registry)[0]
    return Op("verify", (0, first, registry[first].sample_points[0]))


def build_inputs(hh, workload: str, seed: int, registry_seed: int):
    """(registries, ops) of one pass of a workload at one seed.

    verify-all checks the registry at registry_seed (the package default
    unless given) in an order shuffled by seed; the other workloads draw
    their registries from seed itself.
    """
    if workload == "verify-all":
        reg = hh.build_registry(registry_seed)
        ops = [Op("verify", (0, i, p))
               for i, ident in reg.items() for p in ident.sample_points]
        random.Random(f"verify-all:{seed}").shuffle(ops)
        return [reg], ops
    if workload == "disk-sweep":
        regs = [hh.build_registry(seed + j) for j in range(DISK_SEEDS)]
        ops = [Op("verify", (j, i, p))
               for j, reg in enumerate(regs)
               for i in direct_ids(reg) for p in reg[i].sample_points]
        for gap in DISK_GAPS:
            x = 1.0 - gap
            ops += [Op("verify", (0, "THM-B", {"a": a, "x": x})) for a in THMB_A]
            ops.append(Op("verify", (0, "EQ-H3N", {"x": x})))
            ops += [Op("verify", (0, i, {"k": math.sqrt(x)}))
                    for i in ("GF-K1", "GF-K2")]
        return regs, ops
    if workload == "cli-report":
        rng = random.Random(f"cli-report:{seed}")
        regs, ops = [], []
        for j in range(CLI_ROUNDS):
            s = seed + j
            reg = hh.build_registry(s)
            regs.append(reg)
            ids = direct_ids(reg)
            n_points = sum(len(reg[i].sample_points) for i in ids)
            sd = f"--seed={s}"
            ops.append(Op("cli", ("list", sd), ("list", len(reg))))
            ops.append(Op("cli", ("verify", sd, "--json", "-", "--ids", *ids),
                          ("json", len(ids), n_points)))
            ops.append(Op("cli", ("verify", sd, "--quiet", "--ids", *ids),
                          ("quiet", len(ids))))
            for ident, param in (("GF-K1", "k"), ("COR-A2", "a")):
                lo, hi = rng.uniform(0.05, 0.2), rng.uniform(0.75, 0.95)
                ops.append(Op("cli", ("sweep", sd, "--id", ident,
                                      "--param", param, f"--from={lo!r}",
                                      f"--to={hi!r}", f"--steps={SWEEP_STEPS}",
                                      "--csv", "-"),
                              ("csv", reg[ident].tol, SWEEP_STEPS)))
        return regs, ops
    raise ValueError(f"unknown workload {workload!r}")


def run_op(hh, cli, regs, op: Op) -> Outcome:
    if op.kind == "verify":
        return _run_verify(hh, regs, *op.args)
    return _run_cli(cli, op.args, op.expect)


def _run_verify(hh, regs, reg_index, ident_id, point) -> Outcome:
    t0 = time.perf_counter_ns()
    try:
        report = hh.verify(ident_id, points=[point], registry=regs[reg_index])
    except hh.HyperharmonicError as exc:
        ns = time.perf_counter_ns() - t0
        return Outcome(RAISED, 0, 0.0, f"{type(exc).__name__}: {exc}", ns=ns)
    ns = time.perf_counter_ns() - t0
    chk = report.checks[0]
    ok, ratio = recheck(chk.lhs, chk.rhs, report.tol)
    fp = f"{chk.lhs!r} {chk.rhs!r} {chk.terms_used} {chk.passed}"
    if ok != chk.passed or not math.isfinite(ratio) or chk.terms_used < 1:
        return Outcome(RECHECK, chk.terms_used, ratio, fp, ns=ns)
    return Outcome(OK if ok else MISMATCH, chk.terms_used, ratio, fp, ns=ns)


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _run_cli(cli, argv, expect) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        code = cli.main(list(argv))
        ns = time.perf_counter_ns() - t0
    text, errtext = out.getvalue(), err.getvalue()
    nbytes = len(text.encode()) + len(errtext.encode())
    # JSON reports may differ only in their timestamp
    stable = _TIMESTAMP.sub('"timestamp": ""', text) + "\0" + errtext
    fp = f"{code} " + hashlib.sha256(stable.encode()).hexdigest()
    if code != 0:
        status = {2: MISMATCH, 3: RAISED}.get(code, RECHECK)
        return Outcome(status, 0, 0.0, fp, nbytes, ns)
    try:
        good, terms, worst = _check_cli(text, expect)
    except (ValueError, KeyError, TypeError, IndexError):
        good, terms, worst = False, 0, 0.0
    return Outcome(OK if good else RECHECK, terms, worst, fp, nbytes, ns)


def _check_cli(text: str, expect) -> tuple[bool, int, float]:
    """(output is complete and every check re-passes, terms, worst err/tol)."""
    kind = expect[0]
    lines = text.splitlines()
    if kind == "list":
        return len(lines) == expect[1], 0, 0.0
    if kind == "quiet":
        n_ids = expect[1]
        return (sum(1 for ln in lines if "  PASS  " in ln) == n_ids
                and lines[-1] == f"{n_ids} checked: {n_ids} passed, "
                                 "0 failed, 0 errors"), 0, 0.0
    if kind == "json":
        payload = json.loads("\n".join(lines[lines.index("{"):]))
        checks = [c for r in payload["results"] for c in r["checks"]]
        tols = [r["tol"] for r in payload["results"] for _ in r["checks"]]
        good = len(payload["results"]) == expect[1] and len(checks) == expect[2]
        terms, worst = 0, 0.0
        for chk, tol in zip(checks, tols):
            ok, ratio = recheck(_num(chk["lhs"]), _num(chk["rhs"]), tol)
            good = good and ok and chk["passed"] is True
            terms += chk["terms_used"]
            worst = max(worst, ratio)
        return good, terms, worst
    if kind == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        tol = expect[1]
        good = len(rows) == expect[2] + 1
        worst = 0.0
        for row in rows[1:]:
            lhs = complex(float(row[1]), float(row[2]))
            rhs = complex(float(row[3]), float(row[4]))
            ok, ratio = recheck(lhs, rhs, tol)
            good = good and ok and row[7] == "true"
            worst = max(worst, ratio)
        return good, 0, worst
    raise ValueError(f"unknown expectation {kind!r}")


def _num(v) -> complex:
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)
