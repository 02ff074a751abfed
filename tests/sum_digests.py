"""The pinned digests of the registry's sums

sha256 over (value, terms, bound, method) of every SeriesResult that
verify gives through expr.eval_weighted (the Series and Hyp2F1 nodes)
for each identity of the registries at seeds 0-12, 101 and 202, in the
order verify sums them: one digest of the anchored sums (method
"anchored", series._eval_anchored's), one of the direct and ladder sums.
REPORT_DIGEST sees the printed values only; these also see every bit of
each sum's bound and term count. The engine adds floats in a fixed
order, so every supported interpreter gives these digests; a change
that moves any of these outcomes must re-pin them and say why.

    PYTHONPATH=src python tests/sum_digests.py

walks the registries once, computes both digests, checks the
first-order sums of the same walk by a complex step (complex_step.py)
and exits 1 unless both digests match and every step agrees. It needs
only the standard library, so it also runs where the test extra is not
installed.
"""

import hashlib
import sys

import complex_step
from hyperharmonic import build_registry, expr, verify

SEEDS = (*range(13), 101, 202)
# pinned before the anchored rule formed its binomials once per sum and
# cached each weight's expansion rows; no outcome moved with them
ANCHORED_DIGEST = \
    "9a0b2c029cbfd608ab43b127146222daf4e7fde971b188e1c1b676b5cb4bb27c"
ANCHORED_SUMS = 915
# pinned at 577c8a6, before the package stated each of its facts in one
# place; no outcome moved with that
SUM_DIGEST = \
    "2326414bbd3fda1d681e295d11251862eb3a786368e4a74740a4fccfbf64d730"
SUMS = 4181


def registry_sums() -> list:
    """(spec, weight, x, keyword arguments, SeriesResult) of every sum
    that verify gives through expr.eval_weighted at the registries of
    SEEDS, in the order verify sums them."""
    sums = []
    summed = expr.eval_weighted

    def record(spec, weight, x, **kwargs):
        res = summed(spec, weight, x, **kwargs)
        sums.append((spec, weight, x, kwargs, res))
        return res

    expr.eval_weighted = record
    try:
        for seed in SEEDS:
            registry = build_registry(seed)
            for ident_id in registry:
                verify(ident_id, registry=registry)
    finally:
        expr.eval_weighted = summed
    return sums


def registry_outcomes(sums) -> tuple:
    """(anchored, others): repr((value, terms, bound, method)) of each
    anchored sum and of each other sum of registry_sums, in its order."""
    anchored, others = [], []
    for *_, res in sums:
        (anchored if res.method == "anchored" else others).append(
            repr((res.value, res.terms_used, res.tail_bound, res.method)))
    return anchored, others


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for line in outcomes:
        h.update(line.encode())
    return h.hexdigest()


def main() -> int:
    sums = registry_sums()
    anchored, others = registry_outcomes(sums)
    failed = 0
    for outcomes, what, count, pinned in (
            (anchored, "anchored", ANCHORED_SUMS, ANCHORED_DIGEST),
            (others, "direct and ladder", SUMS, SUM_DIGEST)):
        got = digest(outcomes)
        print(f"Python {sys.version.split()[0]}: {len(outcomes)} {what} "
              f"sums, digest {got}")
        if len(outcomes) != count or got != pinned:
            print(f"expected {count} {what} sums, digest {pinned}",
                  file=sys.stderr)
            failed = 1
    return complex_step.report(sums) or failed


if __name__ == "__main__":
    sys.exit(main())
