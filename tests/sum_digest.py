"""The pinned digest of the registry's direct and ladder sums

sha256 over (value, terms, bound, method) of every SeriesResult that
verify gives through expr.eval_weighted (the Series and Hyp2F1 nodes)
for each identity of the registries at seeds 0-12, 101 and 202, in the
order verify sums them, leaving out the anchored sums that
tests/anchored_digest.py pins. REPORT_DIGEST sees the printed values
only; this one also sees every bit of each direct sum's bound and term
count, and of each ladder sum's. The engine adds floats in a fixed
order, so every supported interpreter gives this digest; a change that
moves any of these outcomes must re-pin it and say why.

    PYTHONPATH=src python tests/sum_digest.py

computes the digest and exits 1 unless it matches. It needs only the
standard library, so it also runs where the test extra is not installed.
"""

import sys

from anchored_digest import SEEDS, digest
from hyperharmonic import build_registry, expr, verify

# pinned at 577c8a6, before the package stated each of its facts in one
# place; no outcome moved with that
SUM_DIGEST = \
    "2326414bbd3fda1d681e295d11251862eb3a786368e4a74740a4fccfbf64d730"
SUMS = 4181


def sum_outcomes() -> list:
    """repr((value, terms, bound, method)) of each sum that is not
    anchored, in the order verify sums them."""
    outcomes = []
    summed = expr.eval_weighted

    def record(*args, **kwargs):
        res = summed(*args, **kwargs)
        if res.method != "anchored":
            outcomes.append(repr((res.value, res.terms_used, res.tail_bound,
                                  res.method)))
        return res

    expr.eval_weighted = record
    try:
        for seed in SEEDS:
            registry = build_registry(seed)
            for ident_id in registry:
                verify(ident_id, registry=registry)
    finally:
        expr.eval_weighted = summed
    return outcomes


def main() -> int:
    outcomes = sum_outcomes()
    got = digest(outcomes)
    print(f"Python {sys.version.split()[0]}: {len(outcomes)} direct and "
          f"ladder sums, digest {got}")
    if len(outcomes) != SUMS or got != SUM_DIGEST:
        print(f"expected {SUMS} sums, digest {SUM_DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
