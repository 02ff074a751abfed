"""The pinned digest of the seeded report

    hyperharmonic verify --all --seed 7 --json -

sha256 over its stdout (the text lines, then the JSON report) with the
report's timestamp blanked. The verifier adds floats in a fixed order, so
every supported interpreter gives this digest; a change that moves any
printed value or term count must re-pin it and say why.

    PYTHONPATH=src python tests/report_digest.py

runs the command in-process and exits 1 unless it exits 0 with this
digest. It needs only the standard library, so it also runs where the
test extra is not installed.
"""

import contextlib
import hashlib
import io
import os
import re
import sys

REPORT_DIGEST = \
    "3da081f4784a774605483e52c9062213817c833ddd629469ff5871012f780308"
ARGV = ("verify", "--all", "--seed", "7", "--json", "-")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def digest(text: str) -> str:
    """sha256 of the report text with its timestamp blanked."""
    blanked = _TIMESTAMP.sub('"timestamp": ""', text)
    return hashlib.sha256(blanked.encode()).hexdigest()


def main() -> int:
    from hyperharmonic import cli

    os.environ.pop("HYPERHARMONIC_SEED", None)  # would override --seed
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(ARGV))
    got = digest(out.getvalue())
    print(f"Python {sys.version.split()[0]}: exit {code}, digest {got}")
    if code != 0 or got != REPORT_DIGEST:
        print(f"expected exit 0, digest {REPORT_DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
