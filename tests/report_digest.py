"""The pinned digest of the seeded report

    hyperharmonic verify --all --seed 7 --json -

sha256 over its stdout (the text lines, then the JSON report) with the
report's timestamp blanked. The verifier adds floats in a fixed order, so
every supported interpreter gives this digest; a change that moves any
printed value or term count must re-pin it and say why.

OUTPUT_DIGESTS pins, the same way, the outputs that the report does not
cover: the listing, the quiet text report of the identities summed
inside the unit disk, and CSV sweeps over an elliptic argument, a
digamma closed form and a Gauss function that takes Kummer's connection
formulas with complex parameters.

    PYTHONPATH=src python tests/report_digest.py

runs every pinned command in-process and exits 1 unless each exits 0
with its digest. It needs only the standard library, so it also runs
where the test extra is not installed.
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

# the identities of the seed-3 registry that do not set accel
INSIDE_DISK_IDS = (
    "COR-A1", "COR-A2", "EX-1", "EX-2", "EX-3", "EX-4", "SUM-CHOI", "SUM-MIX",
    "GF-K1", "GF-K2", "THM-B", "EQ-H3N", "VAL-ALG", "TR-2.11.2", "TR-2.11.7",
    "TR-2.11.5", "TR-4.5.1", "SUM-2.8.50", "SUM-2.8.51")

# (argv, digest of its stdout). The TR-2.11.2 sweep stays at z >= 0.05:
# from z = -0.3 the argument 4z(1-z) leaves the disk and the sweep exits 3
OUTPUT_DIGESTS = (
    (("list", "--seed", "3"),
     "7c77e3a199db4a174bca7451ce8334c557f0671f533a243a81c21fa9435ba6bc"),
    (("verify", "--seed", "3", "--quiet", "--ids", *INSIDE_DISK_IDS),
     "f7bd09918974ff0418e4cbd3339ee3e4866513bbf96c0fe4a9d34ac370b06284"),
    (("sweep", "--id", "GF-K1", "--param", "k", "--from", "0.05",
      "--to", "0.95", "--steps", "19", "--csv", "-"),
     "b076d4a69e2080dabe1c46c9df2ea2d3d1ed7ef94cdae54a8abd3a77f7325367"),
    (("sweep", "--id", "COR-A2", "--param", "a", "--from", "0.05",
      "--to", "0.95", "--steps", "19", "--csv", "-"),
     "fcde784738786e8e9f25934fd9ce25b70db8d789317e80cb1b02b77d45dabf7b"),
    (("sweep", "--id", "TR-2.11.2", "--param", "z", "--from", "0.05",
      "--to", "0.3", "--steps", "11", "--fixed", "a=0.3+0.1j",
      "--fixed", "b=0.2", "--csv", "-"),
     "d22b35b80f7ba81bf9cb71c19b59f34328a5820e8ef10ca67094d33896714c93"),
)

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def digest(text: str) -> str:
    """sha256 of the report text with its timestamp blanked."""
    blanked = _TIMESTAMP.sub('"timestamp": ""', text)
    return hashlib.sha256(blanked.encode()).hexdigest()


def run(argv) -> tuple:
    """(exit code, digest of stdout) of the command argv, in-process."""
    from hyperharmonic import cli

    os.environ.pop("HYPERHARMONIC_SEED", None)  # would override --seed
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, digest(out.getvalue())


def main() -> int:
    failed = 0
    for argv, expected in ((ARGV, REPORT_DIGEST), *OUTPUT_DIGESTS):
        code, got = run(argv)
        print(f"Python {sys.version.split()[0]}: {' '.join(argv[:3])} ...: "
              f"exit {code}, digest {got}")
        if code != 0 or got != expected:
            print(f"expected exit 0, digest {expected}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
