"""One set-up sample in a fresh process: import the package, build the
registry and run one warm-up op. Prints the elapsed seconds, scaled by the
reference kernel read just before and after (see refkernel.py).

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED REGISTRY_SEED
"""

import sys
import time

import refkernel
import workloads


def main(src: str, workload: str, seed: int, reg_seed: int) -> None:
    ref0 = refkernel.reading()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import hyperharmonic as hh
    import hyperharmonic.cli as cli
    reg = hh.build_registry(reg_seed)
    outcome = workloads.run_op(hh, cli, [reg], workloads.warmup_op(workload, reg, seed))
    elapsed = time.perf_counter() - t0
    ref = (ref0 + refkernel.reading()) / 2
    if outcome.status != workloads.OK:
        sys.exit(f"warm-up op failed: {outcome}")
    print(repr(elapsed * refkernel.REF_NS / ref))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
