"""Hash every verdict of the benchmark's input pools, to compare two checkouts bit for bit.

Usage (from anywhere):

    python3 tools/verdict_digest.py CHECKOUT SEED [SEED ...]

For each seed it builds `perfbench/workloads.build_pool` of all four
workloads in a temporary directory, with `nullag` imported from
CHECKOUT/src and the workloads from CHECKOUT/perfbench, runs every verdict
once and hashes its (ok, detail, output).  It prints one line per workload
and seed, then one sha256 over all of them.  It writes nothing under
CHECKOUT.
"""

import hashlib
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> None:
    checkout, seeds = Path(argv[0]).resolve(), [int(s) for s in argv[1:]]
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import nullag
    import workloads

    if Path(nullag.__file__).resolve().parent != checkout / "src" / "nullag":
        raise ImportError(f"nullag was imported from {nullag.__file__}, not from {checkout / 'src'}")
    overall, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                pool = workloads.build_pool(name, seed, Path(tmp) / f"{name}-{seed}")
                digest = hashlib.sha256()
                for verdict in (v for cycle in pool for v in cycle):
                    outcome = verdict.run()
                    digest.update(repr((outcome.ok, outcome.detail, outcome.output)).encode())
                    count += 1
                print(f"{name} seed {seed}: {sum(map(len, pool))} verdicts, {digest.hexdigest()}")
                overall.update(digest.digest())
    print(f"{count} verdicts: {overall.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
