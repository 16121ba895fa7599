#!/usr/bin/env python3
"""Builds and runs the CLUE load benchmark.

    python3 loadbench/run.py --workload lookup-small|lookup-skew|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. `--trace 0` runs the end-to-end binary
(`e2e`), `--trace 1` the traced per-layer binary (`layers`); each is
built on demand (release profile, offline) into `$CARGO_TARGET_DIR`, or
`loadbench/target` when that is unset. Build output goes to stderr, so
the last line on stdout is always the run's result. Exits non-zero, and
prints no result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    binary = "layers" if trace == "1" else "e2e"
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", binary,
        ],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"run.py: building {binary} failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", binary)
    return subprocess.run([exe, *argv], check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
