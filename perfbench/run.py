#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <pump-loops|fib-calls|search-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo output goes to standard error, so the last line of standard output is
the run's JSON result.  The build honours CARGO_TARGET_DIR (default:
perfbench/target).  The exit code is the build's when it fails, otherwise the
benchmark's: non-zero on any failed correctness check.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the benchmark binary is built from; digested to identify the source
# when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]


def source_id():
    """The git commit if ROOT is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--commit", source_id()]).returncode


if __name__ == "__main__":
    sys.exit(main())
