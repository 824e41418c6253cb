#!/usr/bin/env python3
"""Builds the concorde server and the perfbench load generator, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dse_warm --seed 1 --seconds 25 --trace 0

Both binaries are built in release mode from the sources in this checkout,
into $CARGO_TARGET_DIR (default: ./target). The arguments are passed to the
load generator unchanged; its last line of standard output is the result
object.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cargo():
    """Cargo from PATH, else from the rustup install directory."""
    found = shutil.which("cargo")
    if found:
        return found
    home = os.environ.get("CARGO_HOME") or os.path.join(Path.home(), ".cargo")
    return os.path.join(home, "bin", "cargo")


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's progress goes to stderr; keep stdout for the result line.
    proc = subprocess.run(
        [cargo(), "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    return proc.returncode == 0


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or "target")
    if not target.is_absolute():
        target = ROOT / target
    if not (ROOT / "Cargo.toml").is_file():
        sys.exit("perfbench: no Cargo.toml at the repository root; nothing to build")
    if not build(["--bin", "concorde"], target):
        sys.exit("perfbench: building the concorde server failed")
    if not build(["--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")], target):
        sys.exit("perfbench: building the load generator failed")
    program = target / "release" / "perfbench"
    os.chdir(ROOT)
    os.execv(
        program,
        [
            str(program),
            "--server",
            str(target / "release" / "concorde"),
            "--fixtures",
            str(target / "perfbench-fixtures"),
            *sys.argv[1:],
        ],
    )


if __name__ == "__main__":
    main()
