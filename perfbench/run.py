#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <verify-batch|explore-par|runtime-contended|all>
                             --seed N --seconds S --trace 0|1 [--tiny] [--inject-wrong]

Run from the repository root. Builds `perfbench/` (its own Cargo
workspace, depending on `crates/` by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it. Build output
goes to stderr; the benchmark's report goes to stdout and its last line
is the JSON result. Exits non-zero, printing no result, if the build
fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def target_dir():
    """`$CARGO_TARGET_DIR` (relative to the repository root), or `.bench_build`."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark; returns the binary's path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    binary = target_dir() / "release" / "perfbench"
    return binary if done.returncode == 0 and binary.exists() else None


def revision():
    """The git revision when the root is a git checkout, else a digest of
    the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "crates").rglob("Cargo.toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main(argv):
    if not (ROOT / "crates").is_dir():
        print("perfbench: no crates/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(binary), *argv, "--rev", revision()], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
