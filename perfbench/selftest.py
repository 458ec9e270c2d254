#!/usr/bin/env python3
"""Miniature self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, runs every workload at its tiny size and asserts
that:

* the last line is a result object with exactly `correct`, `attempted`,
  `failed` and `metrics`;
* untraced, every end-to-end metric of BENCHMARK.json appears with its
  unit, and traced, every per-layer metric does;
* on unchanged code nothing fails, and an injected wrong expectation
  raises the failed share;
* `--workload all` runs the three workloads in one process.

Takes well under a minute; exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the build helper next to this file)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spec():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names), "bad metric or workload name"
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds.get("setup_s") == max(bounds.values()) <= 0.25, bounds
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def result(binary, *args):
    out = subprocess.run([str(binary), *args, "--seconds", "0", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    return line


def expect_metrics(line, wanted, what):
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    assert got == want, f"{what}: metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), (what, name)


def main():
    check_spec()
    binary = run.build()
    assert binary is not None, "build failed"
    for workload in [w["name"] for w in SPEC["workloads"]]:
        base = ["--workload", workload, "--seed", "7"]
        plain = result(binary, *base, "--trace", "0")
        expect_metrics(plain, SPEC["end_to_end"], f"{workload} untraced")
        assert plain["failed"] == 0 and plain["correct"], f"{workload}: {plain['failed']} failed"
        assert all(m["value"] > 0 for m in plain["metrics"].values()), f"{workload}: a zero metric"
        traced = result(binary, *base, "--trace", "1")
        expect_metrics(traced, SPEC["per_layer"], f"{workload} traced")
        assert traced["failed"] == 0
        wrong = result(binary, *base, "--trace", "0", "--inject-wrong")
        assert wrong["failed"] > 0 and not wrong["correct"], f"{workload}: injection not caught"
        print(f"ok {workload}: {plain['attempted']} checked, "
              f"injected failed share {wrong['failed'] / wrong['attempted']:.3f}")
    merged = result(binary, "--workload", "all", "--seed", "7", "--trace", "0")
    assert merged["failed"] == 0
    assert len(merged["metrics"]) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    print("ok all")


if __name__ == "__main__":
    main()
