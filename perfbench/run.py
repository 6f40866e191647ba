#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds perfbench/perfbench.exe from source with dune and runs one
workload:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is the benchmark's JSON result (see
BENCHMARK.md). Run from the root of a checkout of the repository.

    python3 perfbench/run.py --smoke

runs every workload at tiny size under two seeds, traced and untraced,
and checks that each run emits every metric of BENCHMARK.json with its
unit and that every output validated.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SMOKE_SEEDS = (0, 1)
SMOKE_SECONDS = "1"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # the benchmark links the repository's libraries, so it needs the
    # whole source tree, not just the benchmark directory
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a repository checkout")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def smoke():
    spec = json.load(open("BENCHMARK.json"))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = 0
    for w in spec["workloads"]:
        for seed in SMOKE_SEEDS:
            for trace in ("0", "1"):
                args = ["--workload", w["name"], "--seed", str(seed),
                        "--seconds", SMOKE_SECONDS, "--trace", trace,
                        "--size", "tiny"]
                proc = subprocess.run([EXE] + args, capture_output=True, text=True)
                label = f"{w['name']} seed {seed} trace {trace}"
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                    problems += 1
                    continue
                res = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                errs = []
                if got != expected[trace]:
                    errs.append(f"metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"units {[k for k in got if k in expected[trace] and got[k] != expected[trace][k]]}")
                if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                    errs.append(f"outputs did not validate: {res['attempted']} attempted, "
                                f"{res['failed']} failed")
                if trace == "1" and res["metrics"]["trace.dropped_events"]["value"] != 0:
                    errs.append("trace events were dropped")
                problems += len(errs)
                print(("FAIL " if errs else "ok   ") + label + "".join("\n  " + e for e in errs))
    print(f"smoke: {problems} problem(s)")
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--smoke"]:
        sys.exit(smoke())
    proc = subprocess.run([EXE] + argv)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
