#!/usr/bin/env python3
"""Tiny-size smoke test of the fabric benchmark.

    python3 fabricbench/smoke_test.py [--binary PATH]

Runs every workload at kilobyte sizes with --trace 0 and --trace 1 and
checks that each metric BENCHMARK.json names is printed, with its unit, in
both the table and the JSON result line, that every run is correct with no
failed operation, and that a deliberately corrupted restored shard trips the
digest gate (nonzero exit, correct=false, failed > 0). Builds the benchmark
through run.py unless --binary names an already built one. Exits 0 on
success.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build entry point)

WORKLOADS = ["full_save", "sparse_delta", "recover"]


def bench(binary, workload, trace, *extra):
    cmd = [str(binary), "--out", ".bench_out/smoke", "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines[:-1], result


def check(cond, what, failures):
    if not cond:
        failures.append(what)


def main(argv):
    binary = Path(argv[argv.index("--binary") + 1]) if "--binary" in argv \
        else run.build()
    if binary is None:
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload} --trace {trace}"
            proc, table, result = bench(binary, workload, trace)
            check(proc.returncode == 0, f"{tag}: exit {proc.returncode}: "
                  f"{proc.stderr.strip()}", failures)
            if result is None:
                failures.append(f"{tag}: no result line")
                continue
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: result {result}", failures)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: JSON metrics {sorted(got)} != "
                  f"{sorted(want)}", failures)
            for name, unit in want.items():
                printed = [ln.split() for ln in table
                           if ln.split()[:1] == [name]]
                check(len(printed) == 1 and unit in printed[0][2:3],
                      f"{tag}: table row for {name} [{unit}]: {printed}",
                      failures)

    proc, _, result = bench(binary, "full_save", 0, "--fault",
                            "corrupt-restored")
    check(proc.returncode != 0, "corrupted restore: exit status 0", failures)
    check(result is not None and result["correct"] is False
          and result["failed"] > 0,
          f"corrupted restore not caught by the digest gate: {result}",
          failures)

    for f in failures:
        print("FAIL " + f)
    print("fabricbench smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
