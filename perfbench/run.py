#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-q6 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark if a source changed (see build.py),
then runs one JVM: Spark local[N] with N = the cores this process may use,
a pinned heap, and scratch files under .bench_build/ only. The last line
of standard output is the result JSON. The exit code is non-zero if the
build fails, the run fails, or any operation's output is wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["scan-q6", "scan-q1", "exchange-s3", "exchange-spark"]
HEAP = "3g"
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these packages opened (spark-submit adds them itself).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar"]]


def last_json_line(text: str) -> dict:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    try:
        build.build()
        cp = build.classpath()
        java = build.java()
    except build.BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    out_dir = build.BUILD / "results"
    work = build.BUILD / "work" / f"{a.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # -XX:-UsePerfData: no hsperfdata file in the system temp directory.
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
           ] + ADD_OPENS + [
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--cores", str(cores), "--out", str(out_dir), "--work", str(work)]
    try:
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark-local"))
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                           cwd=str(work), env=env)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        print(f"perfbench: {a.workload} exited with {r.returncode}", file=sys.stderr)
        return 1
    try:
        result = last_json_line(r.stdout)
    except ValueError as e:
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
