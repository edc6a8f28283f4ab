#!/usr/bin/env python3
"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10                 # every workload, untraced
    python3 perfbench/repeat.py --workloads scan-q6 --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-3 --trace both --out perfbench/baseline/seed.json

For each workload and metric it prints the median over the runs and the
spread, the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json. With ``--trace both`` each
seed also gets a traced run, and the tracing overhead (traced minus
untraced median operation latency) is reported per workload. ``--out``
writes every run's metrics and the summary as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    wall = time.monotonic() - t0
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {r.returncode})")
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["note"] = next((l for l in lines if "latency_tail_s is" in l), "")
    # The run's result file holds the pinned environment.
    result_file = ROOT / ".bench_build" / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(result_file.read_text())["environment"]
    return result


def dumps(report: dict) -> str:
    """The report as JSON with one run per line, so the files stay short."""
    def enc(v, depth):
        if isinstance(v, dict) and depth < 4 and "metrics" not in v:
            pad = " " * (depth + 1)
            items = [f"{pad}{json.dumps(k)}: {enc(x, depth + 1)}" for k, x in v.items()]
            return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
        if isinstance(v, list) and v and isinstance(v[0], dict):
            pad = " " * (depth + 1)
            return "[\n" + ",\n".join(pad + json.dumps(x) for x in v) + "\n" + " " * depth + "]"
        return json.dumps(v)
    return enc(report, 0) + "\n"


def spread(values: list) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    ap.add_argument("--out")
    a = ap.parse_args()

    traces = ["0", "1"] if a.trace == "both" else [a.trace]
    workloads = a.workloads.split(",")
    report = {"seconds": a.seconds, "seeds": seeds(a.seeds), "workloads": {}}
    # Seeds outermost, so that every workload sees the same periods of the host.
    all_runs = {w: {t: [] for t in traces} for w in workloads}
    for s in seeds(a.seeds):
        for w in workloads:
            for t in traces:
                r = run(w, s, a.seconds, t)
                r["seed"] = s
                all_runs[w][t].append(r)
                print(f"{w} seed={s} trace={t} wall={r['wall_s']:.1f}s attempted={r['attempted']}",
                      file=sys.stderr)
    for w in workloads:
        runs = all_runs[w]
        entry = {"runs": runs, "summary": {}}
        for t in traces:
            names = runs[t][0]["metrics"].keys()
            entry["summary"][t] = {
                n: dict(spread([r["metrics"][n]["value"] for r in runs[t]]),
                        unit=runs[t][0]["metrics"][n]["unit"]) for n in names}
        if "0" in runs and "1" in runs:
            untraced = entry["summary"]["0"]["latency_p50_s"]["median"]
            traced = entry["summary"]["1"]["traced.latency_p50_s"]["median"]
            entry["tracing_overhead_s"] = traced - untraced
            entry["tracing_overhead_share"] = (traced - untraced) / untraced
        report["workloads"][w] = entry

        print(f"\n{w}: {len(seeds(a.seeds))} seeds, {a.seconds} s per run, "
              f"mean wall {statistics.mean(r['wall_s'] for t in traces for r in runs[t]):.1f} s")
        for t in traces:
            for n, s in entry["summary"][t].items():
                b = bounds.get(n)
                flag = "" if b is None else f"  bound {b:.3f}" + ("  OVER 1/3" if s["spread"] > b / 3 else "")
                print(f"  {n:32s} median {s['median']:14.6g} {s['unit']:6s} spread {s['spread']:.4f}{flag}")
        if "tracing_overhead_s" in entry:
            print(f"  tracing overhead {entry['tracing_overhead_s']:+.4f} s "
                  f"({100 * entry['tracing_overhead_share']:+.1f} % of latency_p50_s)")
    if a.out:
        Path(a.out).write_text(dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
