#!/usr/bin/env python3
"""Layer profile of the RSJoin engines, from the benchmark's traced runs.

    python3 rsjbench/profile.py [--seed 42] [--seconds 5] [--all]

Runs `rsjbench/run.py --trace 1` on line5, line3-kN and qz-opt (all five
workloads with --all) and prints the ROADMAP "Layer profile" table: traced
pass time, index update (store insert + propagation + ΔJ sizing), reservoir
(skip loop + retrieve), of which retrieve, and real / dummy stops. It then
checks each workload's largest layer against the prediction recorded in
rsjbench/workloads.json. `--seed` takes the hold-out seed recorded there as
well. Exit status 1 when a run failed its output checks or a prediction
did not hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ["store.insert_s", "index.propagate_s", "index.sizing_s", "reservoir.self_s",
          "retrieve.s", "fk.translate_s", "state.serialize_s", "state.deserialize_s",
          "spark.overhead_s"]


def traced(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        sys.stdout.write(p.stdout)
        sys.exit(f"{workload}: no result (status {p.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=spec["seed"])
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--all", action="store_true", help="profile all five workloads")
    args = ap.parse_args()
    names = list(spec["workloads"]) if args.all else ["line5", "line3-kN", "qz-opt"]

    ok = True
    rows = []
    for name in names:
        m, correct = traced(name, args.seed, args.seconds)
        index = m["store.insert_s"] + m["index.propagate_s"] + m["index.sizing_s"]
        reservoir = m["reservoir.self_s"] + m["retrieve.s"]
        real = round(m["retrieve.calls"] * m["retrieve.density"])
        dummy = round(m["retrieve.calls"]) - real
        top = max(LAYERS, key=lambda l: m[l])
        want = spec["workloads"][name]["dominant_layer"]
        held = want is None or want == top
        ok = ok and correct and held
        rows.append([name, f"{m['trace.pass_s']:.2f} s", f"{index:.2f} s",
                     f"{reservoir:.2f} s", f"{m['retrieve.s']:.2f} s",
                     f"{real / 1e3:.1f}k / {dummy / 1e3:.1f}k",
                     f"{m['fk.translate_s']:.2f} s", f"{m['trace.coverage']:.2f}",
                     f"{m['trace.overhead']:.2f}",
                     top + ("" if want is None else (" (as predicted)" if held else f" (predicted {want})")),
                     "ok" if correct else "FAILED"])
        print(f"{name}: done", file=sys.stderr, flush=True)

    head = ["workload", "total", "index update", "reservoir", "of which retrieve",
            "real / dummy stops", "FK translate", "coverage", "trace overhead",
            "largest layer", "checks"]
    print(f"Layer profile, seed {args.seed} (traced passes; medians):\n")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for r in rows:
        print("| " + " | ".join(r) + " |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
