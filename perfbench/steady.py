#!/usr/bin/env python3
"""Steadiness and A/B tool for the repository benchmark.

Runs one workload N times, each with another seed, and prints per metric the
median, quartiles and relative spread ((Q3 - Q1) / median, quartiles as
`statistics.quantiles(values, n=4)` gives them).

    # A/A: two sets of N runs of this checkout; checks each end-to-end
    # metric's spread, and how far the second set's median lies from the
    # first (in either direction), against the bounds in BENCHMARK.json.
    python3 perfbench/steady.py --workload miss-cold --runs 10 --sets 2

    # A/B: N pairs of parent (--base) and change (--change) checkouts,
    # alternating which side runs first, with the win count per metric.
    python3 perfbench/steady.py --workload miss-cold --runs 10 \\
        --base /path/to/parent --change /path/to/change

Each checkout is built by its own `perfbench/run.py` into its own
`.bench_build`. `--trace 1` summarizes the per-layer metrics instead (no
bounds apply). `--json FILE` also writes every run's result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout `root`; returns its result object."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: run failed ({done.returncode}): {' '.join(cmd)}\n{done.stdout[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: correctness check failed: {' '.join(cmd)}")
    return result


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec


def metric_specs(spec, trace):
    if trace:
        return {m["name"]: m for m in spec["per_layer"]}
    return {m["name"]: m for m in spec["end_to_end"]}


def table(sets, specs):
    """Prints per-metric statistics of each set; returns {name: [values per set]}."""
    print(f"{'metric':30} {'set':>3} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8}")
    by_metric = {}
    for name in specs:
        by_metric[name] = []
        for i, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            by_metric[name].append(values)
            q1, med, q3 = quartiles(values)
            print(f"{name:30} {i + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread(values):>8.2%}")
    return by_metric


def aa(args, spec):
    specs = metric_specs(spec, args.trace)
    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            results.append(run_once(args.base, args.workload, seed, args.seconds, args.trace))
            print(f"set {s + 1} run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)
        sets.append(results)
    by_metric = table(sets, specs)
    if args.trace:
        return sets, True
    ok = True
    print()
    for name, m in specs.items():
        bound = m["bound"]
        spreads = [spread(v) for v in by_metric[name]]
        medians = [statistics.median(v) for v in by_metric[name]]
        # In an A/A comparison either set could have come first, so the
        # medians must agree in both directions.
        drifts = [worse_by(medians[0], med, m["better"]) for med in medians[1:]]
        drift = max(drifts, key=abs) if drifts else 0.0
        verdict = "ok" if max(spreads) <= bound and abs(drift) <= bound else "FAIL"
        ok &= verdict == "ok"
        margin = "" if max(spreads) < bound / 3 else "  (spread above a third of the bound)"
        print(f"{verdict:4} {name:16} bound {bound:.0%}  max spread {max(spreads):.2%}  "
              f"second-median drift {drift:+.2%} (worse when positive){margin}")
    return sets, ok


def ab(args, spec):
    specs = metric_specs(spec, args.trace)
    base, change = [], []
    for i in range(args.runs):
        seed = args.seed_base + i
        order = [(args.base, base), (args.change, change)]
        if i % 2 == 1:
            order.reverse()
        for root, out in order:
            out.append(run_once(root, args.workload, seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)
    table([base, change], specs)
    print()
    print(f"{'metric':30} {'base med':>12} {'change med':>12} {'change':>9} {'wins':>6} {'base IQR':>12}")
    for name, m in specs.items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        better = m.get("better", "lower")
        wins = sum(1 for x, y in zip(b, c) if (y > x if better == "higher" else y < x))
        ties = sum(1 for x, y in zip(b, c) if x == y)
        q1, bmed, q3 = quartiles(b)
        cmed = statistics.median(c)
        rel = (cmed - bmed) / bmed if bmed else 0.0
        print(f"{name:30} {bmed:>12.6g} {cmed:>12.6g} {rel:>+9.2%} {wins:>3}/{len(b) - ties:<2} {q3 - q1:>12.6g}")
    return [base, change], True


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, help="A/A sets of --runs runs (single checkout)")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--base", default=ROOT, help="checkout to measure (the parent in A/B)")
    p.add_argument("--change", default=None, help="second checkout: alternate with --base in pairs")
    p.add_argument("--json", default=None, help="write every result object here")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sets, ok = ab(args, spec) if args.change else aa(args, spec)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "sets": sets}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
