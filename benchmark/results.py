#!/usr/bin/env python3
"""Summarize and compare sets of benchmark runs.

  results.py summarize RUNS.jsonl --host JSON --out FILE [--seconds S] [--smoke 0|1]
      Collects the per-run result lines run.sh gathered into one results
      document, prints every metric (median and IQR over the set) by
      workload, name and unit, and exits 1 if any run was incorrect.

  results.py compare A.json B.json
      For each workload and metric, prints both sets' median and IQR.
      An end-to-end metric FAILS when the medians differ by more than its
      bound in BENCHMARK.json, and is "unresolved" when either set's IQR,
      as a share of its median, is wider than the bound. Exits 1 when any
      end-to-end metric failed or is unresolved, or when either set holds
      an incorrect run. Per-layer metrics have no bound and are printed
      for reference only.
"""
import argparse
import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def median_and_spread(values):
    """Median and (Q3 - Q1) / median, quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def collect(doc):
    """{(workload, metric): [values]} over every run of a results doc."""
    out = {}
    for run in doc["runs"]:
        for name, m in run["result"].get("metrics", {}).items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def summarize(args):
    spec = load_spec()
    with open(args.runs) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    doc = {"host": json.loads(args.host), "seconds": args.seconds,
           "smoke": bool(args.smoke), "runs": runs}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
    values = collect(doc)
    print(f"{'workload':<14} {'metric':<46} {'median':>14} {'IQR%':>7} "
          f"{'n':>3}  unit")
    for w in spec["workloads"]:
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                v = values.get((w["name"], m["name"]))
                if not v:
                    continue
                med, spread = median_and_spread(v)
                print(f"{w['name']:<14} {m['name']:<46} {med:>14.6g} "
                      f"{spread * 100:>7.2f} {len(v):>3}  {m['unit']}")
    bad = incorrect_runs(doc, args.out)
    print(f"results: {args.out}")
    return 1 if bad else 0


def incorrect_runs(doc, label):
    """Prints and returns the runs of a results doc that failed a check."""
    bad = [r for r in doc["runs"] if not r["result"].get("correct")]
    for r in bad:
        print(f"INCORRECT: {label} {r['workload']} set {r['set']} "
              f"seed {r['seed']} trace {r['trace']}", file=sys.stderr)
    return bad


def compare(args):
    spec = load_spec()
    docs = []
    failed = False
    for path in (args.a, args.b):
        with open(path) as f:
            doc = json.load(f)
        failed = bool(incorrect_runs(doc, path)) or failed
        docs.append(collect(doc))
    print(f"{'workload':<14} {'metric':<44} {'median A':>12} {'IQR%':>6} "
          f"{'median B':>12} {'IQR%':>6} {'diff%':>8} {'bound%':>7}  verdict")
    for w in spec["workloads"]:
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                key = (w["name"], m["name"])
                if key not in docs[0] or key not in docs[1]:
                    continue
                ma, sa = median_and_spread(docs[0][key])
                mb, sb = median_and_spread(docs[1][key])
                diff = (mb - ma) / ma if ma else (0.0 if mb == 0 else float("inf"))
                bound = m.get("bound")
                if bound is None:
                    verdict, bound_txt = "info", "-"
                else:
                    bound_txt = f"{bound * 100:.2f}"
                    worse = diff > 0 if m["better"] == "lower" else diff < 0
                    if abs(diff) > bound:
                        verdict = "FAIL (worse)" if worse else "FAIL (better)"
                        failed = True
                    elif max(sa, sb) > bound:
                        verdict = "unresolved"
                        failed = True
                    else:
                        verdict = "ok"
                print(f"{w['name']:<14} {m['name']:<44} {ma:>12.6g} "
                      f"{sa * 100:>6.2f} {mb:>12.6g} {sb * 100:>6.2f} "
                      f"{diff * 100:>8.2f} {bound_txt:>7}  {verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("runs")
    s.add_argument("--host", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seconds", type=float, default=0.0)
    s.add_argument("--smoke", type=int, default=0)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    return summarize(args) if args.command == "summarize" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
