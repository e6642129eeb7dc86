"""Compare two sets of ledger results, metric by metric and workload by workload.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --pairs P1.json C1.json P2.json C2.json ...

``A`` is the parent (or first set), ``B`` the change.  Each argument is a
file written by ``run.py --out``, or ``FILE#KEY`` for one set inside a file
that holds several (``baseline.json#set_a``).  A set with several runs (one
per seed) contributes one value per run; a set with one run contributes that
run's own repeat samples.

For every workload and end-to-end metric of ``BENCHMARK.json`` the default
mode prints both medians and quartile ranges and a verdict:

``worse``         B's median is worse than A's by more than the bound;
``unresolved``    a quartile range wider than the bound, unless every B value
                  beats every A value (then ``better``);
``better``        B's median beats A's by more than A's own quartile range;
``within-bound``  otherwise.

It exits 1 on any ``worse``.  ``--pairs`` takes alternating parent/change
files, one run each, and applies the gain rule: the change wins at least
nine of every ten pairs (ties count for neither) and the medians differ by
more than the parent runs' quartile range.  It also exits 1 on any
metric whose change median is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from run import BENCHMARK, summarize


def load(spec: str) -> Dict[str, Any]:
    path, _, key = spec.partition("#")
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data[key] if key else data


def values(results: Dict[str, Any], workload: str, metric: str) -> List[float]:
    found = [run["workloads"][workload]["metrics"][metric]
             for run in results["runs"] if workload in run["workloads"]]
    if len(found) >= 2:
        return [m["value"] for m in found]
    if not found:
        return []
    return found[0].get("samples") or [found[0]["value"]]


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["value"]) if summary["value"] else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sa, sb = summarize(a), summarize(b)
    change = _worse_by(sa["value"], sb["value"], better)
    if max(_spread(sa), _spread(sb)) > bound:
        beats_all = all(_worse_by(x, y, better) < 0 for x in a for y in b)
        return "better" if beats_all else "unresolved"
    if change > bound:
        return "worse"
    if -change > _spread(sa):
        return "better"
    return "within-bound"


def _cell(summary: Dict[str, Any]) -> str:
    return f"{summary['value']:.5g} [{summary['q1']:.4g}, {summary['q3']:.4g}] n={summary['n']}"


def compare(a: Dict[str, Any], b: Dict[str, Any], metrics: List[Dict[str, Any]]) -> int:
    workloads = [w for w in a["runs"][0]["workloads"] if w in b["runs"][0]["workloads"]]
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<40} "
          f"{'B median [q1, q3]':<40} {'change':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in workloads:
        for metric in metrics:
            va, vb = values(a, workload, metric["name"]), values(b, workload, metric["name"])
            sa, sb = summarize(va), summarize(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            worse += result == "worse"
            change = _worse_by(sa["value"], sb["value"], metric["better"])
            print(f"{workload:<14} {metric['name']:<18} {_cell(sa):<40} {_cell(sb):<40} "
                  f"{-change:>+8.1%} {metric['bound']:>6.0%}  {result}")
    return 1 if worse else 0


def pairs(files: List[str], metrics: List[Dict[str, Any]]) -> int:
    sets = [load(spec) for spec in files]
    parents, changes = sets[0::2], sets[1::2]

    def run_value(results: Dict[str, Any], workload: str, metric: str) -> float:
        return summarize([run["workloads"][workload]["metrics"][metric]["value"]
                          for run in results["runs"]])["value"]

    workloads = list(parents[0]["runs"][0]["workloads"])
    print(f"{'workload':<14} {'metric':<18} {'parent median':>14} {'change median':>14} "
          f"{'wins':>7}  verdict")
    worse = 0
    for workload in workloads:
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            p = [run_value(s, workload, name) for s in parents]
            c = [run_value(s, workload, name) for s in changes]
            wins = sum(_worse_by(x, y, better) < 0 for x, y in zip(p, c))
            sp, sc = summarize(p), summarize(c)
            gain = wins >= 0.9 * len(p) and abs(sc["value"] - sp["value"]) > sp["q3"] - sp["q1"]
            regressed = _worse_by(sp["value"], sc["value"], better) > metric["bound"]
            worse += regressed
            result = "worse" if regressed else "gain" if gain else "no-gain"
            print(f"{workload:<14} {name:<18} {sp['value']:>14.5g} {sc['value']:>14.5g} "
                  f"{wins:>3}/{len(p):<3}  {result}")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", action="store_true",
                        help="FILES alternate parent and change runs")
    parser.add_argument("files", nargs="+", metavar="FILE[#KEY]")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    if args.pairs:
        if len(args.files) < 2 or len(args.files) % 2:
            parser.error("--pairs needs an even number of files")
        return pairs(args.files, metrics)
    if len(args.files) != 2:
        parser.error("give exactly two result sets, A and B")
    return compare(load(args.files[0]), load(args.files[1]), metrics)


if __name__ == "__main__":
    sys.exit(main())
