"""Write BENCH_<pr>.json: perfbench medians and IQRs, src/ line counts, tier-1 time.

    python3 tools/bench.py --pr 19 --seeds 3

For each seed and each of the four workloads it runs ``perfbench/run.py``
of the measured checkout, unchanged, once with ``--trace 0`` (end-to-end
metrics) and once with ``--trace 1`` (per-layer metrics), for the
``run_seconds`` of ``BENCHMARK.json``.  It then times the checkout's tier-1
suite, writes the medians and interquartile ranges to ``BENCH_<pr>.json``
at the root of this repository, with perfbench's ``src_lines`` and
``src_lines_by_module``, the same count per module of ``src/gtprobe``, and
prints the delta against the newest ``BENCH_*.json`` of an earlier PR
there.  The file records the checkout's HEAD commit and, when ``src``,
``tests`` or ``perfbench`` differ from it, ``dirty: true`` and
``diff_sha256``, the sha256 of ``git diff HEAD -- src tests perfbench``, so
a file measured on a working tree names the tree and not only its parent
commit.

``--checkout`` measures another tree, such as a clean clone of a parent
commit, while the file still lands here.  A delta is a pair of medians,
not a claim: gains are decided by alternating parent/change pairs (see
ROADMAP.md, Standing rules).
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "verify", "simulate", "extract")


def quartiles(values: list[float]) -> dict:
    """Median and interquartile range; the IQR of fewer than two values is 0."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1, "n": len(values)}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return {"facts": json.loads(lines[-2])["facts"], **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """Per metric, the quartiles of its values over the runs."""
    names = runs[0]["metrics"]
    return {
        name: {
            **quartiles([r["metrics"][name]["value"] for r in runs]),
            "unit": runs[0]["metrics"][name]["unit"],
        }
        for name in names
    }


def tier1(checkout: Path) -> dict:
    """Wall time and pass/fail counts of the checkout's test suite."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
    return {"seconds": seconds, "passed": counts.get("passed", 0), "failed": failed}


def src_lines_by_module(checkout: Path) -> dict:
    """Lines of each module of src/gtprobe, counted as perfbench counts src_lines."""
    return {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((checkout / "src" / "gtprobe").glob("*.py"))
    }


def git_state(checkout: Path) -> dict:
    """HEAD of the checkout, whether src/, tests/ or perfbench/ differ from it,
    and, if they do, the sha256 of their diff against HEAD (untracked files
    mark the tree dirty but are not in the hash)."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    paths = ("--", "src", "tests", "perfbench")
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return {"commit": None, "dirty": None, "diff_sha256": None}
    dirty = bool(git("status", "--porcelain", *paths).stdout.strip())
    diff = git("diff", "HEAD", *paths).stdout if dirty else None
    digest = None if diff is None else hashlib.sha256(diff.encode()).hexdigest()
    return {"commit": head.stdout.strip(), "dirty": dirty, "diff_sha256": digest}


def previous_bench(pr: int) -> dict | None:
    """The BENCH_<k>.json with the largest k below pr, if any."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match[1]) < pr:
            found.append((int(match[1]), path))
    return json.loads(max(found)[1].read_text()) if found else None


def print_delta(old: dict, new: dict) -> None:
    print(f"delta BENCH_{old['pr']} -> BENCH_{new['pr']} (medians; old IQR in brackets)")
    print(f"  src_lines {old['src_lines']} -> {new['src_lines']}")
    old_modules, new_modules = old.get("src_lines_by_module"), new.get("src_lines_by_module")
    if old_modules and new_modules:  # files written before the key existed lack it
        for module in sorted(old_modules.keys() | new_modules.keys()):
            was, now = old_modules.get(module, 0), new_modules.get(module, 0)
            print(f"    {module} {was} -> {now} ({now - was:+d})")
    print(f"  tier1 {old['tier1']['seconds']:.1f} s -> {new['tier1']['seconds']:.1f} s "
          f"({old['tier1']['passed']} -> {new['tier1']['passed']} passed)")
    for workload, metrics in new["workloads"].items():
        before = old["workloads"].get(workload, {})
        for kind in ("end_to_end", "per_layer"):
            for name, now in metrics[kind].items():
                was = before.get(kind, {}).get(name)
                if was is None or was["median"] == now["median"] == 0:
                    continue
                change = (f"{100 * (now['median'] / was['median'] - 1):+.1f}%"
                          if was["median"] else "n/a")
                print(f"  {workload} {name} {was['median']:.4g} -> {now['median']:.4g} "
                      f"{now['unit']} ({change}) [{was['iqr']:.3g}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    workloads = {}
    facts = None
    for workload in WORKLOADS:
        runs = {0: [], 1: []}
        for seed in range(1, args.seeds + 1):
            for trace in (0, 1):
                run = run_perfbench(checkout, workload, seed, seconds, trace)
                facts = facts or run["facts"]
                runs[trace].append(run)
                print(f"{workload} seed {seed} trace {trace}: correct={run['correct']}",
                      file=sys.stderr, flush=True)
        everything = runs[0] + runs[1]
        workloads[workload] = {
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "end_to_end": summarize(runs[0]),
            "per_layer": summarize(runs[1]),
        }
    bench = {
        "pr": args.pr,
        **git_state(checkout),
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": seconds,
        "facts": facts,
        "src_lines": facts["src_lines"],
        "src_lines_by_module": src_lines_by_module(checkout),
        "tier1": tier1(checkout),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    old = previous_bench(args.pr)
    if old is not None:
        print_delta(old, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
