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
commit, while the file still lands here.  A delta between two files is a
pair of medians taken at different times, so it includes machine drift;
it is not a claim.

``--parent REV`` also measures the commit REV of the checkout's repository,
checked out with ``git worktree add`` into a temporary directory that is
removed afterwards.  For each seed and workload it runs the unchanged
``perfbench/run.py`` of REV, with ``--trace 0`` only, right before (odd
seeds) or after (even seeds) the checkout's own ``--trace 0`` run, and
writes a ``paired`` key: per workload and end-to-end metric, both medians,
the parent IQR, the median of the per-pair ratios change/parent and the
number of pairs in which the change is better.  Gains are decided by these
pairs (see ROADMAP.md, Standing rules).

    python3 tools/bench.py --pr 27 --seeds 10 --parent HEAD~
"""

import argparse
import contextlib
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
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


def measure(checkout: Path, seeds: int, seconds: float, parent: Path | None = None) -> dict:
    """Per workload, one run per seed of each kind: "trace0" and "trace1" of the
    checkout and, given a parent checkout, "parent" at --trace 0.  A seed's
    parent run comes right before (odd seed) or after (even seed) its "trace0"."""
    runs = {}
    for workload in WORKLOADS:
        found = runs[workload] = {"trace0": [], "trace1": [], "parent": []}
        for seed in range(1, seeds + 1):
            pair = [("trace0", checkout, 0)] + ([("parent", parent, 0)] if parent else [])
            if seed % 2:
                pair.reverse()
            for kind, tree, trace in pair + [("trace1", checkout, 1)]:
                run = run_perfbench(tree, workload, seed, seconds, trace)
                found[kind].append(run)
                print(f"{workload} seed {seed} {kind}: correct={run['correct']}",
                      file=sys.stderr, flush=True)
    return runs


def paired(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the parent and change runs paired by position; better names,
    per metric, the direction that is better: "lower" (the default) or "higher"."""
    out = {}
    for name, metric in change[0]["metrics"].items():
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change, strict=True)]
        sign = -1 if better.get(name) == "higher" else 1
        out[name] = {
            "parent_median": statistics.median(p for p, _ in pairs),
            "change_median": statistics.median(c for _, c in pairs),
            "parent_iqr": quartiles([p for p, _ in pairs])["iqr"],
            "ratio_median": statistics.median(c / p for p, c in pairs),
            "pairs_better": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
            "unit": metric["unit"],
        }
    return out


@contextlib.contextmanager
def worktree(repo: Path, rev: str):
    """The commit rev of repo's repository, checked out in a temporary directory."""

    def git(*args: str) -> None:
        subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        path = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git("worktree", "remove", "--force", str(path))


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
    print(f"delta BENCH_{old['pr']} -> BENCH_{new['pr']} "
          "(medians, includes machine drift; old IQR in brackets)")
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


def print_paired(bench: dict) -> None:
    print(f"paired {bench['parent']['rev']} ({bench['parent']['commit'][:10]}) -> change, "
          f"{len(bench['seeds'])} pairs (medians; parent IQR in brackets)")
    for workload, metrics in bench["paired"].items():
        for name, m in metrics.items():
            print(f"  {workload} {name} {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                  f"{m['unit']} (ratio {m['ratio_median']:.3f}, {m['pairs_better']} of "
                  f"{m['pairs']} better) [{m['parent_iqr']:.3g}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--parent", metavar="REV", help="also run this commit, in pairs")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    with worktree(checkout, args.parent) if args.parent else contextlib.nullcontext() as parent:
        runs = measure(checkout, args.seeds, seconds, parent)
        parent_commit = git_state(parent)["commit"] if parent else None
    workloads = {}
    for workload, found in runs.items():
        everything = found["trace0"] + found["trace1"]
        workloads[workload] = {
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "end_to_end": summarize(found["trace0"]),
            "per_layer": summarize(found["trace1"]),
        }
    facts = runs[WORKLOADS[0]]["trace0"][0]["facts"]
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
    if parent:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bench["parent"] = {
            "rev": args.parent,
            "commit": parent_commit,
            "correct": all(r["correct"] for found in runs.values() for r in found["parent"]),
        }
        bench["paired"] = {
            workload: paired(found["parent"], found["trace0"], better)
            for workload, found in runs.items()
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if parent:
        print_paired(bench)
    old = previous_bench(args.pr)
    if old is not None:
        print_delta(old, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
