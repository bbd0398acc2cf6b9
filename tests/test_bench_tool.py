"""tools/bench.py: the per-module src/ line counts and their delta, and the
parent/change pairs of --parent on a stand-in perfbench."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

import gtprobe

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _bench_file(pr, src_lines, by_module=None):
    tier1 = {"seconds": 1.0, "passed": 1, "failed": 0}
    out = {"pr": pr, "src_lines": src_lines, "tier1": tier1, "workloads": {}}
    return out if by_module is None else {**out, "src_lines_by_module": by_module}


def test_src_lines_by_module_counts_every_module():
    counts = bench.src_lines_by_module(ROOT)
    modules = sorted(Path(gtprobe.__file__).resolve().parent.glob("*.py"))
    assert list(counts) == [path.name for path in modules]
    assert sum(counts.values()) == sum(len(p.read_text().splitlines()) for p in modules)


def test_print_delta_per_module(capsys):
    old = _bench_file(1, 30, {"a.py": 10, "b.py": 20})
    new = _bench_file(2, 28, {"a.py": 13, "c.py": 15})
    bench.print_delta(old, new)
    out = capsys.readouterr().out.splitlines()
    assert out[1:5] == [
        "  src_lines 30 -> 28",
        "    a.py 10 -> 13 (+3)",
        "    b.py 20 -> 0 (-20)",
        "    c.py 0 -> 15 (+15)",
    ]


def test_print_delta_skips_files_without_module_counts(capsys):
    bench.print_delta(_bench_file(1, 30), _bench_file(2, 28, {"a.py": 28}))
    assert "a.py" not in capsys.readouterr().out


def test_tier1_counts_past_a_module_that_fails_to_collect(tmp_path):
    # The ROADMAP's tier-1 command reports "1 passed, 1 error" on this suite.
    (tmp_path / "test_ok.py").write_text("def test_ok():\n    pass\n")
    (tmp_path / "test_broken.py").write_text("import no_such_module_anywhere\n")
    result = bench.tier1(tmp_path)
    assert (result["passed"], result["failed"]) == (1, 1)


def _raw_file(path, seconds):
    """A perfbench raw-sample file whose passes took, op by op, the given seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"passes": [{"ops": [{"s": s} for s in p]} for p in seconds]}))
    return path


def test_raw_seconds_sums_the_median_of_each_op(tmp_path):
    # op medians 2.0, 10.0 and 0.5 over three passes; the slowest pass is not the sum's
    passes = [[1.0, 10.0, 0.5], [2.0, 30.0, 0.5], [3.0, 9.0, 0.4]]
    assert bench.raw_seconds(_raw_file(tmp_path / "run.json", passes)) == 12.5
    # an even number of passes takes the mean of the middle two
    assert bench.raw_seconds(_raw_file(tmp_path / "two.json", [[1.0], [2.0]])) == 1.5


def test_print_paired_shows_raw_seconds(capsys):
    pair = {"parent_median": 2.0, "change_median": 1.5, "parent_iqr": 0.1, "ratio_median": 0.75,
            "pairs_better": 9, "pairs": 10}
    paired = {"sweep": {"wall_ref": {**pair, "unit": "ref"}, "raw_s": {**pair, "unit": "s"}}}
    bench.print_paired({"parent": {"rev": "HEAD~", "commit": "0" * 40}, "seeds": [1] * 10,
                        "paired": paired}, {})
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "  sweep raw_s 2 -> 1.5 s (ratio 0.750, 9 of 10 better) [0.1] gain"


@pytest.mark.parametrize(
    "parent,change,iqr,better_pairs,better,rule",
    [
        (2.0, 1.5, 0.1, 9, "lower", "gain"),
        (2.0, 1.5, 0.1, 8, "lower", "unclear"),  # the better way, but in too few pairs
        (2.0, 1.5, 0.5, 10, "lower", "noise"),  # a move of exactly the parent IQR
        (2.0, 2.5, 0.1, 0, "lower", "worse"),
        (2.0, 2.5, 0.1, 9, "higher", "gain"),
        (2.0, 1.5, 0.1, 1, "higher", "worse"),
        (2.0, 2.0, 0.0, 5, "lower", "noise"),
    ],
)
def test_print_paired_ends_each_line_with_its_rule(capsys, parent, change, iqr, better_pairs,
                                                  better, rule):
    pair = {"parent_median": parent, "change_median": change, "parent_iqr": iqr,
            "ratio_median": change / parent, "pairs_better": better_pairs, "pairs": 10,
            "unit": "ref"}
    bench.print_paired({"parent": {"rev": "HEAD~", "commit": "0" * 40}, "seeds": [1] * 10,
                        "paired": {"sweep": {"wall_ref": pair}}}, {"wall_ref": better})
    line = capsys.readouterr().out.splitlines()[1]
    assert line.endswith(f"better) [{iqr:.3g}] {rule}"), line


# A perfbench stand-in: it logs each run and reports wall_ref = BASE + seed, or
# WORSE at seed 3, and a fixed peak_rss_mb; the tree's SIDE names the checkout.
# Its raw-sample file has three passes of two ops, of medians wall + 1 and 1.0 s.
STUB = """\
import argparse, json, os
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
SIDE, BASE, WORSE = {side!r}, {base!r}, {worse!r}
with open({log!r}, "a") as log:
    log.write(f"{{SIDE}} {{a.workload}} {{a.seed}} {{a.trace}}\\n")
wall = WORSE if a.seed == "3" and WORSE else BASE + int(a.seed)
seconds = ((wall, 1.0), (wall + 2, 1.0), (wall + 1, 3.0))
passes = [{{"ops": [{{"s": s}}, {{"s": r}}]}} for s, r in seconds]
os.makedirs(".perfbench", exist_ok=True)
with open(f".perfbench/{{a.workload}}-seed{{a.seed}}-trace{{a.trace}}.json", "w") as raw:
    json.dump({{"passes": passes}}, raw)
metrics = {{"wall_ref": {{"value": wall, "unit": "ref"}},
           "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}
print(json.dumps({{"facts": {{"src_lines": 1}}}}))
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}))
"""


def _git(repo, *args):
    argv = ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args]
    return subprocess.run(argv, cwd=repo, check=True, capture_output=True, text=True).stdout


def test_parent_runs_pair_with_the_checkout_in_alternating_order(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "log"
    (repo / "perfbench").mkdir(parents=True)
    run_py = repo / "perfbench" / "run.py"
    run_py.write_text(STUB.format(side="parent", base=10.0, worse=None, log=str(log)))
    (repo / "src").mkdir()
    (repo / "BENCHMARK.json").write_text("{}\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    # The change, uncommitted: faster at every seed but seed 3.
    run_py.write_text(STUB.format(side="change", base=8.0, worse=20.0, log=str(log)))

    with bench.trees(repo, "HEAD") as (change, parent):
        # Both sides run from sibling directories, so neither runs from the checkout.
        assert change.parent == parent.parent
        assert (change / "BENCHMARK.json").exists() and (change / "src").is_dir()
        runs = bench.measure(change, 4, 0.0, parent)
    assert not parent.exists() and not change.exists()
    assert not (repo / ".perfbench").exists()
    assert _git(repo, "worktree", "list").count("\n") == 1

    sweep = [line.split() for line in log.read_text().splitlines() if " sweep " in line]
    order = [(side, int(seed), int(trace)) for side, _, seed, trace in sweep]
    assert order == [
        ("parent", 1, 0), ("change", 1, 0), ("change", 1, 1),
        ("change", 2, 0), ("parent", 2, 0), ("change", 2, 1),
        ("parent", 3, 0), ("change", 3, 0), ("change", 3, 1),
        ("change", 4, 0), ("parent", 4, 0), ("change", 4, 1),
    ]
    assert list(runs) == list(bench.WORKLOADS)
    assert [len(runs["sweep"][kind]) for kind in ("trace0", "trace1", "parent")] == [4, 4, 4]

    got = bench.paired(runs["sweep"]["parent"], runs["sweep"]["trace0"], {"wall_ref": "lower"})
    wall, rss = got["wall_ref"], got["peak_rss_mb"]
    # parent 11, 12, 13, 14; change 9, 10, 20, 12
    assert wall["parent_median"] == 12.5 and wall["change_median"] == 11.0
    assert wall["parent_iqr"] == 1.5
    assert wall["ratio_median"] == (10 / 12 + 12 / 14) / 2
    assert (wall["pairs_better"], wall["pairs"], wall["unit"]) == (3, 4, "ref")
    assert (rss["ratio_median"], rss["pairs_better"]) == (1.0, 0)
    # raw_s is wall + 2 in every run at --trace 0, read before the parent worktree went
    raw = got["raw_s"]
    assert [r["metrics"]["raw_s"]["value"] for r in runs["sweep"]["parent"]] == [13, 14, 15, 16]
    assert (raw["parent_median"], raw["change_median"], raw["pairs_better"]) == (14.5, 13.0, 3)
    assert raw["unit"] == "s"
    assert all("raw_s" not in r["metrics"] for r in runs["sweep"]["trace1"])


def test_paired_counts_higher_is_better():
    def run(value):
        return {"metrics": {"samples": {"value": value, "unit": "count"}}}

    got = bench.paired([run(10), run(10)], [run(12), run(9)], {"samples": "higher"})
    assert got["samples"]["pairs_better"] == 1
