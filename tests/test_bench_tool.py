"""tools/bench.py: the per-module src/ line counts and their delta, and the
parent/change pairs of --parent on a stand-in perfbench."""

import importlib.util
import subprocess
from pathlib import Path

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


# A perfbench stand-in: it logs each run and reports wall_ref = BASE + seed, or
# WORSE at seed 3, and a fixed peak_rss_mb; the tree's SIDE names the checkout.
STUB = """\
import argparse, json
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
SIDE, BASE, WORSE = {side!r}, {base!r}, {worse!r}
with open({log!r}, "a") as log:
    log.write(f"{{SIDE}} {{a.workload}} {{a.seed}} {{a.trace}}\\n")
wall = WORSE if a.seed == "3" and WORSE else BASE + int(a.seed)
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
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    # The change, uncommitted: faster at every seed but seed 3.
    run_py.write_text(STUB.format(side="change", base=8.0, worse=20.0, log=str(log)))

    with bench.worktree(repo, "HEAD") as parent:
        runs = bench.measure(repo, 4, 0.0, parent)
    assert not parent.exists()
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


def test_paired_counts_higher_is_better():
    def run(value):
        return {"metrics": {"samples": {"value": value, "unit": "count"}}}

    got = bench.paired([run(10), run(10)], [run(12), run(9)], {"samples": "higher"})
    assert got["samples"]["pairs_better"] == 1
