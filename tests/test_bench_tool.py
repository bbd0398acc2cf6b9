"""tools/bench.py: the per-module src/ line counts and their delta."""

import importlib.util
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
