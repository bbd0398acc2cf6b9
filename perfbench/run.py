"""gtprobe benchmark: one workload, timed in units of a reference kernel.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run

1. times several cold starts (fresh interpreter to ready: ``import
   gtprobe.cli`` plus the workload's first call) in child processes;
2. makes one untimed warm-up pass over the workload's ops;
3. repeats timed passes for ``--seconds``, running the reference kernel
   right before and right after every op, and calling ``gc.collect()``
   before each pass;
4. checks every op's output (see ``workloads.py``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics
(see ``tracing.py``).  The last stdout line is the JSON result; the line
before it holds the run facts.  Raw samples and spans go to
``.perfbench/`` in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
COLD_STARTS = 7  # timed, after one untimed start that fills the file and .pyc caches
REF_REPS = 3  # reference-kernel calls between two ops
MIN_PASSES = 2  # timed passes per run, even when one pass outlasts --seconds
MC_TARGET_STDERR = 1e-3
CHILD_TIMEOUT_S = 120


def _median(values):
    return statistics.median(values) if values else 0.0


def run_facts() -> dict:
    """Machine and toolchain facts; reported, never gated."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "gtprobe").glob("*.py"))
        ),
    }


def cold_starts(workload: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for k in range(COLD_STARTS + 1):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        record = json.loads(child.stdout.splitlines()[-1])
        record["setup_s"] = record["ready"] - spawned
        if k:
            out.append(record)
    return out


class Tally:
    """Ops attempted and failed, with the first failures' reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, op, result, error) -> dict:
        from workloads import OpFailure

        self.attempted += 1
        if error is None:
            try:
                return op.check(result)
            except OpFailure as exc:
                error = f"wrong output: {exc}"
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                # the output does not even have the expected shape
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.label}: {error}", file=sys.stderr)
        return {}


def call(op):
    """Run one op; an exception is the op's failure, not the benchmark's."""
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # noqa: BLE001 - any raise fails the op
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def timed_pass(ops, kernel, tally, tracer=None) -> dict:
    """One pass, with the reference kernel right before and right after every op."""
    gc.collect()
    first_span = tracer.mark() if tracer else 0
    refs = [kernel.run() for _ in range(REF_REPS)]
    samples = []
    for op in ops:
        if tracer:
            tracer.op += 1
        seconds, result, error = call(op)
        after = [kernel.run() for _ in range(REF_REPS)]
        samples.append((op, seconds, refs + after, result, error))
        refs = after
    record = {
        "traced": tracer is not None,
        "layers": tracer.pass_metrics(first_span) if tracer else {},
        "ops": [],
        "stdout_bytes": 0,
    }
    for op, seconds, refs, result, error in samples:
        facts = tally.check(op, result, error)
        record["ops"].append({"op": op.label, "s": seconds, "refs": refs, **facts})
        if op.cli and result is not None:
            record["stdout_bytes"] += len(result[1].encode())
    return record


def measure(ops, kernel, tally, seconds: float, tracer=None) -> list[dict]:
    """Timed passes for ``seconds``; with a tracer, every second pass is traced."""
    passes = []
    window = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        begun = time.perf_counter()
        try:
            passes.append(timed_pass(ops, kernel, tally, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - window + (now - begun) > seconds:
            return passes


def reference_s(passes, parts) -> float:
    """Median over the run of the reference unit: the summed time of the
    kernel parts that match the workload.

    The samples are interleaved with the ops all through the run, so they
    track the machine's speed over it; the median ignores the odd slow call.
    """
    samples = [r for p in passes for o in p["ops"] for r in o["refs"]]
    return _median([sum(r[part] for part in parts) for r in samples])


def in_ref_units(passes, parts) -> list[float]:
    """Each op's median time over the passes, in reference units."""
    ref = reference_s(passes, parts)
    count = len(passes[0]["ops"])
    return [_median([p["ops"][k]["s"] for p in passes]) / ref for k in range(count)]


def end_to_end(cold, passes, parts) -> dict:
    return {
        "setup_s": (_median([c["setup_s"] for c in cold]), "s"),
        "setup_ref": (_median([c["setup_s"] / c["ref_s"] for c in cold]), "ref"),
        "wall_ref": (sum(in_ref_units(passes, parts)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(cold, passes, parts) -> dict:
    from tracing import unit_of
    from workloads import MC_KEYS

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {
        name: (_median([p["layers"][name] for p in traced]), unit_of(name))
        for name in traced[0]["layers"]
    }
    mc_ops = [(k, o) for k, o in enumerate(plain[0]["ops"]) if "mc_stderr" in o]
    stderr = {o["mc_key"]: o["mc_stderr"] for _, o in mc_ops}
    for key in MC_KEYS:
        metrics[f"simulator.mc_stderr.{key}"] = (stderr.get(key, 0.0), "1")
    op_ref = in_ref_units(plain, parts)
    tta = sum(op_ref[k] * (o["mc_stderr"] / MC_TARGET_STDERR) ** 2 for k, o in mc_ops)
    metrics["simulator.mc_tta_ref"] = (tta, "ref")
    metrics["cli.stdout_bytes"] = (_median([p["stdout_bytes"] for p in traced]), "bytes")
    metrics["setup.import_s"] = (_median([c["import_s"] for c in cold]), "s")
    metrics["setup.first_call_s"] = (_median([c["first_call_s"] for c in cold]), "s")
    metrics["bench.pass_s"] = (_median([sum(o["s"] for o in p["ops"]) for p in plain]), "s")
    metrics["bench.ref_s"] = (reference_s(plain, parts), "s")
    overhead = sum(in_ref_units(traced, parts)) / sum(op_ref)
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gtprobe" / "__init__.py").is_file():
        print(f"error: no gtprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gtprobe

    if Path(gtprobe.__file__).resolve().parent != SRC / "gtprobe":
        print(f"error: imported gtprobe from {gtprobe.__file__}", file=sys.stderr)
        return 2
    from refkernel import ReferenceKernel
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    facts = run_facts()
    print(json.dumps({"facts": facts}), flush=True)

    cold = cold_starts(workload.name)
    kernel = ReferenceKernel()
    ops = workload.ops(args.seed)
    tally = Tally()
    workload.first_call()
    for op in ops:  # warm-up: lazy set-up and caches land here, not in the passes
        tally.check(op, *call(op)[1:])
    tracer = Tracer() if args.trace else None
    passes = measure(ops, kernel, tally, args.seconds, tracer)

    parts = workload.reference
    metrics = per_layer(cold, passes, parts) if args.trace else end_to_end(cold, passes, parts)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    raw = {"facts": facts, "cold_starts": cold, "passes": passes, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.spans.tsv.gz")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
