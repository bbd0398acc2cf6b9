"""Per-layer tracing by wrapping gtprobe's public functions from outside.

The program itself carries no spans yet, so the tracer replaces every
binding of each public function of ``young``, ``coeffs``, ``fidelity``,
``simulator`` and ``cli`` (modules import some of them by name, e.g.
``weyl_dimension``) and ``CoeffTable.build`` on its class.  Each call
records a span (name, start, end, parent, op id) in memory; the spans are
reduced to per-layer metrics after each pass and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict

from workloads import MC_KEYS

# Leaf helpers called once per row or box inside the functions above;
# wrapping them would make the tracer, not the program, the hot path.
UNWRAPPED = {"young.row", "young.as_diagram"}
# Calls whose arguments the metrics need.
RECORD_ARGS = {"coeffs.CoeffTable.build", "simulator.mc_estimates"}
EXACT_FIDELITY = {
    "fidelity.expected_fidelity",
    "fidelity.infidelity_sum_form",
    "fidelity.closed_form_infidelity",
    "fidelity.bound_ratio",
}


def unit_of(name: str) -> str:
    """Unit of a metric from ``Tracer.pass_metrics``."""
    if ".mc_us_per_sample." in name:
        return "us"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Installs span-recording wrappers into the gtprobe modules."""

    def __init__(self) -> None:
        import gtprobe
        from gtprobe import cli, coeffs, fidelity, simulator, young

        self.modules = {"young": young, "coeffs": coeffs, "fidelity": fidelity,
                        "simulator": simulator, "cli": cli}
        self._namespaces = [gtprobe, *self.modules.values()]
        self.spans: list[tuple] = []
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, record = self.spans, self._stack, name in RECORD_ARGS
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer:  # count each error once, where it leaves the layer
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                args if record else None)

        return traced

    def install(self) -> None:
        from gtprobe.coeffs import CoeffTable

        wrapped = {}
        for layer, module in self.modules.items():
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrapped[id(fn)] = self._wrap(name, fn)
        for namespace in self._namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[id(value)])
        build = inspect.getattr_static(CoeffTable, "build")
        self._saved.append((CoeffTable, "build", build))
        CoeffTable.build = classmethod(self._wrap("coeffs.CoeffTable.build", build.__func__))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            setattr(namespace, attr, value)
        self._saved.clear()

    def mark(self) -> int:
        """Start a pass: returns the index of its first span."""
        self.errors.clear()
        return len(self.spans)

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``mark()`` gave first."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        layer_self: defaultdict[str, float] = defaultdict(float)
        builds, mc = set(), defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _, _, args) in enumerate(spans):
            duration = end - start
            total[name] += duration
            own[name] += duration - child_time[k]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += duration - child_time[k]
            if name == "coeffs.CoeffTable.build":
                builds.add(args)
            elif name == "simulator.mc_estimates":
                d, n, samples = args[:3]
                mc[f"d{d}n{n}"][0] += samples
                mc[f"d{d}n{n}"][1] += duration
        out = {
            "young.weyl_calls": calls["young.weyl_dimension"],
            "young.weyl_s": total["young.weyl_dimension"],
            "young.branching_s": total["young.branching_restrictions"],
            "coeffs.build_calls": calls["coeffs.CoeffTable.build"],
            "coeffs.build_distinct": len(builds),
            "coeffs.build_s": total["coeffs.CoeffTable.build"],
            "coeffs.dim_ratio_s": total["coeffs.dim_ratio_check"],
            "coeffs.cg_add_box_s": total["coeffs.cg_add_box"],
            "fidelity.report_s": total["fidelity.fidelity_report"],
            "fidelity.optimizer_self_s": own["fidelity.optimal_probe"],
            "fidelity.exact_self_s": sum(own[name] for name in EXACT_FIDELITY),
            "fidelity.amp_check_s": total["fidelity.amplitude_reduction_check"],
            "simulator.extract_calls": calls["simulator.extract_gt_vectors"],
            "simulator.extract_s": total["simulator.extract_gt_vectors"],
            "simulator.cg_calls": calls["simulator.verify_cg_embedding"],
            "simulator.cg_s": total["simulator.verify_cg_embedding"],
            "simulator.errors": self.errors["simulator"],
            "simulator.mc_samples": sum(v[0] for v in mc.values()),
            "simulator.mc_s": total["simulator.mc_estimates"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": layer_self["cli"],
        }
        for key in MC_KEYS:
            samples, seconds = mc.get(key, (0, 0.0))
            out[f"simulator.mc_us_per_sample.{key}"] = 1e6 * seconds / samples if samples else 0.0
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
