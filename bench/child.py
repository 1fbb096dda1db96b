"""One measured jder run, executed in a fresh single-threaded process.

Usage: python3 bench/child.py INSTANCE COMMAND OUT TRACE SPANS
       python3 bench/child.py --setup-only INSTANCE

Set-up is ``import jder.cli`` plus ``jder.cli.load_instance``; the run is
``jder.cli.main`` writing its report to OUT.  ``--setup-only`` measures
set-up alone.  With TRACE = 1 the public
functions of each layer are wrapped in ``perf_counter_ns`` spans with
parent links before set-up's ``load_instance`` and unwrapped after
``main`` returns; the spans are written to SPANS and summarised into
per-layer self times and counts.  The last line of stdout is one JSON
object with the measurements.
"""

import hashlib
import json
import os
import resource
import sys
import time

# (module, attribute) of every wrapped public function; the span name is
# "<layer>.<function>".  A function imported into several modules under the
# same name (kernel, check_map, build_ring, ...) is wrapped in all of them.
TRACED = (
    ("jder.cli", "load_instance"),
    ("jder.cli", "main"),
    ("jder.cli", "run"),
    ("jder.rings", "build_ring"),
    ("jder.incidence", "fi_ring"),
    ("jder.solver", "solve_derivations"),
    ("jder.solver", "solve_jordan_derivations"),
    ("jder.solver", "check_map"),
    ("jder.solver", "compare_spaces"),
    ("jder.zmodlin", "kernel"),
    ("jder.analysis", "identity_suite"),
)

SOLVE_KINDS = {
    "solver.solve_derivations": "der",
    "solver.solve_jordan_derivations": "jder",
}


def raw_rows(kind: str, k: int) -> int:
    """Constraint rows assembled before dedup for a rank-k ring (computed)."""
    if kind == "der":
        return k ** 3
    return k * (k + k * (k - 1) // 2 + k * k + k * k * (k - 1) // 2)


class Tracer:
    """Spans with parent links plus named counters, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start_ns, end_ns]
        self.stack = []
        self.counts = {"mul_calls": 0, "kernel_gens": 0, "identity_checks": 0,
                       "der_rows": 0, "jder_rows": 0, "der_raw": 0, "jder_raw": 0}
        self._undo = []

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), 0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if name == "zmodlin.kernel":
                counts["kernel_gens"] += len(result.generators)
                parent = spans[record[1]][0] if record[1] >= 0 else ""
                kind = SOLVE_KINDS.get(parent)
                if kind is not None:
                    counts[kind + "_rows"] += args[0].nrows
            elif name in SOLVE_KINDS:
                counts[SOLVE_KINDS[name] + "_raw"] += raw_rows(SOLVE_KINDS[name], args[0].rank)
            elif name == "analysis.identity_suite":
                counts["identity_checks"] += sum(o.checks for o in result.outcomes)
            return result

        return wrapper

    def install(self):
        from jder.rings import RingElement

        modules = [m for n, m in sys.modules.items() if n == "jder" or n.startswith("jder.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(f"{module_name.split('.')[1]}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

        original_mul = RingElement.__mul__
        counts = self.counts

        def counted_mul(a, b):
            counts["mul_calls"] += 1
            return original_mul(a, b)

        self._undo.append((RingElement, "__mul__", original_mul))
        RingElement.__mul__ = counted_mul

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def layers(self) -> dict:
        """Per-layer self times (span time minus child spans) and counts."""
        self_ns = [end - start for _, _, start, end in self.spans]
        calls = {}
        for name, parent, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                self_ns[parent] -= end - start
        by_name = {}
        for (name, _, _, _), ns in zip(self.spans, self_ns):
            by_name[name] = by_name.get(name, 0) + ns

        def seconds(*names):
            return sum(by_name.get(n, 0) for n in names) / 1e9

        c = self.counts
        raw = c["der_raw"] + c["jder_raw"]
        return {
            "cli.load_instance_s": seconds("cli.load_instance"),
            "cli.run_self_s": seconds("cli.run"),
            "cli.output_s": seconds("cli.main"),
            "rings.build_ring_s": seconds("rings.build_ring"),
            "rings.build_ring_calls": calls.get("rings.build_ring", 0),
            "rings.mul_calls": c["mul_calls"],
            "incidence.fi_ring_s": seconds("incidence.fi_ring"),
            "solver.assemble_s": seconds(*SOLVE_KINDS),
            "solver.der_rows": c["der_rows"],
            "solver.jder_rows": c["jder_rows"],
            "solver.rows_kept_ratio": (c["der_rows"] + c["jder_rows"]) / raw if raw else 0.0,
            "solver.check_map_s": seconds("solver.check_map"),
            "solver.check_map_calls": calls.get("solver.check_map", 0),
            "solver.compare_s": seconds("solver.compare_spaces"),
            "zmodlin.kernel_s": seconds("zmodlin.kernel"),
            "zmodlin.kernel_calls": calls.get("zmodlin.kernel", 0),
            "zmodlin.kernel_gens": c["kernel_gens"],
            "analysis.identity_suite_s": seconds("analysis.identity_suite"),
            "analysis.identity_checks": c["identity_checks"],
        }


def setup_only(instance: str) -> dict:
    start = time.perf_counter()
    import jder.cli

    jder.cli.load_instance(instance)
    return {"setup_s": time.perf_counter() - start}


def measure(instance: str, command: str, out: str, trace: bool, spans_path: str) -> dict:
    start = time.perf_counter()
    import jder.cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        jder.cli.load_instance(instance)
        ready = time.perf_counter()
        code = jder.cli.main([command, "--input", instance, "--out", out])
        done = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    digest = None
    if code == 0:
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    result = {
        "exit": code,
        "setup_s": ready - start,
        "wall_s": done - ready,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "sha256": digest,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": tracer.spans}, handle)
    return result


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    if sys.argv[1] == "--setup-only":
        print(json.dumps(setup_only(sys.argv[2])))
    else:
        instance, command, out, trace, spans_path = sys.argv[1:6]
        print(json.dumps(measure(instance, command, out, trace == "1", spans_path)))
