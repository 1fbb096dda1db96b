"""Benchmark of the jder CLI: wall time, CPU time, set-up time and peak RSS.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run of a workload is a fresh single-threaded child process
(``bench/child.py``) that imports ``jder``, loads the workload's instance
file with ``jder.cli.load_instance`` and runs ``jder.cli.main`` on it.
Children run one at a time, back to back, until the next one would end
after ``--seconds``; with tracing off, set-up alone is then repeated in the
time left, and ``setup_s`` is the median over all set-ups.  Every report
is checked against the sha256 recorded in ``bench/expected.json`` and
against the mathematical facts the workload is known to have; a child that
exits nonzero or writes a wrong report counts as failed.

With ``--trace 0`` the last line of stdout gives the medians of the
end-to-end metrics.  With ``--trace 1`` untraced and traced children
alternate; the last line gives the per-layer self times and counts of the
traced children (see ``bench/layers.json``) and the tracing overhead, and
the traced reports must be byte-identical to the untraced ones.  The line
before it records the environment, the samples and any failure reasons.

The workloads are exhaustive and deterministic: ``--seed`` is recorded
with the result but does not change their inputs.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
# A run must exit within 180 s; no child may outlive this.
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _check_compare(rank, cardinality):
    def check(report):
        result = report["result"]
        if report["instance"]["fi_rank"] != rank:
            return f"fi_rank {report['instance']['fi_rank']} != {rank}"
        if result["verdict"] != "Equal":
            return f"verdict {result['verdict']} != Equal"
        for space in ("derivations", "jordan"):
            if result[space]["cardinality"] != cardinality:
                return f"|{space}| {result[space]['cardinality']} != {cardinality}"
        return None

    return check


def _check_identities(report):
    result = report["result"]
    checks = sum(i["checks"] for g in result["generators"] for i in g["identities"])
    block = [i for g in result["generators"] for i in g["identities"]
             if i["name"] == "incidence-block"]
    if report["instance"]["fi_rank"] != 8:
        return f"fi_rank {report['instance']['fi_rank']} != 8"
    if len(result["generators"]) != 8:
        return f"{len(result['generators'])} Jordan generators != 8"
    if checks != 18568:
        return f"{checks} identity checks != 18568"
    if not (result["ok"] and all(g["ok"] for g in result["generators"])):
        return "identity suite not ok"
    if not block or not all(i["applicable"] and i["passed"] for i in block):
        return "incidence-block identity not applied or failed"
    return None


def _check_search(report):
    result = report["result"]
    found = result["counterexamples"]
    if result["rings_checked"] != 1572:
        return f"rings_checked {result['rings_checked']} != 1572"
    if len(found) != 90:
        return f"{len(found)} counterexamples != 90"
    if any(c["modulus"] != 4 for c in found):
        return "a counterexample is not over Z/4"
    # b1*b1 = 2*b1, every other product zero.
    if not any(c["rank"] == 2 and c["constants"] == [0, 0, 0, 0, 0, 0, 0, 2] for c in found):
        return "counterexample b1*b1 = 2*b1 missing"
    return None


# name -> (instance file, CLI command, fact check).  The self-check instance
# is not a benchmark workload; bench/test_harness.py runs it.
WORKLOADS = {
    "identities-isolated": ("identities-isolated.ini", "identities", _check_identities),
    "search-rank2": ("search-rank2.ini", "search", _check_search),
    "selfcheck-chain3": ("chain3.ini", "compare", _check_compare(6, 4 ** 5)),
}


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "jder", "*.py"))):
        with open(path, "rb") as handle:
            source.update(handle.read())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


class ChildFailed(Exception):
    """A child exited nonzero, timed out or wrote a wrong report."""


def _spawn(args: list, timeout: float, mode: str) -> dict:
    """Run bench/child.py with ``args``; return the JSON on its last stdout line."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(workload: str, trace: bool, timeout: float, expected: str) -> dict:
    """Run one child and return its measurement; its report must hash to ``expected``."""
    instance, command, check = WORKLOADS[workload]
    mode = "traced" if trace else "untraced"
    out = os.path.join(WORK, f"{workload}.{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    measured = _spawn([os.path.join(BENCH, "instances", instance), command, out,
                       "1" if trace else "0", os.path.join(WORK, f"{workload}.spans.json")],
                      timeout, mode)
    if measured["exit"] != 0:
        raise ChildFailed(f"{mode} jder.cli.main returned {measured['exit']}")
    if measured["sha256"] != expected:
        raise ChildFailed(f"{mode} report sha256 {measured['sha256'][:12]} != {expected[:12]}")
    with open(out, "rb") as handle:
        reason = check(json.load(handle))
    if reason is not None:
        raise ChildFailed(f"{mode} report: {reason}")
    return measured


def measure(workload: str, seconds: float, trace: bool) -> tuple:
    """Run children for ``seconds``; return the result object and its details.

    Every traced and untraced report must have the recorded sha256, so the
    traced reports are byte-identical to the untraced ones.
    """
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["sha256"][workload]
    instance = os.path.join(BENCH, "instances", WORKLOADS[workload][0])
    start = time.perf_counter()
    untraced, traced, failures = [], [], []
    longest = 0.0
    attempted = 0
    while attempted < 2 or time.perf_counter() - start + longest <= seconds:
        elapsed = time.perf_counter() - start
        if elapsed + longest > DEADLINE_S:
            break
        tracing = trace and attempted % 2 == 1
        began = time.perf_counter()
        attempted += 1
        try:
            measured = run_child(workload, tracing, DEADLINE_S - elapsed, expected)
        except ChildFailed as exc:
            failures.append(str(exc))
            continue
        finally:
            longest = max(longest, time.perf_counter() - began)
        (traced if tracing else untraced).append(measured)

    # Set-up alone is short: repeat it in the time that no full child fits in.
    setups = [r["setup_s"] for r in untraced]
    longest = 0.0
    while not trace and untraced and time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        attempted += 1
        try:
            setups.append(_spawn(["--setup-only", instance],
                                 DEADLINE_S - (began - start), "set-up")["setup_s"])
        except ChildFailed as exc:
            failures.append(str(exc))
            break
        finally:
            longest = max(longest, time.perf_counter() - began)

    metrics = {}
    if not trace and untraced:
        for name, unit in END_TO_END.items():
            values = setups if name == "setup_s" else [r[name] for r in untraced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    elif trace and untraced and traced:
        def counts(r):
            return {k: v for k, v in r["layers"].items() if not k.endswith("_s")}

        for r in traced[1:]:
            if counts(r) != counts(traced[0]):
                failures.append("traced run's per-layer counts differ from the first one's")
        for name, first in traced[0]["layers"].items():
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                                 "unit": "s"}
            else:
                unit = "ratio" if name.endswith("_ratio") else "count"
                metrics[name] = {"value": first, "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    result = {"correct": not failures and bool(metrics), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    details = {
        "workload": workload,
        "samples": {"untraced": len(untraced), "traced": len(traced), "setup": len(setups)},
        "setup_s": setups,
        "untraced": untraced,
        "traced": [{k: v for k, v in r.items() if k != "layers"} for r in traced],
        "failures": failures,
        "fail_frac": len(failures) / attempted,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are exhaustive and deterministic")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jder", "cli.py")):
        print("error: no jder sources under src/jder; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result, details = measure(args.workload, args.seconds, bool(args.trace))
    details.update(seed=args.seed, trace=args.trace, seconds=args.seconds,
                   env=environment())
    print(json.dumps(details, sort_keys=True))
    if not result["metrics"]:
        print(f"error: no successful run: {details['failures']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
