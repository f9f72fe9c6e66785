"""nearsym benchmark: four workloads, end-to-end metrics, traced layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is the checkout's ``src/``.
With ``--trace 0`` the run measures untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs a fixed slice of the same seeded inputs
untraced and then traced, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from stats import REFERENCE_S, Blocks, Latencies, Reference, reference_s  # noqa: E402
from worker import TRACE_MARK  # noqa: E402

WORKLOADS = ("cli-cold", "library-warm", "cycles-dodecatonic", "verify")
IN_PROCESS = ("library-warm", "cycles-dodecatonic")
# Set-up is probed in fresh processes, half before the measurement and half
# after it, so that one slow stretch of the machine does not set the median.
SETUP_PROBES = 12
START_PROBES = 5
CHILD_TIMEOUT_S = 150
SAMPLE_GAP_S = 0.25
# Operations in a traced run: a fixed slice of the seeded inputs, so that
# call counts repeat exactly.
TRACE_OPS = {
    "cli-cold": 2 * sum(inputs.CLI_ROUND.values()),
    "library-warm": 40 * sum(inputs.LIBRARY_MIX.values()),
    "cycles-dodecatonic": 2 * len(inputs.CYCLE_WINDOWS),
    "verify": 1,
}
# Figures printed for one workload only: (name, report key, scale, unit).
NAMED = {
    "cli-cold": (("cli_p50_ms", "p50_ms", 1, "ms"), ("cli_p90_ms", "run_p90_ms", 1, "ms")),
    "library-warm": (("lib_ops_per_s", "throughput", 1, "1/s"),
                     ("lib_p50_us", "p50_ms", 1000, "us"), ("lib_p99_us", "run_p99_ms", 1000, "us")),
    "cycles-dodecatonic": (("cycles_per_s", "throughput", 1, "1/s"),),
    "verify": (("verify_s", "p50_ms", 0.001, "s"),),
}
END_TO_END_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings (such as
    unbuffered output or no bytecode cache, which change what is measured),
    plus the checkout's source and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A finished child process: exit code, output, wall time, peak RSS.

    With ``sample`` set, a child that runs longer than SAMPLE_GAP_S has the
    reference job timed every SAMPLE_GAP_S while it runs, into ``samples``:
    a long operation then gets the machine's speed during it, not only at
    its ends.  The job then shares the machine with the child, so these
    samples are only compared with others taken the same way.
    """

    def __init__(self, cmd: list[str], sample: bool = False) -> None:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        done = {}

        def wait() -> None:
            # stderr is read after stdout; the program writes at most a line
            # or a trace there, well under a pipe buffer.
            done["stdout"] = proc.stdout.read()
            done["stderr"] = proc.stderr.read()
            done["wait4"] = os.wait4(proc.pid, 0)
            done["end"] = time.perf_counter_ns()

        waiter = threading.Thread(target=wait)
        waiter.start()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.samples: list[float] = []
        waiter.join(SAMPLE_GAP_S if sample else CHILD_TIMEOUT_S)
        while sample and waiter.is_alive() and time.monotonic() < deadline:
            self.samples.append(reference_s())
            waiter.join(SAMPLE_GAP_S)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = done["wait4"]
        self.stdout, self.stderr = done["stdout"], done["stderr"]
        self.nanoseconds = done["end"] - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss

    def last_json(self):
        lines = self.stdout.decode().strip().splitlines()
        if self.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({self.returncode}): {self.stderr.decode()[-2000:]}")
        return json.loads(lines[-1])


def nearsym_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "nearsym", *argv]


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of fresh processes, input generation excluded, each
    scaled by the reference job timed around it."""
    reference = Reference()
    samples = []
    for _ in range(count):
        child = Child(worker_cmd("setup", workload, seed))
        seconds = child.nanoseconds / 1e9 - child.last_json()["gen_s"]
        samples.append(seconds * reference.scale_last())
    return samples


def run_subprocess_ops(workload: str, seed: int, seconds: float, ops: int, traced: bool) -> dict:
    """cli-cold or verify: one fresh nearsym process per operation, closed
    loop, one block per round, for ``seconds`` or (ops > 0) until at least
    ``ops`` operations."""
    cli_cold = workload == "cli-cold"
    rounds = inputs.cli_rounds(seed) if cli_cold else inputs.verify_rounds(seed)
    golden = checks.load_golden("cli") if cli_cold else None
    reference = Reference()
    blocks, traces = Blocks(reference), []
    attempted = failed = peak_kb = 0
    deadline = time.perf_counter() + seconds
    for round_ in rounds:
        block = Latencies()
        for argv in round_:
            child = Child(worker_cmd("cli", *argv) if traced else nearsym_cmd(argv), not cli_cold)
            if traced:
                text, _, trace = child.stderr.decode().rpartition(TRACE_MARK)
                if not trace:
                    raise BenchError(f"traced nearsym {argv} left no trace: {text[-2000:]}")
                traces.append(json.loads(trace))
            if cli_cold:
                ok = checks.check_cli(golden, argv, child.returncode, child.stdout)
                work = 1
            else:
                fmt = "json" if "json" in argv else "text"
                ok = checks.check_verify(child.returncode, child.stdout.decode(), fmt)
                work = checks.VERIFY_CHECKS if ok else 0
            if child.samples:
                reference.sample()
                scale = REFERENCE_S / statistics.median(child.samples)
            else:
                scale = reference.scale_last()
            block.add(round(child.nanoseconds * scale), work)
            attempted += 1
            failed += not ok
            peak_kb = max(peak_kb, child.maxrss_kb)
        blocks.add(block)
        if (attempted >= ops) if ops else time.perf_counter() >= deadline:
            break
    return {"attempted": attempted, "failed": failed, "maxrss_kb": peak_kb,
            "trace": tracer.merge(traces) if traced else None, **blocks.summary()}


def run_workload(workload: str, seed: int, seconds: float, ops: int, traced: bool) -> dict:
    if workload in IN_PROCESS:
        return Child(worker_cmd("run", workload, seed, seconds, ops, int(traced))).last_json()
    return run_subprocess_ops(workload, seed, seconds, ops, traced)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: (end-to-end metrics, run report)."""
    setup = setup_samples(workload, seed, SETUP_PROBES // 2)
    report = run_workload(workload, seed, seconds, 0, False)
    setup += setup_samples(workload, seed, SETUP_PROBES - len(setup))
    metrics = {
        "setup_s": statistics.median(setup),
        "p50_ms": report["p50_ms"],
        "throughput_per_s": report["throughput"],
        "peak_rss_mb": report["maxrss_kb"] / 1024,
    }
    return metrics, report


def _median_child_ms(cmd: list[str], from_stdout: bool) -> float:
    samples = []
    for _ in range(START_PROBES):
        child = Child(cmd)
        if child.returncode != 0:
            raise BenchError(f"{cmd} failed: {child.stderr.decode()[-2000:]}")
        samples.append(float(child.stdout) if from_stdout else child.nanoseconds / 1e6)
    return statistics.median(samples)


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    """Traced run over a fixed slice: (per-layer metrics, combined report)."""
    start_ms = _median_child_ms([sys.executable, "-c", "pass"], False)
    import_ms = _median_child_ms(worker_cmd("import"), True)
    ops = TRACE_OPS[workload]
    plain = run_workload(workload, seed, 0, ops, False)
    traced = run_workload(workload, seed, 0, ops, True)
    snap = traced["trace"]
    metrics = {}
    for name in tracer.FUNCTIONS:
        calls, _, self_ns = snap["functions"][name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ns / 1e6
    for name in tracer.CACHED:
        hits, misses = snap["cache"][name]
        lookups = hits + misses
        metrics[f"{name}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics[f"{name}.cache_lookups"] = lookups
    metrics.update(snap["counters"])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics.update({
        "import.ms": import_ms,
        "python.start_ms": start_ms,
        "trace.overhead": traced["busy_s"] / plain["busy_s"],
        "trace.traced_s": traced["busy_s"],
        "trace.untraced_s": plain["busy_s"],
        "fail_ratio": failed / attempted,
    })
    return metrics, {"attempted": attempted, "failed": failed}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in tracer.CACHED:
        units[f"{name}.cache_hit_ratio"] = "ratio"
        units[f"{name}.cache_lookups"] = "count"
    units.update(dict.fromkeys(tracer.COUNTERS, "count"))
    units.update({"import.ms": "ms", "python.start_ms": "ms", "trace.overhead": "ratio",
                  "trace.traced_s": "s", "trace.untraced_s": "s", "fail_ratio": "ratio"})
    return units


def check_checkout() -> None:
    missing = [p for p in (SRC / "nearsym" / "__init__.py", checks.GOLDEN_DIR / "cli.json",
                           checks.GOLDEN_DIR / "library.json") if not p.is_file()]
    if missing:
        raise BenchError("not a nearsym checkout; missing " + ", ".join(map(str, missing)))
    # Untimed: let the interpreter write bytecode caches before any timing.
    Child(worker_cmd("import")).last_json()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.trace:
            metrics, report = measure_traced(args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, report = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:g}")
    if not args.trace:
        print(f"  {report['samples']} operations in {report['blocks']} blocks; reference job "
              f"{report['reference_ms']:.3f} ms, times scaled to {REFERENCE_S * 1000:g} ms")
        for name, key, scale, unit in NAMED[args.workload]:
            print(f"  {name:<44} {report[key] * scale:>14.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
