"""Child process of the benchmark; run.py starts one per measurement so that
every measurement begins from a fresh interpreter and cold caches.

    worker.py setup <workload> <seed>
        Do the workload's set-up and exit; prints {"gen_s": ...}, the part
        spent generating inputs, which run.py subtracts from the wall time.
    worker.py run <workload> <seed> <seconds> <ops> <trace>
        library-warm or cycles-dodecatonic in-process: for <seconds>, or
        with ops > 0 until at least that many operations.  Prints one JSON
        line.
    worker.py cli <argument>...
        nearsym.cli.main(arguments) under the tracer; the trace goes to
        the last line of stderr after TRACE_MARK.
    worker.py import
        Print the milliseconds ``import nearsym`` takes.
"""

from __future__ import annotations

import statistics
import sys
import time

from stats import REFERENCE_S, Blocks, Latencies, Reference

TRACE_MARK = "@@perfbench-trace "
# Length of a library-warm block; see stats.Blocks.
BLOCK_S = 1.0


def _import_ms() -> None:
    start = time.perf_counter()
    import nearsym  # noqa: F401

    print((time.perf_counter() - start) * 1000)


def _traced_cli(argv: list[str]) -> int:
    import json

    import nearsym.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = nearsym.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


def _build(ns) -> None:
    """Catalogs and regions of every genus: the state each workload needs."""
    for g in ns.GENERA.values():
        ns.catalog(g)
        ns.arthropod_regions(g)
        ns.bridge_regions(g)


def library_calls(ns, specs: list[tuple]) -> list[tuple]:
    """(function, arguments) for each library-warm operation spec.  Functions
    are looked up on the package at this point, after any tracer is in."""
    apply_sequence, parse_chord = ns.apply_sequence, ns.parse_chord

    def seq(text, g, transformations):
        return apply_sequence(parse_chord(text, g), transformations)

    calls = []
    for spec in specs:
        op, n = spec[0], spec[1]
        g = ns.genus(n)
        if op == "seq":
            calls.append((seq, (spec[2], g, [ns.transformation(t, g) for t in spec[3]])))
            continue
        a = ns.parse_chord(spec[2], g)
        if op == "between":
            calls.append((ns.transformation_between, (a, ns.parse_chord(spec[3], g))))
        elif op == "vl":
            calls.append((ns.vl_relation, (a, ns.parse_chord(spec[3], g))))
        elif op == "polar":
            calls.append((ns.polar, (a,)))
        elif op == "region_of":
            calls.append((ns.region_of, (a, ns.RegionKind(spec[3]))))
        elif op == "ssd":
            calls.append((ns.ssd_neighbors, (a,)))
        else:
            region = ns.region_of(a, ns.RegionKind(spec[3]))
            calls.append((ns.export_graph, (region, "json", spec[4])))
    return calls


def _call(fn, args):
    """fn(*args), or the exception it raised, which no check accepts."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _library_result_ok(ns, golden: dict, spec: tuple, args: tuple, result) -> bool:
    """Digest recorded at the seed commit, plus cheap invariants."""
    from checks import library_digest
    from inputs import library_key

    if isinstance(result, Exception) or golden.get(library_key(spec)) != library_digest(result):
        return False
    if spec[0] == "seq":
        start = ns.parse_chord(spec[2], args[1])
        flipped = len(spec[3]) % 2 == 1
        return (result.modality is not start.modality) == flipped
    if spec[0] == "polar":
        chord = args[0]
        return (not (result.pitch_classes() & chord.pitch_classes())
                and ns.polar(result) == chord)
    return True


def _setup(workload: str, seed: int, tracer_wanted: bool):
    """Generate inputs, import, install the tracer if asked, build.  Returns
    (gen_s, ns, tracer, state)."""
    start = time.perf_counter()
    if workload == "library-warm":
        from inputs import library_working_set

        specs = library_working_set(seed)
    else:
        specs = None
    gen_s = time.perf_counter() - start

    import nearsym as ns

    tracer = None
    if tracer_wanted:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _build(ns)
    state = None
    if specs is not None:
        calls = library_calls(ns, specs)
        warm = [_call(fn, args) for fn, args in calls]  # fills every cache
        state = (specs, calls, warm)
    return gen_s, ns, tracer, state


def _run_library(ns, state, seconds: float, ops: int) -> dict:
    """Whole passes over the working set in blocks of BLOCK_S, for ``seconds``,
    or (ops > 0) in one block until at least ``ops`` calls."""
    from checks import load_golden

    specs, calls, expected = state
    golden = load_golden("library")
    good = [_library_result_ok(ns, golden, s, c[1], r) for s, c, r in zip(specs, calls, expected)]
    results = [None] * len(calls)
    clock = time.perf_counter_ns
    reference = Reference()
    blocks = Blocks(reference)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        # Calls take microseconds, so the reference is timed five times a
        # block and the block scaled by the median.
        block = Latencies()
        refs = [reference.samples[-1]]
        block_end = time.perf_counter() + BLOCK_S
        next_ref = time.perf_counter() + BLOCK_S / 5
        while True:
            if time.perf_counter() >= next_ref:
                refs.append(reference.sample())
                next_ref = time.perf_counter() + BLOCK_S / 5
            for i, (fn, args) in enumerate(calls):
                t0 = clock()
                try:
                    result = fn(*args)
                except Exception as exc:  # a failed operation, not a failed run
                    result = exc
                block.add(clock() - t0)
                results[i] = result
            for ok, want, got in zip(good, expected, results):
                failed += not (ok and got == want)
            attempted += len(calls)
            if (attempted >= ops) if ops else time.perf_counter() >= block_end:
                break
        refs.append(reference.sample())
        blocks.add(block, REFERENCE_S / statistics.median(refs))
        if ops or time.perf_counter() >= deadline:
            break
    return {"attempted": attempted, "failed": failed, **blocks.summary()}


def _run_cycles(ns, seed: int, seconds: float, ops: int) -> dict:
    """Whole decks of in-process ``cycles`` calls, one block per deck, for
    ``seconds`` or (ops > 0) until at least ``ops`` calls."""
    import contextlib
    import io

    import nearsym.cli as cli
    from checks import check_cycles
    from inputs import cycles_decks, expected_cycle_count

    reference = Reference()
    blocks = Blocks(reference)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for deck in cycles_decks(seed):
        block = Latencies()
        for argv, window in deck:
            buf = io.StringIO()
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a failed operation, not a failed run
                    code = None
            elapsed = time.perf_counter_ns() - t0
            elapsed = round(elapsed * reference.scale_last())
            fmt = "json" if "json" in argv else "text"
            ok = check_cycles(window, code, buf.getvalue(), fmt)
            block.add(elapsed, expected_cycle_count(*window) if ok else 0)
            attempted += 1
            failed += not ok
        blocks.add(block)
        if (attempted >= ops) if ops else time.perf_counter() >= deadline:
            break
    return {"attempted": attempted, "failed": failed, **blocks.summary()}


def main(argv: list[str]) -> int:
    import json

    mode = argv[0]
    if mode == "import":
        _import_ms()
        return 0
    if mode == "cli":
        return _traced_cli(argv[1:])
    workload, seed = argv[1], int(argv[2])
    if mode == "setup":
        gen_s, *_ = _setup(workload, seed, False)
        print(json.dumps({"gen_s": gen_s}))
        return 0
    seconds, ops, trace = float(argv[3]), int(argv[4]), argv[5] == "1"
    _, ns, tracer, state = _setup(workload, seed, trace)
    if workload == "library-warm":
        report = _run_library(ns, state, seconds, ops)
    else:
        report = _run_cycles(ns, seed, seconds, ops)
    import resource

    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["trace"] = tracer.snapshot() if tracer else None
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
