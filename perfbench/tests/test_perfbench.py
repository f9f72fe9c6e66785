"""Tests of the benchmark itself (not of nearsym).

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

import nearsym as ns  # noqa: E402
import nearsym.cli  # noqa: E402


def take(stream, n):
    return list(itertools.islice(stream, n))


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = nearsym.cli.main(argv)
    return code, buf.getvalue()


class FakeChild:
    """Records the command in place of starting a process."""

    launched: list = []

    def __init__(self, cmd, sample=False):
        self.launched.append(cmd)
        self.samples = []
        self.returncode, self.stdout, self.stderr = 0, b"", b""
        self.nanoseconds, self.maxrss_kb = 100_000_000, 1


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for stream in (inputs.cli_rounds, inputs.verify_rounds, inputs.cycles_decks):
            self.assertEqual(take(stream(7), 20), take(stream(7), 20))
            self.assertNotEqual(take(stream(7), 20), take(stream(8), 20))
        self.assertEqual(inputs.library_working_set(7), inputs.library_working_set(7))
        self.assertNotEqual(inputs.library_working_set(7), inputs.library_working_set(8))

    def test_every_drawable_input_has_a_golden(self):
        cli = checks.load_golden("cli")
        pool = [argv for kind in inputs.cli_pool().values() for argv in kind]
        self.assertEqual(sorted(cli), sorted(inputs.cli_key(argv) for argv in pool))
        library = checks.load_golden("library")
        specs = [spec for ops in inputs.library_pool().values() for spec in ops]
        self.assertEqual(sorted(library), sorted(inputs.library_key(s) for s in specs))

    def test_mixes_are_fixed(self):
        ops = [spec[0] for spec in inputs.library_working_set(3)]
        self.assertEqual({op: ops.count(op) for op in inputs.LIBRARY_MIX}, inputs.LIBRARY_MIX)
        for deck in take(inputs.cycles_decks(3), 3):
            formats = sorted((w, "json" in argv) for argv, w in deck)
            expected = sorted((w, j) for w in inputs.CYCLE_WINDOWS for j in (False, True))
            self.assertEqual(formats, expected)
        pool = {kind: {inputs.cli_key(a) for a in argvs} for kind, argvs in inputs.cli_pool().items()}
        for round_ in take(inputs.cli_rounds(3), 3):
            kinds = [next(k for k, keys in pool.items() if inputs.cli_key(a) in keys) for a in round_]
            self.assertEqual({k: kinds.count(k) for k in inputs.CLI_ROUND}, inputs.CLI_ROUND)


class ProgramReceivesOnlyGeneratedInputs(unittest.TestCase):
    def setUp(self):
        FakeChild.launched = []

    def test_subprocess_workloads(self):
        for workload, rounds in (("cli-cold", inputs.cli_rounds), ("verify", inputs.verify_rounds)):
            FakeChild.launched = []
            with mock.patch.object(run, "Child", FakeChild):
                report = run.run_subprocess_ops(workload, 3, 0, 6, False)
            expected = [argv for round_ in take(rounds(3), 6) for argv in round_]
            launched = FakeChild.launched
            self.assertGreaterEqual(len(launched), 6)
            self.assertEqual(launched, [run.nearsym_cmd(a) for a in expected[:len(launched)]])
            self.assertEqual(report["failed"], len(launched))  # empty output is always wrong

    def test_traced_cli_passes_argv_unchanged(self):
        argv = take(inputs.cli_rounds(4), 1)[0][0]
        seen = []
        with mock.patch.object(nearsym.cli, "main", lambda a: seen.append(a) or 0), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            worker._traced_cli(list(argv))
        self.assertEqual(seen, [argv])
        self.assertIn(worker.TRACE_MARK, err.getvalue())

    def test_cycles_in_process(self):
        seen = []
        with mock.patch.object(nearsym.cli, "main", lambda a: seen.append(a) or 0):
            report = worker._run_cycles(ns, 5, 0, 1)
        [deck] = take(inputs.cycles_decks(5), 1)
        self.assertEqual(seen, [argv for argv, _ in deck])
        self.assertEqual(report["failed"], report["attempted"])

    def testlibrary_calls(self):
        spec = ("vl", 6, "C+", "Db-")
        [(fn, args)] = worker.library_calls(ns, [spec])
        g = ns.genus(6)
        self.assertIs(fn, ns.vl_relation)
        self.assertEqual(args, (ns.parse_chord("C+", g), ns.parse_chord("Db-", g)))


class Checkers(unittest.TestCase):
    def test_cli_digest(self):
        golden = checks.load_golden("cli")
        for kind in ("apply", "bad-chord", "wrong-genus"):
            argv = inputs.cli_pool()[kind][0]
            code, out = cli_output(argv)
            self.assertTrue(checks.check_cli(golden, argv, code, out.encode()), argv)
            self.assertFalse(checks.check_cli(golden, argv, code, out.encode() + b"x"))
            self.assertFalse(checks.check_cli(golden, argv, code + 1, out.encode()))
        self.assertFalse(checks.check_cli(golden, ["partitions", "--n", "5"], 0, b""))

    def test_cycle_count(self):
        for fmt in ("text", "json"):
            argv = ["cycles", "--genus", "6", "--containing", "C+", "--min-len", "4",
                    "--max-len", "5", "--format", fmt]
            code, out = cli_output(argv)
            self.assertTrue(checks.check_cycles((4, 5), code, out, fmt))
            self.assertFalse(checks.check_cycles((4, 6), code, out, fmt))
            self.assertFalse(checks.check_cycles((4, 5), 1, out, fmt))
            if fmt == "text":
                lines = out.splitlines(keepends=True)
                self.assertFalse(checks.check_cycles((4, 5), code, "".join(lines[1:]), fmt))
                self.assertFalse(checks.check_cycles((4, 5), code, lines[0] + out, fmt))
            else:
                wrong = out.replace('"count": 90', '"count": 91')
                self.assertFalse(checks.check_cycles((4, 5), code, wrong, fmt))

    def test_verify(self):
        n = checks.VERIFY_CHECKS
        text = "".join(f"PASS check-{i} [n=3]\n" for i in range(n)) + f"{n} checks, {n} passed, 0 failed\n"
        self.assertTrue(checks.check_verify(0, text, "text"))
        self.assertFalse(checks.check_verify(0, text.replace("PASS check-7", "FAIL check-7", 1), "text"))
        self.assertFalse(checks.check_verify(1, text, "text"))
        report = {"checks": [{"name": f"c{i}", "passed": True} for i in range(n)],
                  "total": n, "failed": 0, "passed": True}
        self.assertTrue(checks.check_verify(0, json.dumps(report), "json"))
        report["checks"][3]["passed"] = False
        self.assertFalse(checks.check_verify(0, json.dumps(report), "json"))

    def test_library_results(self):
        golden = checks.load_golden("library")
        g = ns.genus(3)
        c = ns.parse_chord("C+", g)
        for spec in (("polar", 3, "C+"), ("seq", 3, "C+", ("R", "L", "P"))):
            [(fn, args)] = worker.library_calls(ns, [spec])
            result = fn(*args)
            key = inputs.library_key(spec)
            fake = {key: golden.get(key, checks.library_digest(result))}
            self.assertTrue(worker._library_result_ok(ns, fake, spec, args, result))
            # Wrong digest, then a digest that matches but an invariant that fails.
            self.assertFalse(worker._library_result_ok(ns, fake, spec, args, ns.polar(result)))
            fake[key] = checks.library_digest(c)
            self.assertFalse(worker._library_result_ok(ns, fake, spec, args, c))

    def test_a_raising_call_is_a_failed_operation(self):
        def boom():
            raise ValueError("broken")

        spec = ("polar", 3, "C+")
        state = ([spec], [(boom, ())], [worker._call(boom, ())])
        report = worker._run_library(ns, state, 0, 3)
        self.assertEqual(report["failed"], report["attempted"])


class Tracing(unittest.TestCase):
    def test_install_rebinds_every_reference(self):
        import nearsym.transform as transform

        original = transform.apply
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(transform.apply, original)
            self.assertIs(nearsym.cli.apply_transformation, transform.apply)
            self.assertIs(ns.apply, transform.apply)
            transform.apply.cache_info()
            g = ns.genus(3)
            ns.transformation_between(ns.parse_chord("C+", g), ns.parse_chord("A-", g))
            calls, total, own = t.functions["transform.transformation_between"]
            self.assertEqual(calls, 1)
            apply_calls, apply_total, _ = t.functions["transform.apply"]
            self.assertEqual(apply_calls, len(ns.catalog(g)))
            self.assertEqual(total - own, apply_total)  # self time excludes children
        finally:
            t.uninstall()
        self.assertIs(transform.apply, original)
        self.assertIs(nearsym.cli.apply_transformation, original)

    def test_counts_repeat_with_the_same_seed(self):
        def calls(report):
            trace = report["trace"]
            return ({k: v[0] for k, v in trace["functions"].items()},
                    trace["counters"], trace["cache"])

        for workload, ops in (("cli-cold", 4), ("library-warm", 1000)):
            first = run.run_workload(workload, 11, 0, ops, True)
            second = run.run_workload(workload, 11, 0, ops, True)
            self.assertEqual(calls(first), calls(second), workload)
            self.assertGreater(sum(calls(first)[0].values()), 0)


class Entry(unittest.TestCase):
    def test_metrics_match_the_declaration(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.per_layer_units())):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]}, units)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))

    def test_refuses_a_directory_without_the_program(self):
        out = io.StringIO()
        with mock.patch.object(run, "SRC", HERE / "no-such-src"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
