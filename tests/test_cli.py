import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearsym.cli
import nearsym.pcset
from nearsym.chord import NOTE_NAMES_FLAT, NOTE_NAMES_SHARP, TRIADS, genus, parse_chord
from nearsym.cli import EXIT_BROKEN_PIPE, EXIT_IO, main
from nearsym.errors import GenusMismatchError, NotAMemberError, UnsupportedCardinalityError
from nearsym.pcset import set_class
from nearsym.region import arthropod_regions, bridge_regions, enumerate_smooth_cycles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_text(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "6")
    assert code == 0
    assert out == "{C, D, E, F#, G#, A#}\n{C#, D#, F, G, A, B}\n"


def test_partitions_flats(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--accidentals", "flats")
    assert code == 0
    assert out.splitlines()[1] == "{Db, F, A}"


def test_partitions_json(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]


def test_partitions_rejects_unsupported_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partitions", "--n", "5"])
    assert exc.value.code == 2


def test_apply_single_transformation(capsys):
    code, out, _ = run(capsys, "apply", "--genus", "6", "--chord", "C+", "--seq", "SA(3)")
    assert (code, out) == (0, "B-\n")


def test_apply_involution_squares_to_identity(capsys):
    code, out, _ = run(capsys, "apply", "--genus", "4", "--chord", "C+", "--seq", "O,O")
    assert (code, out) == (0, "C+\n")


def test_apply_sequence_with_trace(capsys):
    code, out, _ = run(
        capsys, "apply", "--genus", "3", "--chord", "C+", "--seq", "R,S,N", "--trace"
    )
    assert code == 0
    assert out == (
        "C+ -R-> A- [P0,1]\n"
        "A- -S-> G#+ [P2,0]\n"
        "G#+ -N-> C#- [P2,0]\n"
        "C#-\n"
    )


def test_apply_accepts_superscript_tokens(capsys):
    code, out, _ = run(capsys, "apply", "--genus", "4", "--chord", "C+", "--seq", "S^{3(4)}")
    assert (code, out) == (0, "G-\n")


def test_apply_json(capsys):
    code, out, _ = run(
        capsys, "apply", "--genus", "3", "--chord", "C+", "--seq", "R", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "start": "C+",
        "steps": [{"transform": "R", "result": "A-", "relation": [0, 1]}],
        "result": "A-",
    }


@pytest.mark.parametrize("seq", ["}S{", "S^{", "S^{3(4)"])
def test_apply_malformed_superscript_is_a_parse_error(capsys, seq):
    code, out, err = run(capsys, "apply", "--genus", "3", "--chord", "C+", "--seq", seq)
    assert (code, out, err) == (2, "", f"error: malformed superscript token: {seq!r}\n")


@pytest.mark.parametrize(
    ("argv", "target", "value", "error"),
    [
        (
            ["region", "--genus", "3", "--kind", "arthropod"],
            "nearsym.chord._chords_by_pitch_classes", lambda g: {}, NotAMemberError,
        ),
        (
            ["partitions", "--n", "6"],
            "nearsym.symmetry.SUPPORTED_CARDINALITIES", (3, 4), UnsupportedCardinalityError,
        ),
        (
            # Z is an n=6 token, so only the chord is of another genus
            ["apply", "--genus", "6", "--chord", "C+", "--seq", "Z"],
            "nearsym.cli.parse_chord", lambda text, g: parse_chord(text, TRIADS), GenusMismatchError,
        ),
    ],
    ids=["not-a-member", "unsupported-cardinality", "chord-of-another-genus"],
)
def test_a_library_fault_inside_a_command_raises_instead_of_exiting_3(
    monkeypatch, fresh_caches, argv, target, value, error
):
    # no argv reaches either error, so each is a fault in the library, and
    # a fault stays loud: exit 3 means a token of another genus only
    monkeypatch.setattr(target, value)
    with pytest.raises(error):
        main(argv)


def test_a_region_of_the_wrong_kind_in_cycles_raises_instead_of_exiting_2(monkeypatch, fresh_caches):
    # exit 2 is a length window out of range; a region_of that hands cycles
    # an arthropod region is a fault in the library
    monkeypatch.setattr("nearsym.cli.region_of", lambda c, kind: arthropod_regions(c.genus)[0])
    with pytest.raises(ValueError, match="defined only on bridge regions"):
        main(["cycles", "--genus", "3", "--containing", "C+"])


@pytest.mark.parametrize(
    ("argv", "code", "err"),
    [
        (["apply", "--genus", "3", "--chord", "X+", "--seq", "R"], 2, "unknown note name: 'X+'"),
        (["apply", "--genus", "3", "--chord", "C+", "--seq", "Q"], 2, "unknown transformation token: 'Q'"),
        (
            ["cycles", "--genus", "3", "--containing", "C+", "--min-len", "3"], 2,
            "cycle lengths must satisfy 4 <= min <= max <= 6",
        ),
        (
            ["apply", "--genus", "3", "--chord", "C+", "--seq", "Z"], 3,
            "transformation 'Z' belongs to the n=6 genus, not n=3",
        ),
    ],
    ids=["chord-text", "token", "cycle-length", "foreign-token"],
)
def test_each_error_an_argv_can_cause_exits_with_its_code_and_one_error_line(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", f"error: {err}\n")


@pytest.mark.parametrize("text", ["C++", "C-+"])
def test_a_chord_text_error_quotes_the_whole_text(capsys, text):
    # the note part, C+ or C-, would name a valid chord, not what was typed
    code, out, err = run(capsys, "region", "--genus", "3", "--kind", "bridge", "--containing", text)
    assert (code, out, err) == (2, "", f"error: unknown accidental {text[1]!r} in {text!r}\n")


def test_relate_examples(capsys):
    assert run(capsys, "relate", "--genus", "3", "C+", "A-")[:2] == (0, "P0,1 R\n")
    assert run(capsys, "relate", "--genus", "6", "C+", "D-")[:2] == (0, "disjoint Z\n")
    assert run(capsys, "relate", "--genus", "3", "C+", "C+")[:2] == (0, "P0,0 identity\n")
    assert run(capsys, "relate", "--genus", "3", "C+", "E+")[:2] == (0, "P2,0 none\n")


def test_relate_json(capsys):
    code, out, _ = run(capsys, "relate", "--genus", "6", "C+", "D-", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "a": "C+",
        "b": "D-",
        "relation": [6, 0],
        "disjoint": True,
        "transform": "Z",
    }


def test_region_containing(capsys):
    code, out, _ = run(
        capsys, "region", "--genus", "6", "--kind", "arthropod", "--containing", "C+"
    )
    assert code == 0
    assert out.startswith("centipede 0:")
    listed = set(out.split(":")[1].split())
    assert listed == {
        "A#+", "C#-", "C+", "D#-", "D+", "F-", "E+", "G-", "F#+", "A-", "G#+", "B-"
    }


def test_region_listing_all(capsys):
    code, out, _ = run(capsys, "region", "--genus", "3", "--kind", "bridge")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("hexatonic 0 (Northern):")


def test_region_json_matches_schema(capsys):
    code, out, _ = run(
        capsys, "region", "--genus", "4", "--kind", "bridge", "--containing", "C+",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["kind"] == "bridge"
    assert payload[0]["set_class"] == "8-28"
    assert len(payload[0]["edges"]) == 12


def test_cycles_hamiltonian_count(capsys):
    code, out, _ = run(
        capsys, "cycles", "--genus", "4", "--containing", "C+",
        "--min-len", "8", "--max-len", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total: 6"
    assert len(lines) == 7


def test_cycles_json(capsys):
    code, out, _ = run(
        capsys, "cycles", "--genus", "3", "--containing", "C+", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["min_len"], payload["max_len"]) == (4, 6)
    assert payload["count"] == 1
    assert payload["cycles"][0]["length"] == 6
    assert payload["cycles"][0]["set_class"] == "6-20"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "window",
    [
        lambda n: ["--min-len", "3"],
        lambda n: ["--min-len", "6", "--max-len", "5"],
        lambda n: ["--max-len", str(2 * n + 1)],
        lambda n: ["--min-len=-1"],
    ],
    ids=["min3", "min>max", "max2n+1", "min-1"],
)
def test_cycles_rejects_bad_bounds(capsys, window, n, fmt):
    # the library's smooth_cycle_ids is the one place that checks the window
    code, out, err = run(
        capsys, "cycles", "--genus", str(n), "--containing", "C+", "--format", fmt, *window(n)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cycle lengths must satisfy 4 <= min <= max <= {2 * n}\n"


def test_a_usage_error_leaves_the_parser_fit_for_the_next_call(capsys):
    # main builds its parser once per process, so an argparse exit must leave
    # the next call's defaults and output as they were
    with pytest.raises(SystemExit) as exc:
        main(["cycles", "--genus", "3", "--containing", "C+", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert run(capsys, "cycles", "--genus", "3", "--containing", "C+") == (
        0,
        "C+ C- G#+ G#- E+ E- | union C D# E G G# B = 6-20\ntotal: 1\n",
        "",
    )


def test_export_dot(capsys):
    code, out, _ = run(
        capsys, "export", "--genus", "3", "--kind", "bridge", "--containing", "C+",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph hexatonic_0 {")
    assert out.count('";') == 6
    assert out.count(" -- ") == 6


def test_export_defaults_to_dot(capsys):
    argv = ["export", "--genus", "4", "--kind", "arthropod", "--containing", "C+"]
    code, default_out, _ = run(capsys, *argv)
    assert code == 0
    code, dot_out, _ = run(capsys, *argv, "--format", "dot")
    assert code == 0
    assert default_out == dot_out


def test_export_rejects_text_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["export", "--genus", "3", "--kind", "bridge", "--containing", "C+", "--format", "text"]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'text'" in captured.err


@pytest.mark.parametrize("command", ["region", "export"])
def test_an_empty_containing_chord_is_a_parse_error(capsys, command):
    # an empty text names no chord: it must not read as the option left out
    code, out, err = run(capsys, command, "--genus", "3", "--kind", "bridge", "--containing", "")
    assert (code, out, err) == (2, "", "error: chord text must end in '+' or '-': ''\n")


def test_export_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "export", "--genus", "6", "--kind", "bridge", "--containing", "C+",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["set_class"] == "12-1"
    assert len(payload["edges"]) == 30


def test_verify_single_genus(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["checks"])


def test_printed_chords_reparse(capsys):
    # round-trip property of the chord grammar over a full region listing
    from nearsym.chord import genus, parse_chord

    for style in ("sharps", "flats"):
        code, out, _ = run(
            capsys, "region", "--genus", "6", "--kind", "bridge", "--accidentals", style
        )
        assert code == 0
        for line in out.splitlines():
            for token in line.split(":")[1].split():
                parse_chord(token, genus(6))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["export", "--genus", "6", "--kind", "bridge", "--containing", "C+", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_is_byte_identical_across_processes_and_hash_seeds(argv):
    # Chords and transformations hash by identity, so their hashes, and the
    # order of any set of them, may change from process to process; no
    # output may depend on that order.  The two processes run side by side.
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "nearsym", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**_env_with_src(), "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    outs = [proc.communicate(timeout=60) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [err for _, err in outs] == [b"", b""]
    assert outs[0][0] and outs[0][0] == outs[1][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n", "3"],
        ["apply", "--genus", "3", "--chord", "C+", "--seq", "R"],
        ["relate", "--genus", "3", "C+", "A-"],
        ["region", "--genus", "3", "--kind", "bridge"],
        ["cycles", "--genus", "3", "--containing", "C+"],
        ["verify", "--genus", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_dot_format_is_a_usage_error_outside_export(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "dot"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


# Fuzzed argument values never start with "-", so argparse reads each one as
# the value it was meant for; cycles stays on the small genera to stay fast.
_CHORDISH = st.text(alphabet="ABCDEFGabcdefg#b+-\u266f\u266d ", max_size=5)
_TOKENISH = st.text(alphabet="RSNPLHOZWAF*0123456()^{},rs ", max_size=12)
_VALUE = st.one_of(_CHORDISH, _TOKENISH, st.text(max_size=8)).filter(
    lambda v: not v.startswith("-")
)


@st.composite
def _argvs(draw):
    n = draw(st.sampled_from(["3", "4", "6"]))
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    command = draw(st.sampled_from(["apply", "relate", "region", "cycles", "export"]))
    if command == "apply":
        trace = ["--trace"] if draw(st.booleans()) else []
        return ["apply", "--genus", n, "--chord", draw(_VALUE), "--seq", draw(_VALUE), *fmt, *trace]
    if command == "relate":
        return ["relate", "--genus", n, draw(_VALUE), draw(_VALUE), *fmt]
    kind = ["--kind", draw(st.sampled_from(["arthropod", "bridge"]))]
    if command == "region":
        return ["region", "--genus", n, *kind, "--containing", draw(_VALUE), *fmt]
    if command == "export":
        fmt = ["--format", draw(st.sampled_from(["text", "json", "dot"]))]
        return ["export", "--genus", n, *kind, "--containing", draw(_VALUE), *fmt]
    bounds = [
        str(draw(st.integers(min_value=0, max_value=9))),
        str(draw(st.integers(min_value=0, max_value=9))),
    ]
    return [
        "cycles", "--genus", draw(st.sampled_from(["3", "4"])), "--containing", draw(_VALUE),
        "--min-len", bounds[0], "--max-len", bounds[1], *fmt,
    ]


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_fuzzed_cli_input_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())


def test_cycles_run_prime_form_once_per_distinct_union(capsys, monkeypatch):
    calls = []
    prime_form = nearsym.pcset.prime_form

    def counting(s):
        calls.append(s)
        return prime_form(s)

    monkeypatch.setattr(nearsym.pcset, "prime_form", counting)
    code, out, _ = run(
        capsys, "cycles", "--genus", "6", "--containing", "C+",
        "--min-len", "4", "--max-len", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 90
    assert len({tuple(c["pitch_union"]) for c in payload["cycles"]}) == 1
    assert len(calls) <= 1


def _env_with_src():
    """The caller's environment without its PYTHON* settings, such as an
    unbuffered stdout that would hide a fault of the buffered one every user
    gets, and with this checkout's package on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return {**env, "PYTHONPATH": str(Path(nearsym.__file__).resolve().parents[1])}


def test_stdout_closed_by_its_reader_exits_quietly_with_the_broken_pipe_code():
    # The full n=6 listing is far larger than a pipe buffer, so the writer is
    # still writing when the reader closes its end.  Stderr goes to a file,
    # not a pipe: a child that fills a stderr pipe before writing any stdout
    # would block, and this test with it, on the readline below.
    with tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "nearsym", "cycles", "--genus", "6", "--containing", "C+"],
            stdout=subprocess.PIPE, stderr=stderr, env=_env_with_src(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        stderr.seek(0)
        err = stderr.read().decode()
    assert code == EXIT_BROKEN_PIPE == 141
    assert first.decode().startswith("C+ ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n", "3"],
        ["cycles", "--genus", "3", "--containing", "C+"],
        ["export", "--genus", "3", "--kind", "bridge", "--containing", "C+"],
        ["--help"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_closed_from_the_start_exits_quietly(argv):
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m nearsym "$@" >&-', sys.executable, *argv],
        capture_output=True, text=True, env=_env_with_src(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "--genus", "3", "--containing", "C+"],
        ["verify", "--genus", "3"],
        ["--help"],
        ["cycles", "--help"],
    ],
    ids=["cycles", "verify", "--help", "cycles --help"],
)
def test_unwritable_stdout_exits_with_the_io_error_code(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nearsym", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_env_with_src(), timeout=60,
        )
    assert proc.returncode == EXIT_IO == 74
    assert re.fullmatch(r"error: cannot write output: [^\n]+\n", proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["cycles", "--help"]], ids=" ".join)
def test_help_that_cannot_be_written_exits_with_the_write_error_code(argv, flags):
    # help is output like any command's, whether stdout is buffered or not:
    # to a full disk, then to a pipe whose reader is gone before it starts
    def help_to(stdout):
        return subprocess.run(
            [sys.executable, *flags, "-m", "nearsym", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=_env_with_src(), timeout=60,
        )

    with open("/dev/full", "w") as full:
        proc = help_to(full)
    assert proc.returncode == EXIT_IO
    assert re.fullmatch(r"error: cannot write output: [^\n]+\n", proc.stderr), proc.stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = help_to(write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")


def _next_descriptor() -> int:
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_leaves_no_descriptor_open():
    # main runs in-process here, as a library caller would run it, so a
    # descriptor left open by each failed write would pile up.  The lowest
    # free number is read while /dev/full is open, so that the number it
    # frees on closing cannot hide one left open.
    for _ in range(3):
        with open("/dev/full", "w") as full, contextlib.redirect_stdout(full):
            before = _next_descriptor()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["cycles", "--genus", "3", "--containing", "C+"]) == EXIT_IO
            assert _next_descriptor() == before
        assert err.getvalue().startswith("error: cannot write output: ")


def test_main_started_without_stdout_puts_none_back(monkeypatch):
    # print() discards its output while sys.stdout is None; a closed file
    # left in its place would make the next print() raise
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["partitions", "--n", "3"]) == 0
    assert sys.stdout is None
    print("discarded")


# Writer oracle: `cycles` output against a reference built here from the
# public enumerate_smooth_cycles and json.dumps, in the format the command
# printed before it rendered from cycle ids.  Cycles travel with their
# pitch unions, (cycle, union) pairs, so that each union is computed once.

def _with_unions(region):
    return [(cyc, cyc.pitch_union) for cyc in enumerate_smooth_cycles(region)]


def _cycles_payload(region, cycles, lo, hi, flats):
    rows = []
    for cyc, union in cycles:
        rows.append({
            "chords": [c.name(flats) for c in cyc.chords],
            "length": len(cyc),
            "pitch_union": sorted(union),
            "set_class": set_class(union).forte_name,
        })
    return {
        "kind": "bridge",
        "genus": region.genus.n,
        "id": str(region.id),
        "min_len": lo,
        "max_len": hi,
        "cycles": rows,
        "count": len(rows),
    }


def _cycles_text(cycles, flats):
    names = NOTE_NAMES_FLAT if flats else NOTE_NAMES_SHARP
    lines = []
    for cyc, union in cycles:
        sc = set_class(union)
        label = sc.forte_name or "(" + ",".join(str(v) for v in sc.prime_form) + ")"
        chords = " ".join(c.name(flats) for c in cyc.chords)
        lines.append(f"{chords} | union {' '.join(names[p] for p in sorted(union))} = {label}\n")
    return "".join(lines) + f"total: {len(cycles)}\n"


def _cycles_out(region, lo, hi, fmt, flats):
    argv = [
        "cycles", "--genus", str(region.genus.n), "--containing", region.members[0].name(),
        "--min-len", str(lo), "--max-len", str(hi), "--format", fmt,
        "--accidentals", "flats" if flats else "sharps",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _assert_same_text(out, expected):
    """out == expected, failing with the first differing line rather than a
    diff of megabytes."""
    if out != expected:
        got, want = out.splitlines(True), expected.splitlines(True)
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {i + 1}: got {got[i:i + 1]}, want {want[i:i + 1]}")


def _assert_byte_equal(region, full, lo, hi, flats):
    cycles = [(cyc, union) for cyc, union in full if lo <= len(cyc) <= hi]
    payload = _cycles_payload(region, cycles, lo, hi, flats)
    _assert_same_text(_cycles_out(region, lo, hi, "json", flats), json.dumps(payload, indent=2) + "\n")
    _assert_same_text(_cycles_out(region, lo, hi, "text", flats), _cycles_text(cycles, flats))


@pytest.mark.parametrize("n", [3, 4])
def test_cycles_writer_matches_the_reference_on_every_window(n):
    for region in bridge_regions(genus(n)):
        full = _with_unions(region)
        for lo in range(4, 2 * n + 1):
            for hi in range(lo, 2 * n + 1):
                for flats in (False, True):
                    _assert_byte_equal(region, full, lo, hi, flats)


def test_cycles_writer_matches_the_reference_on_dodecatonic_windows(monkeypatch):
    region = bridge_regions(genus(6))[0]
    full = _with_unions(region)
    # Byte for byte on the full range and the benchmark's windows, one
    # spelling each; the golden replay pins the other spelling.
    _assert_byte_equal(region, full, 4, 12, False)
    for lo, hi in [(4, 5), (6, 7), (4, 9), (12, 12)]:
        _assert_byte_equal(region, full, lo, hi, True)
    # All 45 windows in both spellings, on every 97th cycle (each length is
    # represented) so that the test stays fast: the enumerator is replaced by
    # that sample, filtered to the window, and the writer must render it.
    # test_length_window_filters_the_full_enumeration checks that a window
    # is the full enumeration filtered by length.
    sample = full[::97]
    assert {len(cyc) for cyc, _ in sample} == {4, 6, 8, 10, 12}
    chords = tuple(sorted(region.members, key=lambda c: c.sort_key))
    ids = [tuple(chords.index(c) for c in cyc.chords) for cyc, _ in sample]
    monkeypatch.setattr(
        nearsym.cli, "smooth_cycle_ids",
        lambda r, lo, hi: (chords, tuple(c for c in ids if lo <= len(c) <= hi)),
    )
    for lo in range(4, 13):
        for hi in range(lo, 13):
            cycles = [(cyc, union) for cyc, union in sample if lo <= len(cyc) <= hi]
            for flats in (False, True):
                payload = _cycles_payload(region, cycles, lo, hi, flats)
                assert json.loads(_cycles_out(region, lo, hi, "json", flats)) == payload
                text = _cycles_out(region, lo, hi, "text", flats)
                _assert_same_text(text, _cycles_text(cycles, flats))


class _WriteSpy(io.StringIO):
    """A stdout that keeps each write as it was made."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cycles_streams_in_writes_of_at_most_one_chunk_of_whole_cycles(fmt):
    # The full n=6 listing, 16,676 cycles: its writes, joined, are the
    # reference writer's text, and each write between the header and the
    # footer holds 1 to CYCLES_PER_WRITE whole cycles of one length, so a
    # reader that stops early, as `| head` does, stops the writer within a
    # chunk rather than after the whole listing.
    region = bridge_regions(genus(6))[0]
    full = _with_unions(region)
    spy = _WriteSpy()
    with contextlib.redirect_stdout(spy):
        assert main(["cycles", "--genus", "6", "--containing", region.members[0].name(), "--format", fmt]) == 0
    if fmt == "json":
        expected = json.dumps(_cycles_payload(region, full, 4, 12, False), indent=2) + "\n"
        header, *chunks, footer = spy.writes
        assert header.endswith('"cycles": [')
        assert footer == f'\n  ],\n  "count": {len(full)}\n}}\n'
        ends = "}"
        lengths = re.compile(r'"length": (\d+)').findall
    else:
        expected = _cycles_text(full, False)
        *chunks, footer = spy.writes
        assert footer == f"total: {len(full)}\n"
        ends = "\n"

        def lengths(text):
            return [len(line.split(" | ")[0].split()) for line in text.splitlines()]
    _assert_same_text("".join(spy.writes), expected)
    per_length = Counter(len(cyc) for cyc, _ in full)
    chunk = nearsym.cli.CYCLES_PER_WRITE
    assert len(chunks) == sum(-(-count // chunk) for count in per_length.values()) > len(per_length)
    for text in chunks:
        found = lengths(text)
        assert text.endswith(ends)
        assert 1 <= len(found) <= chunk and len(set(found)) == 1
