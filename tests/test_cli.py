import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearsym.pcset
from nearsym.cli import main


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


def test_apply_bad_chord_is_a_parse_error(capsys):
    code, _, err = run(capsys, "apply", "--genus", "3", "--chord", "X+", "--seq", "R")
    assert code == 2
    assert "error" in err


def test_apply_wrong_genus_token_is_a_domain_error(capsys):
    code, _, err = run(capsys, "apply", "--genus", "3", "--chord", "C+", "--seq", "Z")
    assert code == 3
    assert "n=6" in err


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
    assert payload["count"] == 1
    assert payload["cycles"][0]["length"] == 6
    assert payload["cycles"][0]["set_class"] == "6-20"


def test_cycles_rejects_bad_bounds(capsys):
    code, _, err = run(
        capsys, "cycles", "--genus", "3", "--containing", "C+", "--min-len", "3"
    )
    assert code == 2
    assert "cycle lengths" in err


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
