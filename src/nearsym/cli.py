"""Command-line interface.

Subcommands: partitions, apply, relate, region, cycles, export, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain error (a transformation token of another genus),
74 standard output cannot be written (a full disk, ``> /dev/full``; sysexits
EX_IOERR), 141 standard output closed early by its reader
(``nearsym cycles ... | head``; 128 + SIGPIPE, the status a shell gives a
writer killed by a closed pipe).  ``--help`` is output like any other:
its failed write exits 74 or 141 as well, and, started with stdout closed,
it discards its text.  ``_run`` is the one place that maps an error to its
exit code and its ``error:`` line; any library error that no argv can cause
raises out of ``main``.

Each command imports only the modules it runs: ``region``, ``cycles`` and
``export`` import ``nearsym.region``, ``verify`` imports ``nearsym.verify``
(which reads regions too), and only JSON output imports ``json``, so a text
``apply``, ``relate`` or ``partitions`` process loads none of the three.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import asdict
from functools import cache

from .chord import GENERA, NOTE_NAMES_FLAT, NOTE_NAMES_SHARP, genus, parse_chord
from .errors import ChordParseError, CycleLengthError, ForeignTokenError, TokenParseError
from .pcset import set_class
from .symmetry import symmetric_partition
from .transform import apply as apply_transformation
from .transform import transformation, transformation_between
from .voiceleading import catalog_relation, vl_relation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 74
EXIT_BROKEN_PIPE = 141

# Whole cycles per write of `nearsym cycles`: bounds each write and the text
# joined for it.
CYCLES_PER_WRITE = 1024


def _note_names(args) -> tuple[str, ...]:
    return NOTE_NAMES_FLAT if args.flats else NOTE_NAMES_SHARP


def _emit_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def cmd_partitions(args) -> int:
    cells = symmetric_partition(args.n)
    if args.format == "json":
        _emit_json([sorted(cell) for cell in cells])
        return EXIT_OK
    names = _note_names(args)
    for cell in cells:
        print("{" + ", ".join(names[p] for p in sorted(cell)) + "}")
    return EXIT_OK


def _parse_sequence(text: str, g) -> list:
    return [transformation(token, g) for token in text.split(",") if token.strip()]


def cmd_apply(args) -> int:
    g = genus(args.genus)
    chord = parse_chord(args.chord, g)
    sequence = _parse_sequence(args.seq, g)
    steps = []
    current = chord
    for t in sequence:
        nxt = apply_transformation(t, current)
        steps.append((current, t, nxt, catalog_relation(t)))
        current = nxt
    if args.format == "json":
        _emit_json(
            {
                "start": chord.name(args.flats),
                "steps": [
                    {
                        "transform": t.token,
                        "result": nxt.name(args.flats),
                        "relation": list(rel),
                    }
                    for _, t, nxt, rel in steps
                ],
                "result": current.name(args.flats),
            }
        )
        return EXIT_OK
    if args.trace:
        for prev, t, nxt, rel in steps:
            print(f"{prev.name(args.flats)} -{t.token}-> {nxt.name(args.flats)} [{rel.label}]")
    print(current.name(args.flats))
    return EXIT_OK


def cmd_relate(args) -> int:
    g = genus(args.genus)
    a = parse_chord(args.chord_a, g)
    b = parse_chord(args.chord_b, g)
    relation = vl_relation(a, b)
    disjoint = not (a.pitch_classes() & b.pitch_classes())
    t = transformation_between(a, b)
    if args.format == "json":
        _emit_json(
            {
                "a": a.name(args.flats),
                "b": b.name(args.flats),
                "relation": list(relation) if relation else None,
                "disjoint": disjoint,
                "transform": t.token if t else None,
            }
        )
        return EXIT_OK
    relation_text = "disjoint" if disjoint else (relation.label if relation else "none")
    connection = "identity" if a == b else (t.token if t else "none")
    print(f"{relation_text} {connection}")
    return EXIT_OK


def _selected_regions(args, g):
    from .region import RegionKind, arthropod_regions, bridge_regions, region_of

    kind = RegionKind(args.kind)
    if args.containing is not None:
        return [region_of(parse_chord(args.containing, g), kind)]
    return list(arthropod_regions(g) if kind is RegionKind.ARTHROPOD else bridge_regions(g))


def _region_header(region, flats: bool) -> str:
    alias = f" ({region.alias})" if region.alias else ""
    members = " ".join(m.name(flats) for m in region.members)
    return f"{region.family} {region.id}{alias}: {members}"


def cmd_region(args) -> int:
    from .region import region_to_dict

    g = genus(args.genus)
    regions = _selected_regions(args, g)
    if args.format == "json":
        _emit_json([region_to_dict(r, args.flats) for r in regions])
        return EXIT_OK
    for r in regions:
        print(_region_header(r, args.flats))
    return EXIT_OK


def _format_union(union, names) -> str:
    return " ".join(names[p] for p in sorted(union)) + f" = {set_class(union).forte_name}"


def _json_cycle_tail(union, length: int) -> str:
    import json

    pcs = ",\n".join(f"        {p}" for p in sorted(union))
    forte = json.dumps(set_class(union).forte_name)
    return (
        f'\n      ],\n      "length": {length},\n      "pitch_union": [\n{pcs}\n      ],'
        f'\n      "set_class": {forte}\n    }}'
    )


def _write_cycles(codes, words_of, lead: int = 0) -> None:
    """Write coded cycles, given as (k, codes) pairs in the form of
    ``region.smooth_cycle_codes``, one length k at a time.  words_of(k) is
    that length's table: its entry for a code is the whole text the code's
    chord prints at its position; a length without cycles builds none.  A
    chunk of CYCLES_PER_WRITE whole cycles is one join and one write, and
    the first `lead` characters of the first chunk are dropped."""
    write = sys.stdout.write
    for k, codes_k in codes:
        if not codes_k:
            continue
        words = words_of(k).__getitem__
        step = CYCLES_PER_WRITE * k
        for at in range(0, len(codes_k), step):
            write("".join(map(words, codes_k[at:at + step]))[lead:])
            lead = 0


def cmd_cycles(args) -> int:
    from .region import RegionKind, region_of, smooth_cycle_codes

    g = genus(args.genus)
    chord = parse_chord(args.containing, g)
    region = region_of(chord, RegionKind.BRIDGE)
    chords, codes = smooth_cycle_codes(region, args.min_len, args.max_len)
    max_len = args.max_len if args.max_len is not None else len(chords)
    count = sum(len(codes_k) // k for k, codes_k in codes)
    write = sys.stdout.write
    # Rendered one length at a time, in chunks of whole cycles, from the
    # region's cached cycle codes: each byte names a chord and its position
    # in the cycle, and indexes a table of 3 * size words, the whole text
    # that chord prints there (see _write_cycles).  So a chunk is one join
    # at C level and one write; each write stays bounded, so `| head` stops
    # the writer early.  Every smooth cycle covers its region's pitch union
    # (verify's cycle-structure proves it for every cycle), so each cycle's
    # tail is read from region.pitch_union: built once per call for text,
    # once per length for JSON.  The JSON must stay byte-equal to
    # json.dumps(payload, indent=2) + "\n" of the payload {kind, genus, id,
    # min_len, max_len, cycles: [{chords, length, pitch_union, set_class}],
    # count}.
    if args.format == "json":
        import json

        write(
            f'{{\n  "kind": "bridge",\n  "genus": {g.n},\n  "id": "{region.id}",'
            f'\n  "min_len": {args.min_len},\n  "max_len": {max_len},\n  "cycles": ['
        )
        members = [f"        {json.dumps(c.name(args.flats))}" for c in chords]
        inner = [m + ",\n" for m in members]
        first = [',\n    {\n      "chords": [\n' + m for m in inner]

        def json_words(k):
            tail = _json_cycle_tail(region.pitch_union, k)
            return first + inner + [m + tail for m in members]

        # lead=1: the first cycle's head has no leading comma
        _write_cycles(codes, json_words, lead=1)
        write(("\n  ]" if count else "]") + f',\n  "count": {count}\n}}\n')
        return EXIT_OK
    tail = f" | union {_format_union(region.pitch_union, _note_names(args))}\n"
    names = [c.name(args.flats) for c in chords]
    spaced = [name + " " for name in names]
    words = spaced + spaced + [name + tail for name in names]
    _write_cycles(codes, lambda k: words)
    write(f"total: {count}\n")
    return EXIT_OK


def cmd_export(args) -> int:
    from .region import export_graph

    g = genus(args.genus)
    regions = _selected_regions(args, g)
    sys.stdout.write("".join(export_graph(r, args.format, args.flats) for r in regions))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.genus)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        _emit_json(
            {
                "checks": [asdict(r) for r in results],
                "total": len(results),
                "failed": len(failures),
                "passed": not failures,
            }
        )
    else:
        for r in results:
            print(r.line())
        print(f"{len(results)} checks, {len(results) - len(failures)} passed, {len(failures)} failed")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help is output like any command's: a failed
    write raises (argparse's own writer drops it), and stdout is flushed
    before ``--help`` exits, so ``_run`` maps a failure to its exit code."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())

    def exit(self, status=0, message=None):
        sys.stdout.flush()
        super().exit(status, message)


def _output_options(formats: list[str]) -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=formats, default=formats[0])
    output.add_argument("--accidentals", choices=["sharps", "flats"], default="sharps")
    return output


@cache
def build_parser() -> argparse.ArgumentParser:
    output = _output_options(["text", "json"])
    graph_output = _output_options(["dot", "json"])

    with_genus = argparse.ArgumentParser(add_help=False)
    with_genus.add_argument("--genus", type=int, choices=list(GENERA), required=True)

    parser = _Parser(
        prog="nearsym",
        description="Parsimonious voice-leading for nearly symmetric chords",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", parents=[output], help="symmetric octave partitions")
    p.add_argument("--n", type=int, choices=list(GENERA), required=True)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("apply", parents=[with_genus, output], help="apply a transformation sequence")
    p.add_argument("--chord", required=True)
    p.add_argument("--seq", required=True, help="comma-separated transformation tokens")
    p.add_argument("--trace", action="store_true", help="print each intermediate chord")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("relate", parents=[with_genus, output], help="voice-leading relation between two chords")
    p.add_argument("chord_a")
    p.add_argument("chord_b")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("region", parents=[with_genus, output], help="list voice-leading regions")
    p.add_argument("--kind", choices=["arthropod", "bridge"], required=True)
    p.add_argument("--containing", help="restrict to the region containing this chord")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("cycles", parents=[with_genus, output], help="maximally smooth cycles of a bridge region")
    p.add_argument("--containing", required=True)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("export", parents=[with_genus, graph_output], help="export a region graph")
    p.add_argument("--kind", choices=["arthropod", "bridge"], required=True)
    p.add_argument("--containing", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", parents=[output], help="run the structural verification suite")
    p.add_argument("--genus", type=int, choices=list(GENERA), default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _run(argv: list[str] | None) -> int:
    """Parse argv and run the command, and map each error an input can cause
    to its exit code: a failed write, ``--help``'s too, to 74 or 141, and the
    four errors an argv can cause, each raised before any output, to 2, or to
    3 for a token of another genus.  A usage error or ``--help`` leaves as
    argparse's ``SystemExit``.  Any other error is a fault in the library,
    and raises."""
    try:
        args = build_parser().parse_args(argv)
        args.flats = args.accidentals == "flats"
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except OSError as exc:
        # The reader is gone or the output cannot be written.  Point stdout
        # at devnull so that the flush at interpreter exit has somewhere to
        # put what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    except (ChordParseError, TokenParseError, CycleLengthError, ForeignTokenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, ForeignTokenError) else EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is not None:
        return _run(argv)
    # Started with stdout closed: discard the output, as print() would.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
