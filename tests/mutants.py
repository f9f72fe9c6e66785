"""A catalogue of single-edit mutants of nearsym, each with the tests that kill it.

An entry names a mutant, the file it edits (relative to the repository root),
the exact text it replaces, which must occur once in that file, the text put
in its place, and the tests that must fail with the edit in place.
``test_mutants.py`` checks the catalogue against the tree on every tier-1 run;
this module's runner checks that each mutant is killed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, runs every named test once on the unmutated copy, then applies one
mutant at a time and runs each of that mutant's tests in a pytest process of
its own, under a timeout.  It prints ``killed`` or ``survived`` per mutant,
then one JSON line, and exits 1 if any mutant survives.  A mutant is killed
when every test it names fails, or runs past the timeout; a test that cannot
be collected kills nothing.  Standard library only, apart from the pytest the
tests need.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


# _run's clause for the errors an argv can cause, through its choice of exit
# code: a mutant that maps another error to exit 3 edits both.
_ARGV_ERROR_CLAUSE = (
    "ForeignTokenError) as exc:\n"
    '        print(f"error: {exc}", file=sys.stderr)\n'
    "        return EXIT_DOMAIN if isinstance(exc, ForeignTokenError)"
)

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "window-bound-size-plus-1",
        "src/nearsym/region.py",
        "if not 4 <= min_len <= max_len <= size:",
        "if not 4 <= min_len <= max_len <= size + 1:",
        (
            "tests/test_region.py::test_cycle_bounds_are_validated",
            "tests/test_cli.py::test_cycles_rejects_bad_bounds",
        ),
    ),
    Mutant(
        "json-header-max-len-minus-1",
        "src/nearsym/cli.py",
        "max_len = args.max_len if args.max_len is not None else len(chords)",
        "max_len = args.max_len if args.max_len is not None else len(chords) - 1",
        (
            "tests/test_cli.py::test_cycles_json",
            "tests/test_golden_cli.py::test_cli_output_matches_golden",
        ),
    ),
    Mutant(
        "bridge-members-both-blocks-from-first",
        "src/nearsym/region.py",
        "return chords[first::2 * step] + chords[first + 1::2 * step]",
        "return chords[first::2 * step] + chords[first::2 * step]",
        (
            "tests/test_region.py::test_membership_is_arithmetic_and_reads_no_built_region",
            "tests/test_acceptance.py::test_criterion_7_graph_shapes",
        ),
    ),
    Mutant(
        "arthropod-members-reads-region-of",
        "src/nearsym/region.py",
        "return arthropod_collection(parent_symmetric_cell(c).cell)",
        "return region_of(c, RegionKind.ARTHROPOD).members",
        ("tests/test_region.py::test_membership_is_arithmetic_and_reads_no_built_region",),
    ),
    Mutant(
        "spelling-switch-inverted",
        "src/nearsym/cli.py",
        'args.flats = args.accidentals == "flats"',
        'args.flats = args.accidentals != "flats"',
        (
            "tests/test_cli.py::test_partitions_flats",
            "tests/test_golden_cli.py::test_cli_output_matches_golden",
        ),
    ),
    Mutant(
        "run-checks-skips-n6",
        "src/nearsym/verify.py",
        "scopes = [None, *GENERA] if genus_filter is None",
        "scopes = [None, 3, 4] if genus_filter is None",
        (
            "tests/test_golden_cli.py::test_cli_output_matches_golden",
            "tests/test_region.py::test_verify_walks_each_genus_once_and_shares_its_cycles",
        ),
    ),
    Mutant(
        "facts-tables-shared-across-scopes",
        "src/nearsym/verify.py",
        "setattr(self, table, value)",
        "setattr(_Facts, table, value)",
        ("tests/test_golden_cli.py::test_cli_output_matches_golden",),
    ),
    Mutant(
        "same-region-reads-region-of",
        "src/nearsym/verify.py",
        "return image in (arthropod_members(c) if arthropod else bridge_members(c))",
        "kind = RegionKind.ARTHROPOD if arthropod else RegionKind.BRIDGE\n"
        "    return region_of(image, kind) == region_of(c, kind)",
        ("tests/test_verify.py::test_an_oracle_reaches_none_of_the_functions_it_confirms",),
    ),
    Mutant(
        "walk-extends-highest-bit-first",
        "src/nearsym/region.py",
        "    rest = nbm[path[-1]] & free\n    while rest:\n        bit = rest & -rest\n",
        "    rest = nbm[path[-1]] & free\n    while rest:\n        bit = 1 << (rest.bit_length() - 1)\n",
        (
            "tests/test_region.py::test_the_walk_matches_networkx_on_random_graphs",
            "tests/test_acceptance.py::test_criterion_8_cycle_oracle_equivalence",
        ),
    ),
    Mutant(
        "walk-drops-ends-test",
        "src/nearsym/region.py",
        "if length >= 4 and ends & bit:",
        "if length >= 4:",
        (
            "tests/test_cli.py::test_cycles_hamiltonian_count",
            "tests/test_region.py::test_the_walk_matches_networkx_on_random_graphs",
        ),
    ),
    Mutant(
        "walk-emits-length-3",
        "src/nearsym/region.py",
        "if length >= 4 and ends & bit:",
        "if length >= 3 and ends & bit:",
        (
            "tests/test_region.py::test_the_walk_lists_no_cycle_shorter_than_four",
            "tests/test_region.py::test_the_walk_matches_networkx_on_random_graphs",
        ),
    ),
    Mutant(
        "parse-memo-unbounded",
        "src/nearsym/chord.py",
        "@lru_cache(maxsize=256)",
        "@lru_cache(maxsize=None)",
        ("tests/test_chord.py::test_the_parse_memo_is_bounded",),
    ),
    Mutant(
        "chord-index-swaps-modality",
        "src/nearsym/chord.py",
        'return 2 * _pitch_class(s[:-1], text) + (s[-1] == "-")',
        'return 2 * _pitch_class(s[:-1], text) + (s[-1] == "+")',
        (
            "tests/test_chord.py::test_every_accepted_spelling_parses_to_the_table_entry",
            "tests/test_chord.py::test_parse_chord_agrees_with_parse_note_and_the_modality_rule",
        ),
    ),
    Mutant(
        "parse-chord-reads-the-triad-table",
        "src/nearsym/chord.py",
        "return all_chords(g)[index]",
        "return all_chords(TRIADS)[index]",
        (
            "tests/test_chord.py::test_every_accepted_spelling_parses_to_the_table_entry",
            "tests/test_chord.py::test_parse_chord_agrees_with_parse_note_and_the_modality_rule",
        ),
    ),
    Mutant(
        "ssd-neighbors-reads-arthropod-slides",
        "src/nearsym/voiceleading.py",
        "if catalog_relation(t) == VoiceLeading(1, 0))",
        "if catalog_relation(t) == VoiceLeading(2, 0))",
        (
            "tests/test_voiceleading.py::test_ssd_neighbors_of_a_major_triad",
            "tests/test_transform.py::test_ssd_neighbors_follow_a_changed_bridge_slide_offset",
        ),
    ),
    Mutant(
        "cache-clearing-spares-voiceleading",
        "tests/conftest.py",
        'if hasattr(value, "cache_clear"):',
        'if hasattr(value, "cache_clear") and value.__module__ != "nearsym.voiceleading":',
        ("tests/test_transform.py::test_ssd_neighbors_follow_a_changed_bridge_slide_offset",),
    ),
    Mutant(
        "region-of-arthropod-note-plus-1",
        "src/nearsym/region.py",
        "[parent_symmetric_cell(c).note % (12 // c.genus.n)]",
        "[(parent_symmetric_cell(c).note + 1) % (12 // c.genus.n)]",
        (
            "tests/test_region.py::test_named_region_membership",
            "tests/test_region.py::test_membership_is_arithmetic_and_reads_no_built_region",
        ),
    ),
    Mutant(
        "run-checks-catches-every-exception",
        "src/nearsym/verify.py",
        "except InvariantViolationError as exc:",
        "except Exception as exc:",
        ("tests/test_verify.py::test_a_claim_builds_only_the_tables_it_reads",),
    ),
    Mutant(
        "run-checks-catches-no-invariant-violation",
        "src/nearsym/verify.py",
        "except InvariantViolationError as exc:",
        "except ZeroDivisionError as exc:",
        (
            "tests/test_transform.py::test_verify_names_a_wrong_offset_of_each_kind_without_raising",
            "tests/test_transform.py::test_verify_prints_every_line_for_a_wrong_offset_while_library_callers_raise",
        ),
    ),
    Mutant(
        "chord-constructor-skips-mod-12",
        "src/nearsym/chord.py",
        "root = operator.index(self.root) % 12",
        "root = operator.index(self.root)",
        (
            "tests/test_chord.py::test_the_public_constructor_builds_a_new_equal_chord",
            "tests/test_chord.py::test_chord_hash_follows_the_reduced_root",
            "tests/test_chord.py::test_the_constructor_returns_the_table_entry_for_every_root",
        ),
    ),
    Mutant(
        "bridge-fact-reads-arthropod-regions",
        "src/nearsym/verify.py",
        '"bridge": lambda f: bridge_regions(f.g),',
        '"bridge": lambda f: arthropod_regions(f.g),',
        (
            "tests/test_verify.py::test_a_claim_builds_only_the_tables_it_reads",
            "tests/test_golden_cli.py::test_cli_output_matches_golden",
        ),
    ),
    Mutant(
        "arthropod-partition-reads-bridge-tiling",
        "src/nearsym/verify.py",
        "lambda f, case: f.arthropod_tiled and _in_region(f, case),",
        "lambda f, case: f.bridge_tiled and _in_region(f, case),",
        (
            "tests/test_verify.py::test_a_claim_builds_only_the_tables_it_reads",
            "tests/test_transform.py::test_a_wrong_offset_fails_only_the_claims_that_read_its_region_kind",
        ),
    ),
    Mutant(
        "arthropod-builder-labels-bridge-slides",
        "src/nearsym/region.py",
        "kinds = (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE)",
        "kinds = (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE)",
        (
            "tests/test_region.py::test_edge_counts_and_degrees",
            "tests/test_golden_library.py::test_library_matches_golden",
        ),
    ),
    Mutant(
        "chord-skips-its-genus-check",
        "src/nearsym/chord.py",
        "if not isinstance(genus, Genus) or not isinstance(modality, Modality):",
        "if not isinstance(modality, Modality):",
        (
            "tests/test_chord.py::test_chord_lookups_reject_a_genus_that_is_no_genus",
            "tests/test_chord.py::test_the_constructor_rejects_bad_input",
        ),
    ),
    Mutant(
        "cli-maps-not-a-member-to-exit-3",
        "src/nearsym/cli.py",
        _ARGV_ERROR_CLAUSE,
        _ARGV_ERROR_CLAUSE.replace(
            "ForeignTokenError)", '(ForeignTokenError, sys.modules["nearsym.errors"].NotAMemberError))'
        ),
        ("tests/test_cli.py::test_a_library_fault_inside_a_command_raises_instead_of_exiting_3",),
    ),
    Mutant(
        "chord-table-reads-the-plus-template",
        "src/nearsym/chord.py",
        "for i in genus.template(modality))",
        "for i in genus.plus_template)",
        (
            "tests/test_chord.py::test_pitch_classes",
            "tests/test_chord.py::test_pitch_classes_lookup_matches_the_template_for_all_72_chords",
        ),
    ),
    Mutant(
        "unpaired-drops-the-bridge-slides",
        "src/nearsym/region.py",
        "tuple(t.token for t in slides if t.token not in paired)",
        "tuple(t.token for t in slides if t.token not in paired and t.kind is Kind.ARTHROPOD_SLIDE)",
        ("tests/test_region.py::test_a_slide_whose_parts_match_no_partner_leaves_both_unpaired",),
    ),
    Mutant(
        "token-of-another-genus-is-a-parse-error",
        "src/nearsym/transform.py",
        'raise ForeignTokenError(\n            f"transformation {_ROWS[n][index][0]!r}',
        'raise TokenParseError(\n            f"transformation {_ROWS[n][index][0]!r}',
        (
            "tests/test_transform.py::test_token_errors",
            "tests/test_cli.py::test_each_error_an_argv_can_cause_exits_with_its_code_and_one_error_line[foreign-token]",
        ),
    ),
    Mutant(
        "registry-key-drops-the-last-field",
        "src/nearsym/chord.py",
        "key = (cls, *(getattr(obj, f.name) for f in fields(cls)))",
        "key = (cls, *(getattr(obj, f.name) for f in fields(cls)[:-1]))",
        (
            "tests/test_chord.py::test_copies_of_a_genus_are_the_genus",
            "tests/test_transform.py::test_rebuilt_transformations_equal_and_hash_like_the_catalog",
            "tests/test_transform.py::test_copies_of_a_transformation_are_the_transformation",
        ),
    ),
    Mutant(
        "rebuild-drops-the-last-field",
        "src/nearsym/chord.py",
        "tuple(getattr(obj, f.name) for f in fields(obj))",
        "tuple(getattr(obj, f.name) for f in fields(obj)[:-1])",
        (
            "tests/test_chord.py::test_copies_of_a_genus_are_the_genus",
            "tests/test_chord.py::test_copies_of_a_chord_are_the_chord",
            "tests/test_transform.py::test_copies_of_a_transformation_are_the_transformation",
        ),
    ),
    Mutant(
        "registry-insert-skips-the-lock",
        "src/nearsym/chord.py",
        "with _LOCK:\n            return _REGISTRY.setdefault(key, obj)",
        "return _REGISTRY.setdefault(key, obj)",
        ("tests/test_chord.py::test_threads_that_first_use_a_genus_together_get_one_object_per_value",),
    ),
    Mutant(
        "registry-holds-its-objects-strongly",
        "src/nearsym/chord.py",
        "= weakref.WeakValueDictionary()",
        "= {}",
        ("tests/test_chord.py::test_the_registry_frees_what_nobody_holds",),
    ),
    Mutant(
        "signature-keeps-self",
        "src/nearsym/chord.py",
        "params = list(sig.parameters.values())[1:]",
        "params = list(sig.parameters.values())",
        ("tests/test_chord.py::test_each_registered_class_shows_its_dataclass_signature",),
    ),
    Mutant(
        "empty-containing-reads-as-absent",
        "src/nearsym/cli.py",
        "if args.containing is not None:",
        "if args.containing:",
        ("tests/test_cli.py::test_an_empty_containing_chord_is_a_parse_error",),
    ),
    Mutant(
        "region-kinds-bound-swapped",
        "src/nearsym/region.py",
        "_ARTHROPOD, _BRIDGE = RegionKind",
        "_BRIDGE, _ARTHROPOD = RegionKind",
        (
            "tests/test_region.py::test_named_region_membership",
            "tests/test_golden_library.py::test_library_matches_golden",
        ),
    ),
    Mutant(
        "cli-maps-every-genus-mismatch-to-exit-3",
        "src/nearsym/cli.py",
        _ARGV_ERROR_CLAUSE,
        _ARGV_ERROR_CLAUSE.replace("ForeignTokenError)", 'sys.modules["nearsym.errors"].GenusMismatchError)'),
        ("tests/test_cli.py::test_a_library_fault_inside_a_command_raises_instead_of_exiting_3",),
    ),
    Mutant(
        "cycles-catches-every-value-error",
        "src/nearsym/cli.py",
        "CycleLengthError, ForeignTokenError) as exc:",
        "ValueError, ForeignTokenError) as exc:",
        ("tests/test_cli.py::test_a_region_of_the_wrong_kind_in_cycles_raises_instead_of_exiting_2",),
    ),
    Mutant(
        "superscript-needs-two-characters",
        "src/nearsym/transform.py",
        "len(cleaned) > 4:",
        "len(cleaned) > 5:",
        ("tests/test_transform.py::test_token_parsing_accepts_superscript_and_full_spellings",),
    ),
    Mutant(
        "perturb-reduces-mod-13",
        "src/nearsym/chord.py",
        "note %= 12",
        "note %= 13",
        ("tests/test_chord.py::test_perturb_examples",),
    ),
    Mutant(
        "forte-labels-4-27-and-4-28-swapped",
        "src/nearsym/pcset.py",
        '(0, 2, 5, 8): "4-27",\n    (0, 3, 6, 9): "4-28",',
        '(0, 2, 5, 8): "4-28",\n    (0, 3, 6, 9): "4-27",',
        ("tests/test_pcset.py::test_each_forte_label_names_the_class_with_its_published_vector",),
    ),
    Mutant(
        "failed-write-keeps-the-devnull-descriptor",
        "src/nearsym/cli.py",
        "        os.close(devnull)\n",
        "",
        ("tests/test_cli.py::test_a_failed_write_leaves_no_descriptor_open",),
    ),
    Mutant(
        "closed-stdout-run-binds-sys-stdout",
        "src/nearsym/cli.py",
        "as devnull, contextlib.redirect_stdout(devnull):",
        "as sys.stdout:",
        ("tests/test_cli.py::test_main_started_without_stdout_puts_none_back",),
    ),
    Mutant(
        "argv-error-exit-codes-swapped",
        "src/nearsym/cli.py",
        "return EXIT_DOMAIN if isinstance(exc, ForeignTokenError) else EXIT_USAGE",
        "return EXIT_USAGE if isinstance(exc, ForeignTokenError) else EXIT_DOMAIN",
        ("tests/test_cli.py::test_each_error_an_argv_can_cause_exits_with_its_code_and_one_error_line",),
    ),
    Mutant(
        "chord-error-quotes-the-note-part",
        "src/nearsym/chord.py",
        "_pitch_class(s[:-1], text)",
        "_pitch_class(s[:-1], s[:-1])",
        ("tests/test_cli.py::test_a_chord_text_error_quotes_the_whole_text",),
    ),
    Mutant(
        "bridge-region-index-shifted",
        "src/nearsym/region.py",
        "return bridge_regions(c.genus)[c.root % (12 // c.genus.n)]",
        "return bridge_regions(c.genus)[(c.root + 1) % (12 // c.genus.n)]",
        ("tests/test_metamorphic.py::test_region_member_sets_map_onto_member_sets",),
    ),
    Mutant(
        "cycles-tail-at-the-first-position",
        "src/nearsym/cli.py",
        "spaced + spaced + [name + tail for name in names]",
        "[name + tail for name in names] + spaced + spaced",
        ("tests/test_cli.py::test_cycles_writer_matches_the_reference_on_every_window",),
    ),
    Mutant(
        "cycles-json-keeps-the-first-comma",
        "src/nearsym/cli.py",
        "json_words, lead=1)",
        "json_words, lead=0)",
        ("tests/test_cli.py::test_cycles_writer_matches_the_reference_on_every_window",),
    ),
    Mutant(
        "cycles-json-drops-a-comma-per-chunk",
        "src/nearsym/cli.py",
        "[lead:])\n            lead = 0\n",
        "[lead:])\n",
        (
            "tests/test_cli.py::test_cycles_writer_matches_the_reference_on_dodecatonic_windows",
            "tests/test_cli.py::test_cycles_streams_in_writes_of_at_most_one_chunk_of_whole_cycles",
        ),
    ),
    Mutant(
        "cycles-chunk-splits-a-cycle",
        "src/nearsym/cli.py",
        "step = CYCLES_PER_WRITE * k",
        "step = CYCLES_PER_WRITE",
        # a code carries its position, so a chunk of CYCLES_PER_WRITE codes
        # still joins to the same text; only the writes show the split cycle
        ("tests/test_cli.py::test_cycles_streams_in_writes_of_at_most_one_chunk_of_whole_cycles",),
    ),
    Mutant(
        "cycle-codes-last-position-coded-as-inner",
        "src/nearsym/region.py",
        "codes[k - 1::k] = codes[k - 1::k].translate(last)",
        "codes[k - 1::k] = codes[k - 1::k].translate(inner)",
        (
            "tests/test_region.py::test_the_codes_decode_to_the_ids_on_every_window",
            "tests/test_cli.py::test_cycles_writer_matches_the_reference_on_every_window",
        ),
    ),
    Mutant(
        "cycle-codes-window-drops-its-longest-length",
        "src/nearsym/region.py",
        "_coded(nbm)[min_len - 4:max_len - 3]",
        "_coded(nbm)[min_len - 4:max_len - 4]",
        (
            "tests/test_region.py::test_the_codes_decode_to_the_ids_on_every_window",
            "tests/test_cli.py::test_cycles_writer_matches_the_reference_on_every_window",
            "tests/test_cli.py::test_cycles_writer_matches_the_reference_on_dodecatonic_windows",
        ),
    ),
    Mutant(
        "transformation-between-scans-every-call",
        "src/nearsym/transform.py",
        "@cache\ndef transformation_between(",
        "def transformation_between(",
        ("tests/test_transform.py::test_transformation_between_scans_the_catalog_once_per_pair",),
    ),
    Mutant(
        "full-spelling-keyed-by-the-moved-part",
        "src/nearsym/transform.py",
        'if token == f"S{held}" else token',
        'if token == f"S{moved}" else token',
        ("tests/test_transform.py::test_every_spelling_names_its_row_in_its_genus_only",),
    ),
    Mutant(
        "help-exits-without-a-flush",
        "src/nearsym/cli.py",
        "sys.stdout.flush()\n        super().exit(status, message)",
        "super().exit(status, message)",
        (
            "tests/test_cli.py::test_unwritable_stdout_exits_with_the_io_error_code[--help]",
            "tests/test_cli.py::test_help_that_cannot_be_written_exits_with_the_write_error_code",
        ),
    ),
    Mutant(
        "help-write-error-swallowed",
        "src/nearsym/cli.py",
        "(file or sys.stdout).write(self.format_help())",
        "super().print_help(file)",
        ("tests/test_cli.py::test_help_that_cannot_be_written_exits_with_the_write_error_code",),
    ),
)


def _pytest(workdir: Path, tests: list[str]) -> str:
    """'passed', 'failed', 'timeout', or 'error' (nothing ran, e.g. a test
    that cannot be collected) for one pytest run in workdir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error")


def run(mutants: list[Mutant]) -> dict:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nearsym-mutants-") as tmp:
        work = Path(tmp)
        # no __pycache__ is copied or written, so no stale bytecode of one
        # mutant is read under another of the same size
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        baseline = _pytest(work, sorted({t for m in mutants for t in m.tests}))
        if baseline != "passed":
            raise SystemExit(f"the named tests do not pass on the unmutated tree: {baseline}")
        outcomes = {}
        for m in mutants:
            path = work / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: its old text does not occur exactly once in {m.file}")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                results = {test: _pytest(work, [test]) for test in m.tests}
            finally:
                path.write_text(original, encoding="utf-8")
            spared = [test for test, result in results.items() if result not in ("failed", "timeout")]
            outcomes[m.name] = "survived" if spared else "killed"
            detail = "".join(f"\n  {results[test]}: {test}" for test in spared)
            print(f"{outcomes[m.name]:8} {m.name}{detail}", flush=True)
    survived = [name for name, outcome in outcomes.items() if outcome == "survived"]
    return {
        "mutants": len(outcomes),
        "killed": len(outcomes) - len(survived),
        "survived": survived,
        "wall_s": round(time.perf_counter() - start, 1),
    }


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    summary = run([by_name[n] for n in names] if names else list(MUTANTS))
    print(json.dumps(summary))
    return 1 if summary["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
