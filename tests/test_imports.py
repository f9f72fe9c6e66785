"""What each command imports, and the public surface of the package.

A command loads only the modules it runs: ``import nearsym`` loads no
submodule, a text ``apply``, ``relate`` or ``partitions`` leaves ``region``,
``verify`` and ``json`` unloaded, and the package resolves each public name
on first use.  The module checks run in fresh child processes with the
benchmark's environment: no ``PYTHON*`` settings, the checkout's ``src`` on
``PYTHONPATH``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nearsym

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules a command may defer: the two heavy layers and the JSON writer.
DEFERRED = ("json", "nearsym.region", "nearsym.verify")

# Run a command through nearsym.cli.main (or, with no arguments, only
# import the package), write the loaded nearsym modules and json to stderr,
# and exit with the command's code.  The report imports nothing, so that
# json stays unloaded unless the command loaded it.
PROBE = """\
import sys
code = 0
if sys.argv[1:]:
    from nearsym.cli import main
    code = main(sys.argv[1:])
else:
    import nearsym
sys.stderr.write(" ".join(sorted(m for m in sys.modules if m == "json" or m.partition(".")[0] == "nearsym")))
sys.exit(code)
"""


def _loaded(*argv: str) -> set[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return set(proc.stderr.split())


TEXT_COMMANDS = {
    "apply": ["apply", "--genus", "6", "--chord", "C+", "--seq", "SA(3),Z"],
    "relate": ["relate", "--genus", "4", "C+", "D#-"],
    "partitions": ["partitions", "--n", "3"],
}

COMMANDS = {
    **TEXT_COMMANDS,
    "region": ["region", "--genus", "3", "--kind", "bridge"],
    "cycles": ["cycles", "--genus", "3", "--containing", "C+"],
    "export": ["export", "--genus", "3", "--kind", "arthropod", "--containing", "C+"],
    "verify": ["verify", "--genus", "3"],
}


def test_importing_the_package_loads_no_submodule():
    assert _loaded() == {"nearsym"}


@pytest.mark.parametrize("command", sorted(TEXT_COMMANDS))
def test_a_text_command_of_the_involutions_loads_neither_region_verify_nor_json(command):
    loaded = _loaded(*TEXT_COMMANDS[command])
    assert "nearsym.cli" in loaded
    assert loaded.isdisjoint(DEFERRED)


@pytest.mark.parametrize("command", sorted(TEXT_COMMANDS))
def test_json_output_loads_json(command):
    assert "json" in _loaded(*TEXT_COMMANDS[command], "--format", "json")


def test_only_verify_loads_verify():
    loads_verify = {name for name, argv in COMMANDS.items() if "nearsym.verify" in _loaded(*argv)}
    assert loads_verify == {"verify"}


# Every public name of the package, with the submodule that defines it; a
# submodule is public under its own name.  ``from nearsym import *`` binds
# all of them, and ``__version__`` is public too.
SURFACE = {
    "chord": "Chord Direction GENERA Genus HEXACHORDS Modality Perturbation TETRADS TRIADS all_chords "
    "arthropod_collection find_chord genus name_of parent_symmetric_cell parse_chord perturb",
    "errors": "ChordParseError CycleLengthError ForeignTokenError GenusMismatchError InvariantViolationError "
    "NotAMemberError TokenParseError UnsupportedCardinalityError",
    "pcset": "PcSet SetClass interval_class_vector invert pc prime_form set_class transpose",
    "region": "Complementarity Edge Region RegionKind SmoothCycle arthropod_members arthropod_regions "
    "bridge_members bridge_regions complementarity_pairs enumerate_smooth_cycles export_graph polar "
    "region_of region_to_dict",
    "symmetry": "cycle_from_generator generators_of_z12 is_symmetric_cell symmetric_partition",
    "transform": "Kind Transformation apply apply_sequence catalog transformation transformation_between",
    "verify": "CheckResult run_checks",
    "voiceleading": "VoiceLeading catalog_relation ssd_neighbors vl_relation",
}
HOME = {name: module for module, names in SURFACE.items() for name in names.split()}
STAR = {*SURFACE, *HOME}


def test_dir_lists_every_public_name_and_the_version():
    assert sorted(STAR - set(dir(nearsym))) == []
    assert "__version__" in dir(nearsym) and nearsym.__version__ == "0.1.0"


def test_a_public_name_is_the_object_its_module_defines_and_stays_bound():
    for name in sorted(STAR):
        home = importlib.import_module(f"nearsym.{HOME.get(name, name)}")
        value = getattr(nearsym, name)
        assert value is (home if name in SURFACE else getattr(home, name)), name
        assert vars(nearsym)[name] is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nearsym import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR
    assert len(STAR) == 73


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'nearsym' has no attribute 'no_such_name'$"):
        nearsym.no_such_name
