"""Parsimonious voice-leading for nearly symmetric chords.

Chords of cardinality 3, 4, and 6 that sit one semitone displacement away
from a symmetric partition of the octave (major/minor triads, dominant and
half-diminished sevenths, Wozzeck and mystic hexachords), the named
involutions between them, and their voice-leading regions as labeled graphs.

Public names are resolved on first use (PEP 562): ``import nearsym`` loads
no submodule, and the first read of a name imports the submodule that
defines it and binds the name here, so later reads are plain attribute
reads.  ``_PUBLIC`` is the one table of names; ``__all__`` and ``dir()``
are read from it.
"""

import importlib

# Each submodule and the public names read from it.
_PUBLIC = {
    "chord": (
        "Chord", "Direction", "GENERA", "Genus", "HEXACHORDS", "Modality", "Perturbation",
        "TETRADS", "TRIADS", "all_chords", "arthropod_collection", "find_chord", "genus", "name_of",
        "parent_symmetric_cell", "parse_chord", "perturb",
    ),
    "errors": (
        "ChordParseError", "CycleLengthError", "ForeignTokenError", "GenusMismatchError",
        "InvariantViolationError", "NotAMemberError", "TokenParseError",
        "UnsupportedCardinalityError",
    ),
    "pcset": (
        "PcSet", "SetClass", "interval_class_vector", "invert", "pc", "prime_form", "set_class",
        "transpose",
    ),
    "region": (
        "Complementarity", "Edge", "Region", "RegionKind", "SmoothCycle", "arthropod_members",
        "arthropod_regions", "bridge_members", "bridge_regions", "complementarity_pairs",
        "enumerate_smooth_cycles", "export_graph", "polar", "region_of", "region_to_dict",
    ),
    "symmetry": (
        "cycle_from_generator", "generators_of_z12", "is_symmetric_cell", "symmetric_partition",
    ),
    "transform": (
        "Kind", "Transformation", "apply", "apply_sequence", "catalog", "transformation",
        "transformation_between",
    ),
    "verify": ("CheckResult", "run_checks"),
    "voiceleading": ("VoiceLeading", "catalog_relation", "ssd_neighbors", "vl_relation"),
}

# Name -> the submodule that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
