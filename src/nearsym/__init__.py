"""Parsimonious voice-leading for nearly symmetric chords.

Chords of cardinality 3, 4, and 6 that sit one semitone displacement away
from a symmetric partition of the octave (major/minor triads, dominant and
half-diminished sevenths, Wozzeck and mystic hexachords), the named
involutions between them, and their voice-leading regions as labeled graphs.
"""

from .chord import (
    Chord,
    Direction,
    GENERA,
    Genus,
    HEXACHORDS,
    Modality,
    Perturbation,
    TETRADS,
    TRIADS,
    all_chords,
    arthropod_collection,
    find_chord,
    genus,
    name_of,
    parent_symmetric_cell,
    parse_chord,
    perturb,
)
from .errors import (
    ChordParseError,
    CycleLengthError,
    ForeignTokenError,
    GenusMismatchError,
    InvariantViolationError,
    NotAMemberError,
    TokenParseError,
    UnsupportedCardinalityError,
)
from .pcset import (
    PcSet,
    SetClass,
    interval_class_vector,
    invert,
    pc,
    prime_form,
    set_class,
    transpose,
)
from .region import (
    Complementarity,
    Edge,
    Region,
    RegionKind,
    SmoothCycle,
    arthropod_members,
    arthropod_regions,
    bridge_members,
    bridge_regions,
    complementarity_pairs,
    enumerate_smooth_cycles,
    export_graph,
    polar,
    region_of,
    region_to_dict,
)
from .symmetry import (
    cycle_from_generator,
    generators_of_z12,
    is_symmetric_cell,
    symmetric_partition,
)
from .transform import (
    Kind,
    Transformation,
    apply,
    apply_sequence,
    catalog,
    transformation,
    transformation_between,
)
from .verify import CheckResult, run_checks
from .voiceleading import VoiceLeading, catalog_relation, ssd_neighbors, vl_relation

__version__ = "0.1.0"
