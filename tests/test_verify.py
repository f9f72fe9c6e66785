"""The cycle-structure check fails on tampered enumerator output and names
the offending cycle and the rule it breaks; on honest output it passes with
an empty detail."""

import pytest

from nearsym import verify
from nearsym.chord import genus
from nearsym.region import SmoothCycle, bridge_regions, enumerate_smooth_cycles, polar

REGION = bridge_regions(genus(6))[0]
CYCLES = enumerate_smooth_cycles(REGION)
K = 50  # a 4-cycle in the middle of the 90 four-chord cycles
A, B, C, D = CYCLES[K].chords  # A, C share a modality; B, D the other


def _names(*chords):
    return " ".join(c.name() for c in chords)


def _replace_kth(*chords):
    return CYCLES[:K] + (SmoothCycle(chords),) + CYCLES[K + 1 :]


# tamper -> (enumerator output, expected cycle-structure detail)
TAMPERS = {
    "non-edge hop": (
        _replace_kth(A, polar(A), C, D),
        f"cycle {_names(A, polar(A), C, D)}: {A} -> {polar(A)} is not an edge",
    ),
    "repeated chord": (
        _replace_kth(A, B, A, D),
        f"cycle {_names(A, B, A, D)}: {A} repeats",
    ),
    "same-modality neighbours": (
        _replace_kth(A, B, D, C),
        f"cycle {_names(A, B, D, C)}: {C} -> {A} keeps the modality",
    ),
    "no full-length cycle": (
        tuple(cyc for cyc in CYCLES if len(cyc) < 12),
        "dodecatonic region 0 has no cycle of length 12",
    ),
}


def _enumerate_as(monkeypatch, cycles):
    real = enumerate_smooth_cycles
    monkeypatch.setattr(
        verify, "enumerate_smooth_cycles", lambda r: cycles if r == REGION else real(r)
    )


def test_cycle_structure_passes_on_the_enumerator_output(monkeypatch):
    assert len(CYCLES[K]) == 4
    assert A.modality is C.modality is not B.modality is D.modality
    _enumerate_as(monkeypatch, CYCLES)
    assert verify._cycle_checks(REGION) == (True, "")


@pytest.mark.parametrize("tamper", TAMPERS)
def test_cycle_structure_names_the_tampered_cycle(monkeypatch, tamper):
    cycles, detail = TAMPERS[tamper]
    _enumerate_as(monkeypatch, cycles)
    assert verify._cycle_checks(REGION)[1] == detail


def test_a_tampered_region_fails_only_its_claims_in_the_report(monkeypatch):
    cycles, detail = TAMPERS["non-edge hop"]
    _enumerate_as(monkeypatch, cycles)
    failed = [r.line() for r in verify.run_checks(6) if not r.passed]
    assert failed == [f"FAIL cycle-structure [n=6]: {detail}"]
