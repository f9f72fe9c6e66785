"""Seeded input generation for the four workloads.

Pure standard library: nothing here imports nearsym, so every input is plain
text or numbers that the workload then hands to the program unchanged.

The CLI and library workloads draw from fixed pools (built from POOL_SEED)
rather than from an unbounded space, so that every input a run can draw has
an output digest recorded in ``golden/``.  The run seed chooses which pool
entries are drawn and in what order.
"""

from __future__ import annotations

import random

POOL_SEED = 0x6E73
POOL_PER_KIND = 100
GENERA = (3, 4, 6)

SHARPS = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
FLATS = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")

TOKENS = {
    3: ("R", "S", "N", "P", "L", "H"),
    4: ("R*", "S3(4)", "S3(2)", "S6", "S2", "S4", "S5", "O"),
    6: ("R**", "SA(3)", "SA(5)", "SF", "SW(1)", "SW(3)", "S1", "S3(A)", "S3(W)",
        "S5(A)", "S5(F)", "Z"),
}

# Chord text that fails to parse (exit 2).  None starts with "-", which
# argparse would read as an option.
BAD_CHORDS = ("H+", "C", "Cx-", "+", "C+-", "Q#+", "Dbb#x+")

# Pinned smooth-cycle histogram of a dodecatonic region (length -> count).
DODECATONIC_HISTOGRAM = {4: 90, 6: 680, 8: 3330, 10: 7776, 12: 4800}

# Length windows of one cycles-dodecatonic deck.  Enumeration cost is set by
# max_len and serialization cost by the cycles in the window, so a deck
# covers short, mid and Hamiltonian cycles and every deck repeats the same
# mix; the seed draws the containing chord, accidentals and order.
CYCLE_WINDOWS = ((4, 5), (6, 7), (4, 9), (12, 12))

# Calls of one library-warm working set, by operation.  Lookups dominate;
# export_graph is kept rare so that serialization does not drown them.  The
# set is large enough that its cost hardly depends on the seed.
LIBRARY_MIX = {
    "seq": 360,
    "between": 300,
    "vl": 300,
    "polar": 180,
    "region_of": 180,
    "ssd": 150,
    "export": 30,
}

# cli-cold invocations per round, by kind; 2 of 23 are bad input with a
# known exit code (2 for chord text, 3 for a wrong-genus token).
CLI_ROUND = {
    "partitions": 2, "apply": 6, "relate": 3, "region": 3, "export": 3,
    "cycles": 2, "verify": 2, "bad-chord": 1, "wrong-genus": 1,
}


def _distinct(draw, key) -> list:
    """Up to POOL_PER_KIND distinct draws (fewer when the space is smaller)."""
    found: dict = {}
    for _ in range(50 * POOL_PER_KIND):
        if len(found) == POOL_PER_KIND:
            break
        item = draw()
        found.setdefault(key(item), item)
    return list(found.values())


def chord_text(rng: random.Random) -> str:
    names = FLATS if rng.random() < 0.3 else SHARPS
    return rng.choice(names) + rng.choice("+-")


def token_text(rng: random.Random, token: str) -> str:
    """One of the accepted spellings of a catalog token."""
    roll = rng.random()
    if roll < 0.15 and token.startswith("S") and len(token) > 1:
        return "S^{" + token[1:] + "}"
    if roll < 0.25:
        return token.lower()
    return token


def _format_options(rng: random.Random, formats=("text", "json")) -> list[str]:
    args = []
    fmt = rng.choice(formats)
    if fmt != "text" or rng.random() < 0.3:
        args += ["--format", fmt]
    if rng.random() < 0.4:
        args += ["--accidentals", "flats"]
    return args


def _cli_invocation(rng: random.Random, kind: str) -> list[str]:
    n = rng.choice(GENERA)
    if kind == "partitions":
        return ["partitions", "--n", str(n)] + _format_options(rng)
    if kind in ("apply", "wrong-genus"):
        length = rng.randint(1, 8)
        tokens = [token_text(rng, rng.choice(TOKENS[n])) for _ in range(length)]
        if kind == "wrong-genus":
            other = rng.choice([m for m in GENERA if m != n])
            tokens[rng.randrange(length)] = rng.choice(TOKENS[other])
        argv = ["apply", "--genus", str(n), "--chord", chord_text(rng), "--seq", ",".join(tokens)]
        if rng.random() < 0.3:
            argv.append("--trace")
        return argv + _format_options(rng)
    if kind == "relate":
        return ["relate", "--genus", str(n), chord_text(rng), chord_text(rng)] + _format_options(rng)
    if kind == "region":
        argv = ["region", "--genus", str(n), "--kind", rng.choice(("arthropod", "bridge"))]
        if rng.random() < 0.6:
            argv += ["--containing", chord_text(rng)]
        return argv + _format_options(rng)
    if kind == "export":
        return ["export", "--genus", str(n), "--kind", rng.choice(("arthropod", "bridge")),
                "--containing", chord_text(rng)] + _format_options(rng, ("dot", "json"))
    if kind == "cycles":
        n = rng.choice((3, 4))
        lo = rng.randint(4, 2 * n)
        hi = rng.randint(lo, 2 * n)
        return ["cycles", "--genus", str(n), "--containing", chord_text(rng),
                "--min-len", str(lo), "--max-len", str(hi)] + _format_options(rng)
    if kind == "verify":
        return ["verify", "--genus", str(rng.choice((3, 4)))] + _format_options(rng)
    # bad-chord: unparseable chord text where a chord is expected
    bad = rng.choice(BAD_CHORDS)
    return rng.choice((
        ["apply", "--genus", str(n), "--chord", bad, "--seq", rng.choice(TOKENS[n])],
        ["relate", "--genus", str(n), chord_text(rng), bad],
        ["region", "--genus", str(n), "--kind", "bridge", "--containing", bad],
    ))


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_pool() -> dict[str, list[list[str]]]:
    """The fixed pool of distinct cli-cold invocations, by kind."""
    rng = random.Random(POOL_SEED)
    return {kind: _distinct(lambda: _cli_invocation(rng, kind), cli_key) for kind in CLI_ROUND}


def cli_rounds(seed: int):
    """Endless seeded stream of cli-cold rounds.  A round holds CLI_ROUND[kind]
    invocations (argument lists) of each kind, drawn from the pool and
    shuffled, so every round has the same mix."""
    pool = cli_pool()
    rng = random.Random(seed)
    while True:
        round_ = [list(rng.choice(pool[kind])) for kind, k in CLI_ROUND.items() for _ in range(k)]
        rng.shuffle(round_)
        yield round_


def verify_rounds(seed: int):
    """Endless seeded stream of one-invocation verify rounds, text or json."""
    rng = random.Random(seed)
    while True:
        yield [["verify"] + (["--format", "json"] if rng.random() < 0.5 else [])]


def cycles_decks(seed: int):
    """Endless seeded stream of decks of (argv, (min_len, max_len)).  A deck
    holds every window of CYCLE_WINDOWS once as text and once as json."""
    rng = random.Random(seed)
    while True:
        deck = []
        for window in CYCLE_WINDOWS:
            for fmt in ("text", "json"):
                argv = ["cycles", "--genus", "6", "--containing", chord_text(rng),
                        "--min-len", str(window[0]), "--max-len", str(window[1])]
                if fmt == "json":
                    argv += ["--format", "json"]
                if rng.random() < 0.5:
                    argv += ["--accidentals", "flats"]
                deck.append((argv, window))
        rng.shuffle(deck)
        yield deck


def expected_cycle_count(lo: int, hi: int) -> int:
    return sum(c for length, c in DODECATONIC_HISTOGRAM.items() if lo <= length <= hi)


def _library_op(rng: random.Random, op: str) -> tuple:
    n = rng.choice(GENERA)
    if op == "seq":
        tokens = tuple(rng.choice(TOKENS[n]) for _ in range(rng.randint(1, 8)))
        return ("seq", n, chord_text(rng), tokens)
    if op in ("between", "vl"):
        return (op, n, chord_text(rng), chord_text(rng))
    if op in ("polar", "ssd"):
        return (op, n, chord_text(rng))
    if op == "region_of":
        return (op, n, chord_text(rng), rng.choice(("arthropod", "bridge")))
    return ("export", n, chord_text(rng), rng.choice(("arthropod", "bridge")),
            rng.random() < 0.5)


def library_key(op: tuple) -> str:
    return " ".join(",".join(p) if isinstance(p, tuple) else str(p) for p in op)


def library_pool() -> dict[str, list[tuple]]:
    """The fixed pool of distinct library calls, by operation."""
    rng = random.Random(POOL_SEED)
    return {op: _distinct(lambda: _library_op(rng, op), library_key) for op in LIBRARY_MIX}


def library_working_set(seed: int) -> list[tuple]:
    """One seeded working set: LIBRARY_MIX calls drawn from the pool, shuffled."""
    pool = library_pool()
    rng = random.Random(seed)
    ops = [spec for op, count in LIBRARY_MIX.items() for spec in rng.choices(pool[op], k=count)]
    rng.shuffle(ops)
    return ops
