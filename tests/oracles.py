"""Independent reference implementations used only to cross-check the
library: a from-scratch voice-leading search, a networkx-backed cycle
enumerator, and the candidate-list prime form and min-based interval-class
vector the library kernels replaced.  Nothing here imports the code paths it
verifies."""

from itertools import permutations

import networkx as nx


def vl_oracle(pcs_a, pcs_b):
    """Best (semitone, whole-tone) move counts over every bijection, or None.

    Scans all permutations outright: minimize total displacement, then the
    number of whole-tone moves.
    """
    src = sorted(pcs_a)
    best = None
    for image in permutations(sorted(pcs_b)):
        semis = wholes = 0
        for a, b in zip(src, image):
            d = (a - b) % 12
            d = min(d, 12 - d)
            if d > 2:
                break
            semis += d == 1
            wholes += d == 2
        else:
            key = (semis + 2 * wholes, wholes)
            if best is None or key < best[0]:
                best = (key, (semis, wholes))
    return best[1] if best else None


def canonical_cycle(nodes, key):
    """Rotate the smallest node to the front, pick the smaller direction."""
    variants = []
    for seq in (tuple(nodes), tuple(reversed(nodes))):
        i = min(range(len(seq)), key=lambda j: key(seq[j]))
        variants.append(seq[i:] + seq[:i])
    return min(variants, key=lambda v: tuple(key(x) for x in v))


def cycle_oracle(edges, min_len, max_len, key):
    """All simple cycles with min_len <= length <= max_len, canonicalized,
    via networkx."""
    graph = nx.Graph(edges)
    out = set()
    for cycle in nx.simple_cycles(graph, length_bound=max_len):
        if len(cycle) >= min_len:
            out.add(canonical_cycle(cycle, key))
    return out


def prime_form_oracle(s):
    """Prime form by building all 24 zeroed rotations of the set and of its
    inversion, then taking the most compact, lexicographically smallest."""
    members = frozenset(v % 12 for v in s)
    if not members:
        raise ValueError("prime form of the empty set is undefined")
    candidates = []
    for form in (sorted(members), sorted((-v) % 12 for v in members)):
        k = len(form)
        for i in range(k):
            rotation = form[i:] + [v + 12 for v in form[:i]]
            zeroed = tuple(v - rotation[0] for v in rotation)
            candidates.append((zeroed[-1], zeroed))
    return min(candidates)[1]


def icv_oracle(s):
    """Interval-class vector, each pair's class as min(d, 12 - d)."""
    members = sorted(frozenset(v % 12 for v in s))
    counts = [0] * 6
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            d = (b - a) % 12
            counts[min(d, 12 - d) - 1] += 1
    return tuple(counts)
