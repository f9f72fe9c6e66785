"""Independent reference implementations used only to cross-check the
library: a from-scratch voice-leading search, a networkx-backed cycle
enumerator, closed-form cycle counts of crown graphs, and the candidate-list
prime form and min-based interval-class vector the library kernels replaced.
Nothing here imports the code paths it verifies."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

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


def menage_number(n):
    """U_n, the number of ways to seat n couples at a round table of 2n
    numbered seats, men and women alternating, no one beside their partner,
    with the women's places fixed (Lucas 1891; Touchard 1934):
    U_n = sum_k (-1)^k * 2n/(2n-k) * C(2n-k, k) * (n-k)!."""
    return sum(
        (-1) ** k * (2 * n * comb(2 * n - k, k) // (2 * n - k)) * factorial(n - k)
        for k in range(n + 1)
    )


def crown_hamiltonian_cycles(n):
    """Hamiltonian cycles of the crown graph, K(n,n) minus a perfect
    matching: (n-1)! * U_n / 2."""
    return factorial(n - 1) * menage_number(n) // 2


def _hamiltonian_through(k, j):
    """Hamiltonian cycles of K(k,k) that use j given disjoint edges."""
    if j == 0:
        return Fraction(factorial(k) * factorial(k - 1), 2)
    return Fraction(
        factorial(k - 1) * factorial(k - j) * comb(2 * k - j - 1, j - 1), comb(k - 1, j - 1)
    )


def crown_cycle_counts(n):
    """Simple cycles of K(n,n) minus a perfect matching, keyed by length
    (vertex count), zero counts left out.  A 2k-cycle spans k vertices of each
    side, m of them matched pairs whose m edges are missing; by
    inclusion-exclusion over those edges
        C_2k(n) = sum_m C(n,k) C(k,m) C(n-k,k-m) H(k,m),
        H(k,m)  = sum_j (-1)^j C(m,j) N(k,j),
    with N(k,j) the Hamiltonian cycles of K(k,k) through j given disjoint
    edges: N(k,0) = k!(k-1)!/2, else (k-1)!(k-j)! C(2k-j-1,j-1) / C(k-1,j-1)."""
    counts = {}
    for k in range(2, n + 1):
        total = Fraction(0)
        for m in range(k + 1):
            h = sum((-1) ** j * comb(m, j) * _hamiltonian_through(k, j) for j in range(m + 1))
            total += comb(n, k) * comb(k, m) * comb(n - k, k - m) * h
        assert total.denominator == 1
        if total:
            counts[2 * k] = int(total)
    return counts


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
