"""Independent reference computations for the benchmark's checks.

Nothing here imports raagmcg.  Words are lists of (generator, exponent)
pairs.  The checks rest on two facts about right-angled Artin groups:

* for two non-adjacent vertices g, h, killing every other generator is a
  homomorphism onto the free group F(g, h), so the freely reduced
  projection of a word to {g, h} depends only on the group element;
* F2 x F2 (edges x-u, x-v, y-u, y-v) is the direct product of F(x, y)
  and F(u, v), so its normal form, syllable order, minimal
  representatives and conjugacy-minimal length all follow from the two
  free factors.
"""

from __future__ import annotations

from math import comb


def free_reduce(pairs):
    """Freely reduce a word in a free group: merge equal neighbours and
    drop zero exponents until nothing changes."""
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            total = out[-1][1] + e
            if total:
                out[-1] = (g, total)
            else:
                out.pop()
        else:
            out.append((g, e))
    return out


def cyclic_reduce(pairs):
    """The freely reduced word with the fewest syllables in the conjugacy
    class of a free-group word: merge or cancel the first and last
    syllables while they share a generator."""
    w = free_reduce(pairs)
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        g, total = w[0][0], w[0][1] + w[-1][1]
        w = w[1:-1]
        if total:
            w.insert(0, (g, total))
    return w


def project(pairs, generators):
    """Freely reduced image under killing every generator outside
    ``generators``."""
    keep = set(generators)
    return free_reduce([(g, e) for g, e in pairs if g in keep])


def exponent_sums(pairs):
    """Image in the abelianization, as a dict generator -> exponent sum
    (zero sums dropped)."""
    sums = {}
    for g, e in pairs:
        sums[g] = sums.get(g, 0) + e
    return {g: s for g, s in sums.items() if s}


def invert(pairs):
    return [(g, -e) for g, e in reversed(pairs)]


class ProductOfFrees:
    """Closed forms for F(x, y) x F(u, v) with vertex order x, y, u, v."""

    LEFT = ("x", "y")
    RIGHT = ("u", "v")

    def __init__(self, pairs):
        self.left = project(pairs, self.LEFT)
        self.right = project(pairs, self.RIGHT)
        self.cyclic_left = cyclic_reduce(self.left)
        self.cyclic_right = cyclic_reduce(self.right)

    def normal_form(self):
        # Left-greedy by vertex order moves every x/y syllable in front of
        # every u/v syllable, and each factor is freely reduced.
        return self.left + self.right

    def representative_count(self):
        p, q = len(self.left), len(self.right)
        return comb(p + q, p)

    def order_size(self):
        # Consecutive syllables of a freely reduced F2 word alternate
        # generators and never commute, so each factor is a chain; the two
        # chains are incomparable.
        p, q = len(self.left), len(self.right)
        return comb(p, 2) + comb(q, 2)

    def covering_size(self):
        return max(len(self.left) - 1, 0) + max(len(self.right) - 1, 0)

    def reduced_length(self):
        return len(self.cyclic_left) + len(self.cyclic_right)

    def components(self):
        # Complement-graph components of the reduced support: {x, y} and
        # {u, v} are the complement edges.
        parts = []
        for side, cyclic in ((self.LEFT, self.cyclic_left), (self.RIGHT, self.cyclic_right)):
            used = {g for g, _ in cyclic}
            part = [g for g in side if g in used]
            if part:
                parts.append(part)
        return parts
