"""Seeded input documents for the benchmark, built with the standard library only.

Nothing here imports mkt: the documents, and the facts planted in them that
the oracles check, come from this file's own arithmetic, so a bug in mkt
cannot hide itself by also generating its inputs.

F_9 = F_3[i]/(i^2 + 1). An element a + b*i is stored as the int a + 3*b.
A polynomial over F_9 is a tuple of such ints, lowest degree first.

Every workload is a stream of items: item n depends only on (workload, seed,
n), so two commits given the same seed receive byte-identical inputs, and the
faster one simply reads further along the stream. Items come in rounds; every
round holds the same fixed mix of shapes (degree patterns, block partitions)
in a seeded order, so the cost mix of a run does not drift with the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("ff_reciprocity", "q_tuples", "ff_tuples")

F9_FIELD = {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]}
Q_FIELD = {"kind": "Q"}

# ---------------------------------------------------------------------------
# F_9 arithmetic


def _f9_mul(x: int, y: int) -> int:
    a, b = x % 3, x // 3
    c, d = y % 3, y // 3
    return (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)


F9_ADD = [[(x % 3 + y % 3) % 3 + 3 * ((x // 3 + y // 3) % 3) for y in range(9)]
          for x in range(9)]
F9_MUL = [[_f9_mul(x, y) for y in range(9)] for x in range(9)]
F9_NEG = [(-(x % 3)) % 3 + 3 * ((-(x // 3)) % 3) for x in range(9)]
F9_INV = [None] + [next(y for y in range(1, 9) if F9_MUL[x][y] == 1)
                   for x in range(1, 9)]


def f9_json(x: int) -> list[int]:
    return [x % 3, x // 3]


def poly_mul(f: tuple, g: tuple) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = F9_ADD[out[i + j]][F9_MUL[a][b]]
    return tuple(out)


def _monics(d: int):
    for low in itertools.product(range(9), repeat=d):
        yield low + (1,)


def monic_irreducibles(max_degree: int = 4) -> dict[int, list[tuple]]:
    """All monic irreducibles over F_9 of degree 1..max_degree, by sieving.

    A monic polynomial of degree d is reducible exactly when it is the
    product of two monic polynomials of degrees k and d - k with k >= 1, so
    every such product is struck out of the list of all monics.
    """
    out = {}
    for d in range(1, max_degree + 1):
        reducible = set()
        for k in range(1, d // 2 + 1):
            for f in _monics(k):
                for g in _monics(d - k):
                    reducible.add(poly_mul(f, g))
        out[d] = [f for f in _monics(d) if f not in reducible]
    return out


# ---------------------------------------------------------------------------
# small dense matrices over Q (Fraction) and F_9 (int)


class _Q:
    zero, one = Fraction(0), Fraction(1)
    add = staticmethod(lambda x, y: x + y)
    sub = staticmethod(lambda x, y: x - y)
    mul = staticmethod(lambda x, y: x * y)
    inv = staticmethod(lambda x: 1 / x)


class _F9:
    zero, one = 0, 1
    add = staticmethod(lambda x, y: F9_ADD[x][y])
    sub = staticmethod(lambda x, y: F9_ADD[x][F9_NEG[y]])
    mul = staticmethod(lambda x, y: F9_MUL[x][y])
    inv = staticmethod(lambda x: F9_INV[x])


def _matmul(k, a, b):
    n, m, r = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(r):
            acc = k.zero
            for t in range(m):
                acc = k.add(acc, k.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _inverse(k, a):
    """Gauss-Jordan inverse, or None when a is singular."""
    n = len(a)
    m = [list(row) + [k.one if i == j else k.zero for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != k.zero), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        s = k.inv(m[col][col])
        m[col] = [k.mul(s, x) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != k.zero:
                c = m[r][col]
                m[r] = [k.sub(x, k.mul(c, y)) for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _block_diag(blocks, zero):
    n = sum(len(b) for b in blocks)
    out = [[zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def _split_block(k, a, c, size):
    """a*I + c*N with N the upper shift: one eigenvalue a, one Jordan chain."""
    return [[a if i == j else (c if j == i + 1 else k.zero) for j in range(size)]
            for i in range(size)]


def _conjugate(k, mats, s):
    s_inv = _inverse(k, s)
    return [_matmul(k, _matmul(k, s_inv, m), s) for m in mats]


# ---------------------------------------------------------------------------
# workload streams

# Every unordered degree triple from 1..4: the mix of one reciprocity round.
RECIPROCITY_ROUND = list(itertools.combinations_with_replacement((1, 2, 3, 4), 3))

# Block partitions of one tuple round; "c" is a 2x2 companion block of an
# irreducible quadratic over F_9 (a factor over F_81).
Q_ROUND = [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
           (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
           (3, 3), (3, 2, 1), (2, 2, 2), (3, 1, 1, 1)]
FF_ROUND = [("c", "c"), ("c", 1, 1), (3, 1), (2, "c"),
            ("c", 3), ("c", 2, 1), ("c", "c", 1), (3, 2),
            ("c", "c", "c"), ("c", 3, 1), (3, 3), (2, 2, "c")]

WEIGHT = 2


class Stream:
    """The seeded item stream of one workload.

    item(n) returns (document, planted), where planted holds what the
    oracles need to know about the document.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._round_no = None
        self._round: list = []
        if workload == "ff_reciprocity":
            self._irred = monic_irreducibles(4)
            self._shapes = RECIPROCITY_ROUND
        elif workload == "q_tuples":
            self._shapes = Q_ROUND
        else:
            self._irred = monic_irreducibles(2)
            self._shapes = FF_ROUND

    def _rng(self, *tags) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.workload, self.seed) + tags))

    def item(self, n: int):
        r, i = divmod(n, len(self._shapes))
        if r != self._round_no:
            order = list(self._shapes)
            self._rng("round", r).shuffle(order)
            self._round_no, self._round = r, order
        rng = self._rng("item", n)
        shape = self._round[i]
        if self.workload == "ff_reciprocity":
            return self._reciprocity(rng, shape)
        if self.workload == "q_tuples":
            return self._q_tuple(rng, shape)
        return self._ff_tuple(rng, shape)

    def _reciprocity(self, rng, degrees):
        polys: list[tuple] = []
        for d in degrees:
            while True:
                f = rng.choice(self._irred[d])
                if f not in polys:
                    polys.append(f)
                    break
        rng.shuffle(polys)
        entries = [[f9_json(c) for c in f] for f in polys]
        doc = {"field": F9_FIELD, "symbols": [{"entries": entries}]}
        return doc, {"places": entries}

    def _q_tuple(self, rng, shape):
        def nonzero():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

        blocks = [[] for _ in range(WEIGHT)]
        planted = []
        for size in shape:
            pair = []
            for s in range(WEIGHT):
                a = nonzero()
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                blocks[s].append(_split_block(_Q, a, c, size))
                pair.append(a)
            planted.append((tuple(pair), size))
        n = sum(shape)
        while True:
            conj = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if _inverse(_Q, conj) is not None:
                break
        mats = _conjugate(_Q, [_block_diag(b, _Q.zero) for b in blocks], conj)
        doc = {"field": Q_FIELD,
               "matrices": [[[_q_json(x) for x in row] for row in m] for m in mats]}
        return doc, {"size": n, "blocks": planted}

    def _ff_tuple(self, rng, shape):
        blocks = [[] for _ in range(WEIGHT)]
        split, companions = [], 0
        for part in shape:
            if part == "c":
                pi = rng.choice(self._irred[2])
                comp = [[0, F9_NEG[pi[0]]], [1, F9_NEG[pi[1]]]]
                while True:
                    g = [(rng.randrange(9), rng.randrange(9)) for _ in range(WEIGHT)]
                    # every slot invertible, and some slot not a scalar
                    if all(g0 or g1 for g0, g1 in g) and any(g1 for _, g1 in g):
                        break
                for s, (g0, g1) in enumerate(g):
                    blocks[s].append([[F9_ADD[g0 if i == j else 0][F9_MUL[g1][comp[i][j]]]
                                       for j in range(2)] for i in range(2)])
                companions += 1
            else:
                pair = []
                for s in range(WEIGHT):
                    a = rng.randrange(1, 9)
                    blocks[s].append(_split_block(_F9, a, rng.randrange(9), part))
                    pair.append(a)
                split.append((tuple(pair), part))
        n = sum(2 if p == "c" else p for p in shape)
        while True:
            conj = [[rng.randrange(9) for _ in range(n)] for _ in range(n)]
            if _inverse(_F9, conj) is not None:
                break
        mats = _conjugate(_F9, [_block_diag(b, 0) for b in blocks], conj)
        doc = {"field": F9_FIELD,
               "matrices": [[[f9_json(x) for x in row] for row in m] for m in mats]}
        return doc, {"size": n, "blocks": split, "companions": companions}


def _q_json(x: Fraction):
    return x.numerator if x.denominator == 1 else str(x)


def document_text(doc: dict) -> str:
    """The exact text mkt reads on stdin for one document."""
    return json.dumps(doc)


def inputs_digest(workload: str, seed: int, count: int) -> str:
    """sha256 over the texts of the first `count` documents of a stream."""
    stream = Stream(workload, seed)
    h = hashlib.sha256()
    for n in range(count):
        h.update(document_text(stream.item(n)[0]).encode())
    return h.hexdigest()
