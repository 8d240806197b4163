"""Seeded job sets for the benchmark workloads, and the closed forms that
every report is checked against.

A job is a job-file text plus, for each module it names, what the report
must say about it.  Nothing here reads the program's output: the expected
Tor tables come from Koszul theory and the dimensions of the random modules
from an elimination written for this file alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, inf

WORKLOADS = ("verify-f5", "verify-q", "tor-f5")

# The fixed modules every verify job may name, in job-file syntax.
KNOWN_DEFS = {
    "A": ["module A constant"],
    "Aplus": ["rep v1 trivial 1", "morphism aug induced v1 A 1",
              "module Aplus image aug"],
    "T2": ["rep v2 trivial 2", "module T2 torsion v2 2"],
    "Treg": ["rep r2 regular 2", "module Treg torsion r2 2"],
    "Isg": ["rep sg sign 2", "module Isg induced sg"],
    "Mix": ["rep t1 trivial 1", "module T1 torsion t1 1",
            "module Mix sum Isg T1"],
}
# Definitions a module needs before its own lines.
KNOWN_NEEDS = {"Aplus": ["A"], "Mix": ["Isg"]}


def free_tor(dim, d):
    """I(V@d): only Tor_0, equal to dim V at degree d."""
    return lambda i, n: dim if (i, n) == (0, d) else 0


def torsion_tor(dim, d):
    """T(V@d): Tor_i only at degree d+i, of dimension C(d+i, d) dim V."""
    return lambda i, n: comb(n, d) * dim if n == d + i else 0


def _sum_tor(a, b):
    return lambda i, n: a(i, n) + b(i, n)


@dataclass(frozen=True)
class KnownModule:
    """A module whose Tor table and invariants are known in closed form."""

    tor: object          # (i, n) -> dim Tor_i(M)_n
    reg: float
    t0: float
    max_h_plus_i: float
    top: int | None = None   # maxdeg of a torsion module, for nu tasks


KNOWN = {
    "A": KnownModule(free_tor(1, 0), 0, 0, -inf),
    # Tor_i(Aplus) = Tor_{i+1}(k): one dimension at degree i+1
    "Aplus": KnownModule(lambda i, n: 1 if n == i + 1 else 0, 1, 1, 1),
    "T2": KnownModule(torsion_tor(1, 2), 2, 2, 2, top=2),
    "Treg": KnownModule(torsion_tor(2, 2), 2, 2, 2, top=2),
    "Isg": KnownModule(free_tor(1, 2), 2, 2, -inf),
    "Mix": KnownModule(_sum_tor(free_tor(1, 2), torsion_tor(1, 1)), 2, 2, 1),
}


@dataclass(frozen=True)
class RandomModule:
    """A kernel or cokernel of a seeded induced morphism."""

    dims: tuple          # dim M_n for n = 0..window


@dataclass
class Job:
    name: str
    text: str
    expect: dict         # module name -> KnownModule | RandomModule

    @property
    def tasks(self):
        """(task, module) of each task line, in order."""
        return [tuple(ln.split()[1:3]) for ln in self.text.splitlines()
                if ln.startswith("task ")]


# -- seeded induced morphisms ----------------------------------------
#
# A shape is (kind of V, degree d of V, seeds of the target), the target
# being the direct sum of the free modules I(W@e) on one-dimensional W.
# The seed matrix is a combination, with nonzero random coefficients, of a
# basis of the vectors of the target piece at degree d on which S_d acts by
# the character of V.

SHAPES = (
    ("trivial", 2, (("trivial", 0),)),
    ("sign", 2, (("trivial", 1),)),
    ("trivial", 2, (("trivial", 1), ("trivial", 0))),
    ("sign", 2, (("sign", 2), ("trivial", 1))),
    ("trivial", 1, (("trivial", 0), ("trivial", 1))),
)


def _isotypic_basis(vkind, d, seeds):
    """Basis of the vectors of the target piece at degree d (d <= 2) on
    which S_d acts by the character of V.  In I(W@e) the piece at degree d
    has one basis vector per e-subset of {1..d}, and s_1 swaps the two
    1-subsets of {1, 2} and acts on the 2-subset by the character of W."""
    if d not in (1, 2):
        raise ValueError("seed degree must be 1 or 2")
    blocks = []
    for wkind, e in seeds:
        size = comb(d, e)
        if d == 1 or size == 0:
            vecs = [[int(j == k) for j in range(size)] for k in range(size)]
        elif e == 0:
            vecs = [[1]] if vkind == "trivial" else []
        elif e == 1:
            vecs = [[1, 1]] if vkind == "trivial" else [[1, -1]]
        else:
            vecs = [[1]] if wkind == vkind else []
        blocks.append((size, vecs))
    total = sum(size for size, _ in blocks)
    basis, offset = [], 0
    for size, vecs in blocks:
        for v in vecs:
            full = [0] * total
            full[offset:offset + size] = v
            basis.append(full)
        offset += size
    return basis


def _rank(rows, q):
    """Rank over F_q (q prime) or over Q (q = None)."""
    rows = [[Fraction(x) if q is None else x % q for x in row] for row in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                if q is None:
                    f = rows[r][c] / p[c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], p)]
                else:
                    f = rows[r][c] * pow(p[c], q - 2, q)
                    rows[r] = [(x - f * y) % q for x, y in zip(rows[r], p)]
        rank += 1
    return rank


def morphism_ranks(d, seeds, f0, window, q):
    """Rank of the induced morphism I(V@d) -> target in each degree.

    The basis vector of I(V@d)_n at the d-subset s goes to the image of f0
    under the order-preserving map {1..d} -> s; that map carries the basis
    vector of an e-subset S <= {1..d} to the one of its image, with sign +1.
    """
    ranks = []
    for n in range(window + 1):
        row_index, offset = {}, 0
        for k, (_, e) in enumerate(seeds):
            for j, S in enumerate(combinations(range(1, n + 1), e)):
                row_index[(k, S)] = offset + j
            offset += comb(n, e)
        cols = []
        for s in combinations(range(1, n + 1), d):
            col = [0] * offset
            pos = 0
            for k, (_, e) in enumerate(seeds):
                for S in combinations(range(1, d + 1), e):
                    c = f0[pos]
                    pos += 1
                    if c:
                        col[row_index[(k, tuple(s[x - 1] for x in S))]] += c
            cols.append(col)
        ranks.append(_rank(cols, q) if cols and offset else 0)
    return ranks


def random_morphism(rng, shape, tag, field, window):
    """``morphism_job`` with nonzero coefficients drawn from ``rng``."""
    choices = [-3, -2, -1, 1, 2, 3] if field == "Q" else list(range(1, int(field[1:])))
    coefs = [rng.choice(choices) for _ in _isotypic_basis(*shape)]
    return morphism_job(shape, coefs, tag, field, window)


def morphism_job(shape, coefs, tag, field, window):
    """Job lines for a morphism of the given shape, its kernel and its
    cokernel, and the dimensions both modules must have."""
    vkind, d, seeds = shape
    q = None if field == "Q" else int(field[1:])
    basis = _isotypic_basis(vkind, d, seeds)
    f0 = [sum(c * b[j] for c, b in zip(coefs, basis))
          for j in range(len(basis[0]))]
    if q is not None:
        f0 = [x % q for x in f0]
    lines = [f"rep {tag}v {vkind} {d}"]
    parts = []
    for k, (wkind, e) in enumerate(seeds):
        lines += [f"rep {tag}w{k} {wkind} {e}",
                  f"module {tag}P{k} induced {tag}w{k}"]
        parts.append(f"{tag}P{k}")
    target = parts[0]
    for k, part in enumerate(parts[1:], start=1):
        lines.append(f"module {tag}S{k} sum {target} {part}")
        target = f"{tag}S{k}"
    lines += [f"morphism {tag}f induced {tag}v {target} "
              + ";".join(str(x) for x in f0),
              f"module {tag}K kernel {tag}f",
              f"module {tag}C cokernel {tag}f"]
    ranks = morphism_ranks(d, seeds, f0, window, q)
    src = [comb(n, d) for n in range(window + 1)]
    tgt = [sum(comb(n, e) for _, e in seeds) for n in range(window + 1)]
    expect = {
        f"{tag}K": RandomModule(tuple(a - r for a, r in zip(src, ranks))),
        f"{tag}C": RandomModule(tuple(b - r for b, r in zip(tgt, ranks))),
    }
    return lines, expect


# -- workloads ----------------------------------------------------------

# Random shapes left out of a window: the cokernel of shape 2 verifies as
# FAIL at window 5 whatever the coefficients (see the README).
SKIP_SHAPES = {5: (2,)}


def make_job(rng, field, window, known, shapes, extra_tasks=(), task="verify"):
    """One job: ``task`` on each known module and on the kernel and cokernel
    of a random morphism of each shape, plus ``extra_tasks``, in an order
    drawn from ``rng``."""
    lines = [f"field {field}", f"window {window}"]
    expect, tasks, defined = {}, [], set()

    def define(name):
        for need in KNOWN_NEEDS.get(name, ()):
            define(need)
        if name not in defined:
            defined.add(name)
            lines.extend(KNOWN_DEFS[name])

    for name in known:
        define(name)
        expect[name] = KNOWN[name]
        tasks.append(f"task {task} {name}")
    for k in shapes:
        mlines, mexpect = random_morphism(rng, SHAPES[k], f"r{k}", field, window)
        lines += mlines
        expect.update(mexpect)
        tasks += [f"task {task} {name}" for name in mexpect]
    tasks += list(extra_tasks)
    rng.shuffle(tasks)
    tag = field.lower()
    return Job(f"{task}-{tag}-w{window}", "\n".join(lines + tasks) + "\n", expect)


def _verify_ladder(rng, field, windows):
    # Mix is left out below window 6, where its verdict is UNCERTIFIED: the
    # window is too small to certify it, and the checks accept that only on
    # random modules
    jobs = []
    for w in windows:
        known = ["A", "Aplus", "T2", "Treg"] + (["Mix"] if w >= 6 else [])
        shapes = [k for k in range(len(SHAPES)) if k not in SKIP_SHAPES.get(w, ())]
        extra = ["task nu T2"] if w == windows[-1] else []
        jobs.append(make_job(rng, field, w, known, shapes, extra))
    return jobs


def generate(workload: str, seed: int) -> list:
    """The job set of a workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-f5":
        return _verify_ladder(rng, "F5", (5, 6, 7))
    if workload == "verify-q":
        return _verify_ladder(rng, "Q", (5, 6))
    if workload == "tor-f5":
        return [make_job(rng, "F5", 8, ["Mix", "Isg"], (), task="tor")]
    raise ValueError(f"unknown workload {workload!r}")


def truncated_cache_job():
    """The cheap task the truncated-cache operation runs."""
    return Job("truncated-cache", "field F5\nwindow 3\nmodule A constant\ntask tor A\n",
               {"A": KNOWN["A"]})
