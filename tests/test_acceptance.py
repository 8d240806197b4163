"""Acceptance gate: ten criteria, one recorded pass/fail line each.

Every criterion is checked with exact arithmetic; expected values are either
asserted directly (structural facts), verified against closed-form counts,
or cross-checked through an independently computed oracle.
"""
import math
import random
from contextlib import contextmanager
import pytest

import conftest
from conftest import orbit_span_subrep, random_induced_morphism, random_rep
from oracles import Permutation, nu_bruteforce, perm_matrix

from fihomlab.complexes import FIComplex
from fihomlab.fields import GF, QQ
from fihomlab.fimod import (
    direct_sum,
    fi_constant,
    fi_induced,
    fi_torsion_concentrated,
    generation_degrees,
    image,
    induced_morphism,
    kernel,
    cokernel,
)
from fihomlab.good_ideal import (
    good_ideal,
    nu,
    two_sided_ideal_dimension,
    verify_good_ideal,
)
from fihomlab.linalg import Matrix, SubquotientSpace
from fihomlab.loccoh import nu_certificate, verify_main_theorem
from fihomlab.report import dumps_report
from fihomlab.reps import SnRep, basic_rep, induce_young
from fihomlab.tor import koszul_strand, strand_homology_dim, tor_rep, tor_table


@contextmanager
def record(number, label):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d} ({label}): FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d} ({label}): PASS")


def cycle_type_rep(partition, n):
    """A permutation of S_n with the given cycle type."""
    img = []
    start = 1
    p = Permutation.identity(n)
    for part in partition:
        pts = list(range(start, start + part))
        p = p * Permutation.cycle(pts, n)
        start += part
    return p


def partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def character(rep):
    out = {}
    for lam in partitions(rep.n):
        m = perm_matrix(rep, cycle_type_rep(lam, rep.n))
        out[lam] = conftest.trace(m)
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_koszul_exactness():
    with record(1, "Koszul strand exactness"):
        for field in (QQ, GF(5)):
            A = fi_constant(field, 7)
            for n in range(8):
                strand = koszul_strand(A, n)
                for i in range(1, n + 1):
                    assert strand_homology_dim(strand, i) == 0
                assert strand_homology_dim(strand, 0) == (1 if n == 0 else 0)


def test_criterion_02_tor_of_concentrated_torsion():
    with record(2, "Tor of torsion is the sign-twisted induction"):
        for field in (QQ, GF(5)):
            for d in (0, 1, 2):
                for kind in ("trivial", "sign", "regular"):
                    V = basic_rep(kind, d, field)
                    window = min(d + 4, 6)
                    T = fi_torsion_concentrated(V, d, window)
                    table = tor_table(T, i_max=window - d)
                    for (i, n), dim in table.entries.items():
                        assert n == d + i
                        assert dim == math.comb(d + i, d) * V.dim
                    for p in range(1, window - d + 1):
                        n = d + p
                        got = tor_rep(T, p, n)
                        expected = induce_young(V, basic_rep("sign", p, field))
                        assert got.dim == expected.dim
                        assert character(got) == character(expected)


def test_criterion_03_good_ideals():
    with record(3, "good ideal axioms and element identities"):
        for f in (QQ, GF(5), GF(7), GF(3)):
            gi = good_ideal(2, f)
            assert verify_good_ideal(gi)["all_pass"]
            # identities of matrices in the faithful regular representation
            N = gi.g(basic_rep("regular", 2, f).gens)
            assert N * N == N.scale(f.of(2))
        for f in (QQ, GF(5), GF(7), GF(2)):
            gi = good_ideal(3, f)
            assert verify_good_ideal(gi)["all_pass"]
            tau = gi.g(basic_rep("regular", 3, f).gens)
            assert tau * tau == tau
            # dim k[S_3] = 6 and the two-sided ideal has dimension 4,
            # so the quotient is two-dimensional
            assert 6 - two_sided_ideal_dimension(gi) == 2


def test_criterion_04_nu_values_and_min_rule():
    with record(4, "nu on basics, sign-twisted inductions, and extensions"):
        # closed-form values (derivations in test_good_ideal)
        for field in (QQ, GF(5)):
            for p in (2, 3):
                gi = good_ideal(p, field)
                for n in range(8):
                    assert nu(basic_rep("sign", n, field), gi) == n
                    expected = n - n // 2 if p == 2 else n
                    assert nu(basic_rep("trivial", n, field), gi) == expected
        # nu(Ind(M boxtimes sgn_k)) = k when (p-1) d <= k, d + k <= 7
        field = GF(5)
        for p in (2, 3):
            gi = good_ideal(p, field)
            for d in (0, 1, 2):
                for kind in (("trivial",) if d == 0 else ("trivial", "sign")):
                    M = basic_rep(kind, d, field)
                    for k in range((p - 1) * d, 8 - d):
                        if k < 1:
                            continue
                        ind = induce_young(M, basic_rep("sign", k, field))
                        assert nu(ind, gi) == k, (p, d, kind, k)
        # min rule on short exact sequences from invariant subspaces
        for field in (QQ, GF(5), GF(7)):
            gi = good_ideal(2, field)
            rng = random.Random(hash((field.q, "ses")) & 0xFFFF)
            done = 0
            while done < 50:
                n = rng.randint(2, 4)
                rep = random_rep(n, field, rng, max_summands=2)
                sub_basis = orbit_span_subrep(rep, rng)
                if sub_basis.cols in (0, rep.dim):
                    continue
                sub_sq = SubquotientSpace.from_sub_killed(sub_basis)
                sub = SnRep(n, field,
                            [sub_sq.induced_map(g, sub_sq) for g in rep.gens],
                            dim=sub_sq.dim)
                quot_sq = SubquotientSpace.from_sub_killed(
                    Matrix.identity(field, rep.dim), sub_basis)
                quot = SnRep(n, field,
                             [quot_sq.induced_map(g, quot_sq) for g in rep.gens],
                             dim=quot_sq.dim)
                assert nu(rep, gi).value == min(nu(sub, gi).value,
                                                nu(quot, gi).value)
                done += 1


def test_criterion_05_operator_agrees_with_bruteforce():
    with record(5, "annihilation operator test vs full ideal sweep"):
        for field, count in ((QQ, 10), (GF(5), 10)):
            rng = random.Random(hash((field.q, "bf")) & 0xFFFF)
            for p in (2, 3):
                gi = good_ideal(p, field)
                for _ in range(count):
                    n = rng.randint(2, 4)
                    rep = random_rep(n, field, rng, max_summands=2)
                    assert nu(rep, gi) == nu_bruteforce(rep, gi)


# -- theorem suite shared by criteria 6, 7, 9 --------------------------

W = 6


def positive_part(field, window=W):
    A = fi_constant(field, window)
    f = induced_morphism(basic_rep("trivial", 1, field), A,
                         Matrix.from_rows(field, [[1]]))
    return image(f)


@pytest.fixture(scope="module")
def theorem_suite():
    """Named modules with their theorem reports, over two prime fields."""
    reports = {}
    modules = {}
    for field in (GF(5), GF(7)):
        tag = field.name
        mods = {"constant": fi_constant(field, W)}
        for d in (1, 2, 3):
            mods[f"torsion-d{d}"] = fi_torsion_concentrated(
                basic_rep("trivial", d, field), d, W)
        mods["positive-part"] = positive_part(field)
        mods["mixed-sum"] = direct_sum(
            fi_induced(basic_rep("sign", 2, field), W),
            fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W),
        )
        for name, M in mods.items():
            modules[f"{tag}:{name}"] = M
            reports[f"{tag}:{name}"] = verify_main_theorem(M)
    return modules, reports


def test_criterion_06_main_theorem_suite(theorem_suite):
    modules, reports = theorem_suite
    with record(6, "regularity identity on the module suite"):
        for name, rep in reports.items():
            assert rep.verdict == "PASS", (name, rep.lhs, rep.rhs, rep.t0, rep.max_h_plus_i)
            assert rep.lhs == rep.rhs
        for tag in ("F5", "F7"):
            r = reports[f"{tag}:constant"]
            assert r.lhs == 0 and r.max_h_plus_i == -math.inf and r.t0 == 0
            for d in (1, 2, 3):
                r = reports[f"{tag}:torsion-d{d}"]
                assert r.lhs == d and r.max_h_plus_i == d
            r = reports[f"{tag}:positive-part"]
            assert r.lhs == 1 and r.max_h_plus_i == 1
            # t_n = n + 1 on every certified positive row
            for i in r.tor.rows():
                if i >= 1 and r.tor.row_certified(i) and r.tor.t(i) != -math.inf:
                    assert r.tor.t(i) == i + 1
            r = reports[f"{tag}:mixed-sum"]
            assert r.lhs == 2 and r.t0 == 2 and r.max_h_plus_i == 1
        # kernels and cokernels of random induced-module morphisms
        field = GF(5)
        rng = random.Random(20260824)
        passes = 0
        for _ in range(20):
            f = random_induced_morphism(field, rng)
            for M in (kernel(f), cokernel(f)):
                rep = verify_main_theorem(M)
                assert rep.verdict in ("PASS", "UNCERTIFIED"), (
                    rep.verdict, rep.lhs, rep.rhs, rep.t0, rep.max_h_plus_i)
                if rep.verdict == "PASS":
                    assert rep.lhs == rep.rhs
                    passes += 1
        assert passes >= 30


def test_criterion_07_stable_formula(theorem_suite):
    _, reports = theorem_suite
    with record(7, "stable Tor degree formula"):
        seen = 0
        for name, rep in reports.items():
            if rep.max_h_plus_i == -math.inf:
                continue
            seen += 1
            assert rep.stable_from is not None and rep.stable_from <= 2, name
            for n in rep.stable_checked:
                assert rep.tor.t(n) - n == rep.max_h_plus_i, name
        assert seen >= 8


def test_criterion_08_nu_certificates():
    with record(8, "nu certificates for Tor of torsion inputs"):
        field = GF(5)
        gi = good_ideal(2, field)
        # single torsion modules: nu = n at degree n + maxdeg
        for d in (1, 2):
            T = fi_torsion_concentrated(basic_rep("trivial", d, field), d, W)
            certs = nu_certificate(T, gi)
            for c in certs:
                if d <= c.n <= W - d:
                    assert c.status == "ok" and c.computed == c.n, (d, c)
                else:
                    assert c.status == "out-of-range"
        # two-term torsion complexes engineered with r = 0 and r = 1
        T1 = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W)
        T2 = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, W)
        for terms, r in (({0: T2, 1: T1}, 0), ({0: T1, 1: T2}, 1)):
            C = FIComplex(terms)
            certs = [c for c in nu_certificate(C, gi) if c.status != "out-of-range"]
            assert certs, f"no in-range certificates for r={r}"
            for c in certs:
                assert c.status == "ok" and c.computed == c.n + r, (r, c)
        # lower bound on shifted single-term complexes
        for m in (1, 2):
            C = FIComplex.single(T1, m)
            for c in nu_certificate(C, gi):
                if c.status == "ok":
                    assert c.computed >= c.n + m
                else:
                    assert c.status == "out-of-range"


def test_criterion_09_tor0_oracle(theorem_suite):
    modules, _ = theorem_suite
    with record(9, "generator-count oracle for the zeroth Tor row"):
        for name, M in modules.items():
            table = tor_table(M)
            gd = generation_degrees(M)
            for n in range(M.window + 1):
                assert table.dim(0, n) == gd[n], (name, n)


def test_criterion_10_deterministic_reports(tmp_path, monkeypatch):
    with record(10, "byte-identical reports across runs"):
        from fihomlab.suite import run_suite

        monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))

        def snapshot():
            return {
                name: dumps_report(result.report_dict())
                for name, result in run_suite(use_cache=False)
            }

        first = snapshot()
        second = snapshot()
        assert first == second
        assert all(res.encode() == second[name].encode()
                   for name, res in first.items())
