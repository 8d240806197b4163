"""Local cohomology via the shift recursion, and the main verification harness.

The zeroth local cohomology is the torsion submodule.  Higher groups come
from the recursion: shift until semi-induced (Tor_1 and Tor_2 vanish on the
certified degrees), take the cokernel of the canonical map into the shift,
and step the cohomological index down by one.  Each level runs one shift
search, which ends the recursion at b = 0, and records its shift and
cokernel dimensions; every other level shifts by b >= 1 and so shrinks the
window, which bounds the depth without a cap.  Only the dimensions of each H^i
are needed, so they come from ranks, as does the kernel of the canonical
map that cross-checks them; the shift and its cokernel are the modules a
level builds.  The regularity identity is then checked against the Tor
pipeline, with nu certificates distinguishing the contributing rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .complexes import FIComplex, cohomology_dims, hyper_tor, hyper_tor_rep
from .fimod import (
    FIModule,
    InputError,
    WindowExhausted,
    cokernel,
    fi_shift,
    last_nonzero,
    natural_shift_map,
    torsion_submodule,
)
from .good_ideal import GoodIdeal, default_p, good_ideal, nu
from .linalg import InvariantViolation, rank
from .tor import TorTable, regularity, tor_rep, tor_table

INF = math.inf


def is_semi_induced(M: FIModule) -> str:
    """Window-relative test: 'yes' iff Tor_1 and Tor_2 vanish on every
    certified degree."""
    if M.is_zero():
        return "yes"
    if M.window < 1:
        return "uncertified"
    table = tor_table(M, i_max=min(2, M.window))
    if any(i >= 1 for (i, n) in table.entries):
        return "no"
    # generators at the top of the window could hide higher Tor just beyond
    # it, so a positive answer needs the generator row to clear the window end
    if not table.row_certified(0):
        return "uncertified"
    return "yes"


def min_acyclic_shift(M: FIModule) -> tuple[int, FIModule]:
    """``(b, S)``: the least b with ``S = fi_shift(M, b)`` testing semi-induced;
    each probe is the last one shifted by one."""
    for b in range(M.window + 1):
        S = fi_shift(S, 1) if b else M
        if is_semi_induced(S) == "yes":
            return b, S
    raise WindowExhausted(
        f"no semi-induced shift found up to b = {M.window}; window insufficient"
    )


@dataclass
class LocCohTable:
    rows: dict                # i -> H^i, the fimod.TorsionPart of level i
    trace: list               # (shift b, cokernel dims) per level
    complete: bool            # False when the window ran out
    window: int

    @property
    def depth(self) -> int:  # first level at which the recursion terminated
        return len(self.trace)

    def h(self, i):
        row = self.rows.get(i)
        return -INF if row is None else row.maxdeg

    def max_h_plus_i(self):
        vals = [self.h(i) + i for i in self.rows if self.h(i) != -INF]
        return max(vals) if vals else -INF

    def min_row_attaining(self):
        target = self.max_h_plus_i()
        if target == -INF:
            return None
        for i in sorted(self.rows):
            if self.h(i) + i == target:
                return i
        return None


def local_cohomology(M: FIModule) -> LocCohTable:
    """The dimensions of all H^i via the shift recursion.  At every level the
    torsion dimensions are cross-checked against the nullities of the
    canonical map into the shift.

    A level that goes on has a shift b >= 1, so the next cokernel's window is
    smaller by at least one: the recursion ends by itself, at depth at most
    ``M.window + 1``, and is incomplete only when a search exhausts the
    window."""
    rows = {}
    trace = []
    cur = M
    complete = True
    while True:
        try:
            b, S = min_acyclic_shift(cur)
        except WindowExhausted:
            b = S = None
        if b == 0:  # semi-induced
            break
        tp = torsion_submodule(cur)
        if any(tp.dims):
            rows[len(trace)] = tp
        if S is None:  # the search exhausted the window
            complete = False
            break
        nat = natural_shift_map(cur, S)
        # consistency: the kernel of the canonical map is the torsion submodule
        k_dims = [nat.source.dim(n) - rank(m) for n, m in enumerate(nat.maps)]
        t_dims = tp.dims[: len(k_dims)]
        if k_dims != t_dims:
            raise InvariantViolation(
                f"recursion level {len(trace)}: ker(M -> shift) {k_dims} != torsion {t_dims}"
            )
        cur = cokernel(nat)
        trace.append((b, cur.dims()))
    return LocCohTable(rows, trace, complete, M.window)


@dataclass
class NuCertificate:
    n: int
    degree: int
    expected: float
    computed: float | None
    status: str  # ok | mismatch | out-of-range | window

    @property
    def passed(self):
        return self.status in ("ok", "out-of-range", "window")


@dataclass
class TheoremReport:
    lhs: float                      # regularity from the Tor pipeline
    rhs: float                      # max(t_0, max_i (h^i + i))
    t0: float
    max_h_plus_i: float
    stable_from: int | None         # first degree where t_n - n locks to the h-side
    stable_checked: list            # rows n checked in the stable window
    nu_certificates: list
    verdict: str                    # PASS | FAIL | UNCERTIFIED
    tor: TorTable
    lcoh: LocCohTable
    uncertified_rows: list


def verify_main_theorem(M: FIModule, gi: GoodIdeal | None = None) -> TheoremReport:
    """Check the regularity / local cohomology identity on one module, with
    the two sides computed by independent pipelines; ``gi`` certifies the
    contributing rows, by default the good ideal of :func:`default_p`."""
    table = tor_table(M)
    reg_report = regularity(M, table=table)
    lcoh = local_cohomology(M)

    t0 = table.t(0)
    mh = lcoh.max_h_plus_i()
    lhs = reg_report.reg
    rhs = max(t0, mh)

    # stable formula: t_n - n should equal max_i(h^i + i) for n >> 0
    certified_rows = [i for i in table.rows() if i >= 1 and table.row_certified(i)]
    stable_from = None
    stable_checked = []
    stable_unknown = False
    for start in range(1, max(certified_rows, default=1) + 2):
        tail = [i for i in certified_rows if i >= start]
        if tail and all(table.t(i) - i == mh for i in tail):
            stable_from = start
            stable_checked = tail
            break
    if mh == -INF:
        # no local cohomology: higher Tor rows must eventually vanish
        ok_stable = all(table.t(i) == -INF for i in certified_rows)
        stable_from = 1 if ok_stable else None
        stable_checked = certified_rows
    elif not certified_rows:
        # the window certifies no positive row, so stability is untestable
        ok_stable = True
        stable_unknown = True
    else:
        ok_stable = stable_from is not None

    certs = []
    if mh != -INF and stable_from is not None:
        if gi is None:
            gi = good_ideal(default_p(M.field), M.field)
        r = lcoh.min_row_attaining()
        rho = int(mh)
        for n in stable_checked:
            if n + rho > M.window:
                certs.append(NuCertificate(n, n + rho, n + r, None, "window"))
            else:
                certs.append(_nu_cert(partial(tor_rep, M), n, rho, n + r, gi))

    uncertified = reg_report.uncertified_rows
    # uncertified Tor rows can only raise reg, so lhs < rhs is not yet a FAIL
    lhs_open = lhs < rhs and bool(uncertified)
    if not lcoh.complete or stable_unknown or lhs_open:
        verdict = "UNCERTIFIED"
    elif lhs == rhs and ok_stable and all(c.passed for c in certs):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return TheoremReport(
        lhs, rhs, t0, mh, stable_from, stable_checked, certs, verdict,
        table, lcoh, uncertified,
    )


def _nu_cert(rep_of, n: int, rho: int, expected, gi: GoodIdeal) -> NuCertificate:
    """Certificate for the Tor piece in homological degree n and degree
    n + rho: out of range when (p - 1) rho > n, otherwise nu of
    ``rep_of(n, n + rho)`` against ``expected``.  A getter that returns None
    marks a piece known to vanish, which is a mismatch."""
    deg = n + rho
    if (gi.p - 1) * rho > n:
        return NuCertificate(n, deg, expected, None, "out-of-range")
    rep = rep_of(n, deg)
    got = None if rep is None else nu(rep, gi).value
    return NuCertificate(n, deg, expected, got, "ok" if got == expected else "mismatch")


def _is_torsion(M: FIModule) -> bool:
    return M.torsion_hint or torsion_submodule(M).dims == M.dims()


def nu_certificate(X, gi: GoodIdeal) -> list:
    """Certificates for the nu values of top-degree Tor pieces.

    ``X`` is a torsion FI-module (expected nu is n in the top degree) or a
    bounded complex of torsion FI-modules (expected nu is n + r, where r is
    the least index attaining max_i(i + maxdeg H^i); every nonzero graded
    piece also satisfies the lower bound n + min support index).
    """
    if isinstance(X, FIModule):
        if not _is_torsion(X):
            raise InputError("nu_certificate on a module requires a torsion module")
        top = last_nonzero(X.dims())
        if top == -INF:
            return []
        rho = int(top)
        return [_nu_cert(partial(tor_rep, X), n, rho, n, gi)
                for n in range(0, X.window - rho + 1)]
    # complex case
    C: FIComplex = X
    if not all(_is_torsion(t) for t in C.terms.values()):
        raise InputError("nu_certificate on a complex requires torsion terms")
    finite = {i: last_nonzero(dims) for i, dims in cohomology_dims(C).items() if any(dims)}
    if not finite:
        return []
    rho = max(i + v for i, v in finite.items())
    r = min(i for i, v in finite.items() if i + v == rho)
    if rho > C.window:  # no certificate fits in the window
        return []
    m = C.min_support()
    i_cap = C.window - rho
    table = hyper_tor(C, i_cap)

    def rep_of(n, deg):
        return hyper_tor_rep(C, n, deg) if table.dim(n, deg) else None

    certs = []
    for n in range(0, i_cap + 1):
        cert = _nu_cert(rep_of, n, rho, n + r, gi)
        if cert.status == "ok" and m is not None and not cert.computed >= n + m:
            cert.status = "mismatch"
        certs.append(cert)
    return certs
