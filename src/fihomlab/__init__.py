"""Exact homological invariants of finitely generated FI-modules.

The package computes, over an exact coefficient field (Q or a prime field),
Tor tables and Castelnuovo-Mumford regularity via degreewise Koszul strands,
local cohomology via the shift recursion, and an annihilator invariant of
symmetric-group representations coming from good ideals of group algebras.
The central harness checks the identity

    reg(M) = max( t_0(M), max_i (maxdeg H^i(M) + i) )

on concrete modules, with the two sides computed by independent pipelines
and certified by the annihilator invariant of top-degree Tor pieces.
"""
from ._version import __version__
from .fields import GF, QQ, Field, FieldError, field_by_name
from .linalg import Matrix, SubquotientSpace, kernel_basis, column_space_basis, rref
from .reps import (
    SnRep,
    basic_rep,
    direct_sum_reps,
    induce_young,
    restrict_rep,
    zero_rep,
)
from .good_ideal import (
    GoodIdeal,
    NuValue,
    good_ideal,
    ideal_operators,
    nu,
    verify_good_ideal,
)
from .fimod import (
    FIModule,
    FIMorphism,
    FIError,
    InputError,
    WindowExhausted,
    cokernel,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_shift,
    fi_torsion_concentrated,
    fi_truncate,
    generation_degrees,
    image,
    induced_morphism,
    kernel,
    natural_shift_map,
    torsion_submodule,
    zero_module,
)
from .tor import (
    RegularityReport,
    TorTable,
    cached_strand,
    koszul_strand,
    regularity,
    strand_homology_dim,
    tor_rep,
    tor_table,
)
from .complexes import FIComplex, hyper_tor, hyper_tor_rep
from .loccoh import (
    LocCohTable,
    NuCertificate,
    TheoremReport,
    is_semi_induced,
    local_cohomology,
    min_acyclic_shift,
    nu_certificate,
    verify_main_theorem,
)
from .jobspec import JobSpec, SpecParseError, parse_spec
from .runner import RunResult, TaskResult, run_job
from .suite import run_suite
