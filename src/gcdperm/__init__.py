"""Greedy coprime permutations of the naturals.

For a seed a >= 2, f_a is the permutation with f(1) = 1, f(2) = a, and each
later term the smallest unused value coprime to its predecessor.  This
package generates the sequences, extracts their structure (turning points,
records, cycles), classifies each seed into the two observed equivalence
classes, and measures record density against the primorial numbers.

Importing the package stays cheap, since most CLI calls do only
milliseconds of work: the result records are ``typing.NamedTuple``s, and
the few functions that return exact rationals import ``fractions`` when
they run.
"""

from .classify import (
    C3,
    IDENTITY,
    BudgetExhaustedError,
    ClassLabel,
    ScanRow,
    classify,
    eventually_identity_by_primorial,
    eventually_identity_by_record,
    exceptional_seed_density,
    prefix_terms,
    scan_identity_seeds,
)
from .cycles import (
    Cycle,
    IncompleteCycleError,
    cycle_index,
    decompose,
    twin_cycle_gaps,
)
from .primorial import (
    DensityLedger,
    DerivativeCheck,
    KappaBounds,
    PrimorialRecordReport,
    TranslationReport,
    build_density_ledger,
    derivative_bound_check,
    kappa_bounds,
    kappa_coarse_bounds,
    kappa_empirical,
    prime_ratio_series,
    primes_within_records_series,
    s_count,
    verify_primorial_records,
    verify_translation,
    w_count,
)
# After the primorial module is loaded, so that ``gcdperm.primorial`` names
# the function, not the module.
from .primes import nth_prime, primorial
from .records import (
    FIRST_ETP,
    FIRST_RECORD,
    Record,
    TurningPoint,
    f3_terms,
    find_turning_points,
    is_record,
    next_record,
    reconstruct_f3,
    record_stream_upto,
    record_values,
    records_from_values,
)
from .sequence import (
    LimitExceededError,
    SequenceBuffer,
    generate_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "C3",
    "ClassLabel",
    "Cycle",
    "DensityLedger",
    "DerivativeCheck",
    "FIRST_ETP",
    "FIRST_RECORD",
    "IDENTITY",
    "IncompleteCycleError",
    "KappaBounds",
    "LimitExceededError",
    "PrimorialRecordReport",
    "Record",
    "ScanRow",
    "SequenceBuffer",
    "TranslationReport",
    "TurningPoint",
    "build_density_ledger",
    "classify",
    "cycle_index",
    "decompose",
    "derivative_bound_check",
    "eventually_identity_by_primorial",
    "eventually_identity_by_record",
    "exceptional_seed_density",
    "f3_terms",
    "find_turning_points",
    "generate_prefix",
    "is_record",
    "kappa_bounds",
    "kappa_coarse_bounds",
    "kappa_empirical",
    "next_record",
    "nth_prime",
    "prefix_terms",
    "prime_ratio_series",
    "primes_within_records_series",
    "primorial",
    "reconstruct_f3",
    "record_stream_upto",
    "record_values",
    "records_from_values",
    "s_count",
    "scan_identity_seeds",
    "twin_cycle_gaps",
    "verify_primorial_records",
    "verify_translation",
    "w_count",
]
