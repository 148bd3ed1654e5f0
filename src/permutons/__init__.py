"""Computing with permutation limits.

Pattern densities of permutations and permutons, quasirandomness
diagnostics (interval discrepancy, full-profile defects), exact
k-inflatability testing and search, the three distinguishing integrals
with their double Cauchy-Schwarz chain, and the segment-family
construction separating 3-symmetry from uniformity.
"""

from .perms import (
    DEFAULT_SEED, Z99, DensityReport, Perm, PermError, Reflections,
    all_densities, density_exact, density_sampled, induce, parse_perm,
    reflections,
)
from .counting import (
    all_patterns, inversions, left_smaller_counts, occurrences,
    occurrences_naive, pattern_of, profile, profile_naive,
)
from .discrepancy import DiscrepancyResult, discrepancy, discrepancy_brute
from .measures import (
    GridPermuton, MarginalReport, MixturePermuton, Permuton,
    PermutonDiscrepancy, PermutonError, Segment, SegmentPermuton, cdf,
    cdf_grid, density_exact_grid, density_mc, discrepancy_permuton,
    event_prob_mc, from_perm, grid_densities, m_set, marginal_check, moment,
    pattern_histogram_mc, sample_patterns, sample_perm,
    segments_from_endpoints, uniform,
)
from .permuton_io import load_permuton, parse_permuton
from .symmetry import (
    SymmetryVerdict, is_inflatable, reflection_report, search_inflatable,
    symmetry_defect,
)
from .analysis import (
    AnalysisError, BracketingError, Budget, ChainReport, ConvergenceRow,
    IdentityReport, IntegralReport, RootResult, convergence_experiment,
    cs_chain, find_b, find_nu, identity_check, lemma_integrals, nu_mixture,
    t_id3_segment,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "BracketingError", "Budget", "ChainReport",
    "ConvergenceRow", "DEFAULT_SEED", "DensityReport", "DiscrepancyResult",
    "GridPermuton", "IdentityReport", "IntegralReport", "MarginalReport",
    "MixturePermuton", "Perm", "PermError", "Permuton", "PermutonDiscrepancy",
    "PermutonError", "Reflections", "RootResult", "Segment",
    "SegmentPermuton", "SymmetryVerdict", "Z99", "all_densities",
    "all_patterns", "cdf", "cdf_grid", "convergence_experiment", "cs_chain",
    "density_exact", "density_exact_grid", "density_mc", "density_sampled",
    "discrepancy", "discrepancy_brute", "discrepancy_permuton",
    "event_prob_mc", "find_b", "find_nu", "from_perm", "grid_densities",
    "identity_check", "induce", "inversions", "is_inflatable",
    "left_smaller_counts", "lemma_integrals", "load_permuton", "m_set",
    "marginal_check", "moment", "nu_mixture", "occurrences",
    "occurrences_naive", "parse_perm", "parse_permuton",
    "pattern_histogram_mc", "pattern_of", "profile", "profile_naive",
    "reflection_report", "reflections", "sample_patterns", "sample_perm",
    "search_inflatable", "segments_from_endpoints", "symmetry_defect",
    "t_id3_segment", "uniform",
]
