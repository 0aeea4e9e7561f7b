"""Randic index toolkit: computation, sharp degree-based bounds with
combinatorial equality certificates, extremal constructions, and exhaustive
verification over small graphs."""

from .bounds import (BoundsReport, baseline_bound, bounds_report,
                     decomposition_residual, lower_bound, telescope_gap,
                     upper_bound)
from .constructions import (DegreeChainCertificate, build_biregular,
                            build_degree_chain, degree_chain_certificate)
from .enumeration import (EnumerationSummary, VerificationReport,
                          canonical_graph6, chain_grid_check,
                          enumerate_graphs, extremal_scan,
                          gap_positivity_check, verify_theorems)
from .graphs import (BiregularCertificate, DegreeProfile, Graph,
                     GraphFormatError, biregular_certificate, degree_multiset,
                     degree_profile, format_edge_list, is_connected,
                     parse_edge_list, parse_graph6, to_graph6)
from .index import (IDENTITY_TOLERANCE, RandicValue, randic_deviation,
                    randic_direct)

__version__ = "0.1.0"

__all__ = [
    "BiregularCertificate", "BoundsReport", "DegreeChainCertificate",
    "DegreeProfile", "EnumerationSummary", "Graph", "GraphFormatError",
    "IDENTITY_TOLERANCE", "RandicValue", "VerificationReport",
    "baseline_bound", "biregular_certificate", "bounds_report",
    "build_biregular", "build_degree_chain", "canonical_graph6",
    "chain_grid_check", "decomposition_residual", "degree_chain_certificate",
    "degree_multiset", "degree_profile", "enumerate_graphs", "extremal_scan",
    "format_edge_list", "gap_positivity_check", "is_connected", "lower_bound",
    "parse_edge_list", "parse_graph6", "randic_deviation", "randic_direct",
    "telescope_gap", "to_graph6", "upper_bound", "verify_theorems",
]
