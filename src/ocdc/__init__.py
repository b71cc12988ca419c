"""Oriented cycle double covers: construction, composition, search, certification.

The central objects are covers of the symmetric orientation of a simple
graph: OCDCs (each arc in exactly one directed cycle), SOCDCs (OCDCs with
at most n-1 cycles) and OPPDCs (perfect path double covers).  Certificates
are verified JSON-serializable artifacts; the CLI entry point is `ocdc`.
"""

from .graphs import (Graph, Graph6ParseError, FamilyError, RotationSystem,
                     RotationError, parse_graph6, emit_graph6, generate,
                     faces, planar_rotation, bridges, is_bridgeless, blocks,
                     nontrivial_3_edge_cuts, girth_and_average_degree)
from .covers import (DirectedCycle, DirectedPath, CoverCertificate,
                     VerifyReport, Infeasible, MalformedCoverError,
                     verify_ocdc, verify_socdc, verify_oppdc, verify_cdc,
                     orient_cdc, double_cycle_decomposition, small_by_girth,
                     cubic_bound_check)
from .builders import (ocdc_k4, ocdc_k6, socdc_complete_odd,
                       socdc_complete_even, socdc_complete_bipartite,
                       oppdc_complete_odd, socdc_planar, edge_color_cubic,
                       ocdc_cubic_class1, NoSocdcExists, NotPlanarEmbedding,
                       DeskScaleError)
from .surgery import (MergeSpec, SpecError, CertificateInconsistency,
                      merge_at_cutvertex, subdivide, merge_2cut,
                      merge_2cut_special, merge_3edgecut, join_apex,
                      strip_apex, prism_p2, product_cycle_large, product_lift)
from .search import (SearchOutcome, min_ocdc, find_socdc, find_oppdc,
                     find_unorientable_cdc, enumerate_directed_cycles,
                     enumerate_undirected_cycles, enumerate_directed_paths,
                     enumerate_cdcs, counterexample_filter)

__version__ = "0.1.0"
