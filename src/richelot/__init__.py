"""Richelot isogeny graphs of superspecial abelian surfaces.

Exact arithmetic over GF(p^2), genus-2 invariants, the two
(2,2)-isogeny constructions (Richelot step and Howe--Leprevost--Poonen
gluing), orbit-weighted graph enumeration, the superspecial vertex
census, and the atlas of local neighbourhood tables.
"""

from .field import FieldCtx, FieldElement, make_field
from .poly import Poly
from .elliptic import EllipticCurveE2, j_invariant, two_isogeny
from .genus2 import (Genus2Curve, QuadraticSplitting, ClebschPoint,
                     clebsch_invariants, splittings, reduced_automorphisms,
                     ra_type_from_clebsch, canonical_key, RAType)
from .isogeny import delta, richelot_generic, split_degenerate
from .gluing import (ProductSurface, ProductKernel, product_kernels,
                     quotient_product, quotient_diagonal,
                     ra_type_product_vertex, ra_order_product)
from .graph import (VertexKey, OrbitEdge, Graph, build_graph, neighbourhood,
                    dual_edge, validate, export)
from .census import epsilons, expected_counts, compare

__version__ = "1.0.0"

__all__ = [
    "FieldCtx", "FieldElement", "make_field", "Poly",
    "EllipticCurveE2", "j_invariant", "two_isogeny",
    "Genus2Curve", "QuadraticSplitting", "ClebschPoint",
    "clebsch_invariants", "splittings", "reduced_automorphisms",
    "ra_type_from_clebsch", "canonical_key", "RAType",
    "delta", "richelot_generic", "split_degenerate",
    "ProductSurface", "ProductKernel", "product_kernels",
    "quotient_product", "quotient_diagonal",
    "ra_type_product_vertex", "ra_order_product",
    "VertexKey", "OrbitEdge", "Graph", "build_graph", "neighbourhood",
    "dual_edge", "validate", "export",
    "epsilons", "expected_counts", "compare",
]
