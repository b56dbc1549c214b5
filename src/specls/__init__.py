"""Spectral extremal graph workbench.

Certified spectral-radius enclosures, extremal family constructions, exact
triangle statistics, theorem verifiers, and exhaustive/randomized
counterexample search for the triangle-supersaturation regime around the
bipartite Turan graph.
"""

from .families import (
    Construction,
    PredictedStats,
    balogh_clemen_g1,
    balogh_clemen_g2,
    book_join,
    build_from_spec,
    embed_into_turan2,
    kab_plus,
    l_nsalpha,
    t_n2q,
    turan,
    y_n2q,
)
from .graph import (
    Graph,
    PartitionWitness,
    build_graph,
    complement,
    complete_graph,
    empty_graph,
    from_matrix,
    from_rows,
    induced,
    is_bipartite,
    is_connected,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .roots import FamilyPolynomial, family_lambda, lambda_interval_exact
from .search import (
    SearchJob,
    SearchReport,
    enumerate_dense,
    ratio_scan,
    run_exhaustive,
    run_local_search,
    run_random,
)
from .spectral import (
    Ordering,
    SpectralCertificate,
    compare_lambda,
    perron_enclosure,
)
from .theorems import rotation_increases_lambda
from .triangles import (
    BipartiteDistance,
    bipartite_distance,
    degree_square_sum,
    tau3,
    triangle_count,
)
from .verdicts import TheoremVerdict

__version__ = "0.1.0"
