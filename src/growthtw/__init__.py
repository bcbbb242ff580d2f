"""Structural graph toolkit: growth functions, BFS-layer balanced
separators, tree-decompositions, stack layouts, and growth-certified
subdivision constructions."""

from .graphs import (
    Graph,
    ball,
    components,
    parse_edge_list,
    serialize_edge_list,
)
from .generators import (
    blow_up,
    generate,
    random_cubic,
    strong_product,
)
from .growth import (
    GrowthProfile,
    brute_force_growth,
    growth_constant,
    growth_profile,
    verify_growth_bound,
)
from .separators import (
    Layering,
    Separation,
    SeparationReport,
    bfs_layer_separation,
    check_separation,
    iteration_cap,
    two_thirds_separation,
)
from .decomposition import (
    MinorModel,
    TreeDecomposition,
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
    grid_identity_model,
    verify_grid_minor_model,
)
from .stacklayout import (
    StackLayout,
    check_stack_layout,
    exact_stack_number,
    layout_from_decomposition,
)
from .constructions import (
    HostEmbedding,
    SubdivisionRecord,
    check_product_embedding,
    contract_minor_map,
    expand_to_degree3,
    host_subdivision_plan,
    subdivide,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from .harness import (
    TheoremReport,
    default_corpus,
    lower_bound_exploration,
    run_theorem_suite,
    treewidth_bound,
)

__version__ = "0.1.0"
