"""Homological shift ideals and projective dimensions of complementary edge ideals."""

from .betti import (
    BettiTable,
    SimplicialComplex,
    betti_monotonicity_check,
    betti_table,
    hs_oracle,
    lcm_lattice,
    pd_oracle,
    upper_koszul,
)
from .edge_ideals import (
    SetMap,
    comp_edge_ideal,
    comp_power_ideal,
    pd_formula,
    pd_linear_quotients,
    pd_of_power,
    power_generators,
    power_set_map,
    set_cycle,
    set_map_colon,
    set_tree,
    set_via_even_connected,
)
from .errors import (
    InputFormatError,
    NotLinearQuotientsError,
    OracleCapError,
    PreconditionError,
)
from .graphs import (
    CycleLabeling,
    Graph,
    LabeledTree,
    caterpillar_from_profile,
    even_connected,
    even_connection_walk,
    graph_from_dict,
    graph_to_dict,
    is_bipartite,
    is_connected,
    is_cycle_graph,
    is_tree,
    lex_labeled_copy,
    spanning_paths_of_cycle,
    spanning_tree,
    tree_distance_labeling,
    validate_lex_labeling,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VeroneseSpec,
    divide_out,
    has_strong_exchange,
    maximal_ideal,
    rename_variables,
    squarefree_power_of_maximal,
    veronese_type,
)
from .shifts import (
    MaximalIdentityResult,
    caterpillar_realization,
    check_hs_maximal_identity,
    generation_degree_profile,
    hs1_formula,
    hs1_power_identity_check,
    hs1_via_lcm,
    hs_closed_form,
    hs_cycle_formula,
    hs_cycle_top,
    hs_linear_quotients,
    hs_power,
    hs_subgraph_containment_check,
    hs_tree_formula,
    j_ideal,
    k_ideal,
    veronese_structure_check,
)

__version__ = "0.1.0"
