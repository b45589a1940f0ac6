"""Finite games as graph flows: decomposition, projections and equilibria.

A game's pairwise payoff comparisons define a flow on the graph of
strategy profiles.  That flow splits orthogonally into a gradient part and a
divergence-free part, which pulls back to a unique decomposition of the game
into potential, harmonic and nonstrategic components with sharply different
equilibrium behavior.  This package computes the decomposition, projects
games onto the potential/harmonic classes, transfers approximate equilibria
between a game and its closest potential game, and analyzes pure, mixed and
correlated equilibria as well as Pareto optimality.
"""

from .decompose import (
    Decomposition,
    closest_harmonic,
    closest_potential,
    decompose,
    decompose_bimatrix_normalized,
    decomposition_to_dict,
    game_distance,
    game_inner,
    game_norm,
    is_harmonic,
    is_potential,
    potential_function,
)
from .equilibria import (
    AffineSolutionSet,
    epsilon_equilibria,
    epsilon_transfer_bound,
    equilibrium_report,
    harmonic_correlated_system,
    harmonic_indifference_checks,
    is_correlated_equilibrium,
    is_mixed_nash,
    mixed_utility,
    pareto_align_transform,
    pareto_optimal,
    pure_nash,
    uniformly_mixed,
)
from .errors import (
    GameFormatError,
    GameHodgeError,
    NumericError,
    PreconditionError,
    ShapeError,
    SizeError,
)
from .flows import (
    EdgeFlow,
    GameGraph,
    TriangleFlow,
    build_graph,
    curl,
    divergence_adjoint,
    flow_inner,
    flow_to_dot,
    gradient,
    laplacian_apply,
    laplacian_pinv_solve,
    laplacian_player_apply,
    node_inner,
    pairwise_comparison,
    player_divergence,
    player_gradient,
    restrict_player,
)
from .game import (
    Game,
    game_from_dict,
    game_to_dict,
    is_normalized,
    load_game,
    normalize,
    profile_index,
    profile_of_index,
    project_player,
    save_game,
    zero_sum_identical_split,
)
from .subspaces import (
    SubspaceBasis,
    SubspaceDims,
    basis_export,
    empirical_dims,
    harmonic_basis_2p,
    nonstrategic_basis,
    subspace_dims,
    verify_normalized_harmonic,
    zs_ii_intersection_dims,
)

__version__ = "0.1.0"
