"""Centralized load balancing: search strategies over full assignments."""

from .fixtures import SCENARIOS, benchmark_state, load_benchmark_nodes, load_benchmark_tasks
from .problem import (
    CandidateSolution,
    InfeasibleError,
    PackedProblem,
    SolutionCache,
    random_stable_solution,
)
from .strategies import (
    STRATEGIES,
    BalancerResult,
    SearchSpaceCapExceeded,
    StrategyConfig,
    full_scan,
    genetic,
    greedy,
    seeded_genetic,
    simulated_annealing,
    tabu_search,
)

__all__ = [
    "SCENARIOS", "benchmark_state", "load_benchmark_nodes", "load_benchmark_tasks",
    "CandidateSolution", "InfeasibleError", "PackedProblem", "SolutionCache",
    "random_stable_solution",
    "STRATEGIES", "BalancerResult", "SearchSpaceCapExceeded", "StrategyConfig",
    "full_scan", "genetic", "greedy", "seeded_genetic", "simulated_annealing",
    "tabu_search",
]
