"""Exact engine for multispecies juggling Markov chains.

Five finite-state models over words, tableaux, grids and ball arrays,
each with its closed-form stationary law, verified against an exact
rational solver. See the cli module for the command line front end.
"""

from .chain import (
    ChainMatrix,
    Distribution,
    LumpingMap,
    chain_period,
    first_unbalanced,
    is_irreducible,
    nilpotency_check,
    simulate,
    simulate_replicas,
    stationary_exact,
    stationary_power,
    total_variation,
    ultrafast_check,
    verify_lumping,
)
from .combinatorics import ParamSet, TypeCounts, Word
from .errors import (
    DegenerateParams,
    JuggleError,
    NotNormalized,
    ReducibleChain,
    RowSumError,
    UnknownSuccessor,
)

__version__ = "0.1.0"

__all__ = [
    "ChainMatrix",
    "Distribution",
    "LumpingMap",
    "ParamSet",
    "TypeCounts",
    "Word",
    "chain_period",
    "first_unbalanced",
    "is_irreducible",
    "nilpotency_check",
    "simulate",
    "simulate_replicas",
    "stationary_exact",
    "stationary_power",
    "total_variation",
    "ultrafast_check",
    "verify_lumping",
    "DegenerateParams",
    "JuggleError",
    "NotNormalized",
    "ReducibleChain",
    "RowSumError",
    "UnknownSuccessor",
    "__version__",
]
