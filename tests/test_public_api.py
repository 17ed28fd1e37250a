"""The package's public names, pinned: adding or removing one is an edit
here, made on purpose, not a side effect of a refactor."""

import jugglemc

PUBLIC = [
    "ChainMatrix",
    "DegenerateParams",
    "Distribution",
    "JuggleError",
    "LumpingMap",
    "NotNormalized",
    "ParamSet",
    "ReducibleChain",
    "RowSumError",
    "TypeCounts",
    "UnknownSuccessor",
    "Word",
    "__version__",
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
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(jugglemc.__all__) == PUBLIC
    assert len(set(jugglemc.__all__)) == len(jugglemc.__all__)
    for name in PUBLIC:
        assert getattr(jugglemc, name) is not None, name
