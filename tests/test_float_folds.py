"""Float sums that set printed bits are folded left, so they give the same
bits on every Python: since 3.12 builtin sum adds floats with Neumaier
compensation. Each test below puts such a sum in place of the builtin, as a
module global of the modules that add floats, and checks that the pinned
float outputs do not move."""

import builtins
import hashlib
from functools import reduce
from math import isfinite
from operator import add

import pytest

from jugglemc import chain, fluctuating
from jugglemc.chain import Distribution, total_variation
from jugglemc.combinatorics import ParamSet


def compensated_sum(iterable, start=0):
    """sum as Python 3.12 adds: ints exactly, floats with Neumaier's
    compensation, added back at the end."""
    items = list(iterable)
    if (not any(isinstance(x, float) for x in items)
            or not all(isinstance(x, (int, float)) for x in items)):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and isfinite(comp) else total


def test_compensated_sum_differs_from_the_left_fold():
    # ten 0.1 fold left to 0.9999999999999999, and compensated to 1.0
    assert reduce(add, [0.1] * 10, 0) == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2, 3]) == 6


@pytest.fixture(params=["builtin", "compensated"])
def any_sum(request, monkeypatch):
    if request.param == "compensated":
        for module in (chain, fluctuating):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def _digest(values) -> str:
    return hashlib.sha256(" ".join(values).encode()).hexdigest()


def test_float_add_drop_matrix_keeps_its_bytes(any_sum):
    # three activities: a compensated insertion normalizer moves 3 entries
    P = fluctuating.build_add_drop_chain(2, 3, ParamSet((0.5, 0.3, 0.2), (0.1, 0.2, 0.3)))
    assert not P.exact
    assert _digest(f"{i}:{j}:{v.hex()}" for i, row in enumerate(P.rows)
                   for j, v in row.items()) == ADD_DROP_DIGEST


def test_float_total_variation_keeps_its_bits(any_sum):
    p = Distribution(range(10), [0.1] * 10)
    q = Distribution(range(10), [0.05] * 10)
    assert total_variation(p, q).hex() == "0x1.fffffffffffffp-3"
    assert p.total.hex() == "0x1.fffffffffffffp-1"
    assert p.normalize().weights[0].hex() == "0x1.999999999999bp-4"


ADD_DROP_DIGEST = "251d528553213790969ea4ba35aa4f34a547e8fff5692843e56632fda1a99a62"
