"""Modular S as an oracle for the characters: ch_a(-1/tau) = sum_b S_ab ch_b(tau).

Each character is evaluated in floating point from its order-20 series, at
tau = iy as sum c exp(-2 pi y e) over its nonzero terms, and at -1/tau = i/y.
The gap between the two sides of each row, divided by sum_b |S_ab ch_b(iy)|
(ch_a alone can be tiny), must stay below 1e-12; wrong S-matrices must not.
"""

from functools import cache
from math import exp, fsum, gcd, pi, sin, sqrt

import pytest

from cosetchar.affine import Sl2Label, sl2_character
from cosetchar.cli import MAX_PQ
from cosetchar.minimal import MinimalModel

ORDER = 20
GATE = 1e-12
Y = 1.25


def value(series, y: float) -> float:
    """The series at tau = iy, where q = exp(-2 pi y)."""
    return fsum(c * exp(-2 * pi * y * e) for e, c in series.nonzero_terms())


def evaluate(chars, y: float):
    """The values of the characters at iy, and at i/y."""
    return [value(ch, y) for ch in chars], [value(ch, 1 / y) for ch in chars]


def worst_gap(labels, at_y, at_inv, s_matrix) -> float:
    """Largest |ch_a(i/y) - sum_b S_ab ch_b(iy)| / sum_b |S_ab ch_b(iy)| over the labels a."""
    worst = 0.0
    for a, lhs in zip(labels, at_inv):
        terms = [s_matrix(a, b) * v for b, v in zip(labels, at_y)]
        worst = max(worst, abs(lhs - fsum(terms)) / fsum(map(abs, terms)))
    return worst


def vir_s(p, q, a, b, signed=True):
    """S_ab of the (p, q) minimal model on Kac labels (r, s), r < q and s < p."""
    (r, s), (rho, sigma) = a, b
    sign = (-1) ** (1 + s * rho + r * sigma) if signed else 1
    return 2 * sqrt(2 / (p * q)) * sign * sin(pi * p * r * rho / q) * sin(pi * q * s * sigma / p)


@cache
def vir_models():
    """Every model the CLI accepts, its canonical labels and their characters' values."""
    out = []
    for p in range(3, MAX_PQ + 1):
        for q in range(3, MAX_PQ + 1):
            if p != q and gcd(p, q) == 1:
                model = MinimalModel(p, q)
                labels = model.canonical_labels()
                chars = [model.character(lab, ORDER) for lab in labels]
                out.append((p, q, labels, *evaluate(chars, Y)))
    return out


def vir_worst_gap(s_of_model) -> float:
    return max(worst_gap(labels, at_y, at_inv, lambda a, b: s_of_model(p, q, a, b))
               for p, q, labels, at_y, at_inv in vir_models())


def test_virasoro_characters_transform_by_modular_s():
    assert sum(len(labels) for _, _, labels, *_ in vir_models()) == 3980
    assert vir_worst_gap(vir_s) < GATE


@pytest.mark.parametrize("wrong", [
    lambda p, q, a, b: vir_s(p, q, a, b, signed=False),  # sign factor dropped
    lambda p, q, a, b: vir_s(q, p, a, b),  # p and q swapped in the sines
], ids=["unsigned", "swapped"])
def test_virasoro_gate_refuses_a_wrong_s_matrix(wrong):
    assert vir_worst_gap(wrong) > GATE


@pytest.mark.parametrize("y", [1.25, 1.7])
def test_sl2_characters_transform_by_modular_s(y):
    for l in range(1, 21):
        labels = range(l + 1)
        chars = [sl2_character(Sl2Label(l, i), ORDER) for i in labels]
        s_matrix = lambda i, j: sqrt(2 / (l + 2)) * sin(pi * (i + 1) * (j + 1) / (l + 2))
        assert worst_gap(labels, *evaluate(chars, y), s_matrix) < GATE, l
