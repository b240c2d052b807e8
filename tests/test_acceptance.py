"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every comparison is exact rational arithmetic; runtime limits are
asserted where the criterion states one.
"""

import itertools
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from cosetchar.affine import (
    branch_character,
    h_alpha_beta,
    lowest_space,
    osp_central_charge,
    osp_character,
    osp_modules,
    osp_weight,
    singular_weights,
)
from cosetchar.extension import (
    FixedPointFusionWarning,
    classify_ext_modules,
    ext_fuse,
    ext_irreducibles,
    ext_label,
    simple_current_image,
)
from cosetchar.minimal import KacLabel, MinimalModel
from cosetchar.series import equal_through, euler_product

F = Fraction
L = KacLabel
M107 = MinimalModel(10, 7)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL - criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS - criterion {number}: {description} [{elapsed:.2f}s]")


# frozen reference data ------------------------------------------------------

WEIGHT_GRID = [
    ["0", "1/40", "2/5", "9/8", "11/5", "29/8", "27/5", "301/40", "10"],
    ["4/7", "27/280", "-1/35", "11/56", "27/35", "95/56", "104/35", "1287/280", "46/7"],
    ["13/7", "247/280", "9/35", "-1/56", "2/35", "27/56", "44/35", "667/280", "27/7"],
    ["27/7", "667/280", "44/35", "27/56", "2/35", "-1/56", "9/35", "247/280", "13/7"],
    ["46/7", "1287/280", "104/35", "95/56", "27/35", "11/56", "-1/35", "27/280", "4/7"],
    ["10", "301/40", "27/5", "29/8", "11/5", "9/8", "2/5", "1/40", "0"],
]

SUMMAND_ROWS = {
    "ch[L(2,0)]*ch[V(1,1)]": [
        1, 5, 19, 48, 124, 284, 613, 1266, 2513, 4806, 8959, 16267, 28895,
        50326, 86128, 145015, 240682, 394109, 637435, 1019306,
    ],
    "ch[L(2,0)]*ch[V(6,1)]": [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 6, 25, 73, 197, 481, 1093, 2354,
        4848, 9605,
    ],
    "ch[M3]*ch[V(3,1)]": [
        0, 0, 3, 18, 64, 189, 487, 1155, 2561, 5394, 10879, 21177, 39981,
        73510, 132042, 232330, 401262, 681527, 1140021, 1880571,
    ],
    "ch[M3]*ch[V(4,1)]": [
        0, 0, 0, 0, 3, 18, 64, 192, 502, 1201, 2689, 5707, 11593, 22711,
        43127, 79709, 143874, 254280, 440990, 751891,
    ],
    "ch[M5]*ch[V(2,1)]": [
        0, 5, 21, 66, 184, 455, 1035, 2234, 4591, 9070, 17351, 32257, 58490,
        103791, 180603, 308780, 519629, 861849, 1410525, 2280428,
    ],
    "ch[M5]*ch[V(5,1)]": [
        0, 0, 0, 0, 0, 0, 0, 5, 21, 71, 205, 526, 1235, 2739, 5760, 11625,
        22656, 42847, 78912, 142047,
    ],
}
TARGET_ROW = [
    1, 10, 43, 132, 375, 946, 2199, 4852, 10188, 20542, 40084, 75940, 140219,
    253150, 447857, 777940, 1329196, 2236966, 3712731, 6083848,
]

EVEN_TARGET = [1, 6, 23, 68, 191, 478, 1107, 2436, 5108, 10290, 20068]
ODD_TARGET = [0, 4, 20, 64, 184, 468, 1092, 2416, 5080, 10252, 20016]

SINGULAR_PAIRS = {
    (2, 1): (F(4, 7) + 2, F(4, 7) + 45),
    (3, 1): (F(13, 7) + 3, F(13, 7) + 36),
    (4, 1): (F(13, 7) + 6, F(13, 7) + 29),
    (5, 1): (F(4, 7) + 11, F(4, 7) + 24),
    (6, 1): (F(16), F(19)),
}


@cache
def partition_count(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, max_part) + 1))


# criteria ---------------------------------------------------------------------


def test_criterion_1_weight_grid():
    with criterion(1, "conformal weight grid of the (10,7) model, 54 exact entries"):
        start = time.perf_counter()
        table = M107.kac_table()
        elapsed = time.perf_counter() - start
        for i, row in enumerate(WEIGHT_GRID):
            for j, w in enumerate(row):
                assert table[i][j] == F(w), (i + 1, j + 1)
        assert elapsed < 0.1, f"kac_table took {elapsed:.3f}s"


def test_criterion_2_coefficient_table_to_q19():
    with criterion(2, "all summand rows and the target match for q^0..q^19"):
        from cosetchar.coset import verify_decomposition

        start = time.perf_counter()
        report = verify_decomposition(19)
        elapsed = time.perf_counter() - start
        assert report.passed
        rows = dict(report.rows)
        for name, expected in SUMMAND_ROWS.items():
            got = [c for c in rows[name]]
            assert all(c.denominator == 1 for c in got)
            assert [int(c) for c in got] == expected, name
        assert [int(c) for c in rows["ch[L(1,0)^2]"]] == TARGET_ROW
        assert elapsed < 5, f"order-20 table took {elapsed:.2f}s"


def test_criterion_3_decomposition_identity_order_30():
    with criterion(3, "tensor-square decomposition identity holds through order 30"):
        from cosetchar.coset import verify_decomposition

        start = time.perf_counter()
        report = verify_decomposition(30)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert len(report.comparisons) == 31
        assert all(c.ok for c in report.comparisons)
        assert elapsed < 10, f"order-30 identity took {elapsed:.2f}s"


def test_criterion_4_parity_refinement():
    with criterion(4, "all parity-refined expansions match to q^10 and recombine"):
        from cosetchar.coset import verify_even_refinement

        report = verify_even_refinement(10)
        assert report.passed
        rows = dict(report.rows)
        assert [int(c) for c in rows["ch[L(1,0)^2 even]"]] == EVEN_TARGET
        assert [int(c) for c in rows["ch[L(1,0)^2 odd]"]] == ODD_TARGET
        even_rows = [r for r in report.rows if "even]*" in r[0]]
        odd_rows = [r for r in report.rows if "odd]*" in r[0]]
        for (_, ec), (_, oc), expected in zip(even_rows, odd_rows, SUMMAND_ROWS.values()):
            assert [int(a + b) for a, b in zip(ec, oc)] == expected[:11]


def test_criterion_5_weight_and_structure_spot_checks():
    with criterion(5, "central-charge identity, lowest spaces and singular ladder"):
        assert 2 * osp_central_charge(1) == osp_central_charge(2) + M107.central_charge()
        assert F(4, 5) == F(4, 7) + F(8, 35)
        assert lowest_space(2, 3) == (F(1, 7), 3)
        assert lowest_space(2, 5) == (F(3, 7), 5)
        t = F(10, 7)
        assert h_alpha_beta(2, -1, t) == F(18, 7)
        assert h_alpha_beta(6, -1, t) == 16
        assert h_alpha_beta(-8, -1, t) == 19
        for (r, s), pair in SINGULAR_PAIRS.items():
            assert singular_weights(M107, L(r, s)) == pair, (r, s)
        # hypothetical non-simple vacuum sector: second singular weight 54
        assert singular_weights(M107, L(1, 1))[1] == 54


def test_criterion_6_fusion_ring_properties():
    with criterion(6, "fusion ring: commutative, unital, current involution, associative"):
        start = time.perf_counter()
        labels = M107.canonical_labels()
        assert len(labels) == 27
        table = {}
        for a, b in itertools.product(labels, repeat=2):
            table[(a, b)] = dict(M107.fuse(a, b).mults)
        for a, b in itertools.product(labels, repeat=2):
            assert table[(a, b)] == table[(b, a)]
        unit = L(1, 1)
        current = L(6, 1)
        for x in labels:
            assert table[(unit, x)] == {x: 1}
            assert table[(M107.canon(current), x)] == {M107.canon(L(7 - x.r, x.s)): 1}
            assert M107.fuse(x, current) == {M107.canon(L(7 - x.r, x.s)): 1}

        def fuse_sum(ms: dict, c: KacLabel) -> dict:
            out: dict = {}
            for lab, m in ms.items():
                for lab2, m2 in table[(lab, c)].items():
                    out[lab2] = out.get(lab2, 0) + m * m2
            return out

        for a, b, c in itertools.product(labels, repeat=3):
            assert fuse_sum(table[(a, b)], c) == fuse_sum(table[(b, c)], a), (a, b, c)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"exhaustive fusion checks took {elapsed:.2f}s"


def test_criterion_7_extension_census_and_fusion():
    with criterion(7, "extension census 2*12+3=27 and the displayed fusion families"):
        fixed = [
            lab
            for lab in M107.canonical_labels()
            if simple_current_image(lab) == lab
        ]
        assert fixed == [L(1, 5), L(2, 5), L(3, 5)]
        orbits, fixed_census = classify_ext_modules()
        assert (len(orbits), len(fixed_census)) == (12, 3)
        assert 2 * len(orbits) + len(fixed_census) == 27

        def n_admissible(s, s1, s2):
            total = s + s1 + s2
            return int(
                1 <= s2 <= 9 and abs(s - s1) < s2 < s + s1
                and total % 2 == 1 and total <= 19
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FixedPointFusionWarning)
            for (ra, rb), r_out in [
                ((5, 5), (1, 3)), ((3, 3), (1, 3, 5)), ((3, 5), (3, 5)),
            ]:
                for s, s1 in itertools.product(range(1, 10), repeat=2):
                    expected: dict = {}
                    for s2 in range(1, 10):
                        if n_admissible(s, s1, s2):
                            for r2 in r_out:
                                key = ext_label(r2, s2).orbit()
                                expected[key] = expected.get(key, 0) + 1
                    assert ext_fuse(ext_label(ra, s), ext_label(rb, s1)) == expected
            non_fixed = [lab for lab in ext_irreducibles() if not lab.fixed_point]
            for a, b in itertools.product(non_fixed, repeat=2):
                base = ext_fuse(a, b)
                for ca, cb in ((0, 1), (1, 0), (1, 1)):
                    assert ext_fuse(a, b, ca, cb) == base


def test_criterion_8_oracle_properties():
    with criterion(8, "partition-count oracle to n=30 and branching completeness"):
        series = euler_product(-1, -1, 30)
        for n in range(31):
            assert series.coeff(n) == partition_count(n), n
        for l in (1, 2):
            for lab in osp_modules(l):
                even = branch_character(l, lab.r, "even", 20)
                odd = branch_character(l, lab.r, "odd", 20)
                total = osp_character(lab, 20)
                top = osp_weight(l, lab.r) - osp_central_charge(l) / 24 + 20
                assert equal_through(even + odd, total, top), (l, lab.r)
