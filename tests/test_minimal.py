import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from cosetchar import extension, minimal
from cosetchar.cli import MAX_PQ
from cosetchar.minimal import KacLabel, MinimalModel, ModuleSum, kac_table_csv
from cosetchar.series import equal_through

F = Fraction
L = KacLabel

M107 = MinimalModel(10, 7)

# conformal weight grid of the (10,7) model, rows r=1..6, columns s=1..9
WEIGHTS_107 = [
    ["0", "1/40", "2/5", "9/8", "11/5", "29/8", "27/5", "301/40", "10"],
    ["4/7", "27/280", "-1/35", "11/56", "27/35", "95/56", "104/35", "1287/280", "46/7"],
    ["13/7", "247/280", "9/35", "-1/56", "2/35", "27/56", "44/35", "667/280", "27/7"],
    ["27/7", "667/280", "44/35", "27/56", "2/35", "-1/56", "9/35", "247/280", "13/7"],
    ["46/7", "1287/280", "104/35", "95/56", "27/35", "11/56", "-1/35", "27/280", "4/7"],
    ["10", "301/40", "27/5", "29/8", "11/5", "9/8", "2/5", "1/40", "0"],
]


def test_model_validation():
    with pytest.raises(ValueError):
        MinimalModel(10, 5)  # not coprime
    with pytest.raises(ValueError):
        MinimalModel(4, 4)
    with pytest.raises(ValueError):
        MinimalModel(7, 2)


def test_central_charges():
    assert M107.central_charge() == F(8, 35)
    assert MinimalModel(7, 4).central_charge() == F(-13, 14)
    assert MinimalModel(4, 3).central_charge() == F(1, 2)
    assert MinimalModel(5, 4).central_charge() == F(7, 10)
    assert MinimalModel(4, 5).central_charge() == F(7, 10)  # symmetric in p, q


def test_weight_grid_matches_reference():
    table = M107.kac_table()
    assert len(table) == 6 and all(len(row) == 9 for row in table)
    for i, row in enumerate(WEIGHTS_107):
        for j, w in enumerate(row):
            assert table[i][j] == F(w), (i + 1, j + 1)


def test_weight_spot_values():
    assert M107.conformal_weight(L(6, 1)) == 10
    assert M107.conformal_weight(L(3, 5)) == F(2, 35)
    assert M107.conformal_weight(L(2, 3)) == F(-1, 35)


def test_out_of_range_label_raises():
    with pytest.raises(ValueError):
        M107.conformal_weight(L(7, 1))
    with pytest.raises(ValueError):
        M107.conformal_weight(L(1, 0))


# every model the CLI accepts: coprime 3 <= p, q <= MAX_PQ
CLI_MODELS = [(p, q) for p in range(3, MAX_PQ + 1) for q in range(3, MAX_PQ + 1)
              if p != q and gcd(p, q) == 1]


@pytest.mark.parametrize("p, q", CLI_MODELS)
def test_canon_range_error_text(p, q):
    model = MinimalModel(p, q)
    for label in (L(0, 1), L(q, 1), L(1, 0), L(1, p)):
        with pytest.raises(ValueError) as canon_err:
            model.canon(label)
        assert str(canon_err.value) == f"label {label} outside 1..{q - 1} x 1..{p - 1}"
    for r, s in itertools.product(range(1, q), range(1, p)):
        label = L(r, s)
        want = min(label, L(q - r, p - s))
        got = model.canon(label)
        assert got == want and type(got) is KacLabel, (label, got)
        if want == label:
            assert got is label, label  # a canonical label comes back as itself
    # the label is read by field, so a bare tuple fails as it always has
    with pytest.raises(AttributeError):
        model.canon((1, 1))


def test_kac_symmetry_many_models():
    for p, q in [(10, 7), (7, 4), (5, 3), (5, 4), (9, 8), (11, 3)]:
        model = MinimalModel(p, q)
        for r in range(1, q):
            for s in range(1, p):
                assert model.conformal_weight(L(r, s)) == model.conformal_weight(
                    L(q - r, p - s)
                )


def test_table_reversal_invariance():
    for p, q in [(10, 7), (7, 4), (5, 3)]:
        table = MinimalModel(p, q).kac_table()
        flipped = [row[::-1] for row in table[::-1]]
        assert table == flipped


def test_integral_entries_are_the_two_integer_weight_classes():
    integral = [
        (r, s)
        for r in range(1, 7)
        for s in range(1, 10)
        if M107.conformal_weight(L(r, s)).denominator == 1
        and M107.conformal_weight(L(r, s)) >= 0
    ]
    # each class appears twice in the raw grid via the Kac identification
    assert sorted(integral) == [(1, 1), (1, 9), (6, 1), (6, 9)]
    classes = {M107.canon(L(r, s)) for r, s in integral}
    assert classes == {L(1, 1), L(1, 9)}
    assert {M107.conformal_weight(L(r, s)) for r, s in integral} == {F(0), F(10)}


# --- canonicalization ------------------------------------------------------

def test_canonical_labels_are_low_r():
    labels = M107.canonical_labels()
    assert len(labels) == 27
    assert all(1 <= lab.r <= 3 for lab in labels)
    assert M107.canon(L(6, 1)) == L(1, 9)
    assert M107.canon(L(5, 1)) == L(2, 9)
    assert M107.canon(L(2, 3)) == L(2, 3)


# --- admissibility and fusion ------------------------------------------------

# The admissible-triple conditions, kept here as the reference that fusion is
# checked against: the su(2) triangle inequalities and parity on each of r and
# s, and the caps 2q-1 and 2p-1 on the label sums.

def _triple_ok(xs, cap):
    a, b, c = xs
    total = a + b + c
    if total > cap or total % 2 == 0:
        return False
    return a < b + c and b < a + c and c < a + b


def _is_admissible(model, t1, t2, t3):
    """Admissibility of the raw in-range triple; representatives are not swapped."""
    return (_triple_ok((t1.r, t2.r, t3.r), 2 * model.q - 1)
            and _triple_ok((t1.s, t2.s, t3.s), 2 * model.p - 1))


def test_admissible_examples():
    assert _is_admissible(M107, L(2, 1), L(2, 1), L(3, 1))
    # parity violation
    assert not _is_admissible(M107, L(2, 1), L(2, 1), L(2, 1))
    for r in range(1, 7):
        for s in range(1, 10):
            assert _is_admissible(M107, L(r, s), L(6, 1), L(7 - r, s))


def test_fusion_unit():
    for lab in M107.canonical_labels():
        assert M107.fuse(L(1, 1), lab)[M107.canon(lab)] == 1
        assert M107.fuse(L(1, 1), lab) == {lab: 1}


def test_fusion_with_simple_current_is_involution():
    for lab in M107.canonical_labels():
        out = M107.fuse(lab, L(6, 1))
        assert out == {M107.canon(L(7 - lab.r, lab.s)): 1}
    # same product through the canonical representative of (6,1)
    assert M107.fuse(L(2, 3), L(1, 9)) == M107.fuse(L(2, 3), L(6, 1))


def test_fuse_2_1_squared():
    out = M107.fuse(L(2, 1), L(2, 1))
    assert out == {L(1, 1): 1, L(3, 1): 1}
    # no representative combination makes (5,1) admissible here
    assert M107.fuse(L(2, 1), L(2, 1))[M107.canon(L(5, 1))] == 0


def test_fusion_dim_totally_symmetric():
    labels = [L(2, 1), L(3, 4), L(1, 5), L(2, 9)]
    for t1, t2, t3 in itertools.product(labels, repeat=3):
        vals = {
            M107.fuse(a, b)[M107.canon(c)]
            for a, b, c in itertools.permutations((t1, t2, t3))
        }
        assert len(vals) == 1


def test_fusion_commutative_sample():
    labels = M107.canonical_labels()
    for a, b in itertools.product(labels[::5], labels[::4]):
        assert M107.fuse(a, b) == M107.fuse(b, a)


def _coprime_models(lo, hi):
    return [
        MinimalModel(p, q)
        for p in range(lo, hi + 1)
        for q in range(lo, hi + 1)
        if p != q and gcd(p, q) == 1
    ]


def _reference_fusion_dim(model, t1, t2, t3):
    """Representative search: 1 iff some choice of Kac representatives of the
    three labels is an admissible triple.  Independent of the su(2) ranges."""
    p, q = model.p, model.q

    def reps(t):
        return ((t.r, t.s), (q - t.r, p - t.s))

    for a in reps(t1):
        for b in reps(t2):
            for c in reps(t3):
                if _triple_ok((a[0], b[0], c[0]), 2 * q - 1) and _triple_ok(
                    (a[1], b[1], c[1]), 2 * p - 1
                ):
                    return 1
    return 0


def test_fuse_matches_representative_search():
    for model in _coprime_models(3, 9) + [M107]:
        labels = model.canonical_labels()
        for a, b in itertools.product(labels, repeat=2):
            expected = ModuleSum(
                {c: 1 for c in labels if _reference_fusion_dim(model, a, b, c)}
            )
            assert model.fuse(a, b) == expected, (model, a, b)


def _chebyshev_u(m):
    """Integer coefficients, lowest power first, of U_0 .. U_m."""
    us = [[1], [0, 2]]
    while len(us) <= m:
        nxt = [0] + [2 * c for c in us[-1]]
        for i, c in enumerate(us[-2]):
            nxt[i] -= c
        us.append(nxt)
    return us[: m + 1]


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _root_power_sums(poly, top):
    """Sum of x**j over the roots of poly, j = 0 .. top, by Newton's identities."""
    m = len(poly) - 1
    c = [F(poly[m - i], poly[m]) for i in range(m + 1)]  # monic, x^m + c1 x^(m-1) + ...
    sums = [F(m)]
    for j in range(1, top + 1):
        s = -sum(c[i] * sums[j - i] for i in range(1, min(j, m + 1)))
        sums.append(s - j * c[j] if j <= m else s)
    return sums


@functools.cache
def _su2_verlinde(k):
    """su(2)_k fusion coefficients N[a, b, c], labels a = 2j + 1 in 1 .. k+1.

    With S_ad = sqrt(2/n) sin(pi a d / n), n = k + 2, the Verlinde sum is
    (2/n) sum_d sin(a t) sin(b t) sin(c t) / sin(t), t = pi d / n.  In
    x = cos(t) the summand is (1 - x^2) U_(a-1) U_(b-1) U_(c-1), and the
    x = cos(pi d / n), d = 1 .. n-1, are the roots of U_(n-1): power sums over
    them evaluate the sum exactly, with no floats.
    """
    n = k + 2
    us = _chebyshev_u(n - 1)
    sums = _root_power_sums(us[n - 1], 3 * k + 2)
    table = {}
    for a, b, c in itertools.product(range(1, n), repeat=3):
        poly = _poly_mul([1, 0, -1], _poly_mul(us[a - 1], _poly_mul(us[b - 1], us[c - 1])))
        value = F(2, n) * sum(x * sums[j] for j, x in enumerate(poly))
        assert value.denominator == 1 and value >= 0, (k, a, b, c, value)
        table[a, b, c] = int(value)
    return table


def test_su2_verlinde_oracle_small_levels():
    # su(2)_1: Z2 fusion; su(2)_2: Ising, sigma x sigma = 1 + psi
    n1 = _su2_verlinde(1)
    assert [n1[2, 2, c] for c in (1, 2)] == [1, 0]
    n2 = _su2_verlinde(2)
    assert [n2[2, 2, c] for c in (1, 2, 3)] == [1, 0, 1]
    assert [n2[3, 3, c] for c in (1, 2, 3)] == [1, 0, 0]


def test_fuse_matches_verlinde_formula():
    # minimal-model fusion is the su(2)_(q-2) x su(2)_(p-2) Verlinde product
    # summed over both Kac representatives of the outgoing label
    for model in _coprime_models(3, 11):
        p, q = model.p, model.q
        nr, ns = _su2_verlinde(q - 2), _su2_verlinde(p - 2)
        labels = model.canonical_labels()
        for a, b in itertools.product(labels, repeat=2):
            expected = {}
            for c in labels:
                mult = (nr[a.r, b.r, c.r] * ns[a.s, b.s, c.s]
                        + nr[a.r, b.r, q - c.r] * ns[a.s, b.s, p - c.s])
                if mult:
                    expected[c] = mult
            assert model.fuse(a, b) == expected, (model, a, b)


def test_fusion_dim_matches_representative_search_on_raw_triples():
    for model in (M107, MinimalModel(5, 4)):
        raw = [L(r, s) for r in range(1, model.q) for s in range(1, model.p)]
        for t1, t2, t3 in itertools.product(raw, repeat=3):
            assert model.fuse(t1, t2)[model.canon(t3)] == _reference_fusion_dim(
                model, t1, t2, t3
            ), (model, t1, t2, t3)


def _sum_fused(terms, fuse_term):
    """Sum of fuse_term(label) over a ModuleSum, each label counted with its multiplicity."""
    out = ModuleSum({})
    for lab, m in terms:
        out = out + ModuleSum({k: v * m for k, v in fuse_term(lab)})
    return out


def test_fusion_ring_axioms_sweep():
    rng = random.Random(20251018)
    for model in _coprime_models(3, 11):
        labels = model.canonical_labels()
        for a in labels:
            assert model.fuse(L(1, 1), a) == {a: 1} == model.fuse(a, L(1, 1)), (model, a)
        for a, b in itertools.product(labels, repeat=2):
            assert model.fuse(a, b) == model.fuse(b, a), (model, a, b)
        # every triple of the small models, a seeded sample of the large ones
        triples = list(itertools.product(labels, repeat=3))
        if len(triples) > 1000:
            triples = rng.sample(triples, 200)
        for a, b, c in triples:
            left = _sum_fused(model.fuse(a, b), lambda d: model.fuse(d, c))
            right = _sum_fused(model.fuse(b, c), lambda d: model.fuse(a, d))
            assert left == right, (model, a, b, c)


def test_fuse_returns_one_shared_read_only_result():
    a, b = L(2, 1), L(3, 4)
    out = M107.fuse(a, b)
    assert M107.fuse(a, b) is out
    assert M107.fuse(L(7 - a.r, 10 - a.s), b) is out  # same class, same object
    with pytest.raises(TypeError):
        out.mults[L(1, 1)] = 1
    assert out == M107.fuse(b, a) and L(1, 1) not in out.mults


@pytest.mark.parametrize("p, q", [(10, 7), (5, 4), (11, 8)])
def test_products_are_shared_per_unordered_pair(p, q):
    model = MinimalModel(p, q)
    for a, b in itertools.product(model.canonical_labels(), repeat=2):
        out = model.fuse(a, b)
        assert model.fuse(b, a) is out, (a, b)
        pa, pb = L(q - a.r, p - a.s), L(q - b.r, p - b.s)
        for x, y in ((pa, b), (b, pa), (a, pb), (pb, a), (pa, pb), (pb, pa)):
            assert model.fuse(x, y) is out, (a, b, x, y)


def test_cold_extension_table_builds_each_product_once():
    # 27 canonical constituents, so 27 * 28 / 2 unordered pairs out of 729 entries
    minimal._fuse.cache_clear()
    extension._induced.cache_clear()
    extension.fusion_table()
    assert minimal._fuse.cache_info().misses == 378
    assert extension._induced.cache_info().misses == 378
    assert extension._induced.cache_info().hits == 729 - 378


def test_module_sum_addition_and_json():
    a = M107.fuse(L(2, 1), L(2, 1))
    b = M107.fuse(L(1, 1), L(3, 1))
    total = a + b
    assert total[L(3, 1)] == 2
    assert total.to_json() == [
        {"r": 1, "s": 1, "mult": 1},
        {"r": 3, "s": 1, "mult": 2},
    ]


# --- characters ---------------------------------------------------------------

def test_character_leading_exponents():
    ch = M107.character(L(1, 1), 3)
    assert ch.leading_term() == (F(-1, 105), F(1))
    ch61 = M107.character(L(6, 1), 0)
    assert ch61.leading_term() == (10 - F(1, 105), F(1))


def test_character_leading_term_everywhere():
    for p, q in [(10, 7), (7, 4), (5, 3)]:
        model = MinimalModel(p, q)
        e_c = model.central_charge() / 24
        for lab in model.canonical_labels():
            ch = model.character(lab, 2)
            assert ch.leading_term() == (model.conformal_weight(lab) - e_c, F(1)), lab


def test_character_coefficients_nonneg_integers():
    e_c = M107.central_charge() / 24
    for lab in M107.canonical_labels():
        h = M107.conformal_weight(lab)
        ch = M107.character(lab, 30)
        for k in range(31):
            c = ch.coeff(h - e_c + k)
            assert c.denominator == 1 and c >= 0, (lab, k)


def test_character_kac_symmetric():
    for lab in [L(2, 3), L(1, 5), L(3, 1)]:
        partner = L(7 - lab.r, 10 - lab.s)
        ch, ch_partner = M107.character(lab, 12), M107.character(partner, 12)
        top = M107.conformal_weight(lab) - M107.central_charge() / 24 + 12
        assert equal_through(ch, ch_partner, top), lab


def test_vacuum_character_counts_vacuum_module_states():
    # graded dims of the c=8/35 vacuum module start 1, 0, 1, 1, 2, 2, 4, ...
    ch = M107.character(L(1, 1), 8)
    e0 = F(-1, 105)
    dims = [ch.coeff(e0 + k) for k in range(7)]
    assert dims == [1, 0, 1, 1, 2, 2, 4]


def test_kac_label_sorts_by_r_then_s_and_prints_pair():
    labels = [L(2, 1), L(1, 9), L(1, 2), L(3, 5)]
    assert sorted(labels) == [L(1, 2), L(1, 9), L(2, 1), L(3, 5)]
    assert str(L(3, 5)) == "(3,5)"
    assert [str(lab) for lab in sorted(labels)] == ["(1,2)", "(1,9)", "(2,1)", "(3,5)"]


def test_csv_export():
    text = kac_table_csv(M107)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].split(",")[0] == "0/1"
    assert lines[0].split(",")[1] == "1/40"
    assert lines[5].split(",")[0] == "10/1"
