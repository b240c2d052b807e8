import contextlib
import io
import json
from fractions import Fraction
from hashlib import sha256
from math import ceil

import pytest

from cosetchar.coset import (
    BASE_EXPONENT,
    COSET_DECOMPOSITION,
    MAX_REFINEMENT_ORDER,
    run_all,
    singular_ladder,
    verify_central_charge,
    verify_decomposition,
    verify_even_refinement,
    _coeff_row,
    _parity_tables,
    _products,
    _sum_rule,
    _summand_series,
)
from cosetchar.affine import (
    OspLabel,
    branch_character,
    osp_central_charge,
    osp_character,
    osp_weight,
)
from cosetchar import affine, coset, minimal, series
from cosetchar.cli import MAX_ORDER, main
from cosetchar.minimal import MinimalModel
from cosetchar.series import euler_product, monomial, theta_null, weighted_theta

F = Fraction

# q^(-1/30 + k) coefficients, k = 0..19, of the six summand products and the
# tensor-square target
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


def test_central_charge_identity():
    report = verify_central_charge()
    assert report.passed
    values = {label: coeffs[0] for label, coeffs in report.rows}
    assert values == {
        "2*c[L(1,0)]": F(4, 5),
        "c[L(2,0)]": F(4, 7),
        "c[Vir(10,7)]": F(8, 35),
    }


def test_decomposition_passes_and_matches_reference():
    report = verify_decomposition(19)
    assert report.passed
    rows = dict(report.rows)
    for name, expected in SUMMAND_ROWS.items():
        assert [int(c) for c in rows[name]] == expected, name
    assert [int(c) for c in rows["ch[L(1,0)^2]"]] == TARGET_ROW
    assert [int(c) for c in rows["column sums"]] == TARGET_ROW


def test_decomposition_extends_past_reference():
    assert verify_decomposition(30).passed


def test_decomposition_passes_at_every_order_up_to_30():
    for order in range(31):
        report = verify_decomposition(order)
        assert report.passed, order
        assert len(report.comparisons) == order + 1


def _separate_factor_character(numerator, euler_parts, eta_den, target, order):
    """Theta numerator times one euler_product per factor, then q^(-1/eta_den)."""
    out = numerator(ceil(target + F(1, eta_den)) + 2)
    for sign, e in euler_parts:
        out = out * euler_product(sign, e, order + 2)
    span = out.order - out.lowest
    return out * monomial(1, -1, eta_den, eta_den * span // out.den + eta_den + 1)


def _separate_osp(lab, order):
    a = 2 * lab.l + 3
    return _separate_factor_character(
        lambda bound: weighted_theta(2 * a, lab.r, F(a, 2), bound),
        ((1, 2), (-1, -3)), 24,
        osp_weight(lab.l, lab.r) - osp_central_charge(lab.l) / 24 + order, order,
    )


def _separate_vir(model, lab, order):
    (p, q), (r, s) = (model.p, model.q), lab
    return _separate_factor_character(
        lambda bound: theta_null(p * q, p * r - q * s, bound)
        - theta_null(p * q, p * r + q * s, bound),
        ((-1, -1),), 24,
        model.conformal_weight(lab) - model.central_charge() / 24 + order, order,
    )


def test_decomposition_at_cli_cap_matches_separate_factor_route():
    # every row at the CLI cap against characters assembled with separate
    # Euler factors, one osp character per row, read one coefficient at a time
    order = MAX_ORDER
    report = verify_decomposition(order)
    assert report.passed

    def row(series):
        return tuple(series.coeff(BASE_EXPONENT + k) for k in range(order + 1))

    model = MinimalModel(10, 7)
    summands = [
        row(_separate_osp(osp_lab, order) * _separate_vir(model, vir_lab, order))
        for osp_lab, vir_lab in COSET_DECOMPOSITION.rows()
    ]
    one = _separate_osp(OspLabel(1, 1), order)
    expected = summands + [row(one * one), tuple(map(sum, zip(*summands)))]
    assert [coeffs for _, coeffs in report.rows] == expected


def test_decomposition_along_branching_route_at_cli_cap():
    # every osp character from its sl2 x Virasoro branching: no osp theta sum
    order = MAX_ORDER
    products = _products(order, lambda lab: branch_character(2, lab.r, "both", order))
    one = branch_character(1, 1, "both", order)
    target = _coeff_row(one * one, order)
    _, comparisons = _sum_rule(products, target, order)
    assert len(comparisons) == order + 1
    assert all(c.ok for c in comparisons)
    assert [*products, ("ch[L(1,0)^2]", target)] == list(_summand_series(order))


def test_decomposition_passes_past_cli_cap():
    # four times the CLI cap: the products carry coefficients of about 150 bits
    report = verify_decomposition(4 * MAX_ORDER)
    assert report.passed
    assert len(report.comparisons) == 4 * MAX_ORDER + 1


def test_column_sums_recomputed_not_copied():
    # the sum row must come from the summands: perturbing one summand shifts it
    report = verify_decomposition(12, perturb=(4, 3, -1))
    rows = dict(report.rows)
    assert int(rows["column sums"][3]) == TARGET_ROW[3] - 1
    assert not report.passed


def test_every_single_coefficient_perturbation_is_detected():
    order = 19
    for row in range(6):
        for col in range(order + 1):
            for delta in (1, -1):
                report = verify_decomposition(order, perturb=(row, col, delta))
                assert not report.passed, (row, col, delta)
                bad = report.first_mismatch()
                assert bad.exponent == BASE_EXPONENT + col
                assert bad.rhs - bad.lhs == delta


def test_perturbation_leaves_the_shared_table_intact():
    # column 1 is a singular-ladder column at every order >= 1
    for order in (1, 12, 40):
        assert verify_decomposition(order).passed  # the table is now cached
        assert not verify_decomposition(order, perturb=(4, 1, 1)).passed
        assert verify_decomposition(order).passed
        assert singular_ladder(order).passed
        reports = run_all(order, perturb=(4, 1, -1))
        assert [r.passed for r in reports] == [True, False, True, True]


@pytest.mark.parametrize("perturb", [(0, 0, 2.0), (0, 0, F(1, 2)), (0.0, 0, 1)],
                         ids=["float-delta", "fraction-delta", "float-row"])
@pytest.mark.parametrize("check", [verify_decomposition, run_all])
def test_non_integer_perturbation_is_refused_before_the_table(check, perturb):
    _summand_series.cache_clear()
    with pytest.raises(TypeError):
        check(3, perturb)
    assert _summand_series.cache_info().misses == 0


@pytest.mark.parametrize("perturb", [(6, 0, 1), (-1, 0, 1), (0, 51, 1), (0, -1, 1), (9, 0, 1)],
                         ids=["row-6", "row-minus-1", "col-51", "col-minus-1", "row-9"])
@pytest.mark.parametrize("check", [verify_decomposition, run_all])
def test_perturb_position_is_refused_before_the_table(check, perturb):
    _summand_series.cache_clear()
    with pytest.raises(ValueError, match=r"^perturb position .* the 6 x 51 summand table$"):
        check(50, perturb)
    assert _summand_series.cache_info().misses == 0


def test_ladder_comparisons_are_decomposition_columns():
    for order in range(41):
        columns = {c.exponent: c for c in verify_decomposition(order).comparisons}
        for c in singular_ladder(order).comparisons:
            assert c == columns[c.exponent], (order, c)


def test_coefficient_table_shape_and_integrality():
    table = [list(coeffs) for _, coeffs in verify_decomposition(19).rows]
    assert len(table) == 8  # six summands, target, column sums
    assert all(len(row) == 20 for row in table)
    assert all(type(c) is int for row in table for c in row)
    assert table[6] == TARGET_ROW
    assert table[7] == TARGET_ROW
    assert table[5] == SUMMAND_ROWS["ch[M5]*ch[V(5,1)]"]


def test_even_refinement_reference_and_sum_rules():
    report = verify_even_refinement(10)
    assert report.passed
    rows = dict(report.rows)
    assert [int(c) for c in rows["ch[L(1,0)^2 even]"]] == [
        1, 6, 23, 68, 191, 478, 1107, 2436, 5108, 10290, 20068,
    ]
    assert [int(c) for c in rows["ch[L(1,0)^2 odd]"]] == [
        0, 4, 20, 64, 184, 468, 1092, 2416, 5080, 10252, 20016,
    ]
    assert [int(c) for c in rows["ch[M5even]*ch[V(2,1)]"]][1:6] == [3, 11, 34, 94, 231]
    assert int(rows["ch[L(2,0)odd]*ch[V(6,1)]"][10]) == 0
    assert int(rows["ch[L(2,0)even]*ch[V(6,1)]"][10]) == 1


def test_even_refinement_recombines_to_full_rows():
    report = verify_even_refinement(10)
    even_rows = [r for r in report.rows if "even]*" in r[0]]
    odd_rows = [r for r in report.rows if "odd]*" in r[0]]
    plain = list(SUMMAND_ROWS.values())
    assert len(even_rows) == len(odd_rows) == len(plain) == 6
    for (en, ec), (on, oc), expected in zip(even_rows, odd_rows, plain):
        assert [int(a + b) for a, b in zip(ec, oc)] == expected[:11], (en, on)


def test_parity_identities_at_cli_cap():
    # containment and recombination need no reference rows, so they run past q^10
    order = MAX_ORDER
    tables, _ = _parity_tables(order)
    for *products, (_, target) in tables.values():
        _, comparisons = _sum_rule(products, target, order)
        assert len(comparisons) == order + 1
        assert all(c.ok for c in comparisons)
    for (_, even), (_, odd), (_, plain) in zip(*tables.values(), _summand_series(order)):
        assert len(even) == len(odd) == len(plain) == order + 1
        assert tuple(a + b for a, b in zip(even, odd)) == plain


@pytest.mark.parametrize("order", [11, 40])
def test_even_refinement_reads_orders_beyond_the_cli_clamp(order):
    # the CLI and run_all clamp to MAX_REFINEMENT_ORDER to pin their bytes; the
    # library check itself takes any order
    report = verify_even_refinement(order)
    assert report.passed and len(report.comparisons) == 27 * (order + 1)


def test_singular_ladder_candidates_and_checks():
    report = singular_ladder(20)
    assert report.passed
    rows = dict(report.rows)
    assert rows["candidates V(6,1)"] == (F(16), F(19))
    assert rows["candidates V(2,1)"] == (F(4, 7) + 2, F(4, 7) + 45)
    assert rows["candidates V(1,1)"] == (F(1), F(54))
    assert any("column 54" in note for note in report.notes)
    # both V(6,1) candidates fall inside order 20, so they are checked
    checked_columns = {c.exponent - BASE_EXPONENT for c in report.comparisons}
    assert F(16) in checked_columns and F(19) in checked_columns


def test_run_all_passes():
    reports = run_all(20)
    assert [r.check for r in reports] == [
        "central-charge", "decomposition", "even-refinement", "singular-ladder",
    ]
    assert all(r.passed for r in reports)


def test_each_character_is_built_once_per_command(monkeypatch):
    # every character run_all asks for is built once; the plain table, each
    # parity and the ladder share the builds
    cache = series._character
    assert isinstance(cache.cache_info().maxsize, int)
    keys = []

    def recording(*args, **kwargs):
        keys.append((args, tuple(sorted(kwargs.items()))))
        return cache(*args, **kwargs)

    monkeypatch.setattr(minimal, "_character", recording)
    monkeypatch.setattr(affine, "_character", recording)
    cache.cache_clear()
    _summand_series.cache_clear()
    assert all(r.passed for r in run_all(30))
    info = cache.cache_info()
    assert info.misses == len(set(keys)) <= info.maxsize
    assert info.hits == len(keys) - len(set(keys)) >= 1


def test_char_command_leaves_the_cached_character_unchanged():
    # char prints the cached character as built, exact through the window
    # asked for, and leaves it as it was
    model, label = MinimalModel(10, 7), minimal.KacLabel(6, 1)
    cached = model.character(label, 12)
    before = (cached.den, cached.lowest, cached.order, cached.terms)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["char", "vir", "--p", "10", "--q", "7", "--r", "6", "--s", "1",
                     "--order", "12"]) == 0
    assert json.loads(out.getvalue())["order"] == cached.order
    assert model.character(label, 12) is cached
    assert (cached.den, cached.lowest, cached.order, cached.terms) == before


def test_report_json_schema():
    report = verify_decomposition(5)
    d = report.to_json_dict()
    assert set(d) == {"check", "order", "rows", "pass"}
    assert d["check"] == "decomposition"
    assert d["order"] == 5
    assert d["pass"] is True
    assert d["rows"][0]["label"] == "ch[L(2,0)]*ch[V(1,1)]"
    assert d["rows"][0]["coeffs"] == [1, 5, 19, 48, 124, 284]
    json.dumps(d)


def test_report_csv_mirror():
    text = verify_decomposition(3).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "label,0,1,2,3"
    assert lines[1] == '"ch[L(2,0)]*ch[V(1,1)]",1,5,19,48'
    assert lines[-1] == '"column sums",1,10,43,132'


def test_decomposition_spec_is_the_documented_pairing():
    pairs = [(osp.r, (vir.r, vir.s)) for osp, vir in COSET_DECOMPOSITION.rows()]
    assert pairs == [
        (1, (1, 1)), (1, (6, 1)),
        (3, (3, 1)), (3, (4, 1)),
        (5, (2, 1)), (5, (5, 1)),
    ]


# -- the decomposition as an output ---------------------------------------------


def _solve(columns, target):
    """Gauss-Jordan elimination of sum_j n_j * columns[j] = target over Fraction.

    Returns (rank, consistent, solution); solution is None unless it is unique.
    """
    rows = [[F(c[k]) for c in columns] + [F(target[k])] for k in range(len(target))]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = [x / rows[rank][j] for x in rows[rank]]
        rows = [row if row[j] == 0 else [a - row[j] * b for a, b in zip(row, lead)]
                for row in rows]
        rows[rank] = lead
        rank += 1
    consistent = all(row[-1] == 0 for row in rows[rank:])
    unique = consistent and rank == len(columns)
    return rank, consistent, [row[-1] for row in rows[:rank]] if unique else None


def _lattice_candidates(model):
    """The (level-2 module r, canonical label) pairs whose products share the square's lattice.

    The tensor square has exponents only in BASE_EXPONENT + Z, so a pair
    can occur only when h_r + h_lambda is an integer.
    """
    candidates = [(r, lab) for r in (1, 3, 5) for lab in model.canonical_labels()]
    assert len(candidates) == 81
    return [(r, lab) for r, lab in candidates
            if (osp_weight(2, r) + model.conformal_weight(lab)).denominator == 1]


@pytest.mark.parametrize("order", [40, 120])
def test_decomposition_is_the_unique_solution_over_all_candidates(order):
    model = MinimalModel(10, 7)
    kept = _lattice_candidates(model)
    assert len(kept) == 6
    ch = osp_character(OspLabel(1, 1), order)
    columns = [_coeff_row(osp_character(OspLabel(2, r), order) * model.character(lab, order),
                          order) for r, lab in kept]
    rank, consistent, solution = _solve(columns, _coeff_row(ch * ch, order))
    assert (rank, consistent) == (6, True)
    derived = {(r, lab): n for (r, lab), n in zip(kept, solution) if n}
    stated = {(osp.r, model.canon(vir)): 1 for osp, vir in COSET_DECOMPOSITION.rows()}
    assert derived == stated


@pytest.mark.parametrize("order", [40, 120])
def test_parity_decomposition_over_all_candidates(order):
    # the even parts alone fix the multiplicities; the odd parts satisfy one
    # linear relation, (L0 odd)(V(1,1) - V(6,1)) + (M3 odd)(V(3,1) - V(4,1))
    # = (M5 odd)(V(2,1) - V(5,1)), so they fix them only together with the even parts
    model = MinimalModel(10, 7)
    kept = _lattice_candidates(model)
    e, o = (branch_character(1, 1, parity, order) for parity in ("even", "odd"))
    squares = {"even": e * e + o * o, "odd": (e * o) * 2}
    systems = {
        parity: ([_coeff_row(branch_character(2, r, parity, order) * model.character(lab, order),
                             order) for r, lab in kept], _coeff_row(square, order))
        for parity, square in squares.items()
    }
    assert _solve(*systems["even"]) == (6, True, [1] * 6)
    odd_columns, odd_target = systems["odd"]
    assert _solve(odd_columns, odd_target) == (5, True, None)
    relation = {(1, (1, 1)): -1, (1, (1, 9)): 1, (3, (3, 1)): -1, (3, (3, 9)): 1,
                (5, (2, 1)): 1, (5, (2, 9)): -1}
    weights = [relation[r, (lab.r, lab.s)] for r, lab in kept]
    for k in range(order + 1):
        assert sum(n * col[k] for n, col in zip(weights, odd_columns)) == 0
        assert sum(col[k] for col in odd_columns) == odd_target[k]
    both = [even + odd for even, odd in zip(systems["even"][0], odd_columns)]
    assert _solve(both, systems["even"][1] + odd_target) == (6, True, [1] * 6)


# SHA-256 (first 16 hex digits) of run_all's reports, plain and with the last
# summand entry lowered by 1: every report's dumps(), every report's to_csv(),
# and exit code, stdout and stderr of `verify all --format text`
RUN_ALL_SHA256 = {
    (0, False): ("c5b154dac1021e92", "f6d40e4eea5585a1", "45bd5f92a8cc07fd"),
    (0, True): ("047e833554d7d1d8", "d5f537b728059cb3", "d516e82575463a67"),
    (1, False): ("6087906e7bed7e14", "c4c9275ffdd5804a", "4021babb497fce68"),
    (1, True): ("1a3dbfb6125d9ca8", "f68832c9aa43d4dd", "4f4aa7482e76087d"),
    (10, False): ("52a2a85c7c446ce1", "a1e32985a7aaaad5", "f5018df1abdb2019"),
    (10, True): ("741513893a1bf04c", "78735e81a09b5dd0", "772608dcee97dcad"),
    (40, False): ("dec00c09b52f9840", "f3f6342edbbba6f8", "2603aef6fab4b0b0"),
    (40, True): ("ca43d76bc4877c4d", "0e1fa19912016f27", "75fbeac5ae8e2b38"),
    (200, False): ("d5ddd63e99fbdaee", "cc5243bc49b7d304", "12ce84b870a1159d"),
    (200, True): ("369a1df4901e5b89", "24236f81455234fb", "265653a31a92c2b0"),
}


@pytest.mark.parametrize("order, perturbed", sorted(RUN_ALL_SHA256))
def test_run_all_outputs_are_pinned(order, perturbed):
    reports = run_all(order, (5, order, -1) if perturbed else None)
    argv = ["verify", "all", "--order", str(order), "--format", "text"]
    argv += ["--perturb", f"5:{order}:-1"] if perturbed else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    forms = ("\n".join(r.dumps() for r in reports), "\n".join(r.to_csv() for r in reports),
             f"exit {code}\n{out.getvalue()}{err.getvalue()}")
    digests = tuple(sha256(f.encode()).hexdigest()[:16] for f in forms)
    assert digests == RUN_ALL_SHA256[order, perturbed]


# every public function that takes an order, called at a small order
ORDER_TAKERS = {
    "vir": lambda order: MinimalModel(10, 7).character(minimal.KacLabel(1, 1), order),
    "osp": lambda order: osp_character(OspLabel(1, 1), order),
    "sl2": lambda order: affine.sl2_character(affine.Sl2Label(1, 0), order),
    "branch": lambda order: branch_character(1, 1, "even", order),
    "decomposition": verify_decomposition,
    "even-refinement": verify_even_refinement,
    "singular-ladder": singular_ladder,
}


@pytest.mark.parametrize("bad", [3.0, F(3), "3"], ids=repr)
@pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
def test_non_integer_order_is_refused_cold_and_warm(name, bad):
    # 3.0 and Fraction(3) hash like 3, so a cache filled by the int call
    # would answer them if the order were not checked before it is read
    call = ORDER_TAKERS[name]
    for cache in (series._character, series._euler, _summand_series):
        cache.cache_clear()
    with pytest.raises(TypeError):
        call(bad)
    call(3)
    with pytest.raises(TypeError):
        call(bad)


def test_bool_order_is_stored_as_int():
    report = verify_decomposition(True)
    assert type(report.order) is int and report.order == 1
    assert '"order": 1,' in report.dumps()


def test_even_refinement_makes_27_comparisons_per_column():
    # per column: 2 sum rules, 3 x 7 recombinations, and even - odd = sch for
    # each of the 4 modules over its own window
    for k in range(MAX_REFINEMENT_ORDER + 1):
        report = verify_even_refinement(k)
        assert report.passed and len(report.comparisons) == 27 * (k + 1)


def test_even_refinement_sees_the_supercharacter_sign_at_every_order(monkeypatch):
    # the product rows of M3 start at column 2, so only the per-module
    # comparison sees M3's sign (-1)^((r-1)/2) at orders 0 and 1
    real = coset._osp_supercharacter

    def unsigned(lab, order):
        s = real(lab, order)
        return s * -1 if lab.r % 4 == 3 else s

    monkeypatch.setattr(coset, "_osp_supercharacter", unsigned)
    for k in range(MAX_REFINEMENT_ORDER + 1):
        assert not verify_even_refinement(k).passed, k


@pytest.mark.parametrize("where", ["lowest", "top"])
def test_even_refinement_fails_on_a_shifted_supercharacter(monkeypatch, where):
    real = coset._osp_supercharacter

    def shifted(lab, order):
        # one coefficient of each supercharacter moved by one: the leading one,
        # or the last one of the window
        s = real(lab, order)
        p = s.terms[0][0] if where == "lowest" else s.order - 1
        return s + monomial(1, p, s.den, s.order - p)

    monkeypatch.setattr(coset, "_osp_supercharacter", shifted)
    for k in range(MAX_REFINEMENT_ORDER + 1):
        report = verify_even_refinement(k)
        assert not report.passed and len(report.comparisons) == 27 * (k + 1), k
