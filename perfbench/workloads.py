"""Seeded operation streams for the three workloads, and one checked runner per op.

An op is a ``(kind, payload)`` pair.  A workload is an endless stream of
rounds; every round holds the same mix of op kinds, and each kind draws its
parameters from a fixed universe by stratified sampling (``_stratified``),
so two seeds give different inputs of the same size distribution.
``make_goldens.py`` enumerates the same universes to record the expected
exit code and stdout digest of every op the stream can produce.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import types
from math import gcd
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
WORKLOADS = ("decomp-deep", "cli-mix", "fusion-ring")

FMTS = ("json", "csv", "text")
WEYL_STEP = (5 ** 0.5 - 1) / 2  # golden ratio: successive shifts fill [0, 1) evenly
CHAR_ORDERS = range(0, 41, 4)
VERIFY_ORDERS = range(0, 41)

# decomp-deep: orders 100..200 inclusive (200 is the CLI cap); one antithetic pair
# per round keeps the overshoot past --seconds short
DECOMP_ORDERS = range(100, 201)
DECOMP_PER_ROUND = 2

# fusion-ring: the (10,7) model, 4 ops per round, each checking this many
# seeded label triples for commutativity and associativity
FUSION_OPS_PER_ROUND = 4
FUSION_TRIPLES = 300


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -- cli-mix universes ---------------------------------------------------------


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _verify(which):
    return [_argv("verify", which, "--order", k, "--format", f)
            for k in VERIFY_ORDERS for f in FMTS]


def _verify_perturb(which, deltas):
    out = []
    for k in VERIFY_ORDERS:
        for d in deltas:
            row, col = (k + d) % 6, (3 * k + d) % (k + 1)
            out.append(_argv("verify", which, "--order", k, "--perturb", f"{row}:{col}:{d}"))
    return out


def _verify_misc():
    out = [_argv("verify", "central-charge", "--format", f) for f in FMTS]
    out += [_argv("verify", "even-refinement", "--order", k, "--format", f)
            for k in range(0, 11) for f in ("json", "text")]
    out += [_argv("verify", "singular-ladder", "--order", k) for k in range(0, 41, 2)]
    return out


def _char_vir():
    out = []
    for k in CHAR_ORDERS:
        for p, q in ((10, 7), (5, 4)):
            for r in range(1, q):
                for s in range(1, p):
                    out.append(_argv("char", "vir", "--p", p, "--q", q, "--r", r, "--s", s,
                                     "--order", k, "--format", FMTS[(r + s + k) % 3]))
    return out


def _char_osp():
    return [_argv("char", "osp", "--level", l, "--r", r, "--order", k,
                  "--format", FMTS[(l + r + k) % 3])
            for k in CHAR_ORDERS for l in (1, 2, 3) for r in range(1, 2 * l + 2, 2)]


def _char_sl2():
    return [_argv("char", "sl2", "--level", l, "--i", i, "--order", k,
                  "--format", FMTS[(l + i + k) % 3])
            for k in CHAR_ORDERS for l in (1, 2, 3, 4) for i in range(0, l + 1)]


def _kac_table():
    return [_argv("kac-table", p, q, "--format", f)
            for p in range(3, 12) for q in range(3, 12)
            if p != q and gcd(p, q) == 1 for f in FMTS]


def _canonical_10_7():
    labels = set()
    for r in range(1, 7):
        for s in range(1, 10):
            labels.add(min((r, s), (7 - r, 10 - s)))
    return sorted(labels)


def _fusion_vir():
    labels = _canonical_10_7()
    return [_argv("fusion", "vir", 10, 7, "--a", f"{a[0]},{a[1]}", "--b", f"{b[0]},{b[1]}",
                  "--format", FMTS[(a[0] + b[1]) % 3])
            for a in labels for b in labels]


def _fusion_vir_table():
    return [_argv("fusion", "vir", p, q, "--table", "--format", f)
            for p, q in ((4, 3), (5, 3), (5, 4), (7, 4), (7, 5), (10, 7)) for f in FMTS]


def _fusion_ext():
    labels = [(r, s) for r in range(1, 4) for s in range(1, 10)]
    return [_argv("fusion", "ext", "--a", f"{a[0]},{a[1]}", "--b", f"{b[0]},{b[1]}",
                  "--format", FMTS[(a[1] + b[0]) % 3])
            for a in labels for b in labels]


def _weights():
    out = []
    for l in (1, 2, 3, 4):
        out.append(_argv("weights", "--level", l, "--format", FMTS[l % 3]))
        out += [_argv("weights", "--level", l, "--r", r, "--format", FMTS[(l + r) % 3])
                for r in range(1, 2 * l + 2, 2)]
    return out


def _singular_direct():
    return [_argv("singular", "--alpha", a, "--beta", b, "--t", t,
                  "--format", ("json", "text")[(a + b) % 2])
            for a in range(-3, 4) for b in range(-3, 4)
            for t in ("10/7", "5/4", "7/10", "3/2")]


# Inputs the README contract says must exit 2 with nothing on stdout.  Each
# exits 2 at the commit the goldens were taken from.
INVALID = [
    _argv("kac-table", 10, 8),
    _argv("kac-table", 2, 3),
    _argv("kac-table", 10),
    _argv("char", "vir", "--p", 10, "--q", 7),
    _argv("char", "osp", "--level", 1),
    _argv("char", "sl2", "--level", 2),
    _argv("char", "vir", "--p", 10, "--q", 7, "--r", 7, "--s", 1),
    _argv("char", "osp", "--level", 1, "--r", 2),
    _argv("char", "sl2", "--level", 2, "--i", 3),
    _argv("char", "spin"),
    _argv("char", "vir", "--p", 10, "--q", 7, "--r", 1, "--s", 1, "--order", 50,
          "--max-order", 40),
    _argv("verify", "decomposition", "--order", 201),
    _argv("verify", "all", "--order", -1),
    _argv("verify", "decomposition", "--order", "x"),
    _argv("verify", "decomposition", "--perturb", "abc"),
    _argv("verify", "central-charge", "--perturb", "0:0:1"),
    _argv("fusion", "vir", 10, 7, "--a", "2,x", "--b", "1,1"),
    _argv("fusion", "vir", 10, 7, "--a", "2,1"),
    _argv("fusion", "vir"),
    _argv("fusion", "ext", "--a", "9,9", "--b", "1,1"),
    _argv("singular", "--alpha", 1),
    _argv("singular", "--alpha", 1, "--beta", 1, "--t", "1/0"),
    _argv("singular", "--alpha", 1, "--beta", 1, "--t", 0),
    _argv("weights", "--level", 0),
    _argv("weights", "--level", 2, "--r", 4),
    _argv("bogus"),
    _argv(),
]

# Inputs that must exit 2 by the same contract but do not at the golden
# commit (an IndexError traceback, or a negative index silently accepted).
# They run once per cli-mix run outside the timed loop and are reported as
# contract_failed; see README.md for why they are not in the timed mix.
CONTRACT_PROBES = [
    _argv("verify", "decomposition", "--order", 5, "--perturb", "9:0:1"),
    _argv("verify", "decomposition", "--order", 5, "--perturb", "0:99:1"),
    _argv("verify", "decomposition", "--order", 5, "--perturb=-1:0:1"),
    _argv("verify", "all", "--order", 3, "--perturb", "0:-1:2"),
]

# (universe, ops per round); 50 ops per round, 8 of them invalid
CLI_KINDS = {
    "verify-all": (_verify("all"), 2),
    "verify-decomposition": (_verify("decomposition"), 4),
    # one perturbed run of each check per round: `verify all` costs about three
    # times `verify decomposition`, so drawing both from one universe would
    # make a round's cost hinge on which of them the grid lands on
    "verify-perturb": (_verify_perturb("decomposition", (-2, -1, 1)), 1),
    "verify-perturb-all": (_verify_perturb("all", (2,)), 1),
    "verify-misc": (_verify_misc(), 3),
    "char-vir": (_char_vir(), 6),
    "char-osp": (_char_osp(), 4),
    "char-sl2": (_char_sl2(), 4),
    "kac-table": (_kac_table(), 3),
    "fusion-vir": (_fusion_vir(), 3),
    "fusion-vir-table": (_fusion_vir_table(), 1),
    "fusion-ext": (_fusion_ext(), 3),
    "fusion-ext-table": ([_argv("fusion", "ext", "--table", "--format", f) for f in FMTS], 1),
    "classify": ([_argv("classify", "--format", f) for f in FMTS], 1),
    "weights": (_weights(), 2),
    "singular-direct": (_singular_direct(), 2),
    "singular-ladder": ([_argv("singular", "--order", k, "--format", f)
                         for k in VERIFY_ORDERS for f in FMTS], 1),
    "invalid": (INVALID, 8),
}


def _stratified(universe: list, count: int, u: float) -> list:
    """count items spread evenly over universe, the grid shifted by u in [0, 1).

    The grid is antithetic: the upper half mirrors the lower half, so with a
    universe sorted by size the total and the median size of a round barely
    depend on u.
    """
    grid = [(j + u) / count for j in range(count)]
    for j in range(count // 2):
        grid[count - 1 - j] = 1 - grid[j]
    return [universe[min(int(x * len(universe)), len(universe) - 1)] for x in grid]


def cli_universe() -> list[tuple[str, ...]]:
    return [argv for universe, _ in CLI_KINDS.values() for argv in universe]


# -- rounds ---------------------------------------------------------------------


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of ops); the same seed gives the same stream.

    The seed picks each op kind's first grid shift; every later round moves
    it on by the golden ratio (a Weyl sequence), so the rounds of a run
    cover each universe evenly however many of them fit in the time.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    shifts: dict[str, float] = {}

    def draw(kind, universe, count):
        shifts[kind] = (shifts[kind] + WEYL_STEP) % 1 if kind in shifts else rng.random()
        return _stratified(universe, count, shifts[kind])

    while True:
        if workload == "decomp-deep":
            ops = [("decomp", n) for n in
                   draw(workload, list(DECOMP_ORDERS), DECOMP_PER_ROUND)]
        elif workload == "cli-mix":
            ops = [("cli", argv) for kind, (universe, count) in CLI_KINDS.items()
                   for argv in draw(kind, universe, count)]
        else:
            labels = _canonical_10_7()
            ops = [("fusion", tuple(tuple(rng.choice(labels) for _ in range(3))
                                    for _ in range(FUSION_TRIPLES)))
                   for _ in range(FUSION_OPS_PER_ROUND)]
        rng.shuffle(ops)
        yield ops


def warmup(workload: str) -> list:
    """Untimed ops run before the clock starts.

    decomp-deep's peak memory grows with the largest order a run draws; one
    op at the top order first makes it depend far less on the seed.
    """
    return [("decomp", DECOMP_ORDERS[-1])] if workload == "decomp-deep" else []


# -- running and checking one op -------------------------------------------------


def import_package():
    """The package's submodules; ops call through these module attributes."""
    import cosetchar  # noqa: F401 - imports every submodule
    from cosetchar import affine, cli, coset, extension, minimal, series

    return types.SimpleNamespace(affine=affine, cli=cli, coset=coset,
                                 extension=extension, minimal=minimal, series=series)


def run_cli(cli, argv) -> tuple[int | None, bytes, str]:
    """cli.main(argv) in-process; (exit code, stdout bytes, stderr text).

    An exception escaping main is what a real process would print as a
    traceback; it is reported as exit code None with the exception in stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - an escaping exception is the failure
            code = None
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    return code, out.getvalue().encode(), err.getvalue()


def _ring_sum(module_sum, terms, fuse_term):
    """Sum of fuse_term(label) over a ModuleSum, each label counted with its multiplicity."""
    acc = module_sum({})
    for lab, mult in terms:
        for _ in range(mult):
            acc = acc + fuse_term(lab)
    return acc


def _fusion_op(pkg, triples) -> tuple[int, bytes]:
    """Extension table, (10,7) table, census and ring axioms on sampled triples."""
    extension, minimal = pkg.extension, pkg.minimal
    model = minimal.MinimalModel(10, 7)
    ext_table = extension.fusion_table()
    labels = model.canonical_labels()
    vir_table = [[model.fuse(a, b).to_json() for b in labels] for a in labels]
    orbits, fixed = extension.classify_ext_modules()
    census = [[[o.r, o.s] for o in orbits], [[f.r, f.s] for f in fixed]]
    ok = len(orbits) == 12 and len(fixed) == 3
    for t in triples:
        a, b, c = (minimal.KacLabel(*x) for x in t)
        ab = model.fuse(a, b)
        ok = ok and ab == model.fuse(b, a)
        left = _ring_sum(minimal.ModuleSum, ab, lambda x: model.fuse(x, c))
        right = _ring_sum(minimal.ModuleSum, model.fuse(b, c), lambda y: model.fuse(a, y))
        ok = ok and left == right
    out = json.dumps([ext_table, vir_table, census]).encode()
    return (0 if ok else 1), out


def run_op(pkg, op) -> tuple[int | None, bytes, str]:
    """Run one op against the imported package; (exit code, output bytes, stderr)."""
    kind, payload = op
    if kind == "decomp":
        report = pkg.coset.verify_decomposition(payload)
        return (0 if report.passed else 1), report.dumps().encode(), ""
    if kind == "cli":
        return run_cli(pkg.cli, payload)
    code, out = _fusion_op(pkg, payload)
    return code, out, ""


def golden_key(op) -> str:
    kind, payload = op
    if kind == "decomp":
        return str(payload)
    if kind == "cli":
        return " ".join(payload)
    return "tables"


def load_goldens(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check(golden: dict, op, code, out: bytes, err: str) -> str | None:
    """None when the op matched its golden entry, else a one-line reason."""
    key = golden_key(op)
    if key not in golden:
        return f"no golden entry for {key!r}"
    want_code, want_digest = golden[key]
    if "Traceback" in err:
        return f"{key}: traceback: {err.strip().splitlines()[-1]}"
    if code != want_code:
        return f"{key}: exit {code}, expected {want_code}"
    if digest(out) != want_digest:
        return f"{key}: output digest {digest(out)}, expected {want_digest}"
    return None
