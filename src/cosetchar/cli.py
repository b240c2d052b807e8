"""Command-line interface: exact tables, characters, verifications and fusion.

Every command prints deterministic output (JSON, CSV or plain text) built
from exact rationals; no floats anywhere.  Exit codes: 0 on success or a
passing verification, 1 when a verification fails, 2 on a refused input.

Each subcommand declares only the flags it reads: ``--format`` and
``--output`` on all of them, ``--order`` on ``char``, ``verify`` and
``singular`` (``verify central-charge`` and ``singular`` direct evaluation
refuse it).  ``char`` has one parser for its three kinds; ``CHAR_FLAGS``
says which label flags each kind needs, and a label flag of another kind is
refused.  argparse refuses an undeclared or abbreviated flag itself; every
other refusal, a size cap or an unwritable ``--output`` too, is a
``ValueError`` that ``main`` prints as one ``error:`` line, returning 2.

The grammar is built once per process, when this module is imported, and
never changes; each ``main`` call parses into a fresh namespace.  The
handler of subcommand ``name`` is the module function
``cmd_<name with - as _>``, looked up when ``main`` runs, not when the
parser is built.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import affine, coset, extension
from .minimal import KacLabel, MinimalModel
from .series import T_FORM

DEFAULT_ORDER = 20
# size caps: one for the order, one for p and q (the model is symmetric in
# them) and one for the level; the slowest inputs they accept, fusion vir
# 16 15 --table and weights --level 150, run in about a second (README,
# "Command line")
MAX_ORDER = 200
MAX_PQ = 16
MAX_LEVEL = 150


def _join_t(argv: list[str]) -> list[str]:
    """argv with ``--t VALUE`` as ``--t=VALUE`` when VALUE has ``T_FORM``.

    argparse would read a value such as ``-3/2`` as a flag.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--t" and T_FORM.fullmatch(tok):
            out[-1] = f"--t={tok}"
        else:
            out.append(tok)
    return out


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# label flags of each char kind, in the order of the label's constructor
CHAR_FLAGS = {"vir": ("p", "q", "r", "s"), "osp": ("level", "r"), "sl2": ("level", "i")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetchar",
        description="exact q-series characters and fusion data for minimal models "
                    "and affine osp(1|2)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, order=False):
        # no abbreviations: a prefix such as --t would otherwise be read as
        # another command's flag (--table of fusion)
        p = subs.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
        if order:
            p.add_argument("--order", type=int, default=argparse.SUPPRESS,
                           help="number of coefficient levels beyond the leading term")
        return p

    p = command("kac-table", "conformal weight grid of a minimal model")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = command("char", "q-expansion of an irreducible character", order=True)
    p.add_argument("kind", choices=CHAR_FLAGS)
    for flag in dict.fromkeys(f for flags in CHAR_FLAGS.values() for f in flags):
        p.add_argument(f"--{flag}", type=int)

    p = command("verify", "run a coefficientwise verification", order=True)
    p.add_argument(
        "which",
        choices=("central-charge", "decomposition", "even-refinement",
                 "singular-ladder", "all"),
    )
    p.add_argument("--perturb", metavar="ROW:COL:DELTA",
                   help="test mode: shift one summand coefficient before comparing")

    p = command("fusion", "fusion products and tables")
    p.add_argument("scope", choices=("vir", "ext"))
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--a", metavar="R,S", help="first label")
    p.add_argument("--b", metavar="R,S", help="second label")
    p.add_argument("--table", action="store_true", help="full fusion table")

    command("classify", "orbit and fixed-point census of the extension")

    p = command("weights", "branching weights and lowest spaces")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--r", type=int, help="restrict to one module")

    p = command("singular", "singular-vector weight ladder", order=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--t", metavar="NUM/DEN",
                   help="evaluate one weight at this t, an integer or NUM/DEN")

    return parser


_PARSER = build_parser()


# -- per-command renderers -----------------------------------------------------


def _parse_label(text: str) -> KacLabel:
    try:
        r, s = (int(x) for x in text.split(","))
    except Exception:
        raise ValueError(f"label {text!r} is not of the form R,S") from None
    return KacLabel(r, s)


def _series_output(series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(series.to_json_dict())
    if fmt == "csv":
        lines = ["exponent,coefficient"]
        for e, c in series.nonzero_terms():
            lines.append(f"{_rat(e)},{_rat(c)}")
        return "\n".join(lines) + "\n"
    lines = [f"{_rat(c)} * q^({_rat(e)})" for e, c in series.nonzero_terms()]
    lines.append(f"exact below q^({_rat(series.order_exponent)})")
    return "\n".join(lines) + "\n"


def cmd_kac_table(args) -> tuple[str, int]:
    model = MinimalModel(args.p, args.q)
    rows = [[_rat(w) for w in row] for row in model.kac_table()]
    if args.format == "json":
        return json.dumps({"p": model.p, "q": model.q,
                           "central_charge": _rat(model.central_charge()), "rows": rows}), 0
    if args.format == "csv":
        return "\n".join(",".join(row) for row in rows), 0
    width = max(len(w) for row in rows for w in row)
    lines = [f"r={r}: " + " ".join(w.rjust(width) for w in row)
             for r, row in enumerate(rows, start=1)]
    return "\n".join(lines), 0


def cmd_char(args) -> tuple[str, int]:
    order, wanted = args.order, CHAR_FLAGS[args.kind]
    given = {f: getattr(args, f) for flags in CHAR_FLAGS.values() for f in flags}
    for flag, value in given.items():
        if value is not None and flag not in wanted:
            raise ValueError(f"char {args.kind} does not read --{flag}")
    values = [given[f] for f in wanted]
    if None in values:
        raise ValueError(f"char {args.kind} needs " + " ".join(f"--{f}" for f in wanted))
    if args.kind == "vir":
        p, q, r, s = values
        series = MinimalModel(p, q).character(KacLabel(r, s), order)
    elif args.kind == "osp":
        series = affine.osp_character(affine.OspLabel(*values), order)
    else:
        series = affine.sl2_character(affine.Sl2Label(*values), order)
    return _series_output(series, args.format), 0


def _parse_perturb(text: str) -> tuple[int, int, int]:
    try:
        row, col, delta = (int(x) for x in text.split(":"))
    except Exception:
        raise ValueError(f"--perturb {text!r} is not ROW:COL:DELTA") from None
    return row, col, delta


def cmd_verify(args) -> tuple[str, int]:
    perturb = _parse_perturb(args.perturb) if args.perturb else None
    if perturb and args.which not in ("decomposition", "all"):
        raise ValueError("--perturb only applies to the decomposition check")
    if args.which == "central-charge":
        if args.order_given:
            raise ValueError("verify central-charge does not read --order")
        reports = [coset.verify_central_charge()]
    elif args.which == "decomposition":
        reports = [coset.verify_decomposition(args.order, perturb)]
    elif args.which == "even-refinement":
        reports = [coset.verify_even_refinement(min(args.order, coset.MAX_REFINEMENT_ORDER))]
    elif args.which == "singular-ladder":
        reports = [coset.singular_ladder(args.order)]
    else:
        reports = coset.run_all(args.order, perturb)
    return _reports_output(reports, args.format)


def _reports_output(reports, fmt: str, candidates: bool = False) -> tuple[str, int]:
    """Render verification reports; the text form lists candidate rows on request.

    Exit code 1 when any report fails, with its first mismatch on stderr.
    """
    passed = all(r.passed for r in reports)
    if fmt == "json":
        dicts = [r.to_json_dict() for r in reports]
        text = json.dumps(dicts[0] if len(dicts) == 1 else dicts)
    elif fmt == "csv":
        text = "\n".join(r.to_csv() for r in reports)
    else:
        lines = []
        for r in reports:
            lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.check} (order {r.order})")
            if candidates:
                for label, (w1, w2) in r.rows:
                    lines.append(f"  {label}: {_rat(w1)}, {_rat(w2)}")
            for note in r.notes:
                lines.append(f"  note: {note}")
        text = "\n".join(lines) + "\n"
    if not passed:
        for r in reports:
            bad = r.first_mismatch()
            if bad is not None:
                print(
                    f"{r.check}: first mismatch at q^({_rat(bad.exponent)}): "
                    f"{_rat(bad.lhs)} != {_rat(bad.rhs)}",
                    file=sys.stderr,
                )
    return text, 0 if passed else 1


def cmd_fusion(args) -> tuple[str, int]:
    if args.scope == "vir":
        if args.p is None or args.q is None:
            raise ValueError("fusion vir needs positional P Q")
        model = MinimalModel(args.p, args.q)
        fuse, labels, make = model.fuse, model.canonical_labels, KacLabel
    else:
        if args.p is not None or args.q is not None:
            raise ValueError("fusion ext takes no positional P Q")
        fuse, labels, make = extension.ext_fuse, extension.ext_irreducibles, extension.ext_label
    if args.table:
        pairs = itertools.product(labels(), repeat=2)
    elif args.a and args.b:
        la, lb = _parse_label(args.a), _parse_label(args.b)
        pairs = [(make(*la), make(*lb))]
    else:
        raise ValueError(f"fusion {args.scope} needs --a and --b (or --table)")
    return _fusion_output(extension.fusion_entries(fuse, pairs), args.format), 0


def _fusion_output(entries: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(entries)
    if fmt == "csv":
        lines = ["a_r,a_s,b_r,b_s,r,s,mult"]
        for e in entries:
            for term in e["result"]:
                lines.append(
                    f"{e['a'][0]},{e['a'][1]},{e['b'][0]},{e['b'][1]},"
                    f"{term['r']},{term['s']},{term['mult']}"
                )
        return "\n".join(lines) + "\n"
    lines = []
    for e in entries:
        rhs = " + ".join(
            (f"{t['mult']}*" if t["mult"] != 1 else "") + f"({t['r']},{t['s']})"
            for t in e["result"]
        )
        lines.append(f"({e['a'][0]},{e['a'][1]}) x ({e['b'][0]},{e['b'][1]}) = {rhs or '0'}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> tuple[str, int]:
    orbits, fixed = extension.classify_ext_modules()
    payload = {
        "orbits": [
            {
                "r": o.r,
                "s": o.s,
                "constituents": [[c.r, c.s] for c in o.constituents],
            }
            for o in orbits
        ],
        "fixed_points": [[f.r, f.s] for f in fixed],
        "counts": {"orbits": len(orbits), "fixed": len(fixed),
                   "total_labels": 2 * len(orbits) + len(fixed)},
    }
    if args.format == "json":
        return json.dumps(payload), 0
    if args.format == "csv":
        lines = ["kind,r,s"]
        lines += [f"orbit,{o.r},{o.s}" for o in orbits]
        lines += [f"fixed,{f.r},{f.s}" for f in fixed]
        return "\n".join(lines) + "\n", 0
    lines = [f"orbit modules ({len(orbits)}):"]
    lines += [f"  Ext({o.r},{o.s}) = V{o.constituents[0]} + V{o.constituents[1]}" for o in orbits]
    lines.append(f"fixed points ({len(fixed)}), two structures each:")
    lines += [f"  V({f.r},{f.s})" for f in fixed]
    return "\n".join(lines) + "\n", 0


def cmd_weights(args) -> tuple[str, int]:
    level = args.level
    rs = [args.r] if args.r is not None else [m.r for m in affine.osp_modules(level)]
    payload = []
    for r in rs:
        terms = affine.branch_terms(level, r)
        w, dim = affine.lowest_space(level, r)
        payload.append(
            {
                "level": level,
                "r": r,
                "terms": [t.to_json() for t in terms],
                "lowest_weight": _rat(w),
                "lowest_dimension": dim,
            }
        )
    if args.format == "json":
        return json.dumps(payload), 0
    if args.format == "csv":
        lines = ["level,r,i,vir_r,vir_s,parity,weight"]
        for entry in payload:
            for t in entry["terms"]:
                lines.append(
                    f"{entry['level']},{entry['r']},{t['sl2']['i']},"
                    f"{t['vir']['r']},{t['vir']['s']},{t['parity']},{t['weight']}"
                )
        return "\n".join(lines) + "\n", 0
    lines = []
    for entry in payload:
        lines.append(
            f"M_{entry['r']} at level {entry['level']}: lowest weight "
            f"{entry['lowest_weight']} with dimension {entry['lowest_dimension']}"
        )
        for t in entry["terms"]:
            lines.append(
                f"  L({entry['level']},{t['sl2']['i']}) x V({t['vir']['r']},{t['vir']['s']})"
                f" [{t['parity']}] weight {t['weight']}"
            )
    return "\n".join(lines) + "\n", 0


def cmd_singular(args) -> tuple[str, int]:
    if args.t is not None or args.alpha is not None or args.beta is not None:
        if None in (args.alpha, args.beta, args.t):
            raise ValueError("direct evaluation needs --alpha, --beta and --t")
        if args.order_given:
            raise ValueError("direct evaluation does not read --order")
        if not T_FORM.fullmatch(args.t):
            raise ValueError(f"--t {args.t!r} is not an integer or NUM/DEN")
        try:
            t = Fraction(args.t)
        except ZeroDivisionError:  # T_FORM admits only a zero denominator
            raise ValueError(f"--t {args.t!r} is not a rational") from None
        if args.format == "csv":
            raise ValueError("direct evaluation has no csv form; use --format json or text")
        value = affine.h_alpha_beta(args.alpha, args.beta, t)
        if args.format == "json":
            return json.dumps({"alpha": args.alpha, "beta": args.beta,
                               "t": _rat(t), "value": _rat(value)}), 0
        return f"{_rat(value)}\n", 0
    return _reports_output([coset.singular_ladder(args.order)], args.format, candidates=True)


def main(argv=None) -> int:
    args = _PARSER.parse_args(_join_t(sys.argv[1:] if argv is None else argv))
    ns = vars(args)  # --order is absent unless given; note whether, then default
    args.order_given = "order" in ns
    order = ns.setdefault("order", DEFAULT_ORDER)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if order < 0 or order > MAX_ORDER:
            raise ValueError(f"order must lie in 0..{MAX_ORDER}")
        for name, top in (("p", MAX_PQ), ("q", MAX_PQ), ("level", MAX_LEVEL)):
            if (ns.get(name) or 0) > top:
                raise ValueError(f"{name} must not exceed {top}")
        text, code = handler(args)
        if not text.endswith("\n"):
            text += "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                path = args.output or "''"
                raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
