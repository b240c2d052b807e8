"""One workload in one process: the timed closed loop, or the traced run.

Started by ``run.py`` with the package on ``PYTHONPATH``; prints one JSON
object.  With ``--trace 0`` it runs whole rounds of cold ops until
``--seconds`` have passed and reports latencies, also rescaled to a fixed
host speed (``hostref.py``).  With ``--trace 1`` it runs the first round
twice, untraced and then traced, and reports per-layer numbers, the tracing
overhead and the storage census.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import hostref
import tracer as tr
import workloads as wl

PACKAGE = "cosetchar"

# layer metric -> span names it aggregates, or a prefix selecting them
GROUPS = {
    "series.mul": {"series.FracSeries.__mul__"},
    "series.add": {"series.FracSeries.__add__"},
    "series.rescale": {"series.FracSeries.rescale"},
    "series.coeff": {"series.FracSeries.coeff"},
    "series.euler": {"series.euler_product"},
    "series.theta": {"series.theta_null", "series.weighted_theta", "series.series_from_terms"},
    "minimal.character": {"minimal.MinimalModel.character"},
    "minimal.fuse": {"minimal.MinimalModel.fuse"},
    "affine.osp_character": {"affine.osp_character"},
    "affine.sl2_character": {"affine.sl2_character"},
    "affine.branch_character": {"affine.branch_character"},
    "coset.verify": {"coset.verify_central_charge", "coset.verify_decomposition",
                     "coset.verify_even_refinement", "coset.singular_ladder",
                     "coset.run_all", "coset.coefficient_table"},
    "extension.ext_fuse": {"extension.ext_fuse"},
    "extension.fusion_table": {"extension.fusion_table"},
    "cli.main": "cli.",  # every cli span: argparse and rendering in main and cmd_*
}
GROUP_FIELDS = {
    "series.mul": ("calls", "s", "self_s"),
    "minimal.character": ("calls", "s", "self_s"),
    "minimal.fuse": ("calls", "s"),
    "affine.osp_character": ("calls", "s", "self_s"),
    "affine.sl2_character": ("calls", "s", "self_s"),
    "affine.branch_character": ("calls", "s", "self_s"),
    "coset.verify": ("calls", "self_s"),
    "extension.ext_fuse": ("calls", "s", "self_s"),
    "extension.fusion_table": ("s",),
    "cli.main": ("calls", "self_s"),
}
# hit-ratio metric -> lru_cache it reads, as <submodule>.<name>
CACHE_METRICS = {
    "minimal.fuse_cache.hit_ratio": "minimal._fuse",
    "coset.summand_cache.hit_ratio": "coset._summand_series",
}
CENSUS_ORDERS = (30, 100, 200)


# -- the package and its caches -----------------------------------------------------


def find_caches() -> dict[str, object]:
    """Every functools.lru_cache reachable from the package's modules and classes."""
    found = {}
    for module in tr.package_modules(PACKAGE):
        short = module.__name__.rsplit(".", 1)[-1]
        places = [(short, vars(module))]
        places += [(f"{short}.{v.__name__}", vars(v)) for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        for prefix, namespace in places:
            for name, value in namespace.items():
                if callable(getattr(value, "cache_info", None)) and callable(
                        getattr(value, "cache_clear", None)):
                    found.setdefault(id(value), (f"{prefix}.{name}", value))
    return dict(found.values())


class Caches:
    """Clears every cache before an op, optionally keeping the hit/miss totals."""

    def __init__(self):
        self.caches = find_caches()
        self.totals = {name: [0, 0] for name in self.caches}

    def clear(self, count: bool = False) -> None:
        for name, cache in self.caches.items():
            if count:
                info = cache.cache_info()
                self.totals[name][0] += info.hits
                self.totals[name][1] += info.misses
            cache.cache_clear()
        full = [name for name, cache in self.caches.items() if cache.cache_info().currsize]
        if full:
            raise RuntimeError(f"caches not empty after clearing: {', '.join(full)}")

    def hit_ratio(self, name: str) -> float:
        hits, misses = self.totals.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


# -- series counts (tracer hooks) ------------------------------------------------------


def lattice_den(s) -> int:
    # the offset-anchored representation planned for the kernel stores a step
    # in place of den
    return s.den if hasattr(s, "den") else Fraction(s.step).denominator


def storage(s) -> dict:
    """Stored slots, nonzero terms, lattice denominator and largest coefficient size."""
    nonzero = [c for c in s.coeffs if c]
    bits = (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in nonzero)
    return {"slots": len(s.coeffs), "nonzero": len(nonzero), "den": lattice_den(s),
            "max_coeff_bits": max(bits, default=0)}


class SeriesCounter:
    """Storage of every series the series layer builds, and useful work in products."""

    def __init__(self, series_cls):
        self.cls = series_cls
        self.slots = self.nonzero = self.max_den = self.max_bits = 0
        self.pair_products = self.useful_products = 0

    def record(self, args, result) -> None:
        if not isinstance(result, self.cls) or any(result is a for a in args):
            return
        st = storage(result)
        self.slots += st["slots"]
        self.nonzero += st["nonzero"]
        self.max_den = max(self.max_den, st["den"])
        self.max_bits = max(self.max_bits, st["max_coeff_bits"])

    def product(self, args, result) -> None:
        """Pairs of nonzero terms multiplied, and how many land below the product's bound."""
        self.record(args, result)
        if len(args) != 2 or not all(isinstance(a, self.cls) for a in args):
            return
        a, b = args
        ea = sorted(e for e, _ in a.nonzero_terms())
        eb = sorted(e for e, _ in b.nonzero_terms())
        lo_a = ea[0] if ea else a.order_exponent
        lo_b = eb[0] if eb else b.order_exponent
        bound = min(a.order_exponent + lo_b, b.order_exponent + lo_a)
        self.pair_products += len(ea) * len(eb)
        self.useful_products += sum(bisect_left(eb, bound - x) for x in ea)

    def hooks(self, names) -> dict:
        return {name: self.product if name == "series.FracSeries.__mul__" else self.record
                for name in names if name.startswith("series.")}


def census(pkg) -> list[dict]:
    """Storage of every character in the decomposition at the census orders."""
    affine, coset = pkg.affine, pkg.coset
    rows = []
    for order in CENSUS_ORDERS:
        chars = [("osp L(1,0)", affine.osp_character(affine.OspLabel(1, 1), order))]
        chars += [(f"osp M{lab.r} level 2", affine.osp_character(lab, order))
                  for lab, _ in coset.COSET_DECOMPOSITION.pairings]
        chars += [(f"vir V{lab}", coset.COSET_MODEL.character(lab, order))
                  for _, labs in coset.COSET_DECOMPOSITION.pairings for lab in labs]
        rows += [{"order": order, "character": name, **storage(s)} for name, s in chars]
    return rows


# -- running ops -----------------------------------------------------------------------


def run_checked(pkg, golden, op):
    """(failure reason or None, output bytes) for one op; exceptions count as failures."""
    try:
        code, out, err = wl.run_op(pkg, op)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return f"{wl.golden_key(op)}: raised {type(exc).__name__}: {exc}", b""
    return wl.check(golden, op, code, out, err), out


def tail(latencies: list[float]) -> dict | None:
    """Latency at the highest whole percentile (>= 50) with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest-rank
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n}
    return None


def contract_probes(pkg, golden) -> dict:
    failures = []
    for argv in wl.CONTRACT_PROBES:
        reason, _ = run_checked(pkg, golden, ("cli", argv))
        if reason:
            failures.append(reason)
    return {"attempted": len(wl.CONTRACT_PROBES), "failed": len(failures), "failures": failures}


def timed(pkg, caches, golden, workload, seed, seconds) -> dict:
    keys, failures = [], []
    warm = wl.warmup(workload)
    for op in warm:
        caches.clear()
        reason, _ = run_checked(pkg, golden, op)
        if reason:
            failures.append(f"warm-up {reason}")
    start = time.perf_counter()
    clock = hostref.Clock()
    for ops in wl.rounds(workload, seed):
        for op in ops:
            caches.clear()
            t0 = time.perf_counter()
            reason, _ = run_checked(pkg, golden, op)
            clock.add(time.perf_counter() - t0)
            keys.append(wl.golden_key(op))
            if reason:
                failures.append(reason)
        if time.perf_counter() - start >= seconds:
            break
    clock.finish()
    wall = time.perf_counter() - start
    latencies, rescaled = clock.latencies(), clock.rescaled()
    return {
        "metrics": {
            "ops_per_ref_s": len(rescaled) / sum(rescaled),
            "op_p50_ref_s": statistics.median(rescaled),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": len(warm) + len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": wall,
        "op_s": sum(latencies),
        "ref_op_s": sum(rescaled),
        "ref_samples_s": clock.refs,
        "tail": tail(latencies),
        "ops": [[key, t] for key, t in zip(keys, latencies)],
    }


def traced(pkg, caches, golden, workload, seed, spans_path: Path) -> dict:
    ops = next(wl.rounds(workload, seed))
    failures = []

    def one_pass(run, count):
        outputs = []
        start = time.perf_counter()
        for op in ops:
            caches.clear(count)
            reason, out = run(op)
            outputs.append(out)
            if reason:
                failures.append(reason)
        wall = time.perf_counter() - start
        caches.clear(count)
        return wall, outputs

    plain_wall, plain_out = one_pass(lambda op: run_checked(pkg, golden, op), False)
    counter = SeriesCounter(pkg.series.FracSeries)
    names = tr.public_targets(PACKAGE).values()
    groups = {group: sel if isinstance(sel, set) else {n for n in names if n.startswith(sel)}
              for group, sel in GROUPS.items()}
    tracer = tr.Tracer(PACKAGE, counter.hooks(names))
    bindings = tracer.install()
    try:
        traced_wall, traced_out = one_pass(
            lambda op: tracer.run("op", run_checked, pkg, golden, op), True)
    finally:
        problems = tracer.uninstall()
    if plain_out != traced_out:
        problems.append("traced and untraced outputs differ")
    spans = tracer.spans

    metrics = {}
    for group, stats in tr.group_stats(spans, groups).items():
        for field in GROUP_FIELDS.get(group, ("calls", "s")):
            metrics[f"{group}.{field}"] = stats[field]
    metrics["series.mul.pair_products"] = counter.pair_products
    metrics["series.mul.useful_ratio"] = (
        counter.useful_products / counter.pair_products if counter.pair_products else 0.0)
    metrics["series.slots"] = counter.slots
    metrics["series.nonzero"] = counter.nonzero
    metrics["series.fill_ratio"] = counter.nonzero / counter.slots if counter.slots else 0.0
    metrics["series.max_den"] = counter.max_den
    metrics["series.max_coeff_bits"] = counter.max_bits
    for metric, cache in CACHE_METRICS.items():
        if cache not in caches.caches:
            problems.append(f"cache {cache} not found for {metric}")
        metrics[metric] = caches.hit_ratio(cache)
    metrics["cli.output_bytes"] = sum(
        len(out) for op, out in zip(ops, traced_out) if op[0] == "cli")
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    rows = census(pkg)
    for order in CENSUS_ORDERS:
        part = [r for r in rows if r["order"] == order]
        metrics[f"census.o{order}.slots"] = sum(r["slots"] for r in part)
        metrics[f"census.o{order}.nonzero"] = sum(r["nonzero"] for r in part)
        metrics[f"census.o{order}.max_den"] = max(r["den"] for r in part)
        metrics[f"census.o{order}.max_coeff_bits"] = max(r["max_coeff_bits"] for r in part)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        tracer.dump(fh)
    return {
        "metrics": metrics,
        "attempted": 2 * len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "trace": {"bindings": bindings, "spans": len(spans), "problems": problems,
                  "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                  "cache_totals": caches.totals, "spans_file": str(spans_path)},
        "census": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = wl.import_package()
    caches = Caches()
    golden = wl.load_goldens(args.workload)
    if args.trace:
        spans_path = Path(".bench_out") / f"spans-{args.workload}.json"
        result = traced(pkg, caches, golden, args.workload, args.seed, spans_path)
    else:
        result = timed(pkg, caches, golden, args.workload, args.seed, args.seconds)
    result["caches"] = sorted(caches.caches)
    if args.workload == "cli-mix":
        result["contract"] = contract_probes(pkg, golden)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
