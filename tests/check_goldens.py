"""Check every golden op of the three benchmark workloads, cold and warm.

Run from anywhere with ``python tests/check_goldens.py``.  It checks each op
against ``perfbench/goldens`` and prints one ``N mismatches in M ...`` line
per workload, after a line for each mismatch; it exits 1 on any mismatch.
It reads ``perfbench/`` and changes nothing there.  pytest does not collect
it: its name does not start with ``test_``.

- cli-mix: every argv of the cli-mix universe and every contract probe, run
  forward with the package caches cleared before each argv, then in reverse
  on the caches the earlier argvs left.  So parser state carried from one
  ``main`` call to the next, or a cached series that a later command
  changes, shows up.  Besides the exit code and stdout, each run's stderr
  must fit its exit code: empty on exit 0, only ``first mismatch`` lines
  (at least one) on exit 1, and on exit 2 argparse's usage text or exactly
  one ``error:`` line.
- fusion-ring: every fusion op in the first round of seeds 1-3, run once with
  the caches cleared first and once more on the caches that run left.  A
  shared product that a later op changes, or a warm lookup that differs from
  a cold build, shows up.
- decomp-deep: ``verify_decomposition(n).dumps()`` for every order
  n = 100..200, each with the caches cleared first.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads as wl  # noqa: E402


def stderr_fits(code, err: str) -> bool:
    """Whether a run's stderr is what its exit code allows."""
    lines = err.splitlines()
    if code == 1:
        return bool(lines) and all(re.fullmatch(r"[a-z-]+: first mismatch at .*", x) for x in lines)
    if code == 2:
        return err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1)
    return err == ""


def cli_mix(pkg, caches):
    golden = wl.load_goldens("cli-mix")
    argvs = wl.cli_universe() + wl.CONTRACT_PROBES
    bad = []
    for state, run in (("cold", argvs), ("warm", argvs[::-1])):
        for argv in run:
            if state == "cold":
                caches.clear()
            code, out, err = wl.run_cli(pkg.cli, argv)
            problem = wl.check(golden, ("cli", argv), code, out, err)
            if not problem and not stderr_fits(code, err):
                problem = f"{argv!r}: exit {code} with stderr {err!r}"
            if problem:
                bad.append(f"{state}: {problem}")
    return bad, f"{2 * len(argvs)} argvs"


def fusion_ring(pkg, caches):
    golden = wl.load_goldens("fusion-ring")
    ops = [op for seed in (1, 2, 3) for op in next(wl.rounds("fusion-ring", seed))]
    bad = []
    for op in ops:
        caches.clear()
        for state in ("cold", "warm"):
            problem = wl.check(golden, op, *wl.run_op(pkg, op))
            if problem:
                bad.append(f"{state}: {problem}")
    return bad, f"{2 * len(ops)} runs"


def decomp_deep(pkg, caches):
    golden = wl.load_goldens("decomp-deep")
    orders = list(wl.DECOMP_ORDERS)
    bad = []
    for n in orders:
        caches.clear()
        op = ("decomp", n)
        problem = wl.check(golden, op, *wl.run_op(pkg, op))
        if problem:
            bad.append(problem)
    return bad, f"{len(orders)} orders"


def main() -> int:
    pkg = wl.import_package()
    caches = worker.Caches()
    failed = False
    for workload in (cli_mix, fusion_ring, decomp_deep):
        bad, runs = workload(pkg, caches)
        print("\n".join(bad + [f"{len(bad)} mismatches in {runs}"]), flush=True)
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
