"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload decomp-deep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times ``import cosetchar`` in fresh interpreters
(``setup_s``).  Then it runs the workload in a subprocess of its own
(``worker.py``) and prints a summary followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the source tree or the goldens are missing.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 21
TIME_LIMIT_S = 170  # whole run, set-up included
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cosetchar; "
                "print(repr(time.perf_counter() - t))")


def env_stamp(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root), "src_sha256": src.hexdigest()[:16]}


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from the files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(env: dict, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "cosetchar" / "__init__.py").is_file():
        print("error: run from the repository root; src/cosetchar not found", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    golden_path = wl.GOLDEN_DIR / f"{args.workload}.json"
    if not golden_path.is_file():
        print(f"error: {golden_path} missing; see make_goldens.py", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    stamp = env_stamp(root)

    try:
        imports = [] if args.trace else setup_times(env, SETUP_REPEATS)
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"error: importing cosetchar failed: {exc}", file=sys.stderr)
        return 1
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload exceeded the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = result.get("trace", {}).get("problems", [])
    correct = result["failed"] == 0 and not problems
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(imports)
    missing = [m["name"] for m in spec[kind] if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: worker reported no {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec[kind]}

    print(f"env: {json.dumps(stamp)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops, failed_ratio = {result['failed']}/{result['attempted']}")
    for reason in result["failures"] + problems:
        print(f"  FAIL {reason}")
    if not args.trace:
        t, timed_ops = result["tail"], len(result["ops"])
        refs = result["ref_samples_s"]
        print(f"  ops_per_s: {result['metrics']['ops_per_s']:.6g} 1/s ({timed_ops} ops in "
              f"{result['op_s']:.4g} s of op time; reference kernel median "
              f"{statistics.median(refs):.4g} s over {len(refs)} samples)")
        print(f"  op_p50_s: {result['metrics']['op_p50_s']:.6g} s over {timed_ops} ops "
              f"({result['metrics']['op_p50_ref_s']:.6g} s rescaled)")
        print("  op_tail_s: " + (
            f"{t['value']:.6g} s at p{t['percentile']} of {t['samples']} ops" if t else
            f"omitted, {timed_ops} ops leave no percentile >= p50 "
            "with ten samples beyond it"))
    if "contract" in result:
        c = result["contract"]
        print(f"  contract probes (README exit-code contract, outside the timed mix): "
              f"contract_failed = {c['failed']}/{c['attempted']}")
        for reason in c["failures"]:
            print(f"    {reason}")
    for row in result.get("census", []):
        print(f"  census order {row['order']} {row['character']}: slots {row['slots']}, "
              f"nonzero {row['nonzero']}, den {row['den']}, "
              f"max_coeff_bits {row['max_coeff_bits']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, env=stamp, setup_s_samples=imports, seed=args.seed,
                  workload=args.workload, seconds=args.seconds)
    with open(out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
