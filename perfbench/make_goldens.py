"""Record the expected exit code and stdout digest of every op a workload can generate.

Run from the repository root with the package importable, one workload at a
time (decomp-deep takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_goldens.py cli-mix

Writes ``perfbench/goldens/<workload>.json``, a map from op key to
``[exit code, digest]``.  Invalid inputs and contract probes are stored with
the exit code and empty stdout that the README contract requires, whatever
the current code does; the script reports where the two differ.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def dumps(golden: dict) -> str:
    """JSON with one sorted entry per line, so a changed golden shows as one changed line."""
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(golden.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in wl.WORKLOADS:
        print(f"usage: make_goldens.py {{{'|'.join(wl.WORKLOADS)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    pkg = wl.import_package()
    if workload == "decomp-deep":
        ops = [("decomp", n) for n in wl.DECOMP_ORDERS]
    elif workload == "fusion-ring":
        ops = [("fusion", ())]
    else:
        ops = [("cli", argv) for argv in wl.cli_universe() + wl.CONTRACT_PROBES]
    contract = {wl.golden_key(("cli", a)) for a in wl.INVALID + wl.CONTRACT_PROBES}
    golden = {}
    for op in ops:
        code, out, err = wl.run_op(pkg, op)
        key = wl.golden_key(op)
        if key in contract:
            if (code, out) != (2, b""):
                print(f"contract: {key!r} gives exit {code}, stored as exit 2", file=sys.stderr)
            golden[key] = [2, wl.digest(b"")]
        else:
            if code is None:
                print(f"error: {key!r} raised: {err.strip()}", file=sys.stderr)
                return 1
            golden[key] = [code, wl.digest(out)]
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    path = wl.GOLDEN_DIR / f"{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(golden))
    print(f"{path}: {len(golden)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
