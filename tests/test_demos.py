"""Each demo prints the same bytes as when its digest was taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout; a change to any printed byte must update it here
DEMO_STDOUT_SHA256 = {
    "01_series_basics.py": "877c622266e7544f78c378a41517d7fe7e6b33f214e4fe38f16dff1102820fdf",
    "02_kac_tables.py": "a08c3f830894ea2b31f0fe970752b42199b6554227b457feb47450e4e9a1b2da",
    "03_coset_decomposition.py": "b604c2f3b9fa8748bebf25ada824f9c84cd60b9ffe6a0257873b2954f46899d0",
    "04_branching.py": "dd42828dd6b4c5c23ac13968e5c7b72e88a4321e4b4e593533e8bd26e14cf740",
    "05_extension_fusion.py": "830517841b99c7a9b06ebb9fc0747276a3b45951d1cc1cd1094eaa0f5c0109fe",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
