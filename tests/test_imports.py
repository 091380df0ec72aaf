"""The product never loads the multi-process verifier pool.

``repro.core.parallel`` and its shared-memory rings are driven only by
the perf ledger and the pool's own suites; importing the package, its
experiments or its CLI must not pull them (or
``multiprocessing.shared_memory``) in.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

POOL_MODULES = (
    "repro.core.parallel",
    "repro.core.shm_ring",
    "multiprocessing.shared_memory",
)


def test_product_imports_never_load_the_pool():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys\n"
        "import repro, repro.core, repro.experiments, repro.__main__\n"
        f"print(json.dumps([m for m in {POOL_MODULES!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out) == []
