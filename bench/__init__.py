"""The repo's perf ledger (see ``bench/README.md``).

``python3 -m bench`` runs seven named workloads over the packet path and
the acquisition path, checks every outcome against an oracle derived
from the seeded corpus plan, and reports end-to-end metrics plus a
per-layer budget.  Everything here measures ``src/repro`` from outside:
devices under test take their collaborators by constructor, so the
tracing proxies in :mod:`bench.tracing` wrap each seam without touching
program code.
"""

import sys
from pathlib import Path

#: The checkout this benchmark lives in; the program is ``<root>/src``.
REPO_ROOT = Path(__file__).resolve().parent.parent

# The PR driver runs ``python3 -m bench`` from a bare checkout with no
# PYTHONPATH, so the program's source tree is put on the path here.
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
