"""Process set-up shared by the benchmark's entry points.

Caps the numeric libraries at one thread each, so the replay never runs more
threads than a two-core machine has, and puts the checkout's own ``src/``
tree first on the import path, so the benchmark measures the code beside it
and never an installed copy. Call ``setup()`` before importing numpy or dynlo.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def setup() -> None:
    """Cap library threads and import dynlo from ``src/``; exit 2 if absent."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    package = os.path.join(SRC, "dynlo", "__init__.py")
    if not os.path.isfile(package):
        print("perfbench: no dynlo source tree at %s" % package, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import dynlo

    if os.path.abspath(dynlo.__file__) != package:
        print("perfbench: imported dynlo from %s, expected %s"
              % (dynlo.__file__, package), file=sys.stderr)
        sys.exit(2)
