"""Build the warm-start artifact the read workloads serve from.

    python3 perfbench/build_artifact.py {small,standard} OUT_DIR

Run by ``run.py`` as a child process, with ``src/`` on the path.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workloads import make_config  # noqa: E402
from repro.core.esharp import ESharp  # noqa: E402

if __name__ == "__main__":
    scale, out = sys.argv[1], sys.argv[2]
    ESharp(make_config(scale)).build(out)
