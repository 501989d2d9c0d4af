"""Put the checkout root (for ``perfbench``) and ``src`` (for ``repro``)
on the import path; run with ``python3 -m pytest perfbench/tests``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
