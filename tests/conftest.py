"""Put `src/` on PYTHONPATH for subprocesses as well: pytest's `pythonpath`
setting reaches only its own process, and some tests run `python -m dseq`."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
