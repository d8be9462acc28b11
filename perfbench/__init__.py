"""Repository benchmark: labelling round trip, operator costs across
session age, and the ER pipeline rung.  Run ``python3 perfbench/run.py``
from the repository root; see ``perfbench/README.md``."""
