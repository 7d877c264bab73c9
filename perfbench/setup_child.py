"""Set-up probe: import pqncheck and build model bundles, without running a check.

Usage: python perfbench/setup_child.py FACTORY:N [FACTORY:N ...]
with FACTORY one of closed-toda, canonical, calogero.
"""

import sys

from pqncheck import models

FACTORIES = {
    "closed-toda": models.closed_toda,
    "canonical": models.canonical_pn,
    "calogero": models.calogero,
}

if __name__ == "__main__":
    for spec in sys.argv[1:]:
        name, n = spec.split(":")
        FACTORIES[name](int(n))
