"""The public API: what `from etngen import *` exports."""

import etngen
from etngen import tempgraph

# Reference code that lives in tests/oracles.py, the per-layer view that
# the edge table replaced, and the alias of EtnSignature that prefixes had.
REMOVED = ("Snapshot", "random_walk", "sir_run", "SirRun", "extract_etn",
           "EtnPrefix")


def test_star_import():
    namespace: dict = {}
    exec("from etngen import *", namespace)
    assert set(etngen.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(etngen.__all__) == len(set(etngen.__all__))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in etngen.__all__
        assert not hasattr(etngen, name)
        assert not hasattr(tempgraph, name)
