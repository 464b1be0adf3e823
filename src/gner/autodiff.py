"""Placeholder for the removed autodiff graph.

The model's gradients come from the explicit reverse sweep in
:mod:`gner.model`; nothing in the package imports this module.  It stays
only until a benchmark change repoints ``perfbench/tracing.py``, which still
binds ``Node.__init__`` and ``backward`` here.
"""


class Node:
    """Never constructed."""


def backward(*args, **kwargs):
    """Never called."""
