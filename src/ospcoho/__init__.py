"""Exact Chevalley-Eilenberg cohomology of osp(1|2) weight modules.

The package computes, in exact rational arithmetic, the cohomology of
the Lie superalgebra osp(1|2) with coefficients in truncated modules of
differential operators acting between weighted-density spaces on the
superline, and cross-validates the brute-force dimensions against
closed-form kernel descriptions and explicit cocycles.
"""

__version__ = "0.1.0"


class Mismatch(Exception):
    """An exact check failed: the mathematics does not come out as the
    paper and the program's conventions say. The CLI reports it on one
    line and exits 1."""
