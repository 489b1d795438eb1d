"""Reference-triangle helpers that src no longer needs."""

import numpy as np


def in_reference(xi, slack=0.0):
    """Mask of the points of xi, one (2,) or many (n, 2), that lie in T inflated by slack."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return (xi[:, 0] >= -1.0 - slack) & (xi[:, 1] >= -1.0 - slack) & (xi.sum(axis=1) <= slack)
