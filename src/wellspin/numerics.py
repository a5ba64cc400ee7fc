"""Small shared numerical utilities: connected-component labelling of
labelled items, log-log slope fits, ratios of measures that may vanish, the
1-D golden-section refinement that the test oracles build on, half-angle
roots of quadratics and the entry-plane layout of the n = 2 matrix kernels.

Component labelling first contracts runs: every joining pair (i, i + 1),
in either orientation, links i + 1 to i, and one running maximum points
each item at the first item of its run. Only the pairs that join
non-consecutive items are left to the hooking rounds with pointer jumping,
so a chain needs no round at all, and a two-dimensional Kuhn mesh, two
thirds of whose interior facets join consecutive cells, starts the rounds
from its runs."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, a, b, tol=1e-12, max_iter=200):
    """Minimize a scalar function on [a, b] by golden-section search.

    Returns (x, f(x)). Assumes f is continuous; for a unimodal f on the
    bracket the result is the global minimum of the bracket up to tol.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def label_components(labels, a, b):
    """Connected components of the items whose label is >= 0.

    Pair k joins items a[k] and b[k] when both carry the same label.
    Returns [(label, members)]: members ascending, components ordered by
    their smallest member. Runs of consecutive items are contracted in one
    pass before any hooking round (see _smallest_members).
    """
    labels = np.asarray(labels).reshape(-1)
    root = _smallest_members(labels, np.asarray(a), np.asarray(b))
    items = np.flatnonzero(labels >= 0)
    if not items.size:
        return []
    root = root[items]
    order = np.argsort(root, kind="stable")
    items = items[order]
    root = root[order]
    del order
    groups = np.split(items, np.flatnonzero(root[1:] != root[:-1]) + 1)
    return [(int(labels[g[0]]), g) for g in groups]


def _smallest_members(labels, a, b):
    """For every item, the smallest item of its component under the joining
    pairs of label_components (a function of its own, so that its pair
    arrays are freed before the grouping allocates)."""
    la = labels[a]
    joined = la >= 0
    joined &= la == labels[b]
    del la
    a, b = a[joined], b[joined]
    del joined
    # every item points at itself or at a smaller item of its component.
    # The run pass: a pair (i, i + 1), in either orientation, links i + 1 to
    # i, and one running maximum points every item at the first item of its
    # run of links. Those pairs then join equal roots and are dropped. The
    # other pairs write their link to item 0, which heads its run anyway
    link = a - b
    np.abs(link, out=link)
    rest = link != 1
    np.maximum(a, b, out=link)
    link[rest] = 0
    root = np.arange(labels.size)
    root[link] = 0
    del link
    np.maximum.accumulate(root, out=root)
    a, b = a[rest], b[rest]
    del rest
    # a round hooks each root onto the smallest root it is paired with and
    # jumps pointers until every item points at a root; rounds repeat until
    # no pair joins two roots
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        del ra, rb  # keep the peak down while jumping
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def loglog_slope(x, y):
    """Least-squares slope and intercept of log(y) against log(x).

    All entries must be strictly positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


def half_angle_roots(qa, qb, qc):
    """The angles 2 atan(u), shape (2, ...), of the roots u of qa u^2 + qb u
    + qc = 0 as the cancellation-free pair, and the discriminant. u = +-inf
    is the root at pi; an angle is NaN where the discriminant is negative
    or its root is 0/0."""
    disc = qb**2 - 4.0 * qa * qc
    root = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.stack([root / qa, qc / root])
    return 2.0 * np.arctan(np.where(disc >= 0.0, u, np.nan)), disc


def entry_planes(stack):
    """The (..., N) entries stack[..., i, j] of an (..., N, n, n) stack, row
    by row: contiguous planes when the stack is plane-backed (from_planes)."""
    return [stack[..., i, j] for i in range(stack.shape[-1]) for j in range(stack.shape[-1])]


def from_planes(planes):
    """The plane-backed (..., N, n, m) view of an (n, m, ..., N) array."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def ratio(a, b):
    """a / b, reading 0 / 0 as 0 and a / 0 as inf."""
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return a / b
