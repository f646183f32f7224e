"""Quality-performance-based product complexity analysis.

The complexity indicator of a product type is its fraction-nonconforming
Beta posterior.  Pairwise similarity between indicators is the Hellinger
distance, which has a closed form for two Beta distributions:

    H(P, Q)^2 = 1 - B((a1+a2)/2, (b1+b2)/2) / sqrt(B(a1, b1) * B(a2, b2))

H is evaluated as sqrt(-expm1(log BC)) for that ratio BC, where log BC =
g(a1, a2) + g(b1, b2) - g(a1 + b1, a2 + b2) and g = `special.log_gamma_gap`
uses the Stirling form of lgamma (DLMF 5.11.1): no large values are subtracted.

Products are ordered by posterior median, scored by accumulating the
Hellinger distance between consecutive distributions (seed score 0), scaled
to [0, 10], and grouped by agglomerative clustering under complete linkage.

Two clustering inputs are supported.  `distance_matrix` gives the Hellinger
distances themselves.  `profile_distance_matrix` gives Euclidean distances
between the *rows* of that matrix (each product represented by its vector of
distances to every product); this is the form the reference case-study
dendrogram was built from and is the default in the reporting pipeline.  It
comes from one Gram (BLAS matrix) product, so its values carry rounding of
order n * eps relative to the rows' norms; pairs within that bound of 0,
duplicate rows among them, are recomputed directly and keep exact zeros.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import special
from .bayes import BetaParams
from .errors import DomainError, checked

SCALE_MAX = 10.0
_CHUNK_PAIRS = 8192  # pairs per kernel call: temporaries stay small next to an n x n matrix
_MIRROR_ROWS = 64  # rows per strip of the upper-to-lower copy: its transposed read stays in cache


def _kernel_terms(shapes: np.ndarray) -> np.ndarray:
    """The rows a, b, a + b of the Beta shapes in a k x 2 array, then
    `special.stirling_omega` of each: a 6 x k table, one column per shape."""
    a, b = shapes.T
    table = np.array([a, b, a + b])
    return np.concatenate([table, special.stirling_omega(table)])


def _hellinger_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hellinger distances between the columns of two `_kernel_terms` tables."""
    a1, b1, n1, wa1, wb1, wn1 = p
    a2, b2, n2, wa2, wb2, wn2 = q
    da, db = 0.5 * (a1 - a2), 0.5 * (b1 - b2)
    gap = special.log_gamma_gap
    log_bc = (
        gap(a1, a2, da, wa1 + wa2) + gap(b1, b2, db, wb1 + wb2)
        - gap(n1, n2, da + db, wn1 + wn2)
    )
    # log_bc can round a hair above 0.  -expm1(0.0) is -0.0, and whether np.maximum
    # keeps it depends on the platform; 0.0 - expm1(0.0) is +0.0
    return np.sqrt(np.maximum(0.0 - np.expm1(log_bc), 0.0))


def _hellinger_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hellinger distances between the Beta shapes (a, b) in the rows of two k x 2 arrays."""
    return _hellinger_terms(_kernel_terms(p), _kernel_terms(q))


def hellinger(p: BetaParams, q: BetaParams) -> float:
    """Closed-form Hellinger distance between two Beta distributions."""
    return float(_hellinger_pairs(np.array([(p.a, p.b)]), np.array([(q.a, q.b)]))[0])


@checked
class HellingerMatrix(NamedTuple):
    labels: tuple[str, ...]
    values: np.ndarray

    def _check(self) -> None:
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise DomainError(
                f"matrix shape {self.values.shape} does not match {n} labels"
            )

    @property
    def size(self) -> int:
        return len(self.labels)


def distance_matrix(
    posteriors: Sequence[BetaParams], labels: Sequence[str] | None = None
) -> HellingerMatrix:
    """All pairwise Hellinger distances; symmetric with a zero diagonal.

    Products are taken in ascending order of their smaller shape, so the pairs
    whose Stirling terms need shifting (a shape below 10) all fall in the
    first row chunks and `special.log_gamma_gap` skips the shift in the rest.
    The order moves no bit: `_hellinger_terms` is exactly symmetric in its two
    arguments (min/max, |half_diff| and sums that commute; a difference only
    changes sign), so a pair taken as (j, i) gives what (i, j) gives.
    """
    if not posteriors:
        raise DomainError("need at least one posterior")
    n = len(posteriors)
    # each product's omega terms once: a pair gathers its two columns
    terms = _kernel_terms(np.array([(p.a, p.b) for p in posteriors]))
    order = np.argsort(np.minimum(terms[0], terms[1]), kind="stable")
    terms = terms[:, order]
    values = np.zeros((n, n))
    rows = max(1, _CHUNK_PAIRS // n)
    for start in range(0, n, rows):
        i, j = np.nonzero(np.arange(start, start + rows)[:, None] < np.arange(n))
        i += start
        distances = _hellinger_terms(terms.take(i, axis=1), terms.take(j, axis=1))
        i, j = order[i], order[j]
        values[i, j] = values[j, i] = distances
    if labels is None:
        labels = range(1, n + 1)
    return HellingerMatrix(tuple(str(label) for label in labels), values)


def profile_distance_matrix(matrix: HellingerMatrix) -> HellingerMatrix:
    """Euclidean distances between rows of a distance matrix.

    Row i is product i's distance profile against every product; two products
    are close when they sit at similar distances from everything else.

    Squared distances come from one Gram product of the column-centred rows
    H (centring moves no distance and shrinks the norms), formed in place so
    memory stays O(n^2): D_ij^2 = |H_i|^2 + |H_j|^2 - 2 H_i.H_j, within
    8 n eps (|H_i|^2 + |H_j|^2) of its exact value (eps: float64 epsilon).
    Pairs within that bound of 0 are recomputed directly as sums of squared
    differences, so duplicate rows keep an exact 0.  The upper triangle is
    mirrored into the lower one in place and the diagonal set to 0 before the
    root: exactly symmetric, a zero diagonal, and one n x n result array.
    """
    rows = matrix.values
    n = len(rows)
    centered = rows - rows.mean(axis=0)
    norms = np.einsum("ij,ij->i", centered, centered)
    sq = centered @ centered.T
    del centered
    sq *= -2.0
    sq += norms[:, None]
    sq += norms
    tol = 8.0 * n * np.finfo(float).eps * norms
    # screen against the largest bound, then hold each pair to its own
    i, j = np.nonzero(sq <= 2.0 * tol.max(initial=0.0))
    near = (i < j) & (sq[i, j] <= tol[i] + tol[j])
    i, j = i[near], j[near]
    chunk = max(1, n // 4)  # pairs per step: the four chunk x n temporaries stay n x n
    for start in range(0, len(i), chunk):
        a, b = i[start : start + chunk], j[start : start + chunk]
        sq[a, b] = ((rows[a] - rows[b]) ** 2).sum(axis=1)
    for start in range(0, n, _MIRROR_ROWS):
        stop = min(start + _MIRROR_ROWS, n)
        sq[start:stop, :start] = sq[:start, start:stop].T
        block = sq[start:stop, start:stop]
        lower = np.tril_indices(stop - start, -1)
        block[lower] = block.T[lower]
    np.fill_diagonal(sq, 0.0)
    np.sqrt(sq, out=sq)
    return HellingerMatrix(matrix.labels, sq)


class ComplexityScore(NamedTuple):
    index: int
    raw: float
    scaled: float
    median: float


def complexity_scores(posteriors: Sequence[BetaParams]) -> list[ComplexityScore]:
    """Cumulative-Hellinger complexity scores scaled to [0, 10].

    Walking products in ascending median order, each score adds the Hellinger
    distance to the previous product's distribution (first score 0); the
    maximum raw score maps to 10.  Exact median ties are walked by smaller
    variance first (a tighter distribution is the less complex product), then
    in input order.  Results are returned in the original input order.
    """
    if not posteriors:
        raise DomainError("need at least one posterior")
    medians = [p.median for p in posteriors]
    order = sorted(range(len(posteriors)), key=lambda i: (medians[i], posteriors[i].variance, i))
    shapes = np.array([(posteriors[i].a, posteriors[i].b) for i in order])
    raw = np.empty(len(order))
    raw[order] = np.cumsum(np.concatenate(([0.0], _hellinger_pairs(shapes[1:], shapes[:-1]))))
    top = float(raw.max())
    scale = SCALE_MAX / top if top > 0 else 0.0
    return [
        ComplexityScore(index=i, raw=r, scaled=r * scale, median=medians[i])
        for i, r in enumerate(raw.tolist())
    ]


class Merge(NamedTuple):
    left: int
    right: int
    height: float


class ClusterTree(NamedTuple):
    """Merge history of agglomerative clustering.

    Leaves are numbered 0..n-1; the cluster created by merge k has id n + k.
    """

    n_leaves: int
    labels: tuple[str, ...]
    merges: tuple[Merge, ...]


def agglomerative_cluster(matrix: HellingerMatrix) -> ClusterTree:
    """Complete-linkage agglomerative clustering over a distance matrix.

    Cluster distance is the largest pairwise member distance.  Equal-distance
    merge candidates are resolved by the lexicographically smallest cluster-id
    pair, so the same distance matrix always gives the same dendrogram.  Only the
    upper triangle of the matrix is read.

    The working matrix holds one slot per active cluster (retired columns and
    the diagonal are inf), and each slot caches its smallest distance: NaN once
    retired, which `np.fmin.reduce` and `==` skip.  A merge takes the smallest
    cache and the slots holding it; by symmetry each is in a pair at that
    height, so two such slots are the pair.  With more, the pair is the tied
    slot with the smallest cluster id and its partner at that height with the
    smallest id: the smallest (low id, high id) pair.  Slot b then retires;
    row a takes the elementwise maximum of rows a and b in place (the
    Lance-Williams update for complete linkage) and is mirrored into column a.
    Only a and the slots whose cache was a distance to a or b recompute it.
    """
    n = matrix.size
    upper = np.triu_indices(n, 1)
    pairs = matrix.values[upper]
    if not np.all(np.isfinite(pairs)):
        raise DomainError("distances must be finite")
    dist = np.full((n, n), np.inf)
    dist[upper] = dist[upper[::-1]] = pairs
    cluster_id = list(range(n))
    nearest = dist.min(axis=1, initial=np.inf)
    merges: list[Merge] = []
    for step in range(n - 1):
        height = np.fmin.reduce(nearest)
        tied = (nearest == height).nonzero()[0].tolist()
        if len(tied) == 2:
            a, b = tied
        else:
            a = min(tied, key=cluster_id.__getitem__)
            b = min((dist[a] == height).nonzero()[0].tolist(), key=cluster_id.__getitem__)
        left, right = sorted((cluster_id[a], cluster_id[b]))
        merges.append(Merge(left=left, right=right, height=float(height)))
        nearest[b] = np.nan
        row = dist[a]
        stale = (nearest == row) | (nearest == dist[b])
        stale[a] = True
        stale = stale.nonzero()[0]
        np.maximum(row, dist[b], out=row)
        dist[:, a] = row
        dist[:, b] = np.inf
        nearest[stale] = dist[stale].min(axis=1)
        cluster_id[a] = n + step
    return ClusterTree(n_leaves=n, labels=matrix.labels, merges=tuple(merges))


def cut(tree: ClusterTree, k: int) -> list[int]:
    """Partition into k clusters by undoing the last k-1 merges.

    Returns one cluster id per leaf, with clusters numbered 0..k-1 in order
    of their smallest member index.
    """
    if not (1 <= k <= tree.n_leaves):
        raise DomainError(f"k must lie in [1, {tree.n_leaves}], got {k}")
    members: dict[int, frozenset[int]] = {
        i: frozenset([i]) for i in range(tree.n_leaves)
    }
    next_id = tree.n_leaves
    for merge in tree.merges[: tree.n_leaves - k]:
        members[next_id] = members.pop(merge.left) | members.pop(merge.right)
        next_id += 1
    clusters = sorted(members.values(), key=min)
    assignment = [0] * tree.n_leaves
    for cluster_id, leaf_set in enumerate(clusters):
        for leaf in leaf_set:
            assignment[leaf] = cluster_id
    return assignment


class ClusterLabel(NamedTuple):
    letter: str
    members: tuple[int, ...]
    mean_score: float
    total_welds: int | None = None
    share: float | None = None


def _letter(rank: int) -> str:
    # A..Z, then AA, AB, ... for very fragmented cuts
    name = ""
    rank += 1
    while rank:
        rank, rem = divmod(rank - 1, 26)
        name = chr(ord("A") + rem) + name
    return name


def label_clusters(
    assignments: Sequence[int],
    scores: Sequence[ComplexityScore],
    totals: Sequence[int] | Mapping[int, int] | None = None,
) -> list[ClusterLabel]:
    """Letter labels ordered by mean scaled score, most complex first.

    When per-product weld totals are supplied, each cluster also reports its
    share of the overall total (its slice of the business).
    """
    if len(assignments) != len(scores):
        raise DomainError(
            f"{len(assignments)} assignments for {len(scores)} scores"
        )
    by_cluster: dict[int, list[int]] = {}
    for index, cluster_id in enumerate(assignments):
        by_cluster.setdefault(cluster_id, []).append(index)
    scaled = [s.scaled for s in scores]
    ordered = sorted(
        by_cluster.values(),
        key=lambda idxs: (-float(np.mean([scaled[i] for i in idxs])), min(idxs)),
    )
    grand_total = None
    if totals is not None:
        grand_total = sum(totals[i] for i in range(len(assignments)))
    labels = []
    for rank, idxs in enumerate(ordered):
        cluster_total = sum(totals[i] for i in idxs) if totals is not None else None
        labels.append(
            ClusterLabel(
                letter=_letter(rank),
                members=tuple(sorted(idxs)),
                mean_score=float(np.mean([scaled[i] for i in idxs])),
                total_welds=cluster_total,
                share=(cluster_total / grand_total) if grand_total else None,
            )
        )
    return labels


def tree_to_dict(tree: ClusterTree) -> dict:
    """JSON-ready merge list: leaves 0..n-1, merge k creates id n+k."""
    return {
        "labels": list(tree.labels),
        "merges": [merge._asdict() for merge in tree.merges],
    }


def leaf_order(tree: ClusterTree) -> list[int]:
    """Crossing-free left-to-right leaf order for plotting."""
    # left subtree first; an explicit stack, since chained trees run deeper
    # than the interpreter's recursion limit
    order: list[int] = []
    pending = [tree.n_leaves + len(tree.merges) - 1]
    while pending:
        node = pending.pop()
        if node < tree.n_leaves:
            order.append(node)
        else:
            merge = tree.merges[node - tree.n_leaves]
            pending += (merge.right, merge.left)
    return order


def dendrogram_segments(
    tree: ClusterTree, order: Sequence[int]
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Plot-ready ((x1, y1), (x2, y2)) line segments for the dendrogram.

    Leaf `order[k]` sits at x = k, so pass the tree's `leaf_order` for a
    crossing-free plot; height is y.
    """
    x = {leaf: float(pos) for pos, leaf in enumerate(order)}
    height = {leaf: 0.0 for leaf in range(tree.n_leaves)}
    segments = []
    for index, merge in enumerate(tree.merges):
        cluster_id = tree.n_leaves + index
        lx, rx = x[merge.left], x[merge.right]
        segments.append(((lx, height[merge.left]), (lx, merge.height)))
        segments.append(((rx, height[merge.right]), (rx, merge.height)))
        segments.append(((lx, merge.height), (rx, merge.height)))
        x[cluster_id] = 0.5 * (lx + rx)
        height[cluster_id] = merge.height
    return segments
