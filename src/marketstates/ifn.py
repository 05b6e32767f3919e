"""Information-filtering network construction and sparse precision estimation.

build_tmfg grows a Triangulated Maximally Filtered Graph: a planar chordal
graph with 3n-6 edges, built by choosing a 4-vertex seed greedily by weight
and then repeatedly inserting the (vertex, triangular face) pair that adds
the most similarity weight. Because every maximal clique has size 4 and
every separator size 3, the inverse covariance restricted to that
structure has a closed form: the LoGo estimate sums inverted clique
sub-covariances and subtracts inverted separator sub-covariances, and its
log-determinant is the matching difference of sub-covariance
log-determinants.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SingularSubmatrixError

# Sub-covariance blocks with condition number above this get a small ridge
# (eps * trace / size) before inversion, so clusters with few observations
# do not abort the fit.
_RIDGE_CONDITION_LIMIT = 1e12
_RIDGE_EPS = 1e-8


@dataclass
class TmfgGraph:
    """A triangulated maximally filtered graph on n vertices.

    edges hold unordered pairs (i, j) with i < j. cliques are the 4-vertex
    maximal cliques in insertion order (seed first); separators are the
    3-vertex faces consumed by insertions, aligned with cliques[1:].
    """

    n: int
    edges: frozenset
    cliques: list
    separators: list


@dataclass
class SparsePrecision:
    """A symmetric precision matrix with support on a TMFG plus diagonal.

    matrix is the full symmetric CSR matrix (mirrored entries share one
    accumulated value, so J[i, j] == J[j, i] exactly); log_det caches
    log |J| computed from the clique/separator decomposition.
    """

    n: int
    matrix: sp.csr_matrix
    log_det: float


def _validate_similarity(similarity) -> np.ndarray:
    w = np.array(similarity, dtype=float, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"similarity must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 vertices to build a TMFG, got {n}")
    off_diag = ~np.eye(n, dtype=bool)
    if not np.all(np.isfinite(w[off_diag])):
        raise ValueError("similarity matrix has NaN or infinite off-diagonal entries")
    asym = np.abs(w - w.T)
    np.fill_diagonal(asym, 0.0)
    if asym.max() > 1e-9:
        raise ValueError(f"similarity matrix is not symmetric (max |w - w.T| = {asym.max():.3e})")
    np.fill_diagonal(w, 0.0)
    return w


def _seed_greedy(w: np.ndarray) -> tuple:
    chosen = [int(np.argmax(w.sum(axis=0)))]
    while len(chosen) < 4:
        gain = w[chosen].sum(axis=0)
        gain[chosen] = -np.inf
        chosen.append(int(np.argmax(gain)))
    return tuple(sorted(chosen))


def build_tmfg(similarity) -> TmfgGraph:
    """Build the TMFG of a symmetric similarity matrix (diagonal ignored).

    Greedy construction: seed with the vertex of largest similarity row
    sum, then three times add the vertex of largest summed similarity to
    the vertices already chosen (ties toward the lowest index); then
    repeatedly insert the remaining vertex into the triangular face that
    gains the most weight, replacing that face with three new ones. Ties
    break toward the lowest vertex index, then the oldest face. The same
    rule holds for every n. Deterministic for a given input.
    """
    w = _validate_similarity(similarity)
    n = w.shape[0]

    seed = _seed_greedy(w)
    edges = {tuple(sorted(p)) for p in itertools.combinations(seed, 2)}
    cliques = [seed]
    separators: list = []
    faces = [tuple(sorted(f)) for f in itertools.combinations(seed, 3)]

    remaining = np.array(sorted(set(range(n)) - set(seed)), dtype=int)
    if remaining.size:
        # gains[v, f] = similarity added by inserting vertex v into face f;
        # rows stay in ascending vertex order and columns in face creation
        # order so a flat argmax realizes the tie-break rule.
        gains = np.stack(
            [w[np.ix_(remaining, list(f))].sum(axis=1) for f in faces], axis=1
        )

    while remaining.size:
        vi, fi = np.unravel_index(int(np.argmax(gains)), gains.shape)
        v = int(remaining[vi])
        face = faces[fi]

        for u in face:
            edges.add((min(u, v), max(u, v)))
        cliques.append(tuple(sorted((*face, v))))
        separators.append(face)

        new_faces = [tuple(sorted((a, b, v))) for a, b in itertools.combinations(face, 2)]
        remaining = np.delete(remaining, vi)
        gains = np.delete(np.delete(gains, vi, axis=0), fi, axis=1)
        faces.pop(fi)
        if remaining.size:
            new_cols = np.stack(
                [w[np.ix_(remaining, list(f))].sum(axis=1) for f in new_faces], axis=1
            )
            gains = np.concatenate([gains, new_cols], axis=1)
        faces.extend(new_faces)

    return TmfgGraph(n=n, edges=frozenset(edges), cliques=cliques, separators=separators)


def _prepare_block(covariance: np.ndarray, verts) -> tuple:
    """Extract a clique/separator sub-covariance, ridging it if needed.

    Returns the (possibly regularized) block and its log-determinant;
    raises SingularSubmatrixError when the block is not positive definite
    even after the ridge, naming the offending vertex set.
    """
    verts = tuple(verts)
    block = covariance[np.ix_(verts, verts)]
    block = 0.5 * (block + block.T)
    size = block.shape[0]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > _RIDGE_CONDITION_LIMIT:
        trace = float(np.trace(block))
        if trace > 0.0:
            block = block + (_RIDGE_EPS * trace / size) * np.eye(size)
    sign, logdet = np.linalg.slogdet(block)
    if sign <= 0.0 or not np.isfinite(logdet):
        raise SingularSubmatrixError(verts, "not positive definite")
    return block, float(logdet)


def _check_covariance(covariance, graph: TmfgGraph) -> np.ndarray:
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (graph.n, graph.n):
        raise ValueError(
            f"covariance shape {cov.shape} does not match graph on {graph.n} vertices"
        )
    return cov


def logdet_precision(covariance, graph: TmfgGraph) -> float:
    """log |J| of the LoGo precision, without assembling J.

    On the clique/separator decomposition the determinant factorizes, so
    log |J| = sum_S log |cov_S| - sum_C log |cov_C|.
    """
    cov = _check_covariance(covariance, graph)
    total = 0.0
    for s in graph.separators:
        total += _prepare_block(cov, s)[1]
    for c in graph.cliques:
        total -= _prepare_block(cov, c)[1]
    return total


def logo_precision(covariance, graph: TmfgGraph) -> SparsePrecision:
    """LoGo sparse precision: clique inverses minus separator inverses.

    Each 4x4 clique sub-covariance is inverted and added at its indices;
    each 3x3 separator sub-covariance is inverted and subtracted. The
    result is exact when the true precision is supported on the graph.
    """
    cov = _check_covariance(covariance, graph)
    upper: dict = {}

    def accumulate(verts, sign):
        block, _ = _prepare_block(cov, verts)
        inv = np.linalg.inv(block)
        inv = 0.5 * (inv + inv.T)
        for a in range(len(verts)):
            for b in range(a, len(verts)):
                i, j = verts[a], verts[b]
                key = (i, j) if i <= j else (j, i)
                upper[key] = upper.get(key, 0.0) + sign * inv[a, b]

    for clique in graph.cliques:
        accumulate(clique, 1.0)
    for sep in graph.separators:
        accumulate(sep, -1.0)

    rows, cols, data = [], [], []
    for (i, j), value in sorted(upper.items()):
        rows.append(i)
        cols.append(j)
        data.append(value)
        if i != j:
            rows.append(j)
            cols.append(i)
            data.append(value)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(graph.n, graph.n))

    return SparsePrecision(n=graph.n, matrix=matrix, log_det=logdet_precision(cov, graph))
