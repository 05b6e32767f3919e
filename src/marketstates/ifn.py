"""Information-filtering network construction and sparse precision estimation.

build_tmfg grows a Triangulated Maximally Filtered Graph: a planar chordal
graph with 3n-6 edges, built by choosing a 4-vertex seed greedily by weight
and then repeatedly inserting the (vertex, triangular face) pair that adds
the most similarity weight. As in the original construction (Massara,
Di Matteo & Aste, J. Complex Networks 2016), each face keeps its best
remaining vertex, and an insertion rescans only the faces it made stale:
the three new faces and those whose best vertex it took. Each face's row
of gains over all vertices is summed once, when the face is made, and
kept, so a rescan only takes the argmax of kept rows.

Because every maximal clique has size 4 and every separator size 3, the
inverse covariance restricted to that structure has a closed form: the
LoGo estimate sums inverted clique sub-covariances and subtracts inverted
separator sub-covariances, and its log-determinant is the matching
difference of sub-covariance log-determinants.

The block algebra is batched: the 4x4 clique blocks and the 3x3
separator blocks each form one stack that one numpy call factorizes or
inverts. A condition number, which takes an SVD, is computed only for the
blocks that a bound from the determinant cannot clear (see _blocks).
Only the sums over blocks keep a fixed order (see logo_precision and
logdet_precision), so results equal those of a block-by-block loop bit
for bit.

Everything here runs on numpy alone. A SparsePrecision holds J as its
sorted upper-triangle entries; scipy, a test dependency, is imported only
when a caller asks for the CSR form through SparsePrecision.matrix.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularSubmatrixError

# a TMFG grows from a 4-clique: the fewest vertices, or assets, it takes
MIN_VERTICES = 4
# Sub-covariance blocks with condition number above this get a small ridge
# (eps * trace / size) before inversion, so clusters with few observations
# do not abort the fit.
_RIDGE_CONDITION_LIMIT = 1e12
_RIDGE_EPS = 1e-8
# a block whose log condition-number bound is below this cannot be ridged
_LOG_BOUND_LIMIT = np.log(_RIDGE_CONDITION_LIMIT) - np.log(2.0)


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

    upper holds the keys i * n + j (i <= j) of the stored entries in
    increasing order, so row-major over the upper triangle, and sums the
    value of each; mirrored entries share that one value, so J[i, j] ==
    J[j, i] exactly. log_det caches log |J| computed from the
    clique/separator decomposition.
    """

    n: int
    upper: np.ndarray
    sums: np.ndarray
    log_det: float

    def indices(self) -> tuple:
        """Row and column index arrays of the upper-triangle entries."""
        return np.divmod(self.upper, self.n)

    def dense(self) -> np.ndarray:
        """J as a dense n x n array."""
        i, j = self.indices()
        out = np.zeros((self.n, self.n))
        out[i, j] = self.sums
        out[j, i] = self.sums
        return out

    @cached_property
    def matrix(self):
        """J as a full symmetric scipy CSR matrix, built on first access."""
        try:
            import scipy.sparse as sp
        except ImportError as exc:
            raise ImportError("SparsePrecision.matrix needs scipy: pip install marketstates[test]") from exc

        i, j = self.indices()
        off = i != j
        rows = np.concatenate([i, j[off]])
        cols = np.concatenate([j, i[off]])
        data = np.concatenate([self.sums, self.sums[off]])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


# elements per temporary of the row-block symmetry check and of a TMFG rescan
_BLOCK_ELEMENTS = 8192


def _validate_similarity(similarity) -> np.ndarray:
    """A float copy of similarity with a zero diagonal, once it is valid.

    The copy is the only n x n float array made: finiteness is checked
    with one boolean mask, and the largest |w[i, j] - w[j, i]| over the
    upper triangle is taken block by block of rows. Every entry must be
    finite before any difference is taken, since a NaN difference
    compares False against the bound.
    """
    w = np.array(similarity, dtype=float, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"similarity must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < MIN_VERTICES:
        raise ValueError(f"need at least {MIN_VERTICES} vertices to build a TMFG, got {n}")
    np.fill_diagonal(w, 0.0)
    if not np.isfinite(w).all():
        raise ValueError("similarity matrix has NaN or infinite off-diagonal entries")
    asym = 0.0
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        diff = w[start:stop, start:] - w[start:, start:stop].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
    if asym > 1e-9:
        raise ValueError(f"similarity matrix is not symmetric (max |w - w.T| = {asym:.3e})")
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
    gains the most weight, replacing that face with three new ones.

    Each live face keeps its best remaining vertex and that vertex's gain
    w[v, a] + w[v, b] + w[v, c], ties toward the lowest vertex. A step
    takes the face of largest gain; among tied faces, the one with the
    lowest best vertex, then the oldest. This is the best (vertex, face)
    pair over all pairs, ties toward the lowest vertex and then the
    oldest face. After inserting v, only the faces whose best vertex was
    v and the three new faces are rescanned. The same rule holds for
    every n. Deterministic for a given input.

    Each face's gain row, (w[:, a] + w[:, b]) + w[:, c] over all vertices
    with a < b < c, is summed once, when the face is made, and kept in a
    (3n - 8) x n float array: 1.5 MB at n = 250, beside the n x n
    transposed copy of the similarity. A placed vertex's column is set to
    -inf in that copy and in every kept row, so a rescan gathers the kept
    rows of the stale faces and takes their argmax.
    """
    w = _validate_similarity(similarity)
    n = w.shape[0]
    seed = _seed_greedy(w)
    # row u of w_t is column u of w, so (w_t[a] + w_t[b]) + w_t[c] holds
    # w[v, a] + w[v, b] + w[v, c] for every unplaced v, summed in that
    # order, and -inf for every placed v; only w_t is read from here on,
    # so w is dropped to keep one n x n copy
    w_t = np.ascontiguousarray(w.T)
    del w
    w_t[:, seed] = -np.inf

    cliques = [seed]
    separators: list = []

    # per face, in creation order: its sorted vertices, its gain row, best
    # remaining vertex (-1 once consumed) and that vertex's gain (-inf
    # once consumed)
    faces: list = []
    gain_rows = np.empty((3 * n - 8, n))
    best_vertex = np.full(len(gain_rows), -1, dtype=np.intp)
    best_gain = np.full(len(gain_rows), -np.inf)

    def add_face(face: tuple) -> None:
        a, b, c = face
        row = gain_rows[len(faces)]
        np.add(w_t[a], w_t[b], out=row)
        row += w_t[c]
        faces.append(face)

    for face in itertools.combinations(seed, 3):
        add_face(face)
    stale = np.arange(4)

    # a hub vertex can be the best of hundreds of faces at once, so stale
    # rows are gathered a block at a time
    rescan_rows = max(1, _BLOCK_ELEMENTS // n)
    for _ in range(n - 4):
        for start in range(0, stale.size, rescan_rows):
            part = stale[start : start + rescan_rows]
            gains = gain_rows[part]
            best = gains.argmax(axis=1)
            best_vertex[part] = best
            best_gain[part] = gains[np.arange(part.size), best]

        fi = int(best_gain.argmax())
        tied = best_gain == best_gain[fi]
        if np.count_nonzero(tied) > 1:
            top = tied.nonzero()[0]
            fi = int(top[np.argmin(best_vertex[top])])
        v = int(best_vertex[fi])
        face = faces[fi]

        cliques.append(tuple(sorted((*face, v))))
        separators.append(face)
        best_vertex[fi] = -1
        best_gain[fi] = -np.inf

        w_t[:, v] = -np.inf
        k = len(faces)
        gain_rows[:k, v] = -np.inf
        for x, y in itertools.combinations(face, 2):
            add_face(tuple(sorted((x, y, v))))
        # the new faces count as stale alongside those that lost v
        best_vertex[k : k + 3] = v
        stale = (best_vertex[: k + 3] == v).nonzero()[0]

    # every edge lies in a clique, and each clique is sorted, so i < j
    edges = frozenset(pair for clique in cliques for pair in itertools.combinations(clique, 2))
    return TmfgGraph(n=n, edges=edges, cliques=cliques, separators=separators)


def _blocks(cov: np.ndarray, vertex_sets, width: int) -> tuple:
    """The symmetrized (m, width, width) sub-covariances on vertex_sets.

    Blocks with a condition number above the limit (or not finite) and a
    positive trace get eps * trace / width added to the diagonal. Returns
    the vertex index array, the blocks and their log-determinants; raises
    SingularSubmatrixError naming the first vertex set whose block, after
    any ridge, has no finite log-determinant or no Cholesky factor; a
    positive determinant is no test, eigenvalues (-1, -2, 1, 1) have one.

    The condition number takes an SVD, so it is computed only for blocks
    that a cheaper bound cannot clear. For any square block B,
    cond(B) <= ||B||_F^width / |det B|, since sigma_max <= ||B||_F and
    sigma_min >= |det B| / sigma_max^(width - 1); its log comes from the
    slogdet every block needs anyway. A block whose bound is below half
    the limit, a margin far wider than the rounding of the bound and of
    the SVD (about width * cond * eps), cannot be ridged; every other
    block, a non-finite bound included, gets np.linalg.cond, so each ridge
    decision is the one a condition number for every block would make.
    """
    idx = np.array(vertex_sets, dtype=np.intp).reshape(-1, width)
    blocks = cov[idx[:, :, None], idx[:, None, :]]
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    trace = np.trace(blocks, axis1=1, axis2=2)
    logdet = np.linalg.slogdet(blocks)[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_bound = 0.5 * width * np.log(np.einsum("mij,mij->m", blocks, blocks)) - logdet
    unclear = np.flatnonzero(~(log_bound < _LOG_BOUND_LIMIT))
    if unclear.size:
        cond = np.linalg.cond(blocks[unclear])
        ridge = (~np.isfinite(cond) | (cond > _RIDGE_CONDITION_LIMIT)) & (trace[unclear] > 0.0)
        ridged = unclear[ridge]
        blocks[ridged] += (_RIDGE_EPS * trace[ridged] / width)[:, None, None] * np.eye(width)
        logdet[ridged] = np.linalg.slogdet(blocks[ridged])[1]
    ok = np.isfinite(logdet)
    if not (ok.all() and _has_cholesky(blocks)):
        first = next(m for m, block in enumerate(blocks) if not (ok[m] and _has_cholesky(block)))
        raise SingularSubmatrixError(vertex_sets[first], "not positive definite")
    return idx, blocks, logdet


def _has_cholesky(blocks: np.ndarray) -> bool:
    """Whether np.linalg.cholesky factors every block."""
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return False
    return True


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
    log |J| = sum_S log |cov_S| - sum_C log |cov_C|. The block
    log-determinants come from one batched slogdet per block size, cliques
    first as in logo_precision, so both raise SingularSubmatrixError on
    the same vertex set. The sum is a running float sum over one array:
    the separator log-determinants, then the negated clique ones, each in
    graph order; x + (-c) rounds as x - c does. np.sum groups terms
    pairwise and, from Python 3.12, builtin sum() compensates, so either
    would change the last bits.
    """
    cov = _check_covariance(covariance, graph)
    clique_logdets = _blocks(cov, graph.cliques, 4)[2]
    separator_logdets = _blocks(cov, graph.separators, 3)[2]
    total = 0.0
    for value in np.concatenate([separator_logdets, -clique_logdets]).tolist():
        total += value
    return total


def logo_precision(covariance, graph: TmfgGraph) -> SparsePrecision:
    """LoGo sparse precision: clique inverses minus separator inverses.

    Each 4x4 clique sub-covariance is inverted and added at its indices;
    each 3x3 separator sub-covariance is inverted and subtracted. The
    result is exact when the true precision is supported on the graph.

    Cliques and separators are each inverted in one batched call and the
    inverses symmetrized. Their upper-triangle entries are summed by
    np.bincount, which adds in input order: every entry of J starts at 0.0
    and sums clique contributions in graph order, then separator ones.
    Each off-diagonal sum is stored once and stands for both mirrored
    entries, so J is exactly symmetric. log_det comes from
    logdet_precision.
    """
    cov = _check_covariance(covariance, graph)
    n = graph.n
    keys, values = [], []
    for vertex_sets, width, sign in ((graph.cliques, 4, 1.0), (graph.separators, 3, -1.0)):
        idx, blocks, _ = _blocks(cov, vertex_sets, width)
        inv = np.linalg.inv(blocks)
        inv = 0.5 * (inv + inv.transpose(0, 2, 1))
        a, b = np.triu_indices(width)
        lo, hi = np.minimum(idx[:, a], idx[:, b]), np.maximum(idx[:, a], idx[:, b])
        keys.append((lo * n + hi).ravel())
        values.append(sign * inv[:, a, b].ravel())

    upper, position = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(position, weights=np.concatenate(values))
    return SparsePrecision(n=n, upper=upper, sums=sums, log_det=logdet_precision(cov, graph))
