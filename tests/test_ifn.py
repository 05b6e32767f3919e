"""Graph construction and sparse precision assembly.

networkx is used here purely as an independent oracle for chordality and
planarity; the package itself never imports it.
"""

import itertools
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import panels
from marketstates.errors import SingularSubmatrixError
from marketstates.ifn import (
    _RIDGE_CONDITION_LIMIT,
    _RIDGE_EPS,
    _seed_greedy,
    _validate_similarity,
    build_tmfg,
    logdet_precision,
    logo_precision,
)


def greedy_seed_oracle(w):
    """The seed rule with plain loops: the vertex of largest row sum, then
    three times the vertex of largest summed weight to those chosen, ties
    broken toward the lowest index."""
    n = w.shape[0]
    chosen = []
    while len(chosen) < 4:
        pool = range(n) if not chosen else chosen
        best = None
        for v in range(n):
            if v in chosen:
                continue
            gain = sum(w[u, v] for u in pool if u != v)
            if best is None or gain > best[0]:
                best = (gain, v)
        chosen.append(best[1])
    return tuple(sorted(chosen))


def greedy_tmfg_oracle(w):
    """Re-derivation of the construction with plain loops: greedy seed,
    then repeatedly the best (vertex, face) insertion, ties broken by
    lowest vertex then earliest face."""
    n = w.shape[0]
    seed = greedy_seed_oracle(w)
    faces = list(itertools.combinations(seed, 3))
    edges = set(itertools.combinations(seed, 2))
    cliques = [tuple(seed)]
    separators = []
    remaining = [v for v in range(n) if v not in seed]
    while remaining:
        best = None
        for v in remaining:
            for fi, face in enumerate(faces):
                gain = sum(w[v, u] for u in face)
                key = (-gain, v, fi)
                if best is None or key < best[0]:
                    best = (key, v, fi)
        _, v, fi = best
        face = faces.pop(fi)
        remaining.remove(v)
        separators.append(tuple(sorted(face)))
        cliques.append(tuple(sorted(face + (v,))))
        edges.update((min(v, u), max(v, u)) for u in face)
        faces.extend(pair + (v,) for pair in itertools.combinations(face, 2))
    return frozenset(edges), cliques, separators


def reference_tmfg(similarity):
    """The growth loop over a full (remaining vertex, face) gains matrix.

    Rows stay in ascending vertex order and columns in face creation
    order, so a flat argmax picks the best pair with ties toward the
    lowest vertex, then the oldest face. Every insertion deletes the
    chosen row and column and appends three new face columns.
    """
    w = _validate_similarity(similarity)
    n = w.shape[0]
    seed = _seed_greedy(w)
    edges = {tuple(sorted(p)) for p in itertools.combinations(seed, 2)}
    cliques = [seed]
    separators = []
    faces = [tuple(sorted(f)) for f in itertools.combinations(seed, 3)]

    remaining = np.array(sorted(set(range(n)) - set(seed)), dtype=int)
    if remaining.size:
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
    return frozenset(edges), cliques, separators


def _symmetric_integers(rng, n):
    w = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
    return w + w.T


def _assert_matches_reference(w):
    g = build_tmfg(w)
    edges, cliques, separators = reference_tmfg(w)
    assert g.edges == edges
    # LoGo sums blocks in graph order, so the order must match too
    assert g.cliques == cliques
    assert g.separators == separators


@pytest.mark.parametrize("n", [*range(4, 81), 100, 250])
def test_growth_matches_gains_matrix_reference(rng, n):
    ties = _symmetric_integers(rng, n)
    # asymmetry below the 1e-9 the validator accepts decides between tied
    # faces, so this fails if a gain is read as w[a, v] instead of w[v, a]
    skew = ties + rng.uniform(-4e-10, 4e-10, size=(n, n))
    # 0.1, 0.2 and 0.3 sum to different floats in different orders
    tenths = 0.1 * (ties + 1.0)
    cases = [ties, skew, tenths, np.full((n, n), 0.7), np.zeros((n, n))]
    if n <= 80:
        cases.append(panels.random_similarity(rng, n))
    else:
        # sector-like correlations, where many faces share one best vertex,
        # and the same rounded to two digits, where many gains tie
        block = panels.block_similarity(rng, n)
        cases += [block, np.round(block, 2)]
    for w in cases:
        _assert_matches_reference(w)


@pytest.mark.parametrize("n", [199, 201])
def test_seed_rule_does_not_change_with_n(rng, n):
    # a hub tied to every vertex next to a heavier but less central
    # 4-clique: the greedy seed starts at the hub, so it is not the
    # max-weight 4-clique
    w = rng.uniform(0.0, 0.05, size=(n, n))
    w[0, :] = rng.uniform(0.4, 0.6, size=n)
    heavy = list(range(n - 4, n))
    w[np.ix_(heavy, heavy)] = 1.0
    w = np.triu(w, 1) + np.triu(w, 1).T
    seed = greedy_seed_oracle(w)
    assert seed != tuple(heavy)
    assert sum(w[a, b] for a, b in itertools.combinations(seed, 2)) < 6.0
    assert build_tmfg(w).cliques[0] == seed


def test_n4_is_complete_graph(rng):
    w = panels.random_similarity(rng, 4)
    g = build_tmfg(w)
    assert g.edges == frozenset(itertools.combinations(range(4), 2))
    assert g.cliques == [(0, 1, 2, 3)]
    assert g.separators == []


def test_matches_loop_oracle_small(rng):
    # independent plain-Python re-derivation, n in 5..9
    for _ in range(40):
        n = int(rng.integers(5, 10))
        w = panels.random_similarity(rng, n)
        g = build_tmfg(w)
        edges, cliques, separators = greedy_tmfg_oracle(w)
        assert g.edges == edges
        assert sorted(g.cliques) == sorted(cliques)
        assert sorted(g.separators) == sorted(separators)


def test_structure_invariants(rng):
    for _ in range(60):
        n = int(rng.integers(4, 25))
        g = build_tmfg(panels.random_similarity(rng, n))
        assert len(g.edges) == 3 * n - 6
        assert len(g.cliques) == n - 3
        assert len(g.separators) == max(n - 4, 0)
        # telescoping vertex count over the clique tree
        assert 4 * len(g.cliques) - 3 * len(g.separators) == n
        clique_sets = [set(c) for c in g.cliques]
        for clique in g.cliques:
            for e in itertools.combinations(clique, 2):
                assert e in g.edges
        for sep in g.separators:
            assert sum(set(sep) <= cs for cs in clique_sets) >= 2


def _nx_graph(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges)
    return gx


def test_chordal_and_planar_against_networkx(rng):
    for _ in range(30):
        n = int(rng.integers(4, 26))
        gx = _nx_graph(build_tmfg(panels.random_similarity(rng, n)))
        assert nx.is_chordal(gx)
        assert nx.check_planarity(gx)[0]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 16), seed=st.integers(0, 2**31 - 1))
def test_structure_counts_hold_for_any_input(n, seed):
    w = panels.random_similarity(np.random.default_rng(seed), n)
    g = build_tmfg(w)
    assert len(g.edges) == 3 * n - 6
    assert len(g.cliques) == n - 3
    assert len(g.separators) == max(n - 4, 0)
    assert nx.is_chordal(_nx_graph(g))


def test_deterministic_rebuild(rng):
    w = panels.random_similarity(rng, 18)
    a = build_tmfg(w)
    b = build_tmfg(w.copy())
    assert a.edges == b.edges and a.cliques == b.cliques and a.separators == b.separators


def test_tie_break_on_equal_weights():
    # all-equal weights: lowest-index seed, then lowest vertex into earliest face
    n = 7
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    g = build_tmfg(w)
    assert g.cliques[0] == (0, 1, 2, 3)
    assert g.cliques[1] == (0, 1, 2, 4)  # vertex 4 into face (0,1,2)
    assert len(g.edges) == 3 * n - 6


def test_greedy_beats_random_constructions(rng):
    # retained weight of the greedy build vs 100 random valid constructions
    n = 6
    w = panels.random_similarity(rng, 6)

    def total(edges):
        return sum(w[i, j] for i, j in edges)

    g = build_tmfg(w)
    ours = total(g.edges)
    for _ in range(100):
        seed = tuple(sorted(rng.choice(n, size=4, replace=False)))
        faces = list(itertools.combinations(seed, 3))
        edges = set(itertools.combinations(seed, 2))
        remaining = [v for v in range(n) if v not in seed]
        rng.shuffle(remaining)
        for v in remaining:
            fi = int(rng.integers(len(faces)))
            a, b, c = faces.pop(fi)
            edges.update(
                (min(v, u), max(v, u)) for u in (a, b, c)
            )
            faces.extend([(a, b, v), (a, c, v), (b, c, v)])
        assert ours >= total(edges) - 1e-9


# --- precision assembly


def logo_loop_oracle(cov, g):
    """LoGo assembly one block at a time with plain loops.

    Each clique and separator block is sliced, symmetrized, ridged when
    its condition number is above the limit (and its trace positive),
    checked by Cholesky and slogdet, inverted and symmetrized again;
    entries accumulate cliques first, then separators, each from 0.0. The
    log-determinant adds separators, then subtracts cliques. Returns
    (CSR matrix, log_det, number of ridged blocks).
    """
    ridged = 0

    def prepare(verts):
        nonlocal ridged
        block = cov[np.ix_(verts, verts)]
        block = 0.5 * (block + block.T)
        cond = np.linalg.cond(block)
        if not np.isfinite(cond) or cond > _RIDGE_CONDITION_LIMIT:
            trace = float(np.trace(block))
            if trace > 0.0:
                block = block + (_RIDGE_EPS * trace / len(verts)) * np.eye(len(verts))
                ridged += 1
        logdet = np.linalg.slogdet(block)[1]
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise SingularSubmatrixError(verts, "not positive definite") from None
        if not np.isfinite(logdet):
            raise SingularSubmatrixError(verts, "not positive definite")
        return block, float(logdet)

    upper = {}
    signed_blocks = [(c, 1.0) for c in g.cliques] + [(s, -1.0) for s in g.separators]
    for verts, sign in signed_blocks:
        inv = np.linalg.inv(prepare(verts)[0])
        inv = 0.5 * (inv + inv.T)
        for a in range(len(verts)):
            for b in range(a, len(verts)):
                key = (verts[a], verts[b])
                upper[key] = upper.get(key, 0.0) + sign * inv[a, b]
    log_det = 0.0
    for s in g.separators:
        log_det += prepare(s)[1]
    for c in g.cliques:
        log_det -= prepare(c)[1]

    rows, cols, data = [], [], []
    for (i, j), value in sorted(upper.items()):
        rows.append(i)
        cols.append(j)
        data.append(value)
        if i != j:
            rows.append(j)
            cols.append(i)
            data.append(value)
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))
    return matrix, log_det, ridged


def _assert_matches_loop_oracle(cov, g):
    matrix, log_det, ridged = logo_loop_oracle(cov, g)
    got = logo_precision(cov, g)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, attr), getattr(matrix, attr)), attr
        assert getattr(got.matrix, attr).dtype == getattr(matrix, attr).dtype, attr
    assert got.log_det == log_det
    assert logdet_precision(cov, g) == log_det
    return ridged


def test_logo_bitwise_matches_loop_oracle(rng):
    # n=4 has one clique and an empty separator stack
    for n in range(4, 61):
        g = build_tmfg(panels.random_similarity(rng, n))
        _assert_matches_loop_oracle(panels.random_spd(rng, n), g)


def test_logo_bitwise_matches_loop_oracle_with_ridge(rng):
    # the near-duplicate assets of test_ill_conditioned_block_gets_ridge
    m = 400
    x = rng.normal(size=(m, 6))
    x[:, 1] = x[:, 0] + 1e-14 * rng.normal(size=m)
    cov = np.cov(x, rowvar=False, ddof=1)
    w = np.abs(np.corrcoef(x, rowvar=False))
    np.fill_diagonal(w, 0.0)
    assert _assert_matches_loop_oracle(cov, build_tmfg(w)) > 0


def _assert_same_outcome_as_loop_oracle(cov, g):
    """_assert_matches_loop_oracle, or the oracle's SingularSubmatrixError.

    logo_precision and logdet_precision must each name the oracle's
    block. Returns the oracle's ridged block count, or None on an error.
    """
    try:
        logo_loop_oracle(cov, g)
    except SingularSubmatrixError as expected:
        for estimate in (logo_precision, logdet_precision):
            with pytest.raises(SingularSubmatrixError) as err:
                estimate(cov, g)
            assert err.value.vertices == expected.vertices
        return None
    return _assert_matches_loop_oracle(cov, g)


@pytest.mark.parametrize(
    "eigenvalues, ridged",
    [
        # condition number just below and just above the limit
        ([1.0, 1.0, 1.0, 1e-12 * (1 + 1e-6)], False),
        ([1.0, 1.0, 1.0, 1e-12 * (1 - 1e-6)], True),
        # condition number 1e11, under a norm-determinant bound of 9e11
        # that is above half the limit, so the SVD decides
        ([1.0, 1.0, 1.0, 1e-11], False),
        # indefinite with a positive determinant: an error, as for zeros
        ([-1.0, -2.0, 1.0, 1.0], False),
        ([0.0, 0.0, 0.0, 0.0], False),
    ],
)
def test_logo_bitwise_matches_loop_oracle_at_the_ridge_limit(rng, eigenvalues, ridged):
    # a diagonal block's singular values are exact; a rotated one's carry
    # rounding of about cond * eps, so it may land on either side
    for n, rotate in itertools.product((4, 5, 7), (False, True)):
        g = build_tmfg(panels.random_similarity(rng, n))
        width = 4 if n == 4 else 3
        block = np.diag(eigenvalues[-width:])
        if rotate:
            q = np.linalg.qr(rng.normal(size=(width, width)))[0]
            block = q @ block @ q.T
        cov = panels.random_spd(rng, n)
        # the first clique of n = 4, else the first separator and with it
        # the two cliques that hold it
        verts = list(g.cliques[0] if n == 4 else g.separators[0])
        cov[np.ix_(verts, verts)] = block
        count = _assert_same_outcome_as_loop_oracle(cov, g)
        if not rotate and n == 4:
            assert count is None if eigenvalues[0] <= 0.0 else (count > 0) == ridged


def test_well_conditioned_blocks_take_no_svd(rng, monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(blocks):
        calls.append(len(blocks))
        return cond(blocks)

    monkeypatch.setattr(np.linalg, "cond", counted)
    for n in (4, 30, 120):
        g = build_tmfg(panels.random_similarity(rng, n))
        logo_precision(panels.random_spd(rng, n), g)
    assert calls == []
    # a near-singular pair of assets: only the blocks holding both get
    # one, in logo_precision and again in logdet_precision
    x = rng.normal(size=(400, 6))
    x[:, 1] = x[:, 0] + 1e-14 * rng.normal(size=400)
    w = np.abs(np.corrcoef(x, rowvar=False))
    np.fill_diagonal(w, 0.0)
    g = build_tmfg(w)
    logo_precision(np.cov(x, rowvar=False, ddof=1), g)
    holding = sum({0, 1} <= set(verts) for verts in g.cliques + g.separators)
    assert sum(calls) == 2 * holding > 0


def test_singular_block_error_names_the_oracle_block(rng):
    # every 4x4 block of -I has det +1 but no Cholesky factor, so the
    # first failure is the first clique, checked before any separator
    bad = -np.eye(6)
    g = build_tmfg(panels.random_similarity(rng, 6))
    with pytest.raises(SingularSubmatrixError) as expected:
        logo_loop_oracle(bad, g)
    assert expected.value.vertices == tuple(g.cliques[0])
    with pytest.raises(SingularSubmatrixError) as err:
        logo_precision(bad, g)
    assert err.value.vertices == expected.value.vertices
    with pytest.raises(SingularSubmatrixError) as err:
        logdet_precision(bad, g)
    assert err.value.vertices == expected.value.vertices


@pytest.mark.parametrize("n", [4, 9, 30])
def test_indefinite_block_with_a_positive_determinant_is_singular(rng, n):
    # eigenvalues (-1, -2, 1, 1): determinant +2, condition number 2, so
    # neither the determinant nor the ridge can tell it from a covariance
    g = build_tmfg(panels.random_similarity(rng, n))
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    cov = panels.random_spd(rng, n)
    verts = list(g.cliques[0])
    cov[np.ix_(verts, verts)] = q @ np.diag([-1.0, -2.0, 1.0, 1.0]) @ q.T
    for estimate in (logo_precision, logdet_precision):
        with pytest.raises(SingularSubmatrixError) as err:
            estimate(cov, g)
        assert err.value.vertices == tuple(verts)
    assert _assert_same_outcome_as_loop_oracle(cov, g) is None


def test_identity_covariance_gives_identity_precision(rng):
    g = build_tmfg(panels.random_similarity(rng, 8))
    sp = logo_precision(np.eye(8), g)
    assert np.allclose(sp.matrix.toarray(), np.eye(8), atol=1e-12)
    assert sp.log_det == pytest.approx(0.0, abs=1e-12)


def test_n4_reduces_to_dense_inverse(rng):
    cov = panels.random_spd(rng, 4)
    g = build_tmfg(panels.random_similarity(rng, 4))
    sp = logo_precision(cov, g)
    assert np.allclose(sp.matrix.toarray(), np.linalg.inv(cov), atol=1e-10)
    assert sp.log_det == pytest.approx(-np.linalg.slogdet(cov)[1], abs=1e-10)


def test_round_trip_on_matching_structure(rng):
    # a precision already supported on the graph is recovered exactly
    for _ in range(25):
        n = int(rng.integers(5, 16))
        cov = panels.random_spd(rng, n)
        w = np.abs(np.corrcoef(cov))
        np.fill_diagonal(w, 0.0)
        g = build_tmfg(w)
        j_true = logo_precision(cov, g).matrix.toarray()
        sigma = np.linalg.inv(j_true)
        j_again = logo_precision(sigma, g).matrix.toarray()
        assert np.allclose(j_again, j_true, atol=1e-8)


def test_inverse_matches_covariance_on_support(rng):
    n = 12
    cov = panels.random_spd(rng, n)
    g = build_tmfg(panels.random_similarity(rng, n))
    j = logo_precision(cov, g).matrix.toarray()
    sigma = np.linalg.inv(j)
    assert np.allclose(np.diag(sigma), np.diag(cov), atol=1e-8)
    for i, k in g.edges:
        assert sigma[i, k] == pytest.approx(cov[i, k], abs=1e-8)
    off_support = [
        (i, k)
        for i, k in itertools.combinations(range(n), 2)
        if (i, k) not in g.edges
    ]
    assert off_support  # sanity: sparsity actually present
    for i, k in off_support:
        assert j[i, k] == 0.0


def test_precision_is_exactly_symmetric(rng):
    cov = panels.random_spd(rng, 14)
    g = build_tmfg(panels.random_similarity(rng, 14))
    j = logo_precision(cov, g).matrix.toarray()
    assert np.array_equal(j, j.T)


def test_logdet_matches_dense(rng):
    for _ in range(25):
        n = int(rng.integers(5, 30))
        cov = panels.random_spd(rng, n)
        g = build_tmfg(panels.random_similarity(rng, n))
        sp = logo_precision(cov, g)
        sign, ref = np.linalg.slogdet(sp.matrix.toarray())
        assert sign > 0
        assert sp.log_det == pytest.approx(ref, abs=1e-8)
        assert logdet_precision(cov, g) == sp.log_det


def test_covariance_scaling(rng):
    cov = panels.random_spd(rng, 9)
    g = build_tmfg(panels.random_similarity(rng, 9))
    base = logo_precision(cov, g)
    for c in (0.25, 4.0):
        scaled = logo_precision(c * cov, g)
        assert np.allclose(scaled.matrix.toarray(), base.matrix.toarray() / c, atol=1e-9)
        assert scaled.log_det == pytest.approx(base.log_det - 9 * np.log(c), abs=1e-9)


def test_small_sample_beats_dense_inverse(rng):
    # with few samples the filtered precision should sit closer to the truth
    n, m = 20, 50
    wins = 0
    for _ in range(20):
        cov0 = panels.random_spd(rng, n, strength=0.3)
        w = np.abs(np.corrcoef(cov0))
        np.fill_diagonal(w, 0.0)
        j_true = logo_precision(cov0, build_tmfg(w)).matrix.toarray()
        cov_true = np.linalg.inv(j_true)
        x = rng.multivariate_normal(np.zeros(n), cov_true, size=m)
        sample_cov = np.cov(x, rowvar=False, ddof=1)
        ws = np.abs(np.corrcoef(x, rowvar=False))
        np.fill_diagonal(ws, 0.0)
        j_logo = logo_precision(sample_cov, build_tmfg(ws)).matrix.toarray()
        j_dense = np.linalg.inv(sample_cov)

        def kl(j_est):
            return 0.5 * (
                np.trace(j_est @ cov_true)
                - n
                + np.linalg.slogdet(j_true)[1]
                - np.linalg.slogdet(j_est)[1]
            )

        wins += kl(j_logo) < kl(j_dense)
    assert wins >= 16


def test_ill_conditioned_block_gets_ridge(rng):
    # two near-identical assets: clique sub-covariances are near singular,
    # the ridge keeps assembly finite
    m = 400
    x = rng.normal(size=(m, 6))
    x[:, 1] = x[:, 0] + 1e-14 * rng.normal(size=m)
    cov = np.cov(x, rowvar=False, ddof=1)
    w = np.abs(np.corrcoef(x, rowvar=False))
    np.fill_diagonal(w, 0.0)
    g = build_tmfg(w)
    sp = logo_precision(cov, g)
    assert np.all(np.isfinite(sp.matrix.toarray()))
    assert np.isfinite(sp.log_det)


def test_indefinite_block_raises_with_vertices(rng):
    # a well-conditioned but indefinite "covariance" cannot be inverted
    # blockwise; the error names the offending vertex set
    bad = -np.eye(6)
    g = build_tmfg(panels.random_similarity(rng, 6))
    with pytest.raises(SingularSubmatrixError, match="singular sub-covariance") as err:
        logo_precision(bad, g)
    assert len(err.value.vertices) in (3, 4)


def test_covariance_of_another_shape_is_rejected(rng):
    g = build_tmfg(panels.random_similarity(rng, 6))
    for cov in (np.eye(5), np.eye(7), np.ones((6, 5)), np.ones(6)):
        for estimate in (logo_precision, logdet_precision):
            with pytest.raises(ValueError, match="does not match graph on 6 vertices"):
                estimate(cov, g)


def test_validation_rejects_bad_similarity(rng):
    with pytest.raises(ValueError):
        build_tmfg(np.ones((3, 3)))  # too small
    with pytest.raises(ValueError, match=r"must be square, got shape \(5, 6\)"):
        build_tmfg(np.ones((5, 6)))
    w = panels.random_similarity(rng, 6)
    w[0, 1] = np.nan
    w[1, 0] = np.nan
    with pytest.raises(ValueError):
        build_tmfg(w)
    w = panels.random_similarity(rng, 6)
    w[0, 1] += 1.0  # asymmetric
    with pytest.raises(ValueError):
        build_tmfg(w)


def test_validation_rejects_nan_in_lower_triangle_only(rng):
    # |NaN - x| > bound is False, so the symmetry check alone would let
    # a NaN below the diagonal through
    w = panels.random_similarity(rng, 6)
    w[4, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        build_tmfg(w)
    w = panels.random_similarity(rng, 6)
    w[5, 2] = -np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        build_tmfg(w)
    # the diagonal is ignored, whatever it holds
    w = panels.random_similarity(rng, 6)
    w[3, 3] = np.nan
    assert np.array_equal(np.diag(_validate_similarity(w)), np.zeros(6))


def test_validation_reports_the_largest_asymmetry(rng):
    for n in (6, 40, 250):
        w = panels.random_similarity(rng, n)
        w[n - 1, 2] += 3e-7
        w[1, n - 2] -= 5e-6
        expected = np.abs(w - w.T).max()
        with pytest.raises(ValueError, match=f"= {expected:.3e}\\)"):
            build_tmfg(w)
    w = panels.random_similarity(rng, 30)
    w[7, 19] += 5e-10  # within the bound
    assert np.array_equal(_validate_similarity(w), np.where(np.eye(30, dtype=bool), 0.0, w))


def test_growth_memory_is_bounded(rng):
    # the n x n transposed similarity and the (3n - 8) x n gain rows
    n = 250
    w = panels.block_similarity(rng, n)
    tracemalloc.start()
    try:
        build_tmfg(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * n * 8, peak


def test_validation_makes_one_float_copy(rng):
    n = 250
    w = panels.random_similarity(rng, n)
    tracemalloc.start()
    try:
        out = _validate_similarity(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, n)
    assert peak < 2 * n * n * 8, peak


def test_csr_form_without_scipy_names_the_extra(rng, monkeypatch):
    sp = logo_precision(panels.random_spd(rng, 6), build_tmfg(panels.random_similarity(rng, 6)))
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    with pytest.raises(ImportError, match=r"pip install marketstates\[test\]$") as info:
        sp.matrix
    assert len(str(info.value).splitlines()) == 1


def test_precision_arrays_match_csr(rng):
    # the lazy CSR and the dense scatter both come from upper and sums
    for n in (4, 5, 17, 40):
        sp = logo_precision(panels.random_spd(rng, n), build_tmfg(panels.random_similarity(rng, n)))
        i, j = sp.indices()
        assert np.all(i <= j) and np.all(np.diff(sp.upper) > 0)
        assert np.array_equal(sp.dense(), sp.matrix.toarray())
        assert sp.matrix is sp.matrix  # built once
