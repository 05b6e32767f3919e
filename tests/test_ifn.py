"""Graph construction and sparse precision assembly.

networkx is used here purely as an independent oracle for chordality and
planarity; the package itself never imports it.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panels
from marketstates.errors import SingularSubmatrixError
from marketstates.ifn import build_tmfg, logdet_precision, logo_precision


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


def test_validation_rejects_bad_similarity(rng):
    with pytest.raises(ValueError):
        build_tmfg(np.ones((3, 3)))  # too small
    w = panels.random_similarity(rng, 6)
    w[0, 1] = np.nan
    w[1, 0] = np.nan
    with pytest.raises(ValueError):
        build_tmfg(w)
    w = panels.random_similarity(rng, 6)
    w[0, 1] += 1.0  # asymmetric
    with pytest.raises(ValueError):
        build_tmfg(w)
