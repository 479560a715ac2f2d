import hashlib
import zlib
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammaln

from _oracles import (bdeu_by_cells, conditional_from_joint, contingency_by_add_at,
                      eliminated_conditional, enumerate_joint, min_fill_order_by_pairs)
from adjfas import bayesnet
from adjfas.bayesnet import (_bdeu_local, fit_posterior, learn_structure, posterior_mean,
                             product_marginal, sample_parameter_batch)
from adjfas.data import MAX_COUNT_CELLS, CategoricalTable, ValidationError, contingency_counts
from adjfas.graph import Dag
from adjfas.score import FasConfig, prepare_scoring
from adjfas.sim import METHODS, SimConfig, _run_replicate, simulate_replicate, vws_baseline


def table_from(rng, cols, n):
    rows = np.column_stack([c(rng, n) for c in cols.values()])
    cards = tuple(int(rows[:, j].max()) + 1 for j in range(rows.shape[1]))
    return CategoricalTable(tuple(cols), cards, rows)


def bdeu(t, node, parents, ess=1.0):
    """The learner's family score, named by variables rather than column indices."""
    return _bdeu_local(t, t.index(node), tuple(map(t.index, parents)), ess)


def observed_study(rep):
    """Replicate ``rep`` of the seed-7 observed study: world, table, trial and
    the search's prepared scoring, whose DAG was learned on its sub-table."""
    gt, table, exp = simulate_replicate(SimConfig(selection="observed", seed=7), rep)
    return gt, table, exp, prepare_scoring(table, exp, FasConfig())


def assert_local_maximum(t, dag):
    """No single addition, deletion or reversal that keeps the graph acyclic
    and every node within MAX_PARENTS raises the BDeu score."""
    order = {v: i for i, v in enumerate(t.variable_names)}

    def canon(ps):
        return tuple(sorted(ps, key=order.__getitem__))

    parents = {v: set(dag.parents(v)) for v in dag.nodes}
    base = sum(bdeu(t, v, canon(parents[v])) for v in dag.nodes)
    for u in dag.nodes:
        for v in dag.nodes:
            if u == v:
                continue
            trial = {w: set(ps) for w, ps in parents.items()}
            if u in parents[v]:
                trial[v].discard(u)
                reversed_ = {w: set(ps) for w, ps in trial.items()}
                reversed_[u].add(v)
                variants = [trial, reversed_]
            else:
                trial[v].add(u)
                variants = [trial]
            for tr in variants:
                if max(map(len, tr.values())) > bayesnet.MAX_PARENTS:
                    continue
                try:
                    Dag(dag.nodes, [(p, w) for w, ps in tr.items() for p in ps])
                except Exception:
                    continue
                score = sum(bdeu(t, w, canon(tr[w])) for w in dag.nodes)
                assert score <= base + 1e-9


class TestLearnStructure:
    def test_independent_pair_gives_empty_graph(self):
        rng = np.random.default_rng(0)
        t = table_from(rng, {"A": lambda r, n: r.integers(0, 2, n),
                             "B": lambda r, n: r.integers(0, 2, n)}, 10000)
        dag = learn_structure(t)
        assert not dag.directed_edges
        # BDeu oracle: the empty model dominates either single-edge model
        empty = bdeu(t, "A", ()) + bdeu(t, "B", ())
        ab = bdeu(t, "A", ()) + bdeu(t, "B", ("A",))
        ba = bdeu(t, "B", ()) + bdeu(t, "A", ("B",))
        assert empty > max(ab, ba)

    def test_copy_gives_one_edge(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 10000)
        t = CategoricalTable(("A", "B"), (2, 2), np.column_stack([a, a]))
        dag = learn_structure(t)
        assert sorted(dag.directed_edges) in ([("A", "B")], [("B", "A")])
        edge = bdeu(t, "A", ()) + bdeu(t, "B", ("A",))
        empty = bdeu(t, "A", ()) + bdeu(t, "B", ())
        assert edge > empty

    def test_single_variable(self):
        t = CategoricalTable(("A",), (2,), np.zeros((10, 1), dtype=int))
        assert not learn_structure(t).directed_edges

    def test_local_maximum_invariant(self):
        rng = np.random.default_rng(2)
        c = rng.integers(0, 2, 5000)
        a = (c ^ (rng.random(5000) < 0.3)).astype(int)
        b = ((a + c) % 2 ^ (rng.random(5000) < 0.3)).astype(int)
        t = CategoricalTable(("A", "B", "C"), (2, 2, 2), np.column_stack([a, b, c]))
        assert_local_maximum(t, learn_structure(t))

    def test_parent_cap(self):
        # C depends on six independent parents; no node may take more than MAX_PARENTS
        rng = np.random.default_rng(6)
        ps = rng.integers(0, 2, (4000, 6))
        c = np.where(rng.random(4000) < 0.05, rng.integers(0, 4, 4000), ps.sum(axis=1) // 2)
        t = CategoricalTable((*(f"P{i}" for i in range(6)), "C"), (2,) * 6 + (4,),
                             np.column_stack([ps, c]))
        dag = learn_structure(t)
        assert max(len(dag.parents(v)) for v in dag.nodes) == bayesnet.MAX_PARENTS
        assert_local_maximum(t, dag)

    # the edges learned on study tables whose climbs take deletions and
    # reversals (reps 3, 9 and 10 of the seed-7 observed study)
    @pytest.mark.parametrize("rep, edges", [
        (3, "V1>V3 V2>Y V3>V2 V3>Y V6>Y X>V2 X>V3 X>V4"),
        (9, "V1>V5 V2>V1 V2>V6 V3>V2 V3>V6 V4>V1 X>V1 X>V2 X>V4"),
        (10, "V1>V2 V1>V3 V1>V4 V1>V6 V1>Y V2>V3 V2>Y V3>V4 V4>V6 V4>Y X>V6 X>Y Y>V5 Y>V6"),
    ])
    def test_study_tables_learn_pinned_dags(self, rep, edges):
        _, table, _ = simulate_replicate(SimConfig(selection="observed", seed=7), rep)
        assert sorted(learn_structure(table).directed_edges) == [
            tuple(e.split(">")) for e in edges.split()]

    def test_study_search_and_vws_tables_learn_pinned_dags(self):
        # every DAG the seed-7 observed study learns: each search's sub-table,
        # as prepare_scoring restricts it, and each VWS sub-table (a digest of
        # the edges learned before the climb kept score-change rows)
        lines = []
        for rep in range(40):
            gt, table, _, prep = observed_study(rep)
            vws = learn_structure(table.restrict(set(vws_baseline(gt)) | {gt.x, gt.y}))
            for kind, dag in (("search", prep.post.dag), ("vws", vws)):
                lines.append(f"{rep} {kind} "
                             + " ".join(f"{u}>{v}" for u, v in sorted(dag.directed_edges)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "2137ae789bdd5cc9bab93cf8f67d4f025ab177dd4031f76cc2bf7ff1670b438a")

    @pytest.mark.parametrize("rep", [3, 9, 10])
    def test_family_scores_equal_the_cell_oracle(self, rep):
        # every family of up to MAX_PARENTS parents on a search sub-table, bit
        # for bit, and its counts in a shuffled variable order
        _, table, _, prep = observed_study(rep)
        sub = table.restrict(prep.post.dag.nodes)
        names = sub.variable_names
        rng = np.random.default_rng(rep)
        for v, node in enumerate(names):
            others = [i for i in range(len(names)) if i != v]
            for k in range(bayesnet.MAX_PARENTS + 1):
                for ps in combinations(others, k):
                    pa = [names[i] for i in ps]
                    assert _bdeu_local(sub, v, ps, 1.0) == bdeu_by_cells(sub, node, pa, 1.0)
                    shuffled = rng.permutation([*pa, node]).tolist()
                    assert np.array_equal(contingency_counts(sub, shuffled),
                                          contingency_by_add_at(sub, shuffled))

    def test_cell_bound_holds_for_every_family(self):
        # 2**13 x 2**14 categories: the pair's count table is twice the bound
        assert 2 ** 27 == 2 * MAX_COUNT_CELLS
        t = CategoricalTable(("A", "B"), (2 ** 13, 2 ** 14),
                             np.array([[0, 0], [2 ** 13 - 1, 2 ** 14 - 1]]))
        too_many = r" would hold 134217728 cells, more than 67108864; category codes must be dense"
        with pytest.raises(ValidationError, match=r"^count table over A \(8192\), B \(16384\)"
                           + too_many):
            contingency_counts(t, ["A", "B"])
        with pytest.raises(ValidationError, match=r"^count table over B \(16384\), A \(8192\)"
                           + too_many):
            learn_structure(t)

    def test_each_family_scored_once(self, monkeypatch):
        _, table, _ = simulate_replicate(SimConfig(selection="observed", seed=7), 10)
        scored = []
        exact = bayesnet._bdeu_local

        def counting(table, node, parents, *rest):
            scored.append((node, frozenset(parents)))
            return exact(table, node, parents, *rest)

        monkeypatch.setattr(bayesnet, "_bdeu_local", counting)
        learn_structure(table)
        assert scored and len(scored) == len(set(scored))

    def test_covered_edge_reversal_bdeu_equality(self):
        rng = np.random.default_rng(3)
        c = rng.integers(0, 2, 2000)
        a = (c ^ (rng.random(2000) < 0.25)).astype(int)
        b = ((a ^ c) ^ (rng.random(2000) < 0.25)).astype(int)
        t = CategoricalTable(("A", "B", "C"), (2, 2, 2), np.column_stack([a, b, c]))
        # A -> B with Pa(B) = {A, C}, Pa(A) = {C}: covered edge, equal scores
        s1 = (bdeu(t, "C", ())
              + bdeu(t, "A", ("C",))
              + bdeu(t, "B", ("A", "C")))
        s2 = (bdeu(t, "C", ())
              + bdeu(t, "B", ("C",))
              + bdeu(t, "A", ("B", "C")))
        assert s1 == pytest.approx(s2, abs=1e-9)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tie_rule_ignores_last_bit_rounding(self, monkeypatch, sign):
        # chain A -> B -> C: the first move adds A -> B or B -> A, an exact
        # BDeu tie (score equivalence) that only the tie rule settles
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 3000)
        b = (a ^ (rng.random(3000) < 0.1)).astype(int)
        c = (b ^ (rng.random(3000) < 0.3)).astype(int)
        t = CategoricalTable(("A", "B", "C"), (2, 2, 2), np.column_stack([a, b, c]))
        gains = {(u, v): bdeu(t, v, (u,)) - bdeu(t, v, ())
                 for u in "ABC" for v in "ABC" if u != v}
        top = max(gains.values())
        assert sum(g == pytest.approx(top, rel=1e-12) for g in gains.values()) == 2
        plain = sorted(learn_structure(t).directed_edges)
        assert plain == [("A", "B"), ("B", "C")]

        exact = bayesnet._bdeu_local
        calls = []

        def perturbed(table, node, parents, ess):
            # a deterministic ±1e-13 relative error per local score, keyed by names
            names = table.variable_names
            key = (names[node], tuple(names[p] for p in parents))
            calls.append(key)
            s = 1 if zlib.crc32(repr(key).encode()) & 1 else -1
            return exact(table, node, parents, ess) * (1 + sign * s * 1e-13)

        monkeypatch.setattr(bayesnet, "_bdeu_local", perturbed)
        assert sorted(learn_structure(t).directed_edges) == plain
        assert ("B", ("A",)) in calls and ("A", ("B",)) in calls

    def test_local_score_matches_gammaln_formula(self):
        # the textbook BDeu local score over every cell, with scipy's gammaln
        rng = np.random.default_rng(11)
        for trial in range(40):
            cards = tuple(int(c) for c in rng.integers(1, 5, size=3))
            n = int(rng.integers(1, 5000))
            rows = np.column_stack([rng.integers(0, c, n) for c in cards])
            rows[:, 2] = np.where(rng.random(n) < 0.5, rows[:, 0] % cards[2], rows[:, 2])
            t = CategoricalTable(("P", "Q", "V"), cards, rows)
            ess = float(rng.choice([0.5, 1.0, 10.0]))
            parents = (("P", "Q"), ("P",), ())[trial % 3]
            r = cards[2]
            counts = np.zeros((*[cards["PQ".index(p)] for p in parents], r))
            np.add.at(counts, tuple(rows[:, "PQV".index(v)] for v in (*parents, "V")), 1)
            counts = counts.reshape(-1, r)
            q = counts.shape[0]
            a_jk, a_j = ess / (q * r), ess / q
            ref = (np.sum(gammaln(a_j) - gammaln(a_j + counts.sum(axis=1)))
                   + np.sum(gammaln(a_jk + counts) - gammaln(a_jk)))
            assert bdeu(t, "V", parents, ess) == pytest.approx(ref, rel=1e-12, abs=0)


class TestFitPosterior:
    def test_prior_only_on_empty_table(self):
        t = CategoricalTable(("A", "B"), (2, 2), np.empty((0, 2), dtype=int))
        dag = Dag(["A", "B"], directed=[("A", "B")])
        post = fit_posterior(dag, t, ess=1.0)
        assert np.allclose(post.alpha["A"], [0.5, 0.5])
        assert np.allclose(post.alpha["B"], [[0.25, 0.25], [0.25, 0.25]])

    def test_counts_added(self):
        rows = np.array([[0]] * 30 + [[1]] * 70)
        t = CategoricalTable(("A",), (2,), rows)
        post = fit_posterior(Dag(["A"]), t, ess=1.0)
        assert np.allclose(post.alpha["A"], [30.5, 70.5])
        mean = posterior_mean(post).cpts["A"]
        assert np.allclose(mean, [30.5 / 101, 70.5 / 101])


class TestSampling:
    def _post(self):
        rows = np.array([[0]] * 30 + [[1]] * 70)
        t = CategoricalTable(("A",), (2,), rows)
        return fit_posterior(Dag(["A"]), t, ess=1.0)

    def test_concentrated_row(self):
        post = self._post()
        big = {v: a * 0 + 1e9 for v, a in post.alpha.items()}
        post2 = type(post)(dag=post.dag, cardinalities=post.cardinalities,
                           parents=post.parents, alpha=big)
        draws = sample_parameter_batch(post2, np.random.default_rng(0), 1)["A"]
        assert np.abs(draws - 0.5).max() < 1e-3

    def test_fixed_seed_repeats(self):
        post = self._post()
        a = sample_parameter_batch(post, np.random.default_rng(42), 3)
        b = sample_parameter_batch(post, np.random.default_rng(42), 3)
        assert np.array_equal(a["A"], b["A"])

    def test_moments_match_dirichlet_mean(self):
        post = self._post()
        batch = sample_parameter_batch(post, np.random.default_rng(1), 10000)["A"]
        mean = batch.mean(axis=0)
        alpha = post.alpha["A"]
        expect = alpha / alpha.sum()
        a0 = alpha.sum()
        se = np.sqrt(expect * (1 - expect) / (a0 + 1) / 10000)
        assert (np.abs(mean - expect) < 3 * se + 1e-12).all()


class TestInference:
    def _random_net(self, rng, n_nodes):
        nodes = [f"N{i}" for i in range(n_nodes)]
        cards = {v: int(rng.integers(2, 4)) for v in nodes}
        parents = {}
        cpts = {}
        for j, v in enumerate(nodes):
            pa = tuple(nodes[i] for i in range(j) if rng.random() < 0.4)
            parents[v] = pa
            q = int(np.prod([cards[p] for p in pa])) if pa else 1
            d = np.maximum(rng.standard_gamma(1.0, size=(q, cards[v])), 1e-300)
            cpts[v] = (d / d.sum(axis=1, keepdims=True)).reshape(
                tuple(cards[p] for p in pa) + (cards[v],))
        from adjfas.bayesnet import ParamInstantiation
        return nodes, cards, parents, ParamInstantiation(cards, parents, cpts)

    def test_cpt_row_lookup(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"X": 2, "Y": 2}, {"X": (), "Y": ("X",)},
                                    {"X": np.array([0.3, 0.7]),
                                     "Y": np.array([[0.9, 0.1], [0.2, 0.8]])})
        assert np.allclose(eliminated_conditional(params, "Y", {"X": 1}), [0.2, 0.8])

    def test_cpt_rows_must_sum_to_one_within_1e_12(self):
        # an absolute bound (numpy's default rtol would pass a row off by 1e-5),
        # and a NaN row fails it
        from adjfas.bayesnet import ParamInstantiation
        ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([0.5, 0.5 + 1e-13])})
        with pytest.raises(ValueError, match="do not sum to 1"):
            ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([0.5, 0.5 + 1e-8])})
        with pytest.raises(ValueError, match="do not sum to 1"):
            ParamInstantiation({"V": 2}, {"V": ()}, {"V": np.array([0.5, np.nan])})

    def test_chain_marginalization(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"A": 2, "B": 2}, {"A": (), "B": ("A",)},
                                    {"A": np.array([0.6, 0.4]),
                                     "B": np.array([[0.9, 0.1], [0.3, 0.7]])})
        want = 0.6 * np.array([0.9, 0.1]) + 0.4 * np.array([0.3, 0.7])
        assert np.allclose(eliminated_conditional(params, "B"), want)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            nodes, cards, parents, params = self._random_net(rng, n)
            joint = enumerate_joint(nodes, cards, parents, params.cpts)
            target = nodes[int(rng.integers(n))]
            others = [v for v in nodes if v != target]
            ev_vars = [v for v in others if rng.random() < 0.3]
            evidence = {v: int(rng.integers(cards[v])) for v in ev_vars}
            want = conditional_from_joint(joint, nodes, target, evidence)
            got = eliminated_conditional(params, target, evidence)
            assert np.abs(got - want).max() < 1e-10

    def test_tilted_matches_enumeration(self):
        # the selected population: the joint times every tilt, then conditioned
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            nodes, cards, parents, params = self._random_net(rng, n)
            target = nodes[int(rng.integers(n))]
            others = [v for v in nodes if v != target]
            evidence = {v: int(rng.integers(cards[v])) for v in others if rng.random() < 0.3}
            tilted = [v for v in nodes if rng.random() < 0.5] or [target]
            tilts = {v: rng.uniform(0.05, 1.0, cards[v]) for v in tilted}
            joint = enumerate_joint(nodes, cards, parents, params.cpts)
            for v, w in tilts.items():
                shape = [1] * n
                shape[nodes.index(v)] = -1
                joint = joint * w.reshape(shape)
            want = conditional_from_joint(joint, nodes, target, evidence)
            got = eliminated_conditional(params, target, evidence, tilts=tilts)
            assert np.abs(got - want).max() < 1e-10

    def test_joint_marginal_cases(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"A": 2, "B": 3}, {"A": (), "B": ()},
                                    {"A": np.array([0.3, 0.7]),
                                     "B": np.array([0.2, 0.5, 0.3])})
        assert product_marginal(params.factors(), []) == pytest.approx(1.0)
        outer = product_marginal(params.factors(), ["A", "B"])
        assert np.allclose(outer, np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))

    def test_conditional_sums_to_one(self):
        rng = np.random.default_rng(7)
        nodes, cards, parents, params = self._random_net(rng, 6)
        got = eliminated_conditional(params, nodes[2], {nodes[0]: 0})
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestEliminationKernel:
    def test_min_fill_order_matches_pairwise_reference_on_random_scopes(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            names = [f"v{int(i)}" for i in rng.choice(40, size=int(rng.integers(1, 15)),
                                                       replace=False)]
            scopes = [tuple(rng.choice(names, size=min(int(rng.integers(1, 5)), len(names)),
                                       replace=False).tolist())
                      for _ in range(int(rng.integers(1, 12)))]
            present = {v for scope in scopes for v in scope}
            keep = {v for v in present if rng.random() < 0.3}
            elim = present - keep
            assert bayesnet._min_fill_order(scopes, elim) == min_fill_order_by_pairs(scopes, elim)

    def test_min_fill_order_matches_pairwise_reference_on_study_calls(self, monkeypatch):
        # every order product_marginal asks for in a few replicates of three studies
        calls = []
        order = bayesnet._min_fill_order
        monkeypatch.setattr(bayesnet, "_min_fill_order",
                            lambda scopes, elim: calls.append((list(scopes), set(elim)))
                            or order(scopes, elim))
        for selection, seed in (("observed", 7), ("none", 42), ("latent", 231)):
            for rep in range(3):
                _run_replicate(rep, SimConfig(selection=selection, seed=seed), FasConfig(),
                               METHODS)
        assert len(calls) > 50
        for scopes, elim in calls:
            assert order(scopes, elim) == min_fill_order_by_pairs(scopes, elim)

    def test_product_of_two_or_more_factors_is_c_contiguous(self):
        rng = np.random.default_rng(3)
        a = rng.random((2, 3)).T                     # over (B, A), a transposed view
        b = np.asfortranarray(rng.random((3, 4)))    # over (B, C)
        c = np.asfortranarray(rng.random((4, 2)))    # over (C, A)
        for factors in ([(("B", "A"), a), (("B", "C"), b)],
                        [(("B", "C"), b), (("C", "A"), c), (("B", "A"), a)]):
            vars, prod = bayesnet._multiply(factors)
            assert prod.flags.c_contiguous
            want = np.einsum(",".join("".join(f[0]) for f in factors) + "->" + "".join(vars),
                             *(f[1] for f in factors))
            np.testing.assert_allclose(prod, want, rtol=1e-15)
