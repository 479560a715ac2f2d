import numpy as np
import pytest

from _oracles import conditional_from_joint, enumerate_joint
from adjfas.bayesnet import (ZeroEvidenceError, _bdeu_local, fit_posterior, infer_conditional,
                             joint_marginal, learn_structure, posterior_mean,
                             sample_parameter_batch, sample_parameters)
from adjfas.data import CategoricalTable
from adjfas.graph import Admg


def table_from(rng, cols, n):
    rows = np.column_stack([c(rng, n) for c in cols.values()])
    cards = tuple(int(rows[:, j].max()) + 1 for j in range(rows.shape[1]))
    return CategoricalTable(tuple(cols), cards, rows)


class TestLearnStructure:
    def test_independent_pair_gives_empty_graph(self):
        rng = np.random.default_rng(0)
        t = table_from(rng, {"A": lambda r, n: r.integers(0, 2, n),
                             "B": lambda r, n: r.integers(0, 2, n)}, 10000)
        dag = learn_structure(t, rng=0)
        assert not dag.directed_edges
        # BDeu oracle: the empty model dominates either single-edge model
        cache = {}
        empty = _bdeu_local(t, "A", (), 1.0, cache) + _bdeu_local(t, "B", (), 1.0, cache)
        ab = _bdeu_local(t, "A", (), 1.0, cache) + _bdeu_local(t, "B", ("A",), 1.0, cache)
        ba = _bdeu_local(t, "B", (), 1.0, cache) + _bdeu_local(t, "A", ("B",), 1.0, cache)
        assert empty > max(ab, ba)

    def test_copy_gives_one_edge(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 10000)
        t = CategoricalTable(("A", "B"), (2, 2), np.column_stack([a, a]))
        dag = learn_structure(t, rng=0)
        assert sorted(dag.directed_edges) in ([("A", "B")], [("B", "A")])
        cache = {}
        edge = _bdeu_local(t, "A", (), 1.0, cache) + _bdeu_local(t, "B", ("A",), 1.0, cache)
        empty = _bdeu_local(t, "A", (), 1.0, cache) + _bdeu_local(t, "B", (), 1.0, cache)
        assert edge > empty

    def test_single_variable(self):
        t = CategoricalTable(("A",), (2,), np.zeros((10, 1), dtype=int))
        assert not learn_structure(t, rng=0).directed_edges

    def test_local_maximum_invariant(self):
        rng = np.random.default_rng(2)
        c = rng.integers(0, 2, 5000)
        a = (c ^ (rng.random(5000) < 0.3)).astype(int)
        b = ((a + c) % 2 ^ (rng.random(5000) < 0.3)).astype(int)
        t = CategoricalTable(("A", "B", "C"), (2, 2, 2), np.column_stack([a, b, c]))
        dag = learn_structure(t, rng=0)
        cache = {}
        order = {v: i for i, v in enumerate(t.variable_names)}

        def canon(ps):
            return tuple(sorted(ps, key=order.__getitem__))

        parents = {v: set(dag.parents(v)) for v in dag.nodes}
        base = sum(_bdeu_local(t, v, canon(parents[v]), 1.0, cache) for v in dag.nodes)
        # no single add/delete/reverse improves the score
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
                    try:
                        Admg(dag.nodes, [(p, w) for w, ps in tr.items() for p in ps])
                    except Exception:
                        continue
                    score = sum(_bdeu_local(t, w, canon(tr[w]), 1.0, cache) for w in dag.nodes)
                    assert score <= base + 1e-9

    def test_covered_edge_reversal_bdeu_equality(self):
        rng = np.random.default_rng(3)
        c = rng.integers(0, 2, 2000)
        a = (c ^ (rng.random(2000) < 0.25)).astype(int)
        b = ((a ^ c) ^ (rng.random(2000) < 0.25)).astype(int)
        t = CategoricalTable(("A", "B", "C"), (2, 2, 2), np.column_stack([a, b, c]))
        cache = {}
        # A -> B with Pa(B) = {A, C}, Pa(A) = {C}: covered edge, equal scores
        s1 = (_bdeu_local(t, "C", (), 1.0, cache)
              + _bdeu_local(t, "A", ("C",), 1.0, cache)
              + _bdeu_local(t, "B", ("A", "C"), 1.0, cache))
        s2 = (_bdeu_local(t, "C", (), 1.0, cache)
              + _bdeu_local(t, "B", ("C",), 1.0, cache)
              + _bdeu_local(t, "A", ("B", "C"), 1.0, cache))
        assert s1 == pytest.approx(s2, abs=1e-9)


class TestFitPosterior:
    def test_prior_only_on_empty_table(self):
        t = CategoricalTable(("A", "B"), (2, 2), np.empty((0, 2), dtype=int))
        dag = Admg(["A", "B"], directed=[("A", "B")])
        post = fit_posterior(dag, t, ess=1.0)
        assert np.allclose(post.alpha["A"], [0.5, 0.5])
        assert np.allclose(post.alpha["B"], [[0.25, 0.25], [0.25, 0.25]])

    def test_counts_added(self):
        rows = np.array([[0]] * 30 + [[1]] * 70)
        t = CategoricalTable(("A",), (2,), rows)
        post = fit_posterior(Admg(["A"]), t, ess=1.0)
        assert np.allclose(post.alpha["A"], [30.5, 70.5])
        mean = posterior_mean(post).cpts["A"]
        assert np.allclose(mean, [30.5 / 101, 70.5 / 101])


class TestSampling:
    def _post(self):
        rows = np.array([[0]] * 30 + [[1]] * 70)
        t = CategoricalTable(("A",), (2,), rows)
        return fit_posterior(Admg(["A"]), t, ess=1.0)

    def test_concentrated_row(self):
        post = self._post()
        big = {v: a * 0 + 1e9 for v, a in post.alpha.items()}
        post2 = type(post)(dag=post.dag, cardinalities=post.cardinalities,
                           parents=post.parents, alpha=big, ess=post.ess)
        inst = sample_parameters(post2, np.random.default_rng(0))
        assert np.abs(inst.cpts["A"] - 0.5).max() < 1e-3

    def test_fixed_seed_repeats(self):
        post = self._post()
        a = sample_parameters(post, np.random.default_rng(42))
        b = sample_parameters(post, np.random.default_rng(42))
        assert np.array_equal(a.cpts["A"], b.cpts["A"])

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
        assert np.allclose(infer_conditional(params, "Y", {"X": 1}), [0.2, 0.8])

    def test_chain_marginalization(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"A": 2, "B": 2}, {"A": (), "B": ("A",)},
                                    {"A": np.array([0.6, 0.4]),
                                     "B": np.array([[0.9, 0.1], [0.3, 0.7]])})
        want = 0.6 * np.array([0.9, 0.1]) + 0.4 * np.array([0.3, 0.7])
        assert np.allclose(infer_conditional(params, "B"), want)

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
            got = infer_conditional(params, target, evidence)
            assert np.abs(got - want).max() < 1e-10

    def test_joint_marginal_cases(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"A": 2, "B": 3}, {"A": (), "B": ()},
                                    {"A": np.array([0.3, 0.7]),
                                     "B": np.array([0.2, 0.5, 0.3])})
        assert joint_marginal(params, []) == pytest.approx(1.0)
        outer = joint_marginal(params, ["A", "B"])
        assert np.allclose(outer, np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))

    def test_elimination_order_independence(self):
        rng = np.random.default_rng(6)
        nodes, cards, parents, params = self._random_net(rng, 7)
        target = nodes[3]
        others = [v for v in nodes if v != target]
        base = infer_conditional(params, target, {}, elim_order=others)
        for _ in range(5):
            perm = list(others)
            rng.shuffle(perm)
            alt = infer_conditional(params, target, {}, elim_order=perm)
            assert np.abs(alt - base).max() < 1e-12

    def test_conditional_sums_to_one(self):
        rng = np.random.default_rng(7)
        nodes, cards, parents, params = self._random_net(rng, 6)
        got = infer_conditional(params, nodes[2], {nodes[0]: 0})
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_evidence_raises(self):
        from adjfas.bayesnet import ParamInstantiation
        params = ParamInstantiation({"A": 2, "B": 2}, {"A": (), "B": ("A",)},
                                    {"A": np.array([1.0, 0.0]),
                                     "B": np.array([[0.5, 0.5], [0.5, 0.5]])})
        with pytest.raises(ZeroEvidenceError):
            infer_conditional(params, "B", {"A": 1})

