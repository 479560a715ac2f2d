import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import (adjusted_by_enumeration, all_valid_subsets, dsep_by_enumeration,
                      forbidden_by_enumeration, mean_abs_diff)
from adjfas import graph
from adjfas.data import ValidationError
from adjfas.graph import (Dag, d_separated, forbidden_set, proper_backdoor_graph,
                          satisfies_adjustment_criterion)


class TestAdmgInvariants:
    """Construction invariants, topological order and file format of ``Dag``."""

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            Dag(["A", "B"], directed=[("A", "B"), ("B", "A")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Dag(["A"], directed=[("A", "A")])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            Dag(["A"], directed=[("A", "B")])

    def test_topological_order_golden(self):
        # Kahn's pass releases each node's children in node-index order; the
        # simulator samples in this order, so it is pinned literally
        g = Dag(["A", "B", "C", "D", "E"],
                directed=[("A", "D"), ("A", "C"), ("B", "E"), ("D", "E"), ("C", "E")])
        assert g.topological_order() == ("A", "B", "C", "D", "E")
        # index order, not name order: E releases C before B
        g = Dag(["E", "D", "C", "B", "A"],
                directed=[("E", "A"), ("E", "C"), ("E", "B"), ("D", "A")])
        assert g.topological_order() == ("E", "D", "C", "B", "A")

    def test_saved_json_golden(self, tmp_path):
        g = Dag(["X", "U", "C", "Y"], directed=[("U", "X"), ("U", "Y"), ("C", "X"), ("X", "Y")],
                observed=["Y", "C", "X"])
        g.save(tmp_path / "g.json")
        assert (tmp_path / "g.json").read_text() == (
            '{\n "nodes": [\n  "X",\n  "U",\n  "C",\n  "Y"\n ],\n'
            ' "observed": [\n  "X",\n  "C",\n  "Y"\n ],\n'
            ' "directed": [\n  [\n   "C",\n   "X"\n  ],\n  [\n   "U",\n   "X"\n  ],\n'
            '  [\n   "U",\n   "Y"\n  ],\n  [\n   "X",\n   "Y"\n  ]\n ],\n'
            ' "bidirected": []\n}\n')
        doc = json.loads((tmp_path / "g.json").read_text())
        assert set(doc["nodes"]) - set(doc["observed"]) == {"U"}


class TestMSeparation:
    """``d_separated``; in a DAG m-separation and d-separation coincide."""

    def test_chain(self):
        g = Dag(["A", "B", "C"], directed=[("A", "B"), ("B", "C")])
        assert d_separated(g, {"A"}, {"C"}, {"B"})
        assert not d_separated(g, {"A"}, {"C"}, set())

    def test_collider(self):
        g = Dag(["A", "B", "C"], directed=[("A", "B"), ("C", "B")])
        assert d_separated(g, {"A"}, {"C"}, set())
        assert not d_separated(g, {"A"}, {"C"}, {"B"})

    def test_collider_descendant_opens(self):
        g = Dag(["A", "B", "C", "D"], directed=[("A", "B"), ("C", "B"), ("B", "D")])
        assert not d_separated(g, {"A"}, {"C"}, {"D"})

    def test_latent_common_cause_connects(self):
        g = Dag(["U", "A", "B"], directed=[("U", "A"), ("U", "B")], observed=["A", "B"])
        assert not d_separated(g, {"A"}, {"B"}, set())

    def test_disjointness_enforced(self):
        g = Dag(["A", "B"], directed=[("A", "B")])
        with pytest.raises(ValidationError):
            d_separated(g, {"A"}, {"B"}, {"A"})

    def test_names_the_same_unknown_node_in_every_process(self):
        code = ("from adjfas.graph import Dag, d_separated\n"
                "try:\n"
                "    d_separated(Dag(['A', 'B']), {'A'}, {'B'}, {'Q1', 'Q2', 'Q3', 'Q4'})\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        src = str(Path(graph.__file__).parents[1])
        for hash_seed in ("2", "3"):  # the set orders that once named 'Q4' and 'Q2'
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60)
            assert out.stdout == "unknown node 'Q1'\n", out.stderr

    def test_agrees_with_path_enumeration_on_random_graphs(self):
        # 7 observed nodes; a hidden common cause of a pair is a latent parent
        rng = np.random.default_rng(0)
        nodes = [f"N{i}" for i in range(7)]
        for trial in range(60):
            latents, directed = [], []
            for i in range(7):
                for j in range(i + 1, 7):
                    r = rng.random()
                    if r < 0.18:
                        directed.append((nodes[i], nodes[j]))
                    elif r < 0.26:
                        u = f"U{len(latents)}"
                        latents.append(u)
                        directed += [(u, nodes[i]), (u, nodes[j])]
            g = Dag(nodes + latents, directed=directed, observed=nodes)
            a, b = rng.choice(7, size=2, replace=False)
            rest = [k for k in range(7) if k not in (a, b)]
            z = {nodes[k] for k in rest if rng.random() < 0.35}
            got = d_separated(g, {nodes[a]}, {nodes[b]}, z)
            want = dsep_by_enumeration(g, nodes[a], nodes[b], z)
            assert got == want, (trial, sorted(g.directed_edges), nodes[a], nodes[b], z)


class TestForbiddenSet:
    def test_mediator_and_outcome(self):
        g = Dag(["X", "M", "Y"], directed=[("X", "M"), ("M", "Y")])
        assert forbidden_set(g, "X", "Y") == {"M", "Y"}

    def test_direct_edge_only(self):
        g = Dag(["X", "Y"], directed=[("X", "Y")])
        assert forbidden_set(g, "X", "Y") == {"Y"}

    def test_mediator_descendant(self):
        g = Dag(["X", "M", "Y", "D"], directed=[("X", "M"), ("M", "Y"), ("M", "D")])
        assert forbidden_set(g, "X", "Y") == {"M", "Y", "D"}

    def test_off_path_descendant_of_x_allowed(self):
        g = Dag(["X", "Y", "D"], directed=[("X", "Y"), ("X", "D")])
        assert forbidden_set(g, "X", "Y") == {"Y"}

    def test_matches_enumeration_on_random_dags(self):
        rng = np.random.default_rng(1)
        nodes = [f"N{i}" for i in range(6)]
        for _ in range(60):
            directed = [(nodes[i], nodes[j]) for i in range(6) for j in range(i + 1, 6)
                        if rng.random() < 0.3]
            g = Dag(nodes, directed=directed)
            x, y = nodes[0], nodes[-1]
            assert forbidden_set(g, x, y) == forbidden_by_enumeration(g, x, y)


class TestAdjustmentCriterion:
    def test_observed_confounder_graph(self):
        # C -> D, C -> AE, D -> AE: {C} adjusts, the empty set does not
        g = Dag(["C", "D", "AE"], directed=[("C", "D"), ("C", "AE"), ("D", "AE")])
        assert satisfies_adjustment_criterion(g, "D", "AE", {"C"})
        assert not satisfies_adjustment_criterion(g, "D", "AE", set())

    def test_unconfounded_graph_empty_set(self):
        g = Dag(["C", "D", "AE"], directed=[("D", "C"), ("C", "AE"), ("D", "AE")])
        assert satisfies_adjustment_criterion(g, "D", "AE", set())

    def test_latent_confounding_leaves_nothing(self):
        g = Dag(["L", "C", "D", "AE"],
                directed=[("L", "D"), ("L", "AE"), ("D", "AE"), ("C", "D")],
                observed=["C", "D", "AE"])
        assert not satisfies_adjustment_criterion(g, "D", "AE", set())
        assert not satisfies_adjustment_criterion(g, "D", "AE", {"C"})

    def test_m_bias(self):
        g = Dag(["X", "A", "M", "B", "Y"],
                directed=[("A", "X"), ("A", "M"), ("B", "M"), ("B", "Y"), ("X", "Y")])
        assert satisfies_adjustment_criterion(g, "X", "Y", set())
        assert not satisfies_adjustment_criterion(g, "X", "Y", {"M"})

    def test_latent_z_rejected(self):
        g = Dag(["L", "X", "Y"], directed=[("L", "X"), ("L", "Y"), ("X", "Y")],
                observed=["X", "Y"])
        with pytest.raises(ValidationError):
            satisfies_adjustment_criterion(g, "X", "Y", {"L"})

    def test_proper_backdoor_graph_removes_only_causal_first_edges(self):
        g = Dag(["X", "M", "Y", "D"],
                directed=[("X", "M"), ("M", "Y"), ("X", "D"), ("X", "Y")])
        pbd = proper_backdoor_graph(g, "X", "Y")
        assert ("X", "M") not in pbd.directed_edges
        assert ("X", "Y") not in pbd.directed_edges
        assert ("X", "D") in pbd.directed_edges


def _random_world(rng):
    """6-node world (X, Y, 2 observed, 2 latent covariates) with random CPTs."""
    from adjfas.sim import SimConfig, generate_world
    cfg = SimConfig(n_observed=2, n_latent=2, seed=0)
    return generate_world(cfg, rng)


class TestCriterionSoundnessAndCompleteness:
    def test_accepted_sets_match_truncated_factorization(self):
        # soundness: every accepted Z reproduces the interventional truth exactly
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            gt = _random_world(rng)
            for z in all_valid_subsets(gt):
                for xv in range(gt.params.cardinalities["X"]):
                    adj = adjusted_by_enumeration(gt, z, xv)
                    truth = np.asarray(gt.true_id[xv])
                    assert np.abs(adj - truth).max() <= 1e-9
                    checked += 1
        assert checked > 20

    def test_rejected_sets_generically_violate(self):
        from itertools import combinations
        rng = np.random.default_rng(8)
        total = violating = 0
        for _ in range(40):
            gt = _random_world(rng)
            covs = sorted(set(gt.dag.observed) - {"X", "Y"})
            valid = set(all_valid_subsets(gt))
            for size in range(len(covs) + 1):
                for z in combinations(covs, size):
                    if frozenset(z) in valid:
                        continue
                    est = {xv: tuple(adjusted_by_enumeration(gt, z, xv).tolist())
                           for xv in range(gt.params.cardinalities["X"])}
                    total += 1
                    violating += mean_abs_diff(est, gt) > 1e-6
        assert total > 30
        assert violating / total >= 0.95
