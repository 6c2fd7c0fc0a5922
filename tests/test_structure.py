import json
from pathlib import Path

import pytest

from singular_weyl import (
    ParameterSet,
    apply_E,
    composition_series,
    decompose,
    enumerate_admissible,
    harmonic_representative,
    heisenberg_targets,
    ktype_lattice,
    ladder_graph,
    level_curves_csv,
    make_ktype,
    pair_eigenvalue,
)
from singular_weyl.operators import _e_directions
from singular_weyl.structure import structure_case

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "composition_series.json").read_text()
)


class TestCompositionSeries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_against_golden(self, n, q):
        series = composition_series(ParameterSet(n=n, q=q, s=0.5j))
        case_name = GOLDEN["cases"][f"n={n},q={q}"]
        assert f"case{series.case}" == case_name
        assert list(series.chain) == GOLDEN["chains"][case_name]

    def test_known_cases(self):
        assert composition_series(ParameterSet(n=3, q=3, s=1j)).chain == (
            "0", "H0+", "H0", "H0+H+", "H",
        )
        assert composition_series(ParameterSet(n=3, q=0, s=1j)).case == 1
        assert composition_series(ParameterSet(n=2, q=2, s=1j)).case == 4
        assert len(composition_series(ParameterSet(n=2, q=2, s=1j)).chain) == 7

    def test_case4_exactly_when_n_even_q_congruent(self):
        for n in range(1, 9):
            for q in range(4):
                case = structure_case(ParameterSet(n=n, q=q, s=1j))
                expect4 = n % 2 == 0 and (q - n) % 4 == 0
                assert (case == 4) == expect4

    def test_exactly_one_case_per_parameter(self):
        for n in range(1, 9):
            for q in range(4):
                assert structure_case(ParameterSet(n=n, q=q, s=1j)) in (1, 2, 3, 4)


class TestDecompose:
    def test_all_irreducible(self):
        descs = decompose(ParameterSet(n=3, q=0, s=0.5j), 75)
        assert len(descs) == 3
        assert all(d.irreducible for d in descs)
        assert [(d.l, d.k) for d in descs] == [(5, 2), (3, 9), (1, 36)]
        assert all(d.lam == 75 and type(d.lam) is int for d in descs)

    def test_lowest_only(self):
        descs = decompose(ParameterSet(n=3, q=3, s=0.5j), 3)
        assert [(d.l, d.k) for d in descs] == [(1, 0)]
        assert descs[0].has_lowest and not descs[0].has_highest
        assert not descs[0].irreducible

    def test_both_flags_n2(self):
        descs = decompose(ParameterSet(n=2, q=2, s=0.5j), 4)
        assert all(d.has_lowest and d.has_highest for d in descs)
        assert [(d.l, d.k) for d in descs] == [(1, 1)]

    def test_size_matches_pair_count(self):
        from singular_weyl import admissible_pairs, enumerate_admissible

        for n in (2, 3, 4):
            params = ParameterSet(n=n, q=1, s=0.5j)
            for lam in enumerate_admissible(n, 40):
                assert len(decompose(params, lam)) == len(
                    admissible_pairs(n, lam)
                )

    def test_boundary_weight(self):
        descs = decompose(ParameterSet(n=3, q=3, s=0.5j), 3)
        assert descs[0].boundary_weight == 2 * 0 + 4 * 1 + 3


class TestHeisenbergTargets:
    def test_paper_style_example(self):
        targets = heisenberg_targets(3, 3, 9)
        assert set(targets) == {(2, 10, 50), (4, 8, 100), (3, 10, 81), (3, 8, 69)}
        assert all(type(lam) is int for _, _, lam in targets)

    def test_zero_family_target(self):
        targets = heisenberg_targets(3, 1, 0)
        assert (0, 1, 0) in targets

    def test_shift_identity_over_lattice(self):
        for n in (1, 2, 3, 4):
            for l in range(0, 7):
                for k in range(0, 13):
                    if n == 1 and k > 1:
                        continue
                    lam = pair_eigenvalue(n, l, k)
                    edge = 2 * l + 2 * k + n - 2
                    for l2, k2, lam2 in heisenberg_targets(n, l, k):
                        shift = lam2 - lam
                        if l2 != l:
                            assert abs(shift) == edge
                        else:
                            assert abs(shift) == 2 * l or shift == 0

    def test_k_range_respected(self):
        assert all(k >= 0 for _, k, _ in heisenberg_targets(3, 2, 0))
        assert all(k in (0, 1) for _, k, _ in heisenberg_targets(1, 2, 1))


class TestLadderGraph:
    def test_figure_lattice_nodes(self):
        # n=3, q=0, lambda=75, m in [0, 20]: three chains, nodes 4 apart
        params = ParameterSet(n=3, q=0, s=0.5j)
        graph = ladder_graph(params, [75], (0, 20), False)
        by_pair = {}
        for node in graph.nodes:
            by_pair.setdefault((node.l, node.k), []).append(node.m)
        assert set(by_pair) == {(5, 2), (3, 9), (1, 36)}
        assert sorted(by_pair[(5, 2)]) == [0, 4, 8, 12, 16, 20]
        assert sorted(by_pair[(3, 9)]) == [2, 6, 10, 14, 18]
        assert sorted(by_pair[(1, 36)]) == [0, 4, 8, 12, 16, 20]
        for ms in by_pair.values():
            diffs = {b - a for a, b in zip(sorted(ms), sorted(ms)[1:])}
            assert diffs == {4}

    def test_edge_counts_bounded(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        graph = ladder_graph(params, enumerate_admissible(3, 30), (-10, 10), True)
        per_node = {}
        for e in graph.edges:
            per_node.setdefault((e.source, e.operator), 0)
            per_node[(e.source, e.operator)] += 1
        for (src, op), count in per_node.items():
            if op.startswith("eta"):
                assert count <= 1
            else:
                assert count <= 4

    def test_eta_kill_at_boundary(self):
        # q = n: lowest-weight nodes have no eta- edge out
        params = ParameterSet(n=3, q=3, s=0.5j)
        graph = ladder_graph(params, enumerate_admissible(3, 10), (-25, 25), False)
        for node in graph.nodes:
            boundary = 2 * node.k + 4 * node.l + 3
            out_minus = [
                e
                for e in graph.edges
                if e.source == (node.m, node.l, node.k) and e.operator == "eta-"
            ]
            if node.m == boundary:
                assert not out_minus
            else:
                assert len(out_minus) == 1

    def test_e_edge_shifts_match_heisenberg_targets(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        graph = ladder_graph(params, enumerate_admissible(3, 30), (-8, 8), True)
        lam_of = {(v.m, v.l, v.k): v.lam for v in graph.nodes}
        assert all(type(lam) is int for lam in lam_of.values())
        for e in graph.edges:
            if not e.operator.startswith("E"):
                continue
            src_l, src_k = e.source[1], e.source[2]
            tgt = (e.target[1], e.target[2])
            allowed = {
                (l2, k2): lam2 for l2, k2, lam2 in heisenberg_targets(3, src_l, src_k)
            }
            assert tgt in allowed
            if not e.dangling:
                assert lam_of[e.target] == allowed[tgt]

    def test_e_edge_coefficients_match_apply_E(self):
        # both read the E_MOVES table: the graph's E edges out of a node are
        # the closed-form E_1 terms on its representative harmonic, and every
        # E_j direction lies in heisenberg_targets
        for n, q, s in ((3, 1, 0.5j), (4, 0, -0.25), (2, 2, 0.5j), (1, 1, 0.5j)):
            params = ParameterSet(n=n, q=q, s=s)
            graph = ladder_graph(params, enumerate_admissible(n, 30), (-8, 8), True)
            covered = set()
            for node in graph.nodes:
                source = (node.m, node.l, node.k)
                F = make_ktype(params, *source, harmonic_representative(n, node.k))
                for sign, op in ((1, "E+"), (-1, "E-")):
                    edges = {
                        e.target: e.coefficient
                        for e in graph.edges
                        if e.source == source and e.operator == op
                    }
                    closed = {(T.m, T.l, T.k): c for c, T in apply_E(F, 1, sign).terms}
                    assert edges == closed, (n, source, sign)
                if (node.l, node.k) in covered:
                    continue
                # the eigenvalue-shift check of sweep_heisenberg runs over the
                # targets; they must cover every E_j direction
                covered.add((node.l, node.k))
                targets = {(l2, k2) for l2, k2, _ in heisenberg_targets(n, node.l, node.k)}
                for j in range(1, n + 1):
                    for _, l2, k2, _ in _e_directions(F, j):
                        assert (l2, k2) in targets, (n, source, j)

    def test_dangling_edges_marked(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        graph = ladder_graph(params, enumerate_admissible(3, 5), (1, 1), False)
        assert graph.edges and all(e.dangling for e in graph.edges)

    def test_dot_and_json_exports(self):
        params = ParameterSet(n=2, q=0, s=0.5j)
        graph = ladder_graph(params, enumerate_admissible(2, 6), (0, 8), True)
        dot = graph.to_dot()
        assert dot.startswith("digraph") and "eta+" in dot
        data = graph.to_json()
        assert {"n", "q", "s", "nodes", "edges"} <= set(data)


class TestLevelCurves:
    def test_csv_shape_and_curve_identity(self):
        text = level_curves_csv(3, 20)
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,l,k"
        rows = [line.split(",") for line in lines[1:]]
        # 200 rows per admissible lambda
        assert len(rows) == 200 * len(enumerate_admissible(3, 20))
        for lam_s, l_s, k_s in rows:
            lam, l, k = float(lam_s), float(l_s), float(k_s)
            assert abs(l * (2 * l + 2 * k + 3 - 2) - lam) < 1e-3


class TestKtypeLattice:
    def test_lattice_members_valid(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        lattice = ktype_lattice(params, 20, 10)
        assert lattice
        for F in lattice:
            assert (F.m - 2 * F.k - 1) % 4 == 0
            assert abs(F.m) <= 10
            assert F.lam <= 20

    def test_negative_m_max_rejected(self):
        with pytest.raises(ValueError, match="m_max must be >= 0"):
            ktype_lattice(ParameterSet(n=3, q=1, s=0.5j), 6, -2)

    def test_zero_family_inclusion(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        with_zero = ktype_lattice(params, 10, 8, include_zero_family=True)
        assert any(F.l == 0 for F in with_zero)
