"""Contraction traces: generation, adversarial checking, splice correctness."""

import random

import pytest

from helpers import (
    corpus,
    cyclic_equal,
    graph_from_edges,
    grid_edges,
    restart_trace_steps,
    triangle_board,
)
from pseudotelepathy.arrangement import parity
from pseudotelepathy.certificate import (
    CANCEL,
    CONTRACT,
    ContractionTrace,
    EmbeddingInvalid,
    IllegalStep,
    _WordState,
    check_trace,
    generate_trace,
)
from pseudotelepathy.generate import random_signing
from pseudotelepathy.intersection import IntersectionGraph, RotationSystem, build, trace_faces
from pseudotelepathy.planarity import test_planarity as decide_planarity


def planar_instance(a, signs=None):
    g = build(a)
    res = decide_planarity(g)
    assert res.is_planar
    sign_map = signs if signs is not None else {n: 1 for n in g.nodes}
    return g, res.embedding, sign_map


class TestGenerate:
    def test_triangle_trace_shape(self):
        a, _ = triangle_board()
        g, r, signs = planar_instance(a)
        trace = generate_trace(g, r, signs)
        kinds = [op for op, _ in trace.steps]
        # 3 dual edges: a 2-edge spanning tree is contracted, the one
        # surviving symbol cancels, and the replay confirms sign +1
        assert kinds.count(CONTRACT) == 2
        assert kinds.count(CANCEL) == 1
        assert trace.final_sign == 1
        assert check_trace(g, r, signs, trace) == 1

    def test_single_bare_node(self):
        g = IntersectionGraph(("only",), ())
        r = RotationSystem.from_dict({"only": []})
        trace = generate_trace(g, r, {"only": -1})
        assert trace.steps == ()
        assert trace.final_sign == -1
        assert check_trace(g, r, {"only": -1}, trace) == -1

    def test_rejects_nonplanar_embedding(self):
        from helpers import complete_graph_edges, graph_from_edges

        k4 = graph_from_edges(complete_graph_edges(4))
        good = decide_planarity(k4).embedding
        twisted = {n: list(ds) for n, ds in good.as_dict().items()}
        twisted["n1"][0], twisted["n1"][1] = twisted["n1"][1], twisted["n1"][0]
        with pytest.raises(EmbeddingInvalid):
            generate_trace(k4, RotationSystem.from_dict(twisted),
                           {n: 1 for n in k4.nodes})

    def test_nonplanar_graph_has_no_valid_starting_point(self):
        # K3,3: no rotation system passes the Euler check, so generation
        # cannot even begin
        from helpers import graph_from_edges, k33_edges

        g = graph_from_edges(k33_edges())
        darts = g.incident_darts()
        r = RotationSystem.from_dict({n: sorted(darts[n]) for n in g.nodes})
        with pytest.raises(EmbeddingInvalid):
            generate_trace(g, r, {n: 1 for n in g.nodes})

    def test_rejects_disconnected_graph_that_passes_euler(self):
        # a planar triangle (3 - 3 + 2) beside a twisted K4 on a torus
        # (4 - 6 + 2): the counts sum to V - E + F = 2 over two components
        from helpers import complete_graph_edges

        k4 = graph_from_edges(complete_graph_edges(4))
        darts = {n: list(ds) for n, ds in decide_planarity(k4).embedding.as_dict().items()}
        darts["n1"][0], darts["n1"][1] = darts["n1"][1], darts["n1"][0]
        g = graph_from_edges({**complete_graph_edges(4), "t12": ("t1", "t2"),
                              "t23": ("t2", "t3"), "t13": ("t1", "t3")})
        r = RotationSystem.from_dict({**g.incident_darts(), **darts})
        assert len(g.nodes) - len(g.edges) + len(trace_faces(g, r)) == 2
        with pytest.raises(EmbeddingInvalid, match="not connected"):
            generate_trace(g, r, {n: 1 for n in g.nodes})

    def test_roundtrip_equals_parity_on_corpus(self):
        rng = random.Random(55)
        done = 0
        for a, s in corpus(seed=71, count=60):
            g = build(a)
            res = decide_planarity(g)
            if not res.is_planar:
                continue
            done += 1
            trace = generate_trace(g, res.embedding, s.as_dict())
            assert check_trace(g, res.embedding, s.as_dict(), trace) == parity(s)
            odd = random_signing(rng, a, target_parity=-1).as_dict()
            trace_odd = generate_trace(g, res.embedding, odd)
            assert check_trace(g, res.embedding, odd, trace_odd) == -1
        assert done >= 30

    def test_steps_match_the_restart_scan(self):
        """The stack pass emits the cancels of rescanning from index 0."""
        graphs = [build(a) for a, _ in corpus(seed=71, count=60)]
        graphs += [graph_from_edges(grid_edges(n)) for n in (4, 7)]
        done = 0
        for g in graphs:
            res = decide_planarity(g)
            if not res.is_planar:
                continue
            done += 1
            trace = generate_trace(g, res.embedding, {n: 1 for n in g.nodes})
            assert list(trace.steps) == restart_trace_steps(g, res.embedding)
        assert done >= 30

    def test_json_roundtrip(self):
        a, _ = triangle_board()
        g, r, signs = planar_instance(a)
        trace = generate_trace(g, r, signs)
        assert ContractionTrace.from_json_dict(trace.to_json_dict()) == trace


class TestCheckerRejections:
    def _trace(self):
        a, _ = triangle_board()
        g, r, signs = planar_instance(a)
        return g, r, signs, generate_trace(g, r, signs)

    def test_two_parallel_edges_contract_then_cancel(self):
        g = IntersectionGraph(("u", "v"), (("p", "u", "v"), ("q", "u", "v")))
        rot = RotationSystem.from_dict({
            "u": [("p", 0), ("q", 0)], "v": [("q", 1), ("p", 1)],
        })
        signs = {"u": 1, "v": 1}
        trace = ContractionTrace(
            initial_words=(("u", ("p", "q")), ("v", ("q", "p"))),
            initial_signs=(("u", 1), ("v", 1)),
            steps=((CONTRACT, "p"), (CANCEL, "q")),
            final_sign=1,
        )
        assert check_trace(g, rot, signs, trace) == 1

    def test_cancel_of_nonadjacent_occurrences(self):
        # theta graph with the twisted (genus-one) rotation: contracting p
        # leaves the crossing word (q, s, q, s), where nothing is adjacent
        g = IntersectionGraph(
            ("u", "v"), (("p", "u", "v"), ("q", "u", "v"), ("s", "u", "v")))
        twisted = RotationSystem.from_dict({
            "u": [("p", 0), ("q", 0), ("s", 0)],
            "v": [("p", 1), ("q", 1), ("s", 1)],
        })
        signs = {"u": 1, "v": 1}
        bad = ContractionTrace(
            initial_words=(("u", ("p", "q", "s")), ("v", ("p", "q", "s"))),
            initial_signs=(("u", 1), ("v", 1)),
            steps=((CONTRACT, "p"), (CANCEL, "q"), (CANCEL, "s")),
            final_sign=1,
        )
        with pytest.raises(IllegalStep) as err:
            check_trace(g, twisted, signs, bad)
        assert err.value.index == 1

        # the planar rotation of the same graph cancels fine
        planar = RotationSystem.from_dict({
            "u": [("p", 0), ("q", 0), ("s", 0)],
            "v": [("s", 1), ("q", 1), ("p", 1)],
        })
        good = ContractionTrace(
            initial_words=(("u", ("p", "q", "s")), ("v", ("s", "q", "p"))),
            initial_signs=(("u", 1), ("v", 1)),
            steps=((CONTRACT, "p"), (CANCEL, "q"), (CANCEL, "s")),
            final_sign=1,
        )
        assert check_trace(g, planar, signs, good) == 1

    def test_illegal_cancel_detected_by_state(self):
        state = _WordState({"n": ["a", "b", "a", "b"]}, {"n": 1})
        with pytest.raises(IllegalStep):
            state.cancel("a", 0)

    def test_contract_missing_edge(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(trace.initial_words, trace.initial_signs,
                               ((CONTRACT, "nope"),) + trace.steps, trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_contract_self_loop_rejected(self):
        g, r, signs, trace = self._trace()
        # after the two contractions, the last symbol is a loop: contracting
        # it instead of cancelling must be illegal
        steps = trace.steps[:2] + ((CONTRACT, trace.steps[2][1]),)
        bad = ContractionTrace(trace.initial_words, trace.initial_signs, steps,
                               trace.final_sign)
        with pytest.raises(IllegalStep) as err:
            check_trace(g, r, signs, bad)
        assert err.value.index == 2

    def test_unfinished_replay_rejected(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(trace.initial_words, trace.initial_signs,
                               trace.steps[:-1], trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_wrong_final_sign_rejected(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(trace.initial_words, trace.initial_signs,
                               trace.steps, -trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_tampered_initial_rejected(self):
        g, r, signs, trace = self._trace()
        words = dict(trace.initial_words)
        first = next(iter(words))
        words[first] = tuple(reversed(words[first]))
        if tuple(sorted(words.items())) != trace.initial_words:
            bad = ContractionTrace(tuple(sorted(words.items())),
                                   trace.initial_signs, trace.steps,
                                   trace.final_sign)
            with pytest.raises(IllegalStep):
                check_trace(g, r, signs, bad)

    def test_signs_must_cover_exactly_the_nodes(self):
        g, r, signs, trace = self._trace()
        first = min(signs)
        for bad_signs, named in (
                ({n: v for n, v in signs.items() if n != first}, f"missing ['{first}']"),
                ({**signs, "zz": 1}, "unknown ['zz']")):
            # the trace agrees with the signs, so only the coverage check can fail
            bad = ContractionTrace(trace.initial_words, tuple(sorted(bad_signs.items())),
                                   trace.steps, trace.final_sign)
            with pytest.raises(IllegalStep) as err:
                check_trace(g, r, bad_signs, bad)
            assert err.value.index == -1 and named in err.value.reason

    def test_mutation_battery(self):
        """100 corrupted traces across the corpus are all rejected."""
        rejected = 0
        mutated = 0
        for a, s in corpus(seed=83, count=80):
            g = build(a)
            res = decide_planarity(g)
            if not res.is_planar:
                continue
            signs = s.as_dict()
            trace = generate_trace(g, res.embedding, signs)
            for bad in _mutations(trace):
                mutated += 1
                with pytest.raises(IllegalStep):
                    check_trace(g, res.embedding, signs, bad)
                rejected += 1
                if mutated >= 100:
                    break
            if mutated >= 100:
                break
        assert rejected >= 100


def _mutations(trace):
    """Guaranteed-illegal corruptions of a valid trace."""
    steps = trace.steps

    def alt(new_steps=None, final=None):
        return ContractionTrace(
            trace.initial_words, trace.initial_signs,
            tuple(new_steps if new_steps is not None else steps),
            trace.final_sign if final is None else final,
        )

    yield alt(final=-trace.final_sign)
    if steps:
        yield alt(new_steps=steps + (steps[-1],))       # replay a consumed symbol
        yield alt(new_steps=steps[:-1])                 # unfinished end state
        yield alt(new_steps=(steps[0],) + steps)        # duplicate first step
        yield alt(new_steps=steps + ((CONTRACT, steps[-1][1]),))
        yield alt(new_steps=((CANCEL, "ghost"),) + steps)
    else:
        yield alt(new_steps=((CANCEL, "ghost"),))


class TestSpliceOracle:
    def test_contract_matches_formal_rotation(self):
        """Splice rule equals: rotate u's word to end at e, v's to start at e,
        concatenate, drop both e's; checked as cyclic words."""
        rng = random.Random(14)
        for _ in range(200):
            # random disjoint words sharing exactly the contracted symbol
            n_u = rng.randrange(1, 5)
            n_v = rng.randrange(1, 5)
            edge = "e*"
            wu = [f"u{i}" for i in range(n_u)]
            wv = [f"v{i}" for i in range(n_v)]
            pu = rng.randrange(n_u + 1)
            pv = rng.randrange(n_v + 1)
            wu.insert(pu, edge)
            wv.insert(pv, edge)
            state = _WordState({"A": wu, "B": wv}, {"A": 1, "B": -1})
            state.contract(edge, 0)
            (merged,) = state.words.values()

            iu, iv = wu.index(edge), wv.index(edge)
            rot_u = wu[iu + 1:] + wu[:iu]      # u's word ending just before e
            rot_v = wv[iv + 1:] + wv[:iv]      # v's word starting just after e
            assert cyclic_equal(merged, rot_u + rot_v)
            assert state.signs["A"] == -1

    def test_small_words_reduce_iff_noncrossing(self):
        """With <= 5 symbols, greedy cancellation succeeds exactly when some
        cancellation order empties the word (brute force over orders)."""

        def brute_reducible(word):
            if not word:
                return True
            n = len(word)
            for i in range(n):
                sym = word[i]
                if word[(i + 1) % n] == sym:
                    if i + 1 < n:
                        rest = word[:i] + word[i + 2:]
                    else:
                        rest = word[1:-1]
                    if brute_reducible(rest):
                        return True
            return False

        def greedy_reducible(word):
            state = _WordState({"n": list(word)}, {"n": 1})
            while state.words["n"]:
                w = state.words["n"]
                for i, sym in enumerate(w):
                    if w[(i + 1) % len(w)] == sym:
                        state.cancel(sym, 0)
                        break
                else:
                    return False
            return True

        rng = random.Random(21)
        for n_symbols in range(1, 6):
            for _ in range(60):
                word = list("abcde"[:n_symbols]) * 2
                rng.shuffle(word)
                assert greedy_reducible(word) == brute_reducible(word)

    def test_splice_preserves_operator_products_of_magic_boards(self):
        """The merge rule is sound against real noncommuting Pauli algebra.

        On the square's and pentagram's duals (any rotation, any contraction
        order), every surviving node's word must keep multiplying, in word
        order, to its sign times the identity; this is the invariant that
        makes a completed replay a proof.
        """
        from pseudotelepathy.pauli import product_of
        from pseudotelepathy.realization import builtin_pentagram, builtin_square

        def check_invariant(state, ops, n):
            for node, word in state.words.items():
                prod = product_of([ops[sym] for sym in word], n_qubits=n)
                want = 0 if state.signs[node] == 1 else 2
                assert prod.is_identity() and prod.phase_exp == want

        for builtin in (builtin_square, builtin_pentagram):
            a, s, r = builtin()
            g = build(a)
            ops = r.as_dict()
            rng = random.Random(5)
            for _ in range(40):
                darts = g.incident_darts()
                words = {}
                for node in g.nodes:
                    syms = [eid for eid, _ in darts[node]]
                    rng.shuffle(syms)
                    words[node] = syms
                state = _WordState(words, {eid: s.sign(eid) for eid in g.nodes})
                check_invariant(state, ops, r.n_qubits)
                edges = list(g.endpoints().items())
                rng.shuffle(edges)
                parent = {n: n for n in g.nodes}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for step, (eid, (u, v)) in enumerate(edges):
                    ru, rv = find(u), find(v)
                    if ru == rv:
                        continue
                    parent[ru] = rv
                    state.contract(eid, step)
                    check_invariant(state, ops, r.n_qubits)

    def test_occurrence_invariants_during_replay(self):
        for a, s in corpus(seed=91, count=25):
            g = build(a)
            res = decide_planarity(g)
            if not res.is_planar:
                continue
            signs = s.as_dict()
            trace = generate_trace(g, res.embedding, signs)
            words = {n: list(w) for n, w in trace.initial_words}
            state = _WordState(words, signs)
            alive = {sym for w in words.values() for sym in w}
            for idx, (op, arg) in enumerate(trace.steps):
                if op == CONTRACT:
                    state.contract(arg, idx)
                else:
                    state.cancel(arg, idx)
                alive.discard(arg)
                counts = {}
                rescan = {}
                for node, w in state.words.items():
                    for sym in w:
                        counts[sym] = counts.get(sym, 0) + 1
                        rescan.setdefault(sym, []).append(node)
                assert set(counts) == alive
                assert all(c == 2 for c in counts.values())
                assert {sym: sorted(nodes) for sym, nodes in state.holders.items()} == {
                    sym: sorted(nodes) for sym, nodes in rescan.items()}
