"""Contraction traces: generation, adversarial checking, splice correctness."""

import random

import pytest

from helpers import (
    WordListState,
    corpus,
    cyclic_equal,
    graph_from_edges,
    grid_edges,
    is_identity,
    oracle_check_trace,
    oracle_generate_trace,
    random_signing,
    replay_outcome,
    restart_trace_steps,
    start_words,
    triangle_board,
)
from pseudotelepathy import certificate
from pseudotelepathy.arrangement import parity
from pseudotelepathy.certificate import (
    CANCEL,
    CONTRACT,
    ContractionTrace,
    EmbeddingInvalid,
    IllegalStep,
    _ReplayState,
    check_trace,
    generate_trace,
)
from pseudotelepathy.intersection import (
    CoverageError,
    IntersectionGraph,
    RotationSystem,
    build,
    trace_faces,
)
from pseudotelepathy.planarity import test_planarity as decide_planarity


class NamedReplayState(_ReplayState):
    """The replay state with a name beside each word, the least original
    name of its merged set, as the list oracle names its words."""

    def __init__(self, r: RotationSystem, signs: dict[str, int]):
        super().__init__(r, signs)
        self.name: list[str | None] = list(r.as_dict())

    def contract(self, edge: str, index: int) -> None:
        ends = [self.node[k] for k in (self.first.get(edge), self.second.get(edge))
                if k is not None]
        super().contract(edge, index)
        u, v = ends
        keep, gone = (u, v) if u in self.alive else (v, u)
        self.name[keep], self.name[gone] = min(self.name[u], self.name[v]), None


# The replay state and its list oracle, each built from (rotation, signs).
STATES = (NamedReplayState, lambda r, signs: WordListState(start_words(r), signs))


def cyclic(word) -> list[str]:
    """A cyclic word as its least rotation, so that two words are equal as
    lists exactly when they are equal as cyclic words."""
    return min((list(word[i:]) + list(word[:i]) for i in range(len(word))), default=[])


def words_of(state) -> dict[str, list[str]]:
    """Each surviving node's word, walked from any of its occurrences and
    given as a cyclic word (``cyclic``)."""
    if isinstance(state, WordListState):
        return {n: cyclic(w) for n, w in state.words.items()}
    sym_at = {k: sym for held in (state.first, state.second) for sym, k in held.items()}
    words = {}
    for n in state.alive:
        k, word = next((k for k in sym_at if state.node[k] == n), None), []
        for _ in range(state.length[n]):
            word.append(sym_at[k])
            k = state.succ[k]
        words[state.name[n]] = cyclic(word)
    return words


def signs_of(state) -> dict[str, int]:
    if isinstance(state, WordListState):
        return dict(state.signs)
    return {state.name[n]: state.sign[n] for n in state.alive}


def holders_of(state) -> dict[str, list[str]]:
    """The sorted names of the nodes holding each symbol's occurrences."""
    if isinstance(state, WordListState):
        return {sym: sorted(nodes) for sym, nodes in state.holders.items()}
    return {sym: sorted(state.name[state.node[k]] for k in (k1, state.second[sym]))
            for sym, k1 in state.first.items()}


def rotation_of(words: dict[str, list[str]]) -> RotationSystem:
    """A rotation system whose start words are ``words``."""
    return RotationSystem.from_dict({n: [(sym, 0) for sym in w] for n, w in words.items()})


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

    def test_failures_keep_their_types_and_words(self):
        from helpers import complete_graph_edges

        k4 = graph_from_edges(complete_graph_edges(4))
        r = decide_planarity(k4).embedding
        ones = dict.fromkeys(k4.nodes, 1)
        rot = {n: list(ds) for n, ds in r.as_dict().items()}
        twisted = {**rot, "n1": [rot["n1"][1], rot["n1"][0]] + rot["n1"][2:]}
        # two edges under one id: the darts cover the graph, yet p occurs 4 times
        twin = IntersectionGraph(("u", "v"), (("p", "u", "v"), ("p", "u", "v")))
        twin_r = RotationSystem.from_dict({"u": [("p", 0)] * 2, "v": [("p", 1)] * 2})
        for g, bad_r, signs, kind, words in (
                (k4, RotationSystem.from_dict(twisted), ones, EmbeddingInvalid,
                 "rotation system is not planar: its edges cross once the spanning "
                 "tree is contracted"),
                (IntersectionGraph((), ()), RotationSystem.from_dict({}), {},
                 EmbeddingInvalid, "graph is empty or not connected"),
                (k4, RotationSystem.from_dict({**rot, "n1": rot["n1"][1:]}), ones,
                 CoverageError, "darts at 'n1' do not match incidences"),
                (k4, r, {**ones, "zz": 1}, ValueError,
                 "signs must cover exactly the graph nodes"),
                (twin, twin_r, {"u": 1, "v": -1}, IllegalStep,
                 "step -1: some symbol does not occur exactly twice")):
            with pytest.raises(kind) as err:
                generate_trace(g, bad_r, signs)
            assert type(err.value) is kind and str(err.value) == words

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

    def test_generation_replays_nothing(self, monkeypatch):
        """The tree walk alone gives the oracle's trace on the differential
        corpus: generation builds no replay state."""
        def refuse(*args):
            raise AssertionError("generate_trace built a replay state")

        monkeypatch.setattr(certificate, "_ReplayState", refuse)
        planar = 0
        for g, signs in TestDifferential().instances():
            res = decide_planarity(g)
            if res.is_planar:
                planar += 1
                assert (generate_trace(g, res.embedding, signs)
                        == oracle_generate_trace(g, res.embedding, signs))
        assert planar >= 300

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
        trace = ContractionTrace(steps=((CONTRACT, "p"), (CANCEL, "q")), final_sign=1)
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
        trace = ContractionTrace(((CONTRACT, "p"), (CANCEL, "q"), (CANCEL, "s")), final_sign=1)
        with pytest.raises(IllegalStep) as err:
            check_trace(g, twisted, signs, trace)
        assert err.value.index == 1

        # the same trace replays from the planar rotation of the same graph
        planar = RotationSystem.from_dict({
            "u": [("p", 0), ("q", 0), ("s", 0)],
            "v": [("s", 1), ("q", 1), ("p", 1)],
        })
        assert check_trace(g, planar, signs, trace) == 1

    def test_illegal_cancel_detected_by_state(self):
        for make in STATES:
            state = make(rotation_of({"n": ["a", "b", "a", "b"]}), {"n": 1})
            with pytest.raises(IllegalStep):
                state.cancel("a", 0)

    def test_contract_missing_edge(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(((CONTRACT, "nope"),) + trace.steps, trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_contract_self_loop_rejected(self):
        g, r, signs, trace = self._trace()
        # after the two contractions, the last symbol is a loop: contracting
        # it instead of cancelling must be illegal
        steps = trace.steps[:2] + ((CONTRACT, trace.steps[2][1]),)
        bad = ContractionTrace(steps, trace.final_sign)
        with pytest.raises(IllegalStep) as err:
            check_trace(g, r, signs, bad)
        assert err.value.index == 2

    def test_unfinished_replay_rejected(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(trace.steps[:-1], trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_wrong_final_sign_rejected(self):
        g, r, signs, trace = self._trace()
        bad = ContractionTrace(trace.steps, -trace.final_sign)
        with pytest.raises(IllegalStep):
            check_trace(g, r, signs, bad)

    def test_signs_must_cover_exactly_the_nodes(self):
        g, r, signs, trace = self._trace()
        first = min(signs)
        for bad_signs, named in (
                ({n: v for n, v in signs.items() if n != first}, f"missing ['{first}']"),
                ({**signs, "zz": 1}, "unknown ['zz']")):
            with pytest.raises(IllegalStep) as err:
                check_trace(g, r, bad_signs, trace)
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
            # a third word holds the other occurrence of every other symbol
            rest = wu[:pu] + wu[pu + 1:] + wv[:pv] + wv[pv + 1:]
            rng.shuffle(rest)
            words = {"A": wu, "B": wv, "C": rest}
            iu, iv = wu.index(edge), wv.index(edge)
            rot_u = wu[iu + 1:] + wu[:iu]      # u's word ending just before e
            rot_v = wv[iv + 1:] + wv[:iv]      # v's word starting just after e
            for make in STATES:
                state = make(rotation_of(words), {"A": 1, "B": -1, "C": 1})
                state.contract(edge, 0)
                assert cyclic_equal(words_of(state)["A"], rot_u + rot_v)
                assert signs_of(state) == {"A": -1, "C": 1}

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

        def greedy_reducible(make, word):
            state = make(rotation_of({"n": word}), {"n": 1})
            while w := words_of(state)["n"]:
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
                for make in STATES:
                    assert greedy_reducible(make, word) == brute_reducible(word)

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
            signs = signs_of(state)
            for node, word in words_of(state).items():
                prod = product_of([ops[sym] for sym in word], n_qubits=n)
                want = 0 if signs[node] == 1 else 2
                assert is_identity(prod) and prod.phase_exp == want

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
                edges = list(g.endpoints().items())
                rng.shuffle(edges)
                for make in STATES:
                    state = make(rotation_of(words), {eid: s.sign(eid) for eid in g.nodes})
                    check_invariant(state, ops, r.n_qubits)
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
            for make in STATES:
                state = make(res.embedding, signs)
                alive = set(g.endpoints())
                for idx, (op, arg) in enumerate(trace.steps):
                    if op == CONTRACT:
                        state.contract(arg, idx)
                    else:
                        state.cancel(arg, idx)
                    alive.discard(arg)
                    counts = {}
                    rescan = {}
                    for node, w in words_of(state).items():
                        for sym in w:
                            counts[sym] = counts.get(sym, 0) + 1
                            rescan.setdefault(sym, []).append(node)
                    assert set(counts) == alive
                    assert all(c == 2 for c in counts.values())
                    assert holders_of(state) == {
                        sym: sorted(nodes) for sym, nodes in rescan.items()}
                    if isinstance(state, _ReplayState):
                        assert_links_consistent(state)


def assert_links_consistent(state: _ReplayState) -> None:
    """Every live word is a ring of its own occurrences: succ and pred are
    inverse, and walked from any of its occurrences the ring closes after
    ``length`` steps, every occurrence on it carrying the word's id."""
    live = list(state.first.values()) + list(state.second.values())
    assert len(set(live)) == len(live) == 2 * len(state.first) == 2 * len(state.second)
    held: dict[int, set[int]] = {}
    for k in live:
        held.setdefault(state.node[k], set()).add(k)
    assert set(held) <= state.alive
    for n in state.alive:
        ring = held.get(n, set())
        assert len(ring) == state.length[n]
        for k in ring:
            walked = set()
            for _ in range(state.length[n]):
                assert state.node[k] == n and state.pred[state.succ[k]] == k
                walked.add(k)
                k = state.succ[k]
            assert walked == ring and k in ring


def replay_both(words, signs, steps):
    """Replay ``steps`` on the replay state and on its list oracle from the
    same start words, requiring equal cyclic words, signs, holders and
    ``IllegalStep`` after every step; returns the replay state."""
    states = [make(rotation_of(words), signs) for make in STATES]
    for index, (op, arg) in enumerate(steps):
        outcomes = [replay_outcome(getattr(state, op), arg, index) for state in states]
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "illegal":
            break
        assert words_of(states[0]) == words_of(states[1])
        assert signs_of(states[0]) == signs_of(states[1])
        assert holders_of(states[0]) == holders_of(states[1])
        assert_links_consistent(states[0])
    return states[0]


class TestReplayBranches:
    """Splice and cancel cases that generated traces on the benchmark's
    boards never reach, each against the list oracle."""

    def test_survivor_with_the_shorter_word_is_relabelled(self):
        words = {"a": ["p", "e"], "b": ["q", "q", "e", "p"]}
        state = replay_both(words, {"a": -1, "b": 1}, [(CONTRACT, "e")])
        # a (the smaller name) survives, but its record moved to b's id
        assert state.name == [None, "a"] and state.alive == {1}
        assert words_of(state) == {"a": cyclic(["p", "p", "q", "q"])}
        assert set(state.node[k] for k in (state.first | state.second).values()) == {1}
        state = replay_both(words, {"a": -1, "b": 1},
                            [(CONTRACT, "e"), (CANCEL, "p"), (CANCEL, "q")])
        assert state.finished() and state.final_sign() == -1

    def test_contract_at_the_survivors_start(self):
        words = {"a": ["e", "p", "q"], "b": ["r", "e", "s"], "c": ["s", "q", "p", "r"]}
        state = replay_both(words, {"a": 1, "b": 1, "c": 1}, [(CONTRACT, "e")])
        assert words_of(state)["a"] == cyclic(["s", "r", "p", "q"])

    @pytest.mark.parametrize("words, merged", [
        ({"a": ["p", "e", "q"], "b": ["e"], "c": ["q", "p"]}, ["p", "q"]),
        ({"a": ["e", "p", "q"], "b": ["e"], "c": ["q", "p"]}, ["p", "q"]),
    ], ids=["inside", "at-start"])
    def test_v_word_is_the_edge_alone(self, words, merged):
        state = replay_both(words, dict.fromkeys(words, 1), [(CONTRACT, "e")])
        assert words_of(state)["a"] == cyclic(merged)

    def test_u_word_is_the_edge_alone(self):
        words = {"a": ["e"], "b": ["p", "e", "q"], "c": ["q", "p"]}
        state = replay_both(words, dict.fromkeys(words, 1), [(CONTRACT, "e")])
        assert words_of(state) == {"a": cyclic(["q", "p"]), "c": cyclic(["q", "p"])}

    def test_both_words_are_the_edge_alone(self):
        state = replay_both({"a": ["e"], "b": ["e"]}, {"a": 1, "b": -1}, [(CONTRACT, "e")])
        assert state.finished() and state.final_sign() == -1

    @pytest.mark.parametrize("word, symbol, rest", [
        (["p", "p", "q", "q"], "p", ["q", "q"]),
        (["p", "q", "q", "p"], "p", ["q", "q"]),
        (["q", "p", "p", "q"], "p", ["q", "q"]),
        (["p", "p"], "p", []),
    ], ids=["start-first", "start-second", "inside", "whole-word"])
    def test_cancel_moves_the_start_past_the_pair(self, word, symbol, rest):
        state = replay_both({"n": word}, {"n": 1}, [(CANCEL, symbol)])
        assert words_of(state) == {"n": cyclic(rest)}

    def test_illegal_steps_leave_the_same_reasons(self):
        words = {"a": ["e", "p", "q", "p"], "b": ["e", "f", "f", "q"]}
        for steps in ([(CANCEL, "p")], [(CANCEL, "e")], [(CANCEL, "ghost")],
                      [(CONTRACT, "ghost")], [(CONTRACT, "e"), (CONTRACT, "q")],
                      [(CONTRACT, "e"), (CANCEL, "e")]):
            replay_both(words, {"a": 1, "b": 1}, steps)


def shuffled_ids(edges: dict[str, tuple[str, str]], rng: random.Random):
    """The same graph with its edge and node ids permuted."""
    nodes = sorted({n for pair in edges.values() for n in pair})
    node_of = dict(zip(nodes, rng.sample(nodes, len(nodes))))
    edge_of = dict(zip(edges, rng.sample(list(edges), len(edges))))
    return {edge_of[e]: (node_of[u], node_of[v]) for e, (u, v) in edges.items()}


def perturbations(trace: ContractionTrace, symbols: list[str], rng: random.Random):
    """Seeded edits of a trace: swap two steps, delete one, insert one,
    flip one step's op, and shuffle all steps, a few of each."""
    steps = list(trace.steps)
    if not steps:
        return
    flip = {CONTRACT: CANCEL, CANCEL: CONTRACT}
    for _ in range(3):
        i, j = rng.randrange(len(steps)), rng.randrange(len(steps))
        swapped = list(steps)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield swapped
        yield steps[:i] + steps[i + 1:]
        fresh = (rng.choice((CONTRACT, CANCEL)), rng.choice(symbols))
        step = rng.choice([rng.choice(steps), fresh])
        yield steps[:i] + [step] + steps[i:]
        yield steps[:i] + [(flip[steps[i][0]], steps[i][1])] + steps[i + 1:]
        yield rng.sample(steps, len(steps))


class TestDifferential:
    """The linked replay against the list oracle: generated steps and final
    signs, and every check outcome (sign, or ``IllegalStep`` index and
    reason), on corpora, grids in both id orders and edited traces."""

    def instances(self):
        for a, s in corpus(seed=83, count=300) + corpus(seed=59, count=60, dense=True):
            g = build(a)
            yield g, s.as_dict()
        for n in range(4, 17):
            rng = random.Random(n)
            for edges in (grid_edges(n), shuffled_ids(grid_edges(n), rng)):
                g = graph_from_edges(edges)
                yield g, {node: rng.choice((1, -1)) for node in g.nodes}

    def test_generation_and_checks_match_the_oracle(self):
        planar = checked = 0
        for g, signs in self.instances():
            res = decide_planarity(g)
            if not res.is_planar:
                continue
            planar += 1
            r = res.embedding
            trace = generate_trace(g, r, signs)
            assert trace == oracle_generate_trace(g, r, signs)
            rng = random.Random(planar)
            symbols = [eid for eid, _, _ in g.edges] + ["ghost"]
            edited = [bad.steps for bad in _mutations(trace)]
            edited += perturbations(trace, symbols, rng)
            for steps in [trace.steps] + edited:
                for final in (trace.final_sign, -trace.final_sign):
                    t = ContractionTrace(tuple(steps), final)
                    assert (replay_outcome(check_trace, g, r, signs, t)
                            == replay_outcome(oracle_check_trace, g, r, signs, t))
                    checked += 1
        assert planar >= 300 and checked >= 10_000

    def test_start_checks_match_the_oracle(self):
        a, _ = triangle_board()
        g, r, signs = planar_instance(a)
        trace = generate_trace(g, r, signs)
        rot = {n: list(ds) for n, ds in r.as_dict().items()}
        first = min(rot)
        once = {**rot, first: rot[first][1:] + [("ghost", 0)]}
        thrice = {**rot, first: rot[first] + [rot[first][0]]}
        # two edges under one id: the darts cover the graph, yet p occurs 4 times
        twin = IntersectionGraph(("u", "v"), (("p", "u", "v"), ("p", "u", "v")))
        twin_r = RotationSystem.from_dict({"u": [("p", 0)] * 2, "v": [("p", 1)] * 2})
        for g, bad_r, bad_signs in ((g, r, {**signs, "zz": 1}),
                                    (g, RotationSystem.from_dict(once), signs),
                                    (g, RotationSystem.from_dict(thrice), signs),
                                    (twin, twin_r, {"u": 1, "v": 1})):
            outcome = replay_outcome(check_trace, g, bad_r, bad_signs, trace)
            assert outcome[:2] == ("illegal", -1)
            assert outcome == replay_outcome(oracle_check_trace, g, bad_r, bad_signs, trace)
