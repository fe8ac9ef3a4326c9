"""Board validation, parity, and classical realizability."""

import json
import random

import pytest

from helpers import (
    ILL_TYPED_BOARDS,
    board_json,
    brute_force_classical_exists,
    corpus,
    random_signing,
    triangle_board,
    triangle_raw,
)
from pseudotelepathy.arrangement import (
    ArrangementError,
    DegreeError,
    Disconnected,
    DuplicateId,
    EmptyHyperedge,
    OddParity,
    Signing,
    all_plus_signing,
    check_realization,
    classical_realize,
    flip_set,
    is_classically_realizable,
    parity,
    validate,
)
from pseudotelepathy.generate import random_board
from pseudotelepathy.realization import builtin_square


class TestValidate:
    def test_magic_square_board(self):
        a, s, _ = builtin_square()
        assert len(a.vertices) == 9
        assert len(a.hyperedges) == 6
        assert a.edges_of_vertex("22") == ("c2", "r2")

    def test_triangle(self):
        a, _ = triangle_board()
        assert a.hyperedge_ids() == ("ab", "bc", "ca")
        assert all(len(a.edges_of_vertex(v)) == 2 for v in a.vertices)

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            validate({
                "vertices": ["a", "b", "c"],
                "hyperedges": [
                    {"id": "e1", "vertices": ["a", "b", "c"]},
                    {"id": "e2", "vertices": ["a", "b"]},
                    {"id": "e3", "vertices": ["a", "c"]},
                ],
            })

    def test_empty_hyperedge(self):
        with pytest.raises(EmptyHyperedge):
            validate({"vertices": [], "hyperedges": [{"id": "e", "vertices": []}]})

    @pytest.mark.filterwarnings("ignore:arrangement contains a size-1 hyperedge")
    def test_disconnected(self):
        with pytest.raises(Disconnected):
            validate({
                "vertices": ["a", "b"],
                "hyperedges": [
                    {"id": "e1", "vertices": ["a"]}, {"id": "e2", "vertices": ["a"]},
                    {"id": "e3", "vertices": ["b"]}, {"id": "e4", "vertices": ["b"]},
                ],
            })

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            validate({
                "vertices": ["a", "b"],
                "hyperedges": [
                    {"id": "e", "vertices": ["a", "b"]},
                    {"id": "e", "vertices": ["a", "b"]},
                ],
            })

    def test_unknown_keys_rejected(self):
        with pytest.raises(ArrangementError):
            validate({"vertices": [], "hyperedges": [], "extra": 1})
        with pytest.raises(ArrangementError):
            validate({"vertices": ["a", "b"], "hyperedges": [
                {"id": "e1", "vertices": ["a", "b"], "color": "red"},
                {"id": "e2", "vertices": ["a", "b"]},
            ]})

    def test_partial_signs_rejected(self):
        with pytest.raises(ArrangementError):
            validate({"vertices": ["u", "w"], "hyperedges": [
                {"id": "e1", "vertices": ["u", "w"], "sign": 1},
                {"id": "e2", "vertices": ["u", "w"]},
            ]})

    def test_non_string_vertex_ids_rejected(self):
        with pytest.raises(ArrangementError):
            validate({"vertices": [1, 2], "hyperedges": [
                {"id": "e1", "vertices": [1, 2]},
                {"id": "e2", "vertices": [1, 2]},
            ]})

    def test_degenerate_two_line_board(self):
        # identical member sets but distinct ids are allowed
        a, _ = validate({"vertices": ["u", "w"], "hyperedges": [
            {"id": "e1", "vertices": ["u", "w"]},
            {"id": "e2", "vertices": ["u", "w"]},
        ]})
        assert a.edges_of_vertex("u") == ("e1", "e2")

    def test_size_one_line_warns(self):
        with pytest.warns(UserWarning):
            validate({"vertices": ["a"], "hyperedges": [
                {"id": "e1", "vertices": ["a"]},
                {"id": "e2", "vertices": ["a"]},
            ]})

    @pytest.mark.parametrize("raw, named", ILL_TYPED_BOARDS)
    def test_wrong_types_rejected(self, raw, named):
        with pytest.raises(ArrangementError) as err:
            validate(raw)
        assert str(err.value) == named

    def test_signed_triangle_is_valid(self):
        _, s = validate(triangle_raw())
        assert s.as_dict() == {"ab": 1, "bc": 1, "ca": 1}

    def test_degree_sum_invariant(self):
        for a, _ in corpus(seed=101, count=40):
            assert sum(len(m) for _, m in a.hyperedges) == 2 * len(a.vertices)


class TestParity:
    def test_square_signing_is_odd(self):
        _, s, _ = builtin_square()
        assert parity(s) == -1

    def test_all_plus(self):
        a, _ = triangle_board()
        assert parity(all_plus_signing(a)) == 1

    def test_two_negatives_even(self):
        s = Signing.from_dict({"ab": -1, "bc": -1, "ca": 1})
        assert parity(s) == 1


class TestClassicalRealizability:
    def test_square_odd_signing_unrealizable(self):
        a, s, _ = builtin_square()
        assert not is_classically_realizable(a, s)

    def test_all_plus_realizable(self):
        for a, _ in corpus(seed=5, count=10):
            assert is_classically_realizable(a, all_plus_signing(a))

    def test_triangle_one_negative(self):
        a, _ = triangle_board()
        s = Signing.from_dict({"ab": -1, "bc": 1, "ca": 1})
        assert not is_classically_realizable(a, s)

    def test_invariant_under_equal_parity_resigning(self):
        rng = random.Random(77)
        for a, s in corpus(seed=23, count=30):
            before = is_classically_realizable(a, s)
            again = random_signing(rng, a, target_parity=parity(s))
            assert is_classically_realizable(a, again) == before

    def test_matches_brute_force_on_small_boards(self):
        rng = random.Random(31)
        checked = 0
        for a, s in corpus(seed=13, count=60):
            if len(a.vertices) > 14:
                continue
            checked += 1
            assert is_classically_realizable(a, s) == brute_force_classical_exists(a, s)
        assert checked >= 10


class TestClassicalRealize:
    def test_all_plus_gives_all_plus(self):
        a, _ = triangle_board()
        c = classical_realize(a, all_plus_signing(a))
        assert set(c.as_dict().values()) == {1}

    def test_square_one_row_one_column_flipped(self):
        a, _, _ = builtin_square()
        s = Signing.from_dict({"r1": -1, "c1": -1, "r2": 1, "r3": 1, "c2": 1, "c3": 1})
        c = classical_realize(a, s)
        assert check_realization(a, s, c)
        # expected: exactly the vertex shared by r1 and c1 is flipped
        flipped = sorted(v for v, lab in c.as_dict().items() if lab == -1)
        assert flipped == ["11"]

    def test_odd_parity_raises(self):
        a, s, _ = builtin_square()
        with pytest.raises(OddParity):
            classical_realize(a, s)

    def test_product_check_on_corpus(self):
        rng = random.Random(3)
        for a, _ in corpus(seed=7, count=50):
            s = random_signing(rng, a, target_parity=1)
            assert check_realization(a, s, classical_realize(a, s))

    def test_flip_set_changes_exactly_the_chosen_lines(self):
        rng = random.Random(5)
        for a, _ in corpus(seed=11, count=50, dense=True):
            ids = a.hyperedge_ids()
            lines = rng.sample(ids, 2 * rng.randrange(len(ids) // 2 + 1))
            flips = flip_set(a, lines)
            assert len(set(flips)) == len(flips)
            changed = {eid for eid, members in a.hyperedges
                       if len(set(members) & set(flips)) % 2}
            assert changed == set(lines)

    def test_flip_set_of_an_odd_set_raises(self):
        a, _ = triangle_board()
        with pytest.raises(ValueError, match="odd number of lines"):
            flip_set(a, ["ab"])


class TestJson:
    def test_roundtrip(self, tmp_path):
        a, s, _ = builtin_square()
        payload = board_json(a, s)
        text = json.dumps(payload)
        a2, s2 = validate(json.loads(text))
        assert a2 == a and s2 == s

    def test_unsigned_roundtrip(self):
        a, _ = triangle_board()
        a2, s2 = validate(board_json(a))
        assert a2 == a and s2 is None


class TestRandomBoard:
    def test_negative_extra_vertices_rejected(self):
        with pytest.raises(ValueError, match="-5"):
            random_board(random.Random(1), 3, -5)

    def test_zero_extra_vertices_is_a_tree(self):
        raw = random_board(random.Random(1), 3, 0)
        assert len(raw["vertices"]) == 2  # three lines, two dual edges
        with pytest.warns(UserWarning, match="size-1"):
            validate(raw)
