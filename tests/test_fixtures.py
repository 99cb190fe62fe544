"""JSON fixture round-trips and validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from monogamy.errors import DimensionError, DomainError, ValidationError
from monogamy.fixtures import (game_from_json, game_to_json, load_fixture,
                               matrix_from_json, matrix_to_json,
                               scenario_from_json, scenario_to_json,
                               strategy_from_json, strategy_to_json)
from monogamy.games import bb84_game, game_power, overlap, product_strategy, winning_probability
from monogamy.posver import TimingScenario
from monogamy.seesaw import bb84_optimal_unentangled_strategy


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    doc = matrix_to_json(m)
    assert doc["rows"] == 3 and doc["cols"] == 2
    assert len(doc["re"]) == 6
    np.testing.assert_allclose(matrix_from_json(doc), m, atol=0)


def test_a_real_matrix_is_written_without_im(rng):
    m = rng.standard_normal((3, 2))
    doc = json.loads(json.dumps(matrix_to_json(m)))
    assert sorted(doc) == ["cols", "re", "rows"]
    back = matrix_from_json(doc)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, m)
    # a complex-typed matrix with no imaginary part is written the same way
    assert matrix_to_json(m.astype(complex)) == matrix_to_json(m)


def test_a_document_with_im_loads_as_before():
    # a real game as documents carried it when every matrix had "im": it
    # loads with the same entries, and is stored real
    doc = game_to_json(bb84_game())
    for elems in doc["povms"].values():
        for e in elems:
            e["im"] = [0.0] * len(e["re"])
    m = matrix_from_json(doc["povms"]["1"][0])
    assert m.dtype == np.complex128
    np.testing.assert_array_equal(m, bb84_game().povms["1"][0])
    back = game_from_json(doc)
    assert back.elements.dtype == np.float64
    np.testing.assert_array_equal(back.elements, bb84_game().elements)


def test_matrix_rejects_entry_count_mismatch():
    with pytest.raises(DimensionError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0]})
    with pytest.raises(DimensionError, match=r"got re=3$"):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3]})
    with pytest.raises(DimensionError, match="re=4, im=3"):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3, 4], "im": [0, 0, 0]})


def test_matrix_rejects_malformed_document():
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": 2, "cols": 2})


def test_game_round_trip():
    g = game_power(bb84_game(), 2)
    doc = game_to_json(g)
    back = game_from_json(json.loads(json.dumps(doc)))
    assert back.thetas == g.thetas
    assert back.outcomes == g.outcomes
    assert back.rounds == g.rounds
    for theta in g.thetas:
        for a, b in zip(back.povms[theta], g.povms[theta]):
            np.testing.assert_allclose(a, b, atol=0)


def test_game_round_trip_keeps_the_round_count():
    g = game_power(bb84_game(), 3)
    doc = json.loads(json.dumps(game_to_json(g)))
    assert doc["rounds"] == 3 and sorted(doc["povms"]) == ["0", "1"]
    back = game_from_json(doc)
    assert (back.dim_a, back.rounds, back.alice_dim) == (2, 3, 8)
    np.testing.assert_array_equal(back.elements, g.elements)
    assert overlap(back) == overlap(g) == 0.5**3
    # a document without "rounds" is one round
    del doc["rounds"]
    assert game_from_json(doc).rounds == 1


def test_game_document_with_theta_parts_is_rejected():
    # read as one round, it would silently change the game's overlap
    doc = game_to_json(game_power(bb84_game(), 2))
    del doc["rounds"]
    doc["theta_parts"] = {"00": ["0", "0"], "01": ["0", "1"],
                          "10": ["1", "0"], "11": ["1", "1"]}
    with pytest.raises(ValidationError, match="rounds"):
        game_from_json(doc)


def test_strategy_round_trip():
    s = bb84_optimal_unentangled_strategy()
    doc = json.loads(json.dumps(strategy_to_json(s)))
    assert "rounds" not in doc
    back = strategy_from_json(doc)
    assert back.dims == s.dims and back.rounds == 1
    np.testing.assert_allclose(back.rho_abc, s.rho_abc, atol=0)


def test_product_strategy_round_trip_keeps_the_round_count():
    s = product_strategy(bb84_optimal_unentangled_strategy(), 3)
    doc = json.loads(json.dumps(strategy_to_json(s)))
    assert doc["rounds"] == 3 and doc["rho_abc"]["rows"] == 2
    back = strategy_from_json(doc)
    assert (back.dims, back.rounds, back.thetas) == (s.dims, 3, s.thetas)
    g3 = game_power(bb84_game(), 3)
    assert winning_probability(g3, back) == winning_probability(g3, s)
    doc["rounds"] = 1.5
    with pytest.raises(DomainError):
        strategy_from_json(doc)


def test_scenario_round_trip():
    sc = TimingScenario(v0=-1.0, v1=3.0, pos=0.5)
    back = scenario_from_json(scenario_to_json(sc))
    assert back == sc


def test_load_fixture_detects_kind(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(bb84_game())))
    kind, game = load_fixture(path)
    assert kind == "game"
    assert game.dim_a == 2

    bare = tmp_path / "matrix.json"
    bare.write_text(json.dumps(matrix_to_json(np.eye(2))))
    kind, mat = load_fixture(bare)
    assert kind == "matrix"
    np.testing.assert_array_equal(mat, np.eye(2))


def test_load_fixture_rejects_bad_documents(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValidationError):
        load_fixture(bad_json)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValidationError):
        load_fixture(unknown)

    # structurally fine but physically invalid: POVM does not sum to identity
    doc = game_to_json(bb84_game())
    doc["povms"]["0"] = [doc["povms"]["0"][0], doc["povms"]["0"][0]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_fixture(broken)


def _documents():
    """One valid document of each structured kind."""
    from monogamy.fixtures import _povms_to_json
    g = bb84_game()
    return {
        "game": game_to_json(g),
        "strategy": strategy_to_json(bb84_optimal_unentangled_strategy()),
        "scenario": scenario_to_json(TimingScenario(v0=-1.0, v1=3.0, pos=0.5)),
        "ur_instance": {"kind": "ur_instance", "dims": [2, 1, 1],
                        "rho_abc": matrix_to_json(np.eye(2) / 2),
                        "f0": _povms_to_json({"0": list(g.elements[0])})["0"],
                        "f1": _povms_to_json({"1": list(g.elements[1])})["1"]},
    }


@pytest.mark.parametrize("kind, field, value, expected", [
    ("game", "thetas", 5, "an array"), ("game", "outcomes", None, "an array"),
    ("game", "povms", 5, "an object"), ("game", "povms", [], "an object"),
    ("strategy", "dims", 2.5, "an array"), ("strategy", "bob_povms", "x", "an object"),
    ("strategy", "charlie_povms", True, "an object"),
    ("scenario", "v0", [1.0], "a number"), ("scenario", "pos", True, "a number"),
    ("scenario", "v1", "3", "a number"),
    ("ur_instance", "dims", 5, "an array"), ("ur_instance", "f0", {}, "an array")])
def test_a_field_of_the_wrong_json_type_is_refused_by_name(tmp_path, kind, field, value,
                                                           expected):
    docs = _documents()
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(docs[kind]))
    assert load_fixture(path)[0] == kind
    path.write_text(json.dumps({**docs[kind], field: value}))
    with pytest.raises(ValidationError, match=f"{kind} field '{field}' must be {expected}"):
        load_fixture(path)


def test_a_basis_of_a_povm_map_that_is_not_an_array_is_refused_by_name(tmp_path):
    doc = game_to_json(bb84_game())
    doc["povms"]["1"] = 5
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="game povms field '1' must be an array"):
        load_fixture(path)
