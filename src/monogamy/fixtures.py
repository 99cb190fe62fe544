"""JSON fixture formats for matrices, games, strategies and scenarios.

A matrix is stored row-major as

    {"rows": r, "cols": c, "re": [...], "im": [...]}

where "im" is left out when no entry has an imaginary part, and a missing
"im" reads as zeros: a real matrix loads as float64, one with "im" as
complex128.

and the structured kinds wrap it:

    game        {"kind": "game", "dim_a", "thetas", "outcomes", "povms", "rounds"}
    strategy    {"kind": "strategy", "dims", "rho_abc", "bob_povms", "charlie_povms", "rounds"}
    scenario    {"kind": "scenario", "v0", "v1", "pos"}
    ur_instance {"kind": "ur_instance", "dims", "rho_abc", "f0", "f1"}

A game or strategy holds one round's arrays and the optional round count
(default 1; written for a strategy only above 1); "theta_parts" is refused.

Loading checks each field's JSON type, then funnels everything through the
package constructors, so structural validation and the physical invariants
(POVM completeness, density checks) are enforced on the way in.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import DimensionError, ValidationError, whole
from .games import MonogamyGame, Strategy, product_strategy
from .linalg import dimensions, scalar_type


def matrix_to_json(m) -> dict[str, Any]:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    doc = {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
           "re": a.real.astype(float).ravel().tolist()}
    if scalar_type(a) is complex:
        doc["im"] = a.imag.ravel().tolist()
    return doc


def matrix_from_json(doc: Mapping[str, Any]) -> np.ndarray:
    try:
        rows, cols = (whole(doc[key], key, error=DimensionError) for key in ("rows", "cols"))
        re = np.asarray(doc["re"], dtype=float)
        parts = {"re": re}
        if "im" in doc:
            parts["im"] = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed matrix document: {exc}")
    if any(part.size != rows * cols for part in parts.values()):
        raise DimensionError(f"entry count mismatch: expected {rows * cols}, got "
                             + ", ".join(f"{key}={part.size}" for key, part in parts.items()))
    return (re + 1j * parts["im"] if "im" in parts else re).reshape(rows, cols)


# the JSON name of each type a parsed document holds
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _field(doc: Mapping[str, Any], name: str, what: str, expected: type):
    """doc[name], refused unless it is a JSON value of the `expected` type:
    dict (an object), list (an array) or float (a number, whole or not)."""
    value = doc[name]
    if expected is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, expected)
    if not ok:
        raise ValidationError(f"{what} field {name!r} must be {_JSON_TYPES[expected]}, "
                              f"not {_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _povms_to_json(povms) -> dict[str, list]:
    return {theta: [matrix_to_json(e) for e in elems] for theta, elems in povms.items()}


def _povms_from_json(doc: Mapping[str, Any], name: str, what: str) -> dict[str, list[np.ndarray]]:
    povms = _field(doc, name, what, dict)
    return {str(theta): [matrix_from_json(e) for e in _field(povms, theta, f"{what} {name}", list)]
            for theta in povms}


def game_to_json(game: MonogamyGame) -> dict[str, Any]:
    return {"kind": "game", "dim_a": game.dim_a, "thetas": list(game.thetas),
            "outcomes": list(game.outcomes), "povms": _povms_to_json(game.povms),
            "rounds": game.rounds}


def game_from_json(doc: Mapping[str, Any]) -> MonogamyGame:
    if "theta_parts" in doc:  # read as one round, its overlap would change
        raise ValidationError('game documents give a single-round family and '
                              'its "rounds"; "theta_parts" is not read')
    try:
        return MonogamyGame(dim_a=doc["dim_a"],
                            thetas=tuple(_field(doc, "thetas", "game", list)),
                            outcomes=tuple(_field(doc, "outcomes", "game", list)),
                            povms=_povms_from_json(doc, "povms", "game"),
                            rounds=doc.get("rounds", 1))
    except KeyError as exc:
        raise ValidationError(f"game document missing field {exc}")


def strategy_to_json(strategy: Strategy) -> dict[str, Any]:
    return {"kind": "strategy", "dims": list(strategy.dims),
            "rho_abc": matrix_to_json(strategy.rho_abc),
            "bob_povms": _povms_to_json(strategy.bob_povms),
            "charlie_povms": _povms_to_json(strategy.charlie_povms),
            **({"rounds": strategy.rounds} if strategy.rounds > 1 else {})}


def strategy_from_json(doc: Mapping[str, Any]) -> Strategy:
    try:
        one = Strategy(rho_abc=matrix_from_json(doc["rho_abc"]),
                       dims=_field(doc, "dims", "strategy", list),
                       bob_povms=_povms_from_json(doc, "bob_povms", "strategy"),
                       charlie_povms=_povms_from_json(doc, "charlie_povms", "strategy"))
        return product_strategy(one, doc.get("rounds", 1))
    except KeyError as exc:
        raise ValidationError(f"strategy document missing field {exc}")


def scenario_to_json(scenario) -> dict[str, Any]:
    return {"kind": "scenario", "v0": scenario.v0, "v1": scenario.v1,
            "pos": scenario.pos}


def scenario_from_json(doc: Mapping[str, Any]):
    """The :class:`~monogamy.posver.TimingScenario` a scenario document
    describes; posver is loaded only here, by the commands that read one."""
    from .posver import TimingScenario

    try:
        return TimingScenario(*(float(_field(doc, name, "scenario", float))
                                for name in ("v0", "v1", "pos")))
    except KeyError as exc:
        raise ValidationError(f"scenario document missing field {exc}")


def ur_instance_from_json(doc: Mapping[str, Any]):
    """(rho_abc, dims, f0, f1) of an uncertainty-relation check instance."""
    try:
        rho = matrix_from_json(doc["rho_abc"])
        dims = dimensions(_field(doc, "dims", "ur_instance", list), 3)
        f0, f1 = ([matrix_from_json(e) for e in _field(doc, name, "ur_instance", list)]
                  for name in ("f0", "f1"))
    except KeyError as exc:
        raise ValidationError(f"ur_instance document missing field {exc}")
    return rho, dims, f0, f1


_LOADERS = {
    "game": game_from_json,
    "strategy": strategy_from_json,
    "scenario": scenario_from_json,
    "ur_instance": ur_instance_from_json,
    "matrix": matrix_from_json,
}


def load_fixture(path) -> tuple[str, Any]:
    """Parse a fixture file and build the object it describes.

    The kind comes from the "kind" field; a bare matrix document is accepted
    without one.  Raises ValidationError (or a subclass of ValueError) when
    the file cannot be read, or the document is malformed or violates an
    invariant.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read the file ({exc.strerror or exc})")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object at top level")
    kind = doc.get("kind", "matrix" if "rows" in doc else None)
    if kind not in _LOADERS:
        raise ValidationError(f"{path}: unknown fixture kind {kind!r}; expected "
                              f"one of {sorted(_LOADERS)}")
    return kind, _LOADERS[kind](doc)
