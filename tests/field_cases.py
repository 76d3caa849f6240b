"""Cases for the field checks of the settings dataclasses.

The values each field must refuse, with the whole message that refuses
it, and the last values inside each bound, all made from the field
annotations and a bounds table written as README states the rules.
"""
from __future__ import annotations

import math
from dataclasses import fields
from typing import Literal, Optional, get_args, get_origin, get_type_hints

import pytest

# Two values of another type for each annotation a settings field has, and its name.
WRONG_TYPED = {int: (1.0, False), float: (False, "1.0"), bool: (0, None),
               Optional[float]: (True, "1.0")}
TYPE_WORDS = {int: "int", float: "float", bool: "bool", Optional[float]: "float or NoneType"}


def type_refusal(cls, name: str, value) -> str:
    """The whole message that refuses ``value`` for field ``name`` of ``cls`` by its type."""
    hint = get_type_hints(cls)[name]
    if get_origin(hint) is Literal:
        return f"{name} must be one of {' or '.join(map(repr, get_args(hint)))}, got {value!r}"
    return f"{name} must be of type {TYPE_WORDS[hint]}, got {value!r}"


def _step(x, toward: float, is_int: bool):
    """The next value of an int or float field after ``x`` toward ``toward``."""
    return x + (1 if toward > x else -1) if is_int else math.nextafter(x, toward)


def refused(cls, bounds: dict[str, str]) -> list[tuple[str, object, str]]:
    """(field, value, whole message) for values dataclass ``cls`` must refuse: two of another
    type for each field, both infinities and NaN for a float field (NaN is taken where it
    is the default, an unset marker), and the first value past each end of a field's entry
    in ``bounds``: ">= n", "> n" or "[a, b]". A field of an annotation with no entry in
    ``WRONG_TYPED`` has no rule this knows of, and raises KeyError."""
    hints = get_type_hints(cls)
    cases = [(name, value, type_refusal(cls, name, value)) for name, hint in hints.items()
             for value in (("nope", None) if get_origin(hint) is Literal else WRONG_TYPED[hint])]
    for f in fields(cls):
        if float in (hints[f.name], *get_args(hints[f.name])):
            nan_ok = isinstance(f.default, float) and math.isnan(f.default)
            cases += [(f.name, value, f"{f.name} must be finite, got {value}")
                      for value in (math.inf, -math.inf) + (() if nan_ok else (math.nan,))]
    for name, bound in bounds.items():
        is_int, message = hints[name] is int, f"{name} must be {bound}"
        if bound[0] == "[":
            low, high = map(float, bound[1:-1].split(","))
            message = f"{name} must lie in {bound}"
            cases += [(name, _step(low, -math.inf, is_int), message),
                      (name, _step(high, math.inf, is_int), message)]
        else:
            op, edge = bound.split()
            edge = int(edge) if is_int else float(edge)
            cases.append((name, edge if op == ">" else _step(edge, -math.inf, is_int), message))
    return cases


def bound_edges(cls, bounds: dict[str, str]) -> list[tuple[str, object]]:
    """(field, value) for the last value inside each end of each entry of ``bounds``."""
    hints, edges = get_type_hints(cls), []
    for name, bound in bounds.items():
        if bound[0] == "[":
            edges += [(name, float(end)) for end in bound[1:-1].split(",")]
        else:
            op, edge = bound.split()
            edge = int(edge) if hints[name] is int else float(edge)
            edges.append((name, _step(edge, math.inf, hints[name] is int) if op == ">" else edge))
    return edges


def as_params(cases) -> list:
    """``cases`` as pytest params with the id pytest gives a (field, value) pair."""
    return [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in cases]
