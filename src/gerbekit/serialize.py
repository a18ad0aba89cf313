"""Stable on-disk formats: cochain files and cover / decomposition ids.

Cover ids: "circle:N:OVERLAP", "torus:N:M:OVERLAP", or
"product:ID|ID" for a product of two of the former.
Decomposition ids: "circle:N" (dual segments on S^1) or "hex:N"
(hexagonal dual cells on T^2).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .cochain import DiffCochain
from .covers import (Cover, DualCellDecomposition, make_circle_cover,
                     make_circle_decomposition, make_torus_cover,
                     make_torus_hex_decomposition, product_cover)
from .trigform import TrigForm


def cover_from_id(cover_id: str) -> Cover:
    """The cover an id names; the id is kept as its `cover_id`."""
    if cover_id.startswith("product:"):
        body = cover_id[len("product:"):]
        left, right = body.split("|")
        cover = product_cover(cover_from_id(left), cover_from_id(right))
    else:
        parts = cover_id.split(":")
        if parts[0] == "circle" and len(parts) == 3:
            cover = make_circle_cover(int(parts[1]), float(parts[2]))
        elif parts[0] == "torus" and len(parts) == 4:
            cover = make_torus_cover(int(parts[1]), int(parts[2]),
                                     float(parts[3]))
            for factor, n in zip(cover.factor_covers, parts[1:3]):
                factor.cover_id = f"circle:{n}:{parts[3]}"
        else:
            raise ValueError(f"unknown cover id: {cover_id}")
    cover.cover_id = cover_id
    return cover


def decomposition_from_id(dec_id: str) -> DualCellDecomposition:
    parts = dec_id.split(":")
    if parts[0] == "circle" and len(parts) == 2:
        return make_circle_decomposition(int(parts[1]))
    if parts[0] == "hex" and len(parts) == 2:
        return make_torus_hex_decomposition(int(parts[1]))
    raise ValueError(f"unknown decomposition id: {dec_id}")


def _form_record(f: TrigForm) -> Dict:
    return {"ambient_dim": f.ambient_dim, "degree": f.degree,
            "terms": f.to_records()}


def _form_from_record(rec: Dict) -> TrigForm:
    return TrigForm.from_records(rec["ambient_dim"], rec["degree"],
                                 rec["terms"])


def cochain_to_dict(omega: DiffCochain, cover_id: str) -> Dict:
    mat = omega.materialize()
    comps = [{"indices": list(idx), "form": _form_record(f)}
             for idx, f in sorted(mat.components.items())]
    ints = [{"indices": list(idx), "m": m}
            for idx, m in sorted(mat.int_components.items())]
    fs = None
    if omega.field_strength is not None:
        fs = _form_record(omega.field_strength)
    return {"degree": omega.degree, "cover_id": cover_id,
            "field_strength": fs, "components": comps,
            "integer_components": ints}


def cochain_from_dict(data: Dict) -> DiffCochain:
    cover = cover_from_id(data["cover_id"])
    fs = (None if data.get("field_strength") is None
          else _form_from_record(data["field_strength"]))
    comps = {tuple(rec["indices"]): _form_from_record(rec["form"])
             for rec in data.get("components", [])}
    ints = {tuple(rec["indices"]): int(rec["m"])
            for rec in data.get("integer_components", [])}
    amb = fs.ambient_dim if fs is not None else (
        next(iter(comps.values())).ambient_dim if comps else cover.factors)
    return DiffCochain(data["degree"], cover, field_strength=fs,
                       components=comps, int_components=ints, ambient_dim=amb)


def save_cochain(path: str, omega: DiffCochain, cover_id: str) -> None:
    with open(path, "w") as fh:
        json.dump(cochain_to_dict(omega, cover_id), fh, indent=1,
                  sort_keys=True)


def load_cochain(path: str) -> DiffCochain:
    with open(path) as fh:
        return cochain_from_dict(json.load(fh))

