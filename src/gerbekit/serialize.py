"""Stable on-disk formats: cochain files and cover / decomposition ids.

A cochain file lists the cochain's nonzero values by multi-index.  The file
of a flagged alternating cochain says `"alternating": true` and holds one
record per sorted support, strictly increasing; it loads back as the
alternating cochain of those values, any other ordering reading as the
sorted value times the sign of the permutation.  A file without the key
(such as a push-forward's, which is not alternating) lists every ordering.
A file is written as one line of JSON with sorted keys; it loads whatever
its JSON whitespace, so older indented files load too.  Saving refuses a
NaN or infinite coefficient with the message the loader gives on one.

Cover ids: "circle:N:OVERLAP", "torus:N:M:OVERLAP" (the product of
"circle:N:OVERLAP" and "circle:M:OVERLAP"), or "product:ID|ID" for a
product of two of the former.
Decomposition ids: "circle:N" (dual segments on S^1) or "hex:N"
(hexagonal dual cells on T^2).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import json
import math
from typing import Dict

from .cochain import DiffCochain, alternating_cochain
from .covers import (Cover, DualCellDecomposition, make_circle_cover,
                     make_circle_decomposition, make_torus_hex_decomposition,
                     product_cover)
from .trigform import TrigForm

# Covers and decompositions named by an id are built once per process and
# shared: nothing changes them after they are built, only their memos fill
# (a cover's supports, a cell's monomial integrals).  An id that raises is
# not cached, so it raises on every call.
_ID_CACHE_SIZE = 64

# the largest |m| of an integer-row entry a file may give (cochain_from_dict)
MAX_INTEGER_ENTRY = int(2 ** 52 / (2 * math.pi))


@contextlib.contextmanager
def _naming(kind: str, ident: str):
    """Re-raise a ValueError from parsing or building an id with the whole
    id in its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{kind} id {ident}: {exc}") from exc


@functools.lru_cache(maxsize=_ID_CACHE_SIZE)
def cover_from_id(cover_id: str) -> Cover:
    """The cover an id names; the id is kept as its `cover_id`."""
    if cover_id.startswith("product:"):
        sides = cover_id[len("product:"):].split("|")
        if len(sides) != 2 or not all(sides):
            raise ValueError(f"cover id {cover_id} is not product:ID|ID, "
                             f"the product of two cover ids")
        with _naming("cover", cover_id):
            cover = product_cover(*map(cover_from_id, sides))
    else:
        kind, *args = cover_id.split(":")
        if (kind, len(args)) not in (("circle", 2), ("torus", 3)):
            raise ValueError(f"unknown cover id: {cover_id}")
        with _naming("cover", cover_id):
            if kind == "circle":
                cover = make_circle_cover(int(args[0]), float(args[1]))
            else:
                cover = product_cover(*(cover_from_id(f"circle:{n}:{args[2]}")
                                        for n in args[:2]))
    cover.cover_id = cover_id
    return cover


@functools.lru_cache(maxsize=_ID_CACHE_SIZE)
def decomposition_from_id(dec_id: str) -> DualCellDecomposition:
    kind, *args = dec_id.split(":")
    if kind not in ("circle", "hex") or len(args) != 1:
        raise ValueError(f"unknown decomposition id: {dec_id}")
    with _naming("decomposition", dec_id):
        return (make_circle_decomposition if kind == "circle"
                else make_torus_hex_decomposition)(int(args[0]))


def _field(rec, key: str, kind, where: str):
    """rec[key], which must exist and be of type `kind` (a bool is an int
    only where `kind` is bool)."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in rec:
        raise ValueError(f"{where} has no {key!r} field")
    value = rec[key]
    if (type(value) is bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} has the wrong type "
                         f"({type(value).__name__})")
    return value


def _refuse_non_finite(form: TrigForm, idx) -> None:
    """Raise on the NaN or infinite coefficient of form with the least key
    (in a file save_cochain writes, the first such term), naming the form
    as the component at index idx, or as the field strength if idx is
    None: the loader's message, which saving gives too."""
    if all(map(cmath.isfinite, form.terms.values())):
        return
    freq, axes = min(k for k, c in form.terms.items()
                     if not cmath.isfinite(c))
    c = form.terms[freq, axes]
    name = ("the field strength" if idx is None
            else f"the component at index {list(idx)}")
    raise ValueError(f"{name} has a non-finite coefficient {c} at "
                     f"frequency {list(freq)}, axes {list(axes)}")


def _form_record(f: TrigForm, idx) -> Dict:
    _refuse_non_finite(f, idx)
    return {"ambient_dim": f.ambient_dim, "degree": f.degree,
            "terms": f.to_records()}


def _form_from_record(rec, where: str, idx) -> TrigForm:
    """The form of a file record; `where` names the record in the messages
    on malformed fields, idx as _refuse_non_finite does."""
    ambient_dim = _field(rec, "ambient_dim", int, where)
    degree = _field(rec, "degree", int, where)
    terms = _field(rec, "terms", list, where)
    try:
        form = TrigForm.from_records(ambient_dim, degree, terms)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{where}: malformed term ({exc!r})") from exc
    _refuse_non_finite(form, idx)
    return form


def cochain_to_dict(omega: DiffCochain, cover_id: str) -> Dict:
    """The file record of omega under cover_id, which must name its cover:
    under another id the file would load as another cochain.  A flagged
    cochain is written on its sorted supports with `"alternating": true`;
    any other with every ordering of every support, and no such key.  A
    NaN or infinite coefficient is refused, as the loader would refuse it,
    the field strength's first and then the components' in file order."""
    if omega.degree < -1:
        # below degree -1 the empty index holds no field strength, and the
        # loader reads every other index as a nonempty one
        raise ValueError(f"a cochain of degree {omega.degree} cannot be "
                         f"saved: a cochain file holds degrees -1 and up")
    if cover_from_id(cover_id).pieces != omega.cover.pieces:
        raise ValueError(f"cover id {cover_id} names another cover than the "
                         f"cochain's")
    fs = _form_record(omega.field_strength, None)
    # the field strength (index ()) and the integer row (index length n+2)
    # are listed apart from the forms
    mat = omega.materialize().components
    mat.pop((), None)
    levels = sorted(mat.items())
    top = omega.degree + 2
    comps = [{"indices": list(idx), "form": _form_record(f, idx)}
             for idx, f in levels if len(idx) < top]
    ints = [{"indices": list(idx), "m": m} for idx, m in levels
            if len(idx) == top]
    rec = {"degree": omega.degree, "cover_id": cover_id,
           "field_strength": fs, "components": comps,
           "integer_components": ints}
    if omega.alternating:
        rec["alternating"] = True
    return rec


def cochain_from_dict(data) -> DiffCochain:
    """Load a file record; any malformed field raises ValueError.  An
    alternating file must give each support once, in increasing order.  An
    integer-row entry m must have |m| <= MAX_INTEGER_ENTRY, the largest
    with 2*pi*|m| < 2**52: the cochain reads it as the float 2*pi*m, whose
    spacing from 2**52 on is 1 or more, so past the bound a float no longer
    carries it to better than one unit and a cocycle defect of order 1
    could not show."""
    degree = _field(data, "degree", int, "cochain file")
    cover = cover_from_id(_field(data, "cover_id", str, "cochain file"))
    alternating = ("alternating" in data
                   and _field(data, "alternating", bool, "cochain file"))
    fs = data.get("field_strength")
    if fs is not None:
        fs = _form_from_record(fs, "field_strength", None)
    comps: Dict = {}
    for key in ("components", "integer_components"):
        records = _field(data, key, list, "cochain file") if key in data else []
        where = f"a record of {key!r}"
        for rec in records:
            idx = tuple(_field(rec, "indices", list, where))
            # else an entry the cochain could never read back
            if not idx or any(type(i) is not int for i in idx) \
                    or len(set(idx)) != len(idx) or min(idx) < 0 \
                    or max(idx) >= len(cover.pieces):
                raise ValueError(f"index {list(idx)} is not a list of distinct "
                                 f"pieces of the cover's {len(cover.pieces)}")
            if alternating and list(idx) != sorted(idx):
                raise ValueError(f"index {list(idx)} is not increasing, as "
                                 f"every index of an alternating file must be")
            if idx in comps:
                raise ValueError(f"index {list(idx)} is given twice")
            if key == "integer_components":
                comps[idx] = _field(rec, "m", int, where)
                if abs(comps[idx]) > MAX_INTEGER_ENTRY:
                    raise ValueError(
                        f"the integer entry at index {list(idx)} is too "
                        f"large: 2*pi*|m| must stay below 2**52, where a "
                        f"float still carries it to better than one unit")
            else:
                comps[idx] = _form_from_record(
                    _field(rec, "form", dict, where), where, idx)
    if fs is not None:
        # after the component records: a bad one is reported before a bad H
        comps[()] = fs
    if alternating:
        return alternating_cochain(degree, cover, comps)
    return DiffCochain(degree, cover, components=comps)


def save_cochain(path: str, omega: DiffCochain, cover_id: str) -> None:
    # refused before the path opens; without an indent, dumps runs json's
    # C encoder and the file is one write.  The record is a fresh tree, so
    # it has no cycle to look for.
    text = json.dumps(cochain_to_dict(omega, cover_id), sort_keys=True,
                      check_circular=False)
    with open(path, "w") as fh:
        fh.write(text)


def load_cochain(path: str) -> DiffCochain:
    with open(path) as fh:
        return cochain_from_dict(json.load(fh))

