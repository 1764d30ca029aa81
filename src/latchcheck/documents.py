"""Self-describing document format for every object and map kind.

One file carries one document; maps inline both endpoints (or reference
them by name through the optional top-level "defs" table), so a single
file is always self-consistent.  Serialization is canonical: keys are
sorted, nothing is omitted (absent labels serialize as null), indices
are 0-based with the basepoint at index 0, and equal objects produce
byte-identical files.
"""
from __future__ import annotations

import json
from typing import Any

from .pointed import PointedMap, PointedSet
from .reedy import SimplicialSpectrum, SimplicialSpectrumMap
from .simplicial import SimplicialMap, SimplicialSet, circle, smash_ssets
from .spectra import SpectrumMap, SymSpectrum

KINDS = (
    "pointed-set", "pointed-map", "sset", "sset-map",
    "spectrum", "spectrum-map", "simplicial-spectrum", "simplicial-spectrum-map",
)


# Validating a spectrum builds sphere(p, D), with k**p cells in dimension
# k, for every p <= N, so its cost grows exponentially in N.  A spectrum
# document needing more sphere cells than this is refused; bar-s, the
# largest builtin spectrum (N=3, D=4), needs 130.
SPHERE_CELL_BUDGET = 5000


class DocumentError(ValueError):
    """Malformed document: bad syntax, schema, or unresolved reference."""


def sphere_cells(strunc: int, dtrunc: int) -> int:
    """Sum of k**p over 2 <= p <= N and 1 <= k <= D, counted only until it
    passes the budget, so a huge N or D costs at most the budget."""
    total = 0
    for p in range(2, strunc + 1) if dtrunc > 0 else ():
        for k in range(1, dtrunc + 1):
            total += k**p
            if total > SPHERE_CELL_BUDGET:
                return total
    return total


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# payload builders


def _pointed_set_payload(p: PointedSet) -> dict:
    return {"size": p.size, "labels": list(p.labels) if p.labels is not None else None}


def _sset_payload(s: SimplicialSet) -> dict:
    return {
        "trunc": s.trunc,
        "levels": [_pointed_set_payload(p) for p in s.levels],
        "faces": [[list(m.table) for m in row] for row in s.faces],
        "degens": [[list(m.table) for m in row] for row in s.degens],
    }


def _spectrum_payload(x: SymSpectrum) -> dict:
    return {
        "trunc": {"N": x.strunc, "D": x.dtrunc},
        "levels": [_sset_payload(l) for l in x.levels],
        "actions": [[[list(c.table) for c in g.components] for g in fam] for fam in x.gens],
        "sigma": [[list(c.table) for c in s.components] for s in x.sigmas],
    }


def _simplicial_spectrum_payload(x: SimplicialSpectrum) -> dict:
    def spectrum_map_tables(f: SpectrumMap) -> list:
        return [[list(c.table) for c in comp.components] for comp in f.components]

    return {
        "trunc": {"K": x.ktrunc, "N": x.strunc, "D": x.dtrunc},
        "degrees": [_spectrum_payload(d) for d in x.degrees],
        "faces": [[spectrum_map_tables(m) for m in row] for row in x.faces],
        "degens": [[spectrum_map_tables(m) for m in row] for row in x.degens],
    }


def to_document(obj: Any, name: str = "") -> dict:
    """Serialize any supported object or map as a document dict."""
    if isinstance(obj, PointedSet):
        return {"kind": "pointed-set", "name": name, **_pointed_set_payload(obj)}
    if isinstance(obj, PointedMap):
        return {"kind": "pointed-map", "name": name,
                "dom": _pointed_set_payload(obj.dom), "cod": _pointed_set_payload(obj.cod),
                "table": list(obj.table)}
    if isinstance(obj, SimplicialSet):
        return {"kind": "sset", "name": name, **_sset_payload(obj)}
    if isinstance(obj, SimplicialMap):
        return {"kind": "sset-map", "name": name,
                "dom": _sset_payload(obj.dom), "cod": _sset_payload(obj.cod),
                "components": [list(c.table) for c in obj.components]}
    if isinstance(obj, SymSpectrum):
        return {"kind": "spectrum", "name": name, **_spectrum_payload(obj)}
    if isinstance(obj, SpectrumMap):
        return {"kind": "spectrum-map", "name": name,
                "dom": _spectrum_payload(obj.dom), "cod": _spectrum_payload(obj.cod),
                "components": [[list(c.table) for c in comp.components] for comp in obj.components]}
    if isinstance(obj, SimplicialSpectrum):
        return {"kind": "simplicial-spectrum", "name": name, **_simplicial_spectrum_payload(obj)}
    if isinstance(obj, SimplicialSpectrumMap):
        return {"kind": "simplicial-spectrum-map", "name": name,
                "dom": _simplicial_spectrum_payload(obj.dom),
                "cod": _simplicial_spectrum_payload(obj.cod),
                "components": [
                    [[list(c.table) for c in comp.components] for comp in f.components]
                    for f in obj.components
                ]}
    raise DocumentError(f"cannot serialize objects of type {type(obj).__name__}")


def dumps(obj: Any, name: str = "") -> str:
    return canonical_json(to_document(obj, name))


# ---------------------------------------------------------------------------
# parsing


def _need(data: dict, key: str, ctx: str):
    if not isinstance(data, dict) or key not in data:
        raise DocumentError(f"{ctx}: missing key {key!r}")
    return data[key]


def _is_int(value: Any) -> bool:
    # JSON true/false arrive as bool, a subclass of int; they are not sizes
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, ctx: str, what: str) -> int:
    if not _is_int(value):
        raise DocumentError(f"{ctx}: {what} must be an integer, got {value!r}")
    return value


def _list(value: Any, ctx: str, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{ctx}: {what} must be a list, got {type(value).__name__}")
    return value


def _rows(value: Any, ctx: str, what: str) -> list[list]:
    """A list of lists, as operator rows and action families are."""
    rows = _list(value, ctx, what)
    for row in rows:
        _list(row, ctx, f"each row of {what}")
    return rows


def _resolve(data: Any, defs: dict, ctx: str) -> Any:
    if isinstance(data, dict) and set(data.keys()) == {"ref"}:
        name = data["ref"]
        if not isinstance(name, str) or name not in defs:
            raise DocumentError(f"{ctx}: unresolved reference {name!r}")
        return defs[name]
    return data


def _parse_pointed_set(data: Any, defs: dict, ctx: str) -> PointedSet:
    data = _resolve(data, defs, ctx)
    size = _int(_need(data, "size", ctx), ctx, "size")
    labels = data.get("labels")
    if labels is not None:
        labels = tuple(_list(labels, ctx, "labels"))
        if not all(isinstance(l, str) for l in labels):
            raise DocumentError(f"{ctx}: labels must be strings")
    try:
        return PointedSet(size, labels)
    except ValueError as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def _parse_table(data: Any, ctx: str) -> tuple[int, ...]:
    if not isinstance(data, list):
        raise DocumentError(f"{ctx}: table must be a list")
    bad = next((v for v in data if not _is_int(v)), None)
    if bad is not None:
        raise DocumentError(f"{ctx}: table entries must be integers, got {bad!r}")
    return tuple(data)


def _parse_sset(data: Any, defs: dict, ctx: str) -> SimplicialSet:
    data = _resolve(data, defs, ctx)
    trunc = _int(_need(data, "trunc", ctx), ctx, "trunc")
    levels = tuple(_parse_pointed_set(p, defs, f"{ctx}.levels[{k}]")
                   for k, p in enumerate(_list(_need(data, "levels", ctx), ctx, "levels")))
    raw_faces = _rows(_need(data, "faces", ctx), ctx, "faces")
    raw_degens = _rows(_need(data, "degens", ctx), ctx, "degens")
    if len(raw_faces) != trunc + 1 or len(raw_degens) != trunc + 1:
        raise DocumentError(f"{ctx}: operator rows must cover dimensions 0..{trunc}")
    try:
        faces = tuple(
            tuple(PointedMap(levels[k], levels[k - 1], _parse_table(t, ctx))
                  for t in row)
            for k, row in enumerate(raw_faces)
        )
        degens = tuple(
            tuple(PointedMap(levels[k], levels[k + 1], _parse_table(t, ctx))
                  for t in row)
            for k, row in enumerate(raw_degens)
        )
        return SimplicialSet(trunc, levels, faces, degens)
    except (ValueError, IndexError) as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def _parse_sset_map_tables(tables: Any, dom: SimplicialSet, cod: SimplicialSet,
                           ctx: str) -> SimplicialMap:
    try:
        comps = tuple(
            PointedMap(dom.levels[k], cod.levels[k], _parse_table(t, ctx))
            for k, t in enumerate(_list(tables, ctx, "components"))
        )
        return SimplicialMap(dom, cod, comps)
    except (ValueError, IndexError) as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def _parse_spectrum(data: Any, defs: dict, ctx: str) -> SymSpectrum:
    data = _resolve(data, defs, ctx)
    trunc = _need(data, "trunc", ctx)
    strunc = _int(_need(trunc, "N", ctx), ctx, "N")
    dtrunc = _int(_need(trunc, "D", ctx), ctx, "D")
    if sphere_cells(strunc, dtrunc) > SPHERE_CELL_BUDGET:
        raise DocumentError(f"{ctx}: validating N={strunc}, D={dtrunc} needs more than "
                            f"{SPHERE_CELL_BUDGET} sphere cells")
    levels = tuple(_parse_sset(l, defs, f"{ctx}.levels[{n}]")
                   for n, l in enumerate(_list(_need(data, "levels", ctx), ctx, "levels")))
    # checked before any sigma is parsed: each sigma's domain needs circle(D)
    if not levels or any(l.trunc != dtrunc for l in levels):
        raise DocumentError(f"{ctx}: every level must have the truncation D={dtrunc}")
    raw_actions = _rows(_need(data, "actions", ctx), ctx, "actions")
    raw_sigma = _list(_need(data, "sigma", ctx), ctx, "sigma")
    try:
        gens = tuple(
            tuple(_parse_sset_map_tables(g, levels[n], levels[n],
                                         f"{ctx}.actions[{n}]") for g in fam)
            for n, fam in enumerate(raw_actions)
        )
        sigmas = tuple(
            _parse_sset_map_tables(tables, smash_ssets(circle(dtrunc), levels[n]),
                                   levels[n + 1], f"{ctx}.sigma[{n}]")
            for n, tables in enumerate(raw_sigma)
        )
        return SymSpectrum(strunc, dtrunc, levels, gens, sigmas)
    except (ValueError, IndexError) as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def _parse_spectrum_map_tables(tables: Any, dom: SymSpectrum, cod: SymSpectrum,
                               ctx: str) -> SpectrumMap:
    try:
        comps = tuple(
            _parse_sset_map_tables(t, dom.levels[n], cod.levels[n], f"{ctx}[{n}]")
            for n, t in enumerate(_list(tables, ctx, "components"))
        )
        return SpectrumMap(dom, cod, comps)
    except (ValueError, IndexError) as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def _parse_simplicial_spectrum(data: Any, defs: dict, ctx: str) -> SimplicialSpectrum:
    data = _resolve(data, defs, ctx)
    trunc = _need(data, "trunc", ctx)
    ktrunc = _int(_need(trunc, "K", ctx), ctx, "K")
    degrees = tuple(_parse_spectrum(d, defs, f"{ctx}.degrees[{m}]")
                    for m, d in enumerate(_list(_need(data, "degrees", ctx), ctx, "degrees")))
    raw_faces = _rows(_need(data, "faces", ctx), ctx, "faces")
    raw_degens = _rows(_need(data, "degens", ctx), ctx, "degens")
    try:
        faces = tuple(
            tuple(_parse_spectrum_map_tables(t, degrees[m], degrees[m - 1],
                                             f"{ctx}.faces[{m}]") for t in row)
            for m, row in enumerate(raw_faces)
        )
        degens = tuple(
            tuple(_parse_spectrum_map_tables(t, degrees[m], degrees[m + 1],
                                             f"{ctx}.degens[{m}]") for t in row)
            for m, row in enumerate(raw_degens)
        )
        return SimplicialSpectrum(ktrunc, degrees, faces, degens)
    except (ValueError, IndexError) as exc:
        raise DocumentError(f"{ctx}: {exc}") from exc


def parse_document(data: Any):
    """Parse a document dict into the corresponding object or map."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    kind = _need(data, "kind", "document")
    defs_raw = data.get("defs", {})
    if not isinstance(defs_raw, dict):
        raise DocumentError("defs must be an object")
    defs = dict(defs_raw)
    ctx = f"{kind} {data.get('name', '')!r}".strip()
    if kind == "pointed-set":
        return _parse_pointed_set(data, defs, ctx)
    if kind == "pointed-map":
        dom = _parse_pointed_set(_need(data, "dom", ctx), defs, f"{ctx}.dom")
        cod = _parse_pointed_set(_need(data, "cod", ctx), defs, f"{ctx}.cod")
        try:
            return PointedMap(dom, cod, _parse_table(_need(data, "table", ctx), ctx))
        except ValueError as exc:
            raise DocumentError(f"{ctx}: {exc}") from exc
    if kind == "sset":
        return _parse_sset(data, defs, ctx)
    if kind == "sset-map":
        dom = _parse_sset(_need(data, "dom", ctx), defs, f"{ctx}.dom")
        cod = _parse_sset(_need(data, "cod", ctx), defs, f"{ctx}.cod")
        return _parse_sset_map_tables(_need(data, "components", ctx), dom, cod, ctx)
    if kind == "spectrum":
        return _parse_spectrum(data, defs, ctx)
    if kind == "spectrum-map":
        dom = _parse_spectrum(_need(data, "dom", ctx), defs, f"{ctx}.dom")
        cod = _parse_spectrum(_need(data, "cod", ctx), defs, f"{ctx}.cod")
        return _parse_spectrum_map_tables(_need(data, "components", ctx), dom, cod, ctx)
    if kind == "simplicial-spectrum":
        return _parse_simplicial_spectrum(data, defs, ctx)
    if kind == "simplicial-spectrum-map":
        dom = _parse_simplicial_spectrum(_need(data, "dom", ctx), defs, f"{ctx}.dom")
        cod = _parse_simplicial_spectrum(_need(data, "cod", ctx), defs, f"{ctx}.cod")
        raw = _list(_need(data, "components", ctx), ctx, "components")
        try:
            comps = tuple(
                _parse_spectrum_map_tables(t, dom.degrees[m], cod.degrees[m],
                                           f"{ctx}.components[{m}]")
                for m, t in enumerate(raw)
            )
            return SimplicialSpectrumMap(dom, cod, comps)
        except (ValueError, IndexError) as exc:
            raise DocumentError(f"{ctx}: {exc}") from exc
    raise DocumentError(f"unknown document kind {kind!r}")


def loads(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_document(data)


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads(text)
