"""Single-document store definition: geometry, fixtures, catalog and
category eligibility in one JSON file.

The document is the unit of review for a store: walkway nodes and edges,
locations with their nested sublocations, the product catalog, and an
optional category-to-location eligibility whitelist. Loading validates the
schema field by field and then defers to the domain constructors, so a
malformed file fails with a message naming the offending object.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .demand import Catalog, Category, Subcategory
from .errors import InputError, ParseError
from .store import Edge, Location, Node, StoreGraph, Sublocation

_FIXTURE_TYPES = ("peripheral", "endcap", "aisle")


@dataclass(frozen=True)
class StoreDocument:
    name: str
    graph: StoreGraph
    catalog: Catalog
    eligibility: dict[str, tuple[str, ...]] | None


def _require(obj: dict, key: str, kind: type | tuple, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise InputError(f"{where}: field {key!r} must be {names}, got {type(value).__name__}")
    return value


def _number(obj: dict, key: str, where: str) -> float:
    value = _require(obj, key, (int, float), where)
    # json reads NaN and Infinity as floats; comparing before float() also
    # rejects an integer too large for a float
    if isinstance(value, bool) or not abs(value) <= sys.float_info.max:
        raise InputError(f"{where}: field {key!r} must be a finite number")
    return float(value)


def _parse_nodes(raw, where: str) -> list[Node]:
    nodes = []
    for idx, item in enumerate(raw):
        w = f"{where}.nodes[{idx}]"
        if not isinstance(item, dict):
            raise InputError(f"{w}: expected an object")
        nodes.append(
            Node(
                node_id=_require(item, "id", str, w),
                x=_number(item, "x", w),
                y=_number(item, "y", w),
            )
        )
    return nodes


def _parse_edges(raw, coords: dict[str, tuple[float, float]], where: str) -> list[Edge]:
    edges = []
    for idx, item in enumerate(raw):
        w = f"{where}.edges[{idx}]"
        if not isinstance(item, dict):
            raise InputError(f"{w}: expected an object")
        a = _require(item, "a", str, w)
        b = _require(item, "b", str, w)
        if "length" in item:
            length = _number(item, "length", w)
        else:
            # Geometric default keeps hand-written documents short.
            if a not in coords or b not in coords:
                raise InputError(f"{w}: cannot infer length, unknown endpoint")
            (ax, ay), (bx, by) = coords[a], coords[b]
            length = math.hypot(ax - bx, ay - by)
        edges.append(Edge(node_a=a, node_b=b, length=length))
    return edges


def _parse_locations(raw, where: str) -> tuple[list[Location], list[Sublocation]]:
    locations: list[Location] = []
    sublocations: list[Sublocation] = []
    for idx, item in enumerate(raw):
        w = f"{where}.locations[{idx}]"
        if not isinstance(item, dict):
            raise InputError(f"{w}: expected an object")
        lid = _require(item, "id", str, w)
        fixture = _require(item, "fixture", str, w)
        if fixture not in _FIXTURE_TYPES:
            raise InputError(
                f"{w}: fixture {fixture!r} is not one of {', '.join(_FIXTURE_TYPES)}"
            )
        subs_raw = _require(item, "sublocations", list, w)
        if not subs_raw:
            raise InputError(f"{w}: location {lid!r} has no sublocations")
        sub_ids = []
        for sdx, sub in enumerate(subs_raw):
            sw = f"{w}.sublocations[{sdx}]"
            if not isinstance(sub, dict):
                raise InputError(f"{sw}: expected an object")
            sid = _require(sub, "id", str, sw)
            center = _require(sub, "center", str, sw)
            facing = _require(sub, "facing", list, sw)
            if not all(isinstance(f, str) for f in facing):
                raise InputError(f"{sw}: facing must be a list of node ids")
            sub_ids.append(sid)
            sublocations.append(
                Sublocation(
                    sublocation_id=sid,
                    parent_location_id=lid,
                    center_node=center,
                    facing_nodes=frozenset(facing),
                )
            )
        center_node = item.get("center", sublocations[-len(sub_ids)].center_node)
        if not isinstance(center_node, str):
            raise InputError(f"{w}: field 'center' must be a node id string")
        locations.append(
            Location(
                location_id=lid,
                fixture_type=fixture,
                center_node=center_node,
                sublocation_ids=tuple(sub_ids),
            )
        )
    return locations, sublocations


def _parse_catalog(raw, where: str) -> Catalog:
    w = f"{where}.catalog"
    cats_raw = _require(raw, "categories", list, w)
    categories: list[Category] = []
    subcategories: list[Subcategory] = []
    for idx, item in enumerate(cats_raw):
        cw = f"{w}.categories[{idx}]"
        if not isinstance(item, dict):
            raise InputError(f"{cw}: expected an object")
        cid = _require(item, "id", str, cw)
        name = item.get("name", cid)
        if not isinstance(name, str):
            raise InputError(f"{cw}: field 'name' must be a string")
        categories.append(Category(category_id=cid, name=name))
        for sdx, sub in enumerate(_require(item, "subcategories", list, cw)):
            sw = f"{cw}.subcategories[{sdx}]"
            if not isinstance(sub, dict):
                raise InputError(f"{sw}: expected an object")
            sid = _require(sub, "id", str, sw)
            sname = sub.get("name", sid)
            if not isinstance(sname, str):
                raise InputError(f"{sw}: field 'name' must be a string")
            subcategories.append(
                Subcategory(subcategory_id=sid, name=sname, parent_category_id=cid)
            )
    return Catalog(categories=tuple(categories), subcategories=tuple(subcategories))


def _parse_eligibility(raw, catalog: Catalog, graph: StoreGraph, where: str):
    if raw is None:
        return None
    w = f"{where}.eligibility"
    if not isinstance(raw, dict):
        raise InputError(f"{w}: expected an object mapping category to location list")
    known_cats = {c.category_id for c in catalog.categories}
    known_locs = {loc.location_id for loc in graph.locations}
    result: dict[str, tuple[str, ...]] = {}
    for cid, locs in raw.items():
        if cid not in known_cats:
            raise InputError(f"{w}: unknown category {cid!r}")
        if not isinstance(locs, list) or not all(isinstance(x, str) for x in locs):
            raise InputError(f"{w}.{cid}: expected a list of location ids")
        if not locs:
            raise InputError(f"{w}.{cid}: empty eligibility list leaves nowhere to place it")
        for lid in locs:
            if lid not in known_locs:
                raise InputError(f"{w}.{cid}: unknown location {lid!r}")
        result[cid] = tuple(locs)
    return result


def load_store(path: str) -> StoreDocument:
    """Parse and validate a store document; raises with the failing field."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"store file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    where = path
    if not isinstance(raw, dict):
        raise InputError(f"{where}: top level must be an object")
    name = raw.get("name", "store")
    if not isinstance(name, str):
        raise InputError(f"{where}: field 'name' must be a string")
    nodes = _parse_nodes(_require(raw, "nodes", list, where), where)
    coords = {n.node_id: (n.x, n.y) for n in nodes}
    edges = _parse_edges(_require(raw, "edges", list, where), coords, where)
    locations, sublocations = _parse_locations(_require(raw, "locations", list, where), where)
    graph = StoreGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sublocations=tuple(sublocations),
        locations=tuple(locations),
        entrance_node=_require(raw, "entrance", str, where),
        exit_node=_require(raw, "exit", str, where),
    )
    catalog = _parse_catalog(_require(raw, "catalog", dict, where), where)
    eligibility = _parse_eligibility(raw.get("eligibility"), catalog, graph, where)
    return StoreDocument(name=name, graph=graph, catalog=catalog, eligibility=eligibility)


def store_to_dict(doc: StoreDocument) -> dict:
    graph, catalog = doc.graph, doc.catalog
    locations = []
    by_id = {s.sublocation_id: s for s in graph.sublocations}
    for loc in graph.locations:
        locations.append(
            {
                "id": loc.location_id,
                "fixture": loc.fixture_type,
                "center": loc.center_node,
                "sublocations": [
                    {
                        "id": sid,
                        "center": by_id[sid].center_node,
                        "facing": sorted(by_id[sid].facing_nodes),
                    }
                    for sid in loc.sublocation_ids
                ],
            }
        )
    cats = []
    for cat in catalog.categories:
        cats.append(
            {
                "id": cat.category_id,
                "name": cat.name,
                "subcategories": [
                    {"id": s.subcategory_id, "name": s.name}
                    for s in catalog.subcategories
                    if s.parent_category_id == cat.category_id
                ],
            }
        )
    out = {
        "name": doc.name,
        "entrance": graph.entrance_node,
        "exit": graph.exit_node,
        "nodes": [{"id": n.node_id, "x": n.x, "y": n.y} for n in graph.nodes],
        "edges": [
            {"a": e.node_a, "b": e.node_b, "length": e.length} for e in graph.edges
        ],
        "locations": locations,
        "catalog": {"categories": cats},
    }
    if doc.eligibility is not None:
        out["eligibility"] = {cid: list(locs) for cid, locs in doc.eligibility.items()}
    return out


def save_store(doc: StoreDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store_to_dict(doc), fh, indent=2, sort_keys=False)
        fh.write("\n")
