"""Versioned JSON file formats for categories and plumbing graphs.

Category files carry the sparse multiplicity list, the dual map, and twists
(exact rationals or complex values); dimensions and S' are optional, computed
when omitted, and cross-validated against the balancing identity when given.
Condensed categories additionally carry a provenance block recording the
source hash, the condensing group order, the orbit map, and the resolution
status.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .condense import CondensedData
from .fusion import FusionData
from .modular import PremodularData, PremodularityError, Twist, premodular_from_twists
from .plumbing import PlumbingGraph

__all__ = [
    "FORMAT_VERSION",
    "CategoryFormatError",
    "category_to_doc",
    "category_from_doc",
    "fusion_from_doc",
    "condensed_to_doc",
    "plumbing_to_doc",
    "plumbing_from_doc",
    "load_category",
    "save_category",
    "load_plumbing",
    "save_plumbing",
    "doc_sha256",
]

FORMAT_VERSION = 1


class CategoryFormatError(ValueError):
    """The document does not conform to the file format."""


def _require_version(doc: dict, kind: str):
    if not isinstance(doc, dict):
        raise CategoryFormatError(f"{kind} document must be a JSON object")
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise CategoryFormatError(
            f"unsupported {kind} format version {version!r} (expected {FORMAT_VERSION})"
        )


def doc_sha256(doc: dict) -> str:
    """Hash of the canonical serialization (sorted keys, compact separators)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def category_to_doc(p: PremodularData, *, provenance: dict | None = None) -> dict:
    theta: dict[str, dict] = {}
    for name, tw in zip(p.names, p.theta):
        if tw.turns is not None:
            theta[name] = {"rational": [tw.turns.numerator, tw.turns.denominator]}
        else:
            theta[name] = {"complex": [tw.approx.real, tw.approx.imag]}
    doc = {
        "format": FORMAT_VERSION,
        "labels": list(p.names),
        "unit": p.names[p.unit],
        "dual": {p.names[i]: p.names[d] for i, d in enumerate(p.fusion.dual)},
        "N": [
            [p.names[a], p.names[b], p.names[c], m]
            for (a, b, c), m in p.fusion.nonzero()
        ],
        "theta": theta,
        "dims": {name: float(d) for name, d in zip(p.names, p.dims)},
        "sprime": [[[float(z.real), float(z.imag)] for z in row] for row in p.sprime],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def fusion_from_doc(doc: dict) -> FusionData:
    """Just the fusion-ring layer of a category document."""
    _require_version(doc, "category")
    try:
        labels = [str(x) for x in doc["labels"]]
        return FusionData.from_entries(labels, doc["unit"], doc["dual"], doc["N"])
    except KeyError as exc:
        raise CategoryFormatError(f"missing category field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CategoryFormatError(f"malformed fusion data: {exc}") from None


def category_from_doc(doc: dict, *, tol: float = 1e-9) -> PremodularData:
    fusion = fusion_from_doc(doc)
    labels = list(fusion.names)

    try:
        theta_doc = doc.get("theta", {})
        twists = []
        for name in labels:
            entry = theta_doc.get(name, {"rational": [0, 1]})
            if "rational" in entry:
                num, den = entry["rational"]
                twists.append(Twist.from_turns(int(num), int(den)))
            elif "complex" in entry:
                re, im = entry["complex"]
                twists.append(Twist.from_complex(complex(re, im), tol=tol))
            else:
                raise CategoryFormatError(f"twist for {name!r} must be rational or complex")

        dims = None
        if "dims" in doc and doc["dims"]:
            dims = np.array([float(doc["dims"][name]) for name in labels])
        sprime = None
        if "sprime" in doc and doc["sprime"]:
            sprime = np.array(
                [[complex(re, im) for re, im in row] for row in doc["sprime"]]
            )
    except (CategoryFormatError, PremodularityError):
        raise
    except (
        AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise CategoryFormatError(
            f"malformed category document ({type(exc).__name__}: {exc})"
        ) from None
    return premodular_from_twists(fusion, twists, dims=dims, sprime=sprime, tol=tol)


def condensed_to_doc(c: CondensedData, *, source_doc: dict | None = None) -> dict:
    """Serialize the condensed category (first solution) with provenance."""
    if source_doc is None:
        source_doc = category_to_doc(c.source)
    provenance = {
        "source_sha256": doc_sha256(source_doc),
        "group_order": c.group_order,
        "orbit_map": c.orbit_map(),
        "resolution_status": c.status if c.status != "multiple" else f"multiple({c.n_solutions})",
    }
    if not c.solutions:
        raise CategoryFormatError("unresolved condensation has no category to serialize")
    return category_to_doc(c.solutions[0], provenance=provenance)


def plumbing_to_doc(g: PlumbingGraph) -> dict:
    return {
        "format": FORMAT_VERSION,
        "vertices": [{"id": v, "framing": m} for v, m in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }


def plumbing_from_doc(doc: dict) -> PlumbingGraph:
    _require_version(doc, "plumbing")
    try:
        vertices = tuple((str(v["id"]), int(v["framing"])) for v in doc["vertices"])
        edges = tuple((str(u), str(v)) for u, v in doc.get("edges", []))
    except (KeyError, TypeError) as exc:
        raise CategoryFormatError(f"malformed plumbing document: {exc}") from None
    return PlumbingGraph(vertices, edges)


def _load(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CategoryFormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CategoryFormatError(f"invalid JSON in {path}: {exc}") from None


def load_category(path, *, tol: float = 1e-9) -> PremodularData:
    return category_from_doc(_load(path), tol=tol)


def save_category(path, p: PremodularData, *, provenance: dict | None = None):
    Path(path).write_text(json.dumps(category_to_doc(p, provenance=provenance), indent=1))


def load_plumbing(path) -> PlumbingGraph:
    return plumbing_from_doc(_load(path))


def save_plumbing(path, g: PlumbingGraph):
    Path(path).write_text(json.dumps(plumbing_to_doc(g), indent=1))
