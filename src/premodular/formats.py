"""Versioned JSON file formats for categories and plumbing graphs.

Category files carry the sparse multiplicity list, the dual map, and twists
(exact rationals or complex values); dimensions and S' are optional, computed
when omitted, and cross-validated against the balancing identity when given.
Condensed categories additionally carry a provenance block recording the
source hash, the condensing group order, the orbit map, and the resolution
status.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

# The interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto into the process.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # built with --without-builtin-hashlib-hashes
        from hashlib import sha256

from .condense import CondensedData
from .fusion import DEFAULT_TOL, FusionData
from .modular import PremodularData, Twist, premodular_from_twists
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
    # the library's documents hold no cycles: skipping the check leaves the bytes as they are
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str, check_circular=False)
    return sha256(blob.encode()).hexdigest()


def category_to_doc(p: PremodularData, *, provenance: dict | None = None) -> dict:
    names = p.names
    theta: dict[str, dict] = {}
    for name, tw in zip(names, p.theta):
        if tw.turns is not None:
            theta[name] = {"rational": [tw.turns.numerator, tw.turns.denominator]}
        else:
            theta[name] = {"complex": [tw.approx.real, tw.approx.imag]}
    doc = {
        "format": FORMAT_VERSION,
        "labels": list(names),
        "unit": names[p.unit],
        "dual": {names[i]: names[d] for i, d in enumerate(p.fusion.dual)},
        "N": [[names[a], names[b], names[c], m] for (a, b, c), m in p.fusion.nonzero()],
        "theta": theta,
        "dims": dict(zip(names, p.dims.tolist())),
        "sprime": p.sprime.view(float).reshape(len(names), len(names), 2).tolist(),  # S' is C-ordered
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def fusion_from_doc(doc: dict) -> FusionData:
    """Just the fusion-ring layer of a category document."""
    _require_version(doc, "category")
    if not isinstance(doc.get("labels"), list):
        raise CategoryFormatError("labels must be a JSON list")
    try:
        return FusionData.from_entries(doc["labels"], doc["unit"], doc["dual"], doc["N"])
    except KeyError as exc:
        raise CategoryFormatError(f"missing category field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CategoryFormatError(f"malformed fusion data: {exc}") from None


def _numbers(values, field: str, shape: tuple, integral: bool = False) -> np.ndarray:
    """JSON numbers as a float64 array of ``shape``, or int64 when ``integral``.

    Strings, nulls, booleans, ragged rows and integers beyond int64 are
    rejected, not coerced.  An integral float must lie below 2**53, where it is
    exact, so that no integer in its array was rounded to a float.
    """
    try:
        a = np.asarray(values)
    except ValueError:  # ragged rows
        a = np.asarray(None)
    if a.dtype.kind not in "if" or a.shape != shape:
        raise CategoryFormatError(f"{field} must be numbers of shape {shape}")
    # numpy reads true and false as 1 and 0 among numbers; the shape is regular here
    flat = values
    for _ in shape[1:]:
        flat = chain.from_iterable(flat)
    if bool in map(type, flat):
        raise CategoryFormatError(f"{field} must be numbers, not booleans")
    if a.dtype.kind == "f" and np.count_nonzero(np.isfinite(a)) < a.size:
        raise CategoryFormatError(f"{field} must be finite")
    if integral and a.dtype.kind == "f" and not ((a == np.trunc(a)) & (abs(a) < 2**53)).all():
        raise CategoryFormatError(f"{field} must be integers")
    return a.astype(np.int64 if integral else float, copy=False)


def _twist(entry: dict, field: str, tol: float) -> Twist:
    rational = "rational" in entry  # [p, q] for exp(2 pi i p/q), else "complex": [re, im]
    x, y = _numbers(entry.get("rational" if rational else "complex"), field, (2,), rational).tolist()
    if rational and y == 0:
        raise CategoryFormatError(f"{field} has denominator 0")
    return Twist.from_turns(x, y) if rational else Twist.from_complex(complex(x, y), tol=tol)


def category_from_doc(doc: dict, *, tol: float = DEFAULT_TOL) -> PremodularData:
    fusion = fusion_from_doc(doc)
    labels, n = fusion.names, fusion.rank
    theta_doc, dims_doc = doc.get("theta", {}), doc.get("dims") or {}
    if not (isinstance(theta_doc, dict) and isinstance(dims_doc, dict)
            and all(isinstance(entry, dict) for entry in theta_doc.values())):
        raise CategoryFormatError("theta, its twists and dims must be JSON objects")
    entries = [theta_doc.get(name, {"rational": [0, 1]}) for name in labels]
    try:  # every twist at once when each is [p, q] in JSON integers within int64, q nonzero
        turns = [entry["rational"] for entry in entries]
        exact = all(type(x) is int and type(y) is int and y != 0 and -(2**63) <= min(x, y) and max(x, y) < 2**63
                    for x, y in turns)
    except (KeyError, TypeError, ValueError):  # a complex twist, or a pair that is no pair
        exact = False
    if exact:
        twists = [Twist.from_turns(x, y) for x, y in turns]
    else:  # label by label, by `_numbers`' rule, so that an error names the first label at fault
        twists = [_twist(entry, f"theta of {name!r}", tol) for name, entry in zip(labels, entries)]
    dims = _numbers([dims_doc.get(name) for name in labels], "dims", (n,)) if dims_doc else None
    sprime = doc.get("sprime") or None
    if sprime is not None:
        sprime = _numbers(sprime, "sprime", (n, n, 2)).view(complex)[..., 0]
    return premodular_from_twists(fusion, twists, dims=dims, sprime=sprime, tol=tol)


def condensed_to_doc(c: CondensedData) -> dict:
    """Serialize the condensed category with provenance; ``ResolutionError`` when unresolved."""
    data = c.data
    provenance = {
        "source_sha256": doc_sha256(category_to_doc(c.source)),
        "group_order": c.group_order,
        "orbit_map": c.orbit_map(),
        "resolution_status": c.status,
    }
    return category_to_doc(data, provenance=provenance)


def plumbing_to_doc(g: PlumbingGraph) -> dict:
    return {
        "format": FORMAT_VERSION,
        "vertices": [{"id": v, "framing": m} for v, m in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }


def plumbing_from_doc(doc: dict) -> PlumbingGraph:
    _require_version(doc, "plumbing")
    try:
        ids = [v["id"] for v in doc["vertices"]]
        framings = _numbers([v["framing"] for v in doc["vertices"]], "framing", (len(ids),), integral=True)
        edges = tuple((u, v) for u, v in doc.get("edges", []))
        if not all(isinstance(x, str) for x in (*ids, *(x for edge in edges for x in edge))):
            raise TypeError("vertex ids and edge endpoints must be JSON strings")
        return PlumbingGraph(tuple(zip(ids, framings.tolist())), edges)
    except (KeyError, TypeError, ValueError) as exc:  # PlumbingError, a graph that is no forest, too
        raise CategoryFormatError(f"malformed plumbing document: {exc}") from None


def _load(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CategoryFormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CategoryFormatError(f"invalid JSON in {path}: {exc}") from None


def load_category(path, *, tol: float = DEFAULT_TOL) -> PremodularData:
    return category_from_doc(_load(path), tol=tol)


def save_category(path, p: PremodularData):
    Path(path).write_text(json.dumps(category_to_doc(p), indent=1))


def load_plumbing(path) -> PlumbingGraph:
    return plumbing_from_doc(_load(path))


def save_plumbing(path, g: PlumbingGraph):
    Path(path).write_text(json.dumps(plumbing_to_doc(g), indent=1))
