"""Wire format for the evaluation service.

Two content types carry the same request/response envelope:

- ``application/x-repro-arrays`` — what :class:`~repro.serve.ServeClient`
  sends.  The body is a :func:`repro.state.format.pack_block`: a u32
  head length, a JSON head, then raw little-endian buffers.  The head
  holds the envelope under ``"body"`` and the array manifest under
  ``"arrays"``; every little-endian float64, int32 or int64 ndarray in
  the envelope travels as a buffer and appears in the envelope as a
  ``{"$array": name}`` reference to its manifest entry (other ndarrays
  go inline as JSON lists, as in the JSON codec).  Buffers are
  raw IEEE bits, so positions and forces (NaN payloads and ``-0.0``
  included) round-trip bitwise, and non-finite geometry reaches the
  server, where validation tier L2 refuses it.
- ``application/json`` — for debugging, ``curl`` and hand-written
  requests.  Python floats are IEEE-754 doubles and :mod:`json`
  serializes them via ``repr`` (shortest round-tripping form), so
  float64 values survive an encode/decode cycle bitwise too; ndarrays
  encode as nested lists.  NaN/Infinity are rejected on encode
  (``allow_nan`` off).

The server answers a request in its own content type when it speaks
it, and in JSON otherwise.  Any malformed body or other content type is
a :class:`ProtocolError`.
"""

from __future__ import annotations

import json

import numpy as np

from repro.state.format import StateFormatError, pack_block, unpack_block

#: Version of the request/response envelope; requests carrying a
#: different version are rejected at validation tier L0.
SERVE_SCHEMA_VERSION = 1

JSON_CONTENT_TYPE = "application/json"
ARRAYS_CONTENT_TYPE = "application/x-repro-arrays"

#: The buffer dtypes the array wire carries; anything else in a
#: manifest is a protocol error.
_WIRE_DTYPES = frozenset({"<f8", "<i4", "<i8"})

_REF = "$array"


class ProtocolError(ValueError):
    """Undecodable body or unsupported content type."""


def content_types() -> tuple[str, ...]:
    """Content types the service decodes."""
    return (JSON_CONTENT_TYPE, ARRAYS_CONTENT_TYPE)


def _base_type(content_type: str) -> str:
    return content_type.split(";", 1)[0].strip().lower()


def response_content_type(content_type: str) -> str:
    """The content type to answer a request of `content_type` in."""
    if _base_type(content_type) == ARRAYS_CONTENT_TYPE:
        return ARRAYS_CONTENT_TYPE
    return JSON_CONTENT_TYPE


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _hoist(obj, arrays: dict):
    """`obj` with every ndarray of a wire dtype moved into `arrays` and
    replaced by a reference; other ndarrays travel as JSON lists."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.str not in _WIRE_DTYPES:
            return obj.tolist()
        name = f"a{len(arrays)}"
        arrays[name] = obj
        return {_REF: name}
    if isinstance(obj, dict):
        return {k: _hoist(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hoist(v, arrays) for v in obj]
    return obj


def _resolve(obj, arrays: dict):
    """Inverse of :func:`_hoist`: references become their arrays."""
    if isinstance(obj, dict):
        if _REF in obj:
            name = obj[_REF]
            if len(obj) != 1 or not isinstance(name, str) or name not in arrays:
                raise ProtocolError(f"bad array reference {obj!r}")
            return arrays[name]
        return {k: _resolve(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_resolve(v, arrays) for v in obj]
    return obj


def encode_payload(obj, content_type: str = JSON_CONTENT_TYPE) -> bytes:
    """Serialize `obj` for the wire; float64 values round-trip bitwise
    in either content type."""
    if content_type == JSON_CONTENT_TYPE:
        return json.dumps(
            obj, allow_nan=False, separators=(",", ":"), default=_json_default
        ).encode()
    if content_type == ARRAYS_CONTENT_TYPE:
        arrays: dict[str, np.ndarray] = {}
        body = _hoist(obj, arrays)
        return pack_block({"body": body}, arrays)
    raise ProtocolError(f"unsupported content type {content_type!r}")


def decode_payload(data: bytes, content_type: str = JSON_CONTENT_TYPE):
    """Deserialize a wire body; raises :class:`ProtocolError` on junk.

    Arrays decoded from an array body are owned, writable copies.
    """
    base = _base_type(content_type)
    if base in ("", JSON_CONTENT_TYPE, "text/json"):
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable JSON body: {exc}") from exc
    if base == ARRAYS_CONTENT_TYPE:
        try:
            head, arrays = unpack_block(data, dtypes=_WIRE_DTYPES)
        except StateFormatError as exc:
            raise ProtocolError(f"undecodable array body: {exc}") from exc
        if "body" not in head:
            raise ProtocolError("array body has no 'body' envelope in its head")
        return _resolve(head["body"], arrays)
    raise ProtocolError(f"unsupported content type {content_type!r}")


def system_payload(system) -> dict:
    """The wire representation of an :class:`~repro.md.atoms.AtomSystem`.

    Positions, box bounds and type indices are the system's own
    ndarrays (not copies; encoding copies them); velocities/forces are
    evaluation *outputs* here, not inputs, so only geometry, types and
    the species table travel.
    """
    payload = {
        "x": system.x,
        "box": {
            "lo": system.box.lo,
            "hi": system.box.hi,
            "periodic": list(system.box.periodic),
        },
        "species": list(system.species),
    }
    if np.any(system.type):
        payload["types"] = system.type
    return payload


def system_from_payload(payload: dict):
    """Rebuild an :class:`~repro.md.atoms.AtomSystem` from its wire
    form.  Inverse of :func:`system_payload`; construction is bitwise
    (no wrapping or rescaling happens here)."""
    from repro.md.atoms import AtomSystem
    from repro.md.box import Box

    box = payload["box"]
    return AtomSystem(
        box=Box(
            np.asarray(box["lo"], dtype=np.float64),
            np.asarray(box["hi"], dtype=np.float64),
            tuple(bool(p) for p in box.get("periodic", (True, True, True))),
        ),
        x=np.asarray(payload["x"], dtype=np.float64),
        type=(
            np.asarray(payload["types"], dtype=np.int32)
            if payload.get("types") is not None
            else None
        ),
        species=tuple(payload.get("species") or ("Si",)),
    )
