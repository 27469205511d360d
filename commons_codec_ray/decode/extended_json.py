"""MongoDB Extended JSON decoding (fresh implementation).

Semantics follow the reference's converter
(``MongoDBCrateDBConverter.decode_value`` / ``decode_extended_json``,
reference transform/mongodb.py:67-161) across canonical, legacy and
"ultra-legacy" Extended JSON:

- ``$oid`` → str; ``$symbol`` → str; ``$undefined`` → None
- ``$numberInt``/``$numberLong`` → int, ``$numberDouble``/``$numberDecimal`` → float
- ``$date`` in four shapes: ISO string, ``{"$numberLong": ms}``, raw int ms,
  float ms; out-of-range epoch values CLAMP TO 0 (reference
  transform/mongodb.py:130-134)
- ``$binary``: UUID subtypes (03/04) → canonical UUID string; other
  subtypes pass through as their base64 payload (reference L141-142)
- ``$timestamp {t,i}`` → datetime from epoch seconds (L143-144)
- ``$regularExpression``/``$code``(+``$scope``)/``$minKey``/``$maxKey``/DBRef →
  stringified fallback (residual BSON types, L156-158)
- recursion through dicts and lists

Converter flags mirror ST5 (transform/mongodb.py:45-47): timestamps can
be rendered as Unix epoch seconds (optionally milliseconds) or ISO8601
via :func:`convert_epoch` / :func:`convert_iso8601`
(transform/mongodb.py:163-187).
"""

from __future__ import annotations

import base64
import calendar
import datetime as dt
from typing import Any
from uuid import UUID

# epoch-millisecond range representable as datetime (year 1..9999)
_MIN_MS = -62135596800000
_MAX_MS = 253402300799999


def _ms_to_datetime(ms: int | float) -> dt.datetime:
    if not (_MIN_MS <= ms <= _MAX_MS):
        ms = 0  # out-of-range dates clamp to epoch 0 (ref transform/mongodb.py:130-134)
    return dt.datetime.utcfromtimestamp(ms / 1000.0)


def decode_extended_json(value: dict) -> Any:
    """Decode one ``$``-keyed Extended JSON scalar descriptor."""
    if "$oid" in value:
        return value["$oid"]
    if "$symbol" in value:
        return value["$symbol"]
    if "$undefined" in value:
        return None
    if "$numberInt" in value:
        return int(value["$numberInt"])
    if "$numberLong" in value:
        return int(value["$numberLong"])
    if "$numberDouble" in value:
        return float(value["$numberDouble"])
    if "$numberDecimal" in value:
        # decimals pass through as STRINGS (arbitrary precision — a float
        # cast would corrupt 34-digit decimals; reference
        # RECORD_OUT_ALL_TYPES keeps "1234567890123456789012345678901234")
        return str(value["$numberDecimal"])
    if "$date" in value:
        d = value["$date"]
        if isinstance(d, str):
            return dt.datetime.fromisoformat(d.replace("Z", "+00:00")).replace(tzinfo=None)
        if isinstance(d, dict) and "$numberLong" in d:
            return _ms_to_datetime(int(d["$numberLong"]))
        if isinstance(d, (int, float)):
            return _ms_to_datetime(d)
        raise ValueError(f"unsupported $date shape: {d!r}")
    if "$binary" in value:
        b = value["$binary"]
        if isinstance(b, dict):  # canonical {"base64": ..., "subType": ...}
            payload, subtype = b.get("base64", ""), b.get("subType", "00")
        else:  # legacy {"$binary": "<b64>", "$type": "04"}
            payload, subtype = b, value.get("$type", "00")
        raw = base64.b64decode(payload)
        if str(subtype).lower() == "04":  # canonical UUID subtype only
            return str(UUID(bytes=raw))
        # non-UUID binary stays base64, RE-ENCODED so non-canonical input
        # padding normalizes (ref corpus: "...83B==" in → "...83A==" out)
        return base64.b64encode(raw).decode("ascii")
    if "$timestamp" in value:
        t = value["$timestamp"]
        return dt.datetime.utcfromtimestamp(int(t["t"]))
    if "$regularExpression" in value:
        r = value["$regularExpression"]
        opts = r.get("options", "")
        return f"Regex('{r.get('pattern', '')}', {0 if not opts else opts!r})"
    if "$code" in value:
        scope = value.get("$scope")
        if scope is None:
            return value["$code"]
        # code WITH scope keeps structure, scope values decoded
        # (reference RECORD_OUT_ALL_TYPES "code_scope")
        return {"$code": value["$code"], "$scope": decode_value(scope)}
    if "$minKey" in value:
        return "MinKey()"
    if "$maxKey" in value:
        return "MaxKey()"
    if "$ref" in value:  # DBRef — "$"-prefixed keys survive (ref "dbref")
        return {k: decode_value(v) for k, v in value.items()}
    if "$dbPointer" in value:
        return str(value["$dbPointer"])
    raise ValueError(f"unknown Extended JSON descriptor: {list(value)[:3]}")


def decode_value(value: Any) -> Any:
    """Recursive Extended JSON decode (ref transform/mongodb.py:67-87)."""
    if isinstance(value, dict):
        if value and next(iter(value)).startswith("$"):
            try:
                return decode_extended_json(value)
            except ValueError:
                pass  # not a descriptor after all → plain map
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def decode_document(doc: dict, treatment=None) -> dict:
    """Decode a full document; optional treatment hook mirrors the
    Tikray transformation slot (ref transform/mongodb.py:48,56-58)."""
    out = {k: decode_value(v) for k, v in doc.items()}
    if treatment is not None:
        out = treatment(out)
    return out


def decode_documents(docs, treatment=None):
    return [decode_document(d, treatment) for d in docs]


# --- native BSON ingestion (M5) ---------------------------------------------
# The reference decodes native BSON via pymongo (ref
# transform/mongodb.py:89-113 decode_bson). Where pymongo/bson exists it
# is used (C-accelerated); otherwise the pure-Python wire reader in
# :mod:`commons_codec_ray.decode.bson_wire` (public BSON spec) decodes
# the same bytes to the same shapes — the path is never a stub.

try:  # pragma: no cover — exercised only where bson exists
    import bson as _bson
except ImportError:
    _bson = None

from commons_codec_ray.decode import bson_wire as _bson_wire


def decode_bson(raw: bytes, treatment=None) -> dict:
    """Raw BSON document bytes → decoded dict (same output contract as
    :func:`decode_document`). Uses pymongo's C codec when installed,
    else the pure-Python wire reader; both normalize to the Extended
    JSON decoder's shapes (ObjectId → hex str, Decimal128 → decimal
    string, datetime → naive UTC)."""
    if _bson is None:
        out = _bson_wire.loads(raw)
    else:
        doc = _bson.BSON(raw).decode()
        # bson yields driver types (datetime, ObjectId, Decimal128…);
        # normalize the wrappers to the engine's plain shapes
        def _norm(v):
            tname = type(v).__name__
            if tname == "ObjectId":
                return str(v)
            if tname == "Decimal128":
                return str(v.to_decimal())
            if tname in ("Int64",):
                return int(v)
            if isinstance(v, dict):
                return {k: _norm(x) for k, x in v.items()}
            if isinstance(v, list):
                return [_norm(x) for x in v]
            return v

        out = {k: _norm(v) for k, v in doc.items()}
    if treatment is not None:
        out = treatment(out)
    return out


# --- converter flags (ST5) --------------------------------------------------


def convert_epoch(value: Any, milliseconds: bool = False) -> int:
    """int/float/datetime/str/bytes → Unix seconds (ref transform/mongodb.py:163-173)."""
    if isinstance(value, dt.datetime):
        sec = calendar.timegm(value.utctimetuple())
    elif isinstance(value, (int, float)):
        sec = int(value)
    elif isinstance(value, (str, bytes)):
        if isinstance(value, bytes):
            value = value.decode("utf-8")
        sec = calendar.timegm(
            dt.datetime.fromisoformat(value.replace("Z", "+00:00")).utctimetuple()
        )
    else:
        raise ValueError(f"cannot convert to epoch: {type(value).__name__}")
    return sec * 1000 if milliseconds else sec


def convert_iso8601(value: Any) -> str:
    """int/float/datetime/str/bytes → ISO8601 (ref transform/mongodb.py:175-187)."""
    if isinstance(value, dt.datetime):
        return value.isoformat()
    if isinstance(value, (int, float)):
        return dt.datetime.utcfromtimestamp(value).isoformat()
    if isinstance(value, bytes):
        return value.decode("utf-8")
    if isinstance(value, str):
        return value
    raise ValueError(f"cannot convert to iso8601: {type(value).__name__}")
