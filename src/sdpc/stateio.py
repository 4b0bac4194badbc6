"""Persistence for construction states.

The on-disk format is deliberately boring JSON: sorted keys, two-space
indent, one trailing newline. Unbounded integers (the set elements)
travel as decimal strings so non-Python consumers aren't tripped by
bigints; residues and other machine-scale fields stay native. The
differences are not stored: a state derives them from A and B. Saving
the result of a load is byte-identical to the original file, which lets
callers fingerprint states by content; the loader refuses a document
that a save would not write back, whitespace aside.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .construction import Config, ConstructionState
from .modular import ResidueSet
from .pairs import MINUS, PLUS, PrimeCompatiblePair

STATE_SCHEMA = "sdpc-state"
STATE_VERSION = 5

_SIGN_KEY = {PLUS: "+", MINUS: "-"}
_KEY_SIGN = {"+": PLUS, "-": MINUS}


def state_to_doc(state: ConstructionState) -> dict:
    pairs = []
    for p in sorted(state.pairs):
        pair = state.pairs[p]
        pairs.append(
            {
                "p": p,
                "u": list(pair.u),
                "v": list(pair.v),
                "reserved": list(pair.reserved),
                "assigned": {_SIGN_KEY[s]: w for s, w in pair.assigned},
            }
        )
    return {
        "schema": STATE_SCHEMA,
        "version": STATE_VERSION,
        "n": state.n,
        "a": [str(v) for v in state.a],
        "b": [str(v) for v in state.b],
        "pairs": pairs,
        "config": asdict(state.config),
    }


# canonical decimals only, so a load-then-save round trip is byte-identical
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _get(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r:.40}")
    return value


def _decimal(value, what: str) -> int:
    if not isinstance(value, str) or not _DECIMAL.fullmatch(value):
        raise ValueError(f"{what} must be a decimal string, not {value!r:.40}")
    return int(value)


def _items(obj, key: str, where: str, parse) -> list:
    """obj[key], which must be a list, with every item parsed."""
    value, what = _get(obj, key, where), f"{where} {key}"
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {value!r:.40}")
    return [parse(item, what) for item in value]


def _config(doc) -> Config:
    # every field present and an integer: a default filled in here would
    # make the next save differ from the file
    names = [f.name for f in fields(Config)]
    return Config(**{key: _int(_get(doc, key, "config"), f"config {key}") for key in names})


def _pair(entry, what: str, p_limit: int) -> PrimeCompatiblePair:
    p = _int(_get(entry, "p", what), f"{what} p")
    where = f"pair mod {p}"
    # before any mask is built: a set mod p is a p-bit integer
    if p > p_limit:
        raise ValueError(f"{where} is above config p_limit {p_limit}")

    def residue(value, field: str) -> int:
        w = _int(value, field)
        if not 0 <= w < p:
            raise ValueError(f"{field} residue {w} is out of range for p = {p}")
        return w

    assigned = _get(entry, "assigned", where)
    if not isinstance(assigned, dict) or not assigned.keys() <= _KEY_SIGN.keys():
        raise ValueError(f"{where} assigned must map '+' or '-' to a residue")
    return PrimeCompatiblePair(
        p=p,
        u=ResidueSet.from_members(p, _items(entry, "u", where, _int)),
        v=ResidueSet.from_members(p, _items(entry, "v", where, _int)),
        reserved=tuple(_items(entry, "reserved", where, residue)),
        assigned=tuple(
            (_KEY_SIGN[k], residue(w, f"{where} assigned")) for k, w in sorted(assigned.items())
        ),
    )


def _unique(entries, what: str) -> dict:
    """A dict of (key, value) entries that refuses a repeated key: with
    the later entry winning, a re-save would differ from the file."""
    out = {}
    for key, value in entries:
        if key in out:
            raise ValueError(f"state lists {what} {key} twice")
        out[key] = value
    return out


def _increasing(values: list, what: str) -> tuple:
    """values as a tuple, refused unless strictly increasing, as a state's are."""
    if any(u >= v for u, v in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return tuple(values)


def doc_to_state(doc: dict) -> ConstructionState:
    """The state a document describes. Raises ValueError for a document
    with a missing key, a value of the wrong type, an element list out of
    order, a repeated pair, or anything else a save of the state would
    not write as it stands: never coercing."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if doc.get("schema") != STATE_SCHEMA:
        raise ValueError(f"unsupported state schema {doc.get('schema')!r}")
    if type(doc.get("version")) is not int or doc["version"] != STATE_VERSION:
        raise ValueError(f"unsupported state version {doc.get('version')!r}")
    config = _config(_get(doc, "config", "state"))
    pairs = _items(doc, "pairs", "state", lambda entry, what: _pair(entry, what, config.p_limit))
    state = ConstructionState(
        n=_int(_get(doc, "n", "state"), "state n"),
        a=_increasing(_items(doc, "a", "state", _decimal), "state a"),
        b=_increasing(_items(doc, "b", "state", _decimal), "state b"),
        pairs=_unique(((pair.p, pair) for pair in pairs), "the pair mod"),
        config=config,
    )
    # an unknown key or another order would be lost or changed by the next
    # save (the parsers above already refuse 4.0 or true for an integer)
    saved = state_to_doc(state)
    for key in sorted(doc):
        if key not in saved or doc[key] != saved[key]:
            raise ValueError(f"state {key} differs from its saved form")
    return state


def dumps_json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    dicts with string keys, lists and JSON scalars; the strings and ints,
    its bulk, are written by C code, not json's pure-Python indenter."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list and value:
        items = [dumps_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict and value:
        items = [_quote(key) + ": " + dumps_json(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value)  # floats, bools, None, and empty lists and dicts


def dumps_state(state: ConstructionState) -> str:
    return dumps_json(state_to_doc(state)) + "\n"


def loads_state(text: str) -> ConstructionState:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state file is nested too deeply") from None
    return doc_to_state(doc)


def save_state(state: ConstructionState, path: str | Path) -> None:
    """Write the state to path atomically: a temporary file next to it is
    written in full, then renamed over it, so a failed save leaves the
    previous file as it was. (Not fsynced: atomic against a failing
    process, not against a power cut.)"""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(dumps_state(state))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_state(path: str | Path) -> ConstructionState:
    return loads_state(Path(path).read_text(encoding="utf-8"))
