"""Persistence for construction states.

The on-disk format is deliberately boring JSON: sorted keys, two-space
indent, one trailing newline. Unbounded integers (set elements, the
difference ledger) travel as decimal strings so non-Python consumers
aren't tripped by bigints; residues and other machine-scale fields stay
native. Saving the result of a load is byte-identical to the original
file, which lets callers fingerprint states by content; the loader
refuses a document that a save would not write back, whitespace aside.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, fields
from pathlib import Path

from .construction import Config, ConstructionState
from .modular import ResidueSet
from .pairs import MINUS, PLUS, PrimeCompatiblePair

STATE_SCHEMA = "sdpc-state"
STATE_VERSION = 4

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
    represented = [
        {"r": str(r), "a": str(a), "b": str(b)}
        for r, (a, b) in sorted(state.represented.items(), key=lambda kv: (abs(kv[0]), kv[0]))
    ]
    return {
        "schema": STATE_SCHEMA,
        "version": STATE_VERSION,
        "n": state.n,
        "a": [str(v) for v in state.a],
        "b": [str(v) for v in state.b],
        "pairs": pairs,
        "represented": represented,
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


def _pair(entry, what: str) -> PrimeCompatiblePair:
    p = _int(_get(entry, "p", what), f"{what} p")
    where = f"pair mod {p}"
    assigned = _get(entry, "assigned", where)
    if not isinstance(assigned, dict) or not assigned.keys() <= _KEY_SIGN.keys():
        raise ValueError(f"{where} assigned must map '+' or '-' to a residue")
    return PrimeCompatiblePair(
        p=p,
        u=ResidueSet.from_members(p, _items(entry, "u", where, _int)),
        v=ResidueSet.from_members(p, _items(entry, "v", where, _int)),
        reserved=tuple(_items(entry, "reserved", where, _int)),
        assigned=tuple(
            (_KEY_SIGN[k], _int(w, f"{where} assigned")) for k, w in sorted(assigned.items())
        ),
    )


def _ledger_row(row, what: str) -> tuple[int, int, int]:
    r, a, b = (_decimal(_get(row, key, what), f"{what} {key}") for key in "rab")
    if a - b != r:
        raise ValueError(f"ledger row for {r} names a witness with difference {a - b}")
    return r, a, b


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
    order, a repeated pair or ledger row, or anything else a save of the
    state would not write as it stands: never coercing."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if doc.get("schema") != STATE_SCHEMA:
        raise ValueError(f"unsupported state schema {doc.get('schema')!r}")
    if type(doc.get("version")) is not int or doc["version"] != STATE_VERSION:
        raise ValueError(f"unsupported state version {doc.get('version')!r}")
    state = ConstructionState(
        n=_int(_get(doc, "n", "state"), "state n"),
        a=_increasing(_items(doc, "a", "state", _decimal), "state a"),
        b=_increasing(_items(doc, "b", "state", _decimal), "state b"),
        pairs=_unique(((pair.p, pair) for pair in _items(doc, "pairs", "state", _pair)), "the pair mod"),
        represented=_unique(
            ((r, (a, b)) for r, a, b in _items(doc, "represented", "state", _ledger_row)),
            "the ledger row for",
        ),
        config=_config(_get(doc, "config", "state")),
    )
    # an unknown key or another order would be lost or changed by the next
    # save (the parsers above already refuse 4.0 or true for an integer)
    saved = state_to_doc(state)
    for key in sorted(doc):
        if key not in saved or doc[key] != saved[key]:
            raise ValueError(f"state {key} differs from its saved form")
    return state


def dumps_state(state: ConstructionState) -> str:
    return json.dumps(state_to_doc(state), indent=2, sort_keys=True) + "\n"


def loads_state(text: str) -> ConstructionState:
    return doc_to_state(json.loads(text))


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
