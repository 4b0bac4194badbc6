"""Round-trip and format tests for state persistence."""

import json
import random

import pytest

from sdpc import stateio
from sdpc.construction import Config, apply_step, initial_state, plan_step, run, verify
from sdpc.stateio import (
    STATE_SCHEMA,
    STATE_VERSION,
    doc_to_state,
    dumps_json,
    dumps_state,
    load_state,
    loads_state,
    save_state,
    state_to_doc,
)


def small_state():
    st = initial_state(Config(p_limit=5))
    return apply_step(st, plan_step(st, 7), 25)


def test_roundtrip_is_byte_identical():
    st = small_state()
    text = dumps_state(st)
    again = dumps_state(loads_state(text))
    assert text == again


def test_roundtrip_preserves_state_fields():
    st = small_state()
    back = loads_state(dumps_state(st))
    assert back.n == st.n
    assert back.a == st.a and back.b == st.b
    assert back.represented == st.represented
    assert back.config == st.config
    assert sorted(back.pairs) == sorted(st.pairs)
    for p in st.pairs:
        assert back.pairs[p].u.mask == st.pairs[p].u.mask
        assert back.pairs[p].v.mask == st.pairs[p].v.mask
        assert back.pairs[p].reserved == st.pairs[p].reserved
        assert back.pairs[p].assigned == st.pairs[p].assigned
    assert verify(back).ok


def test_reserve_assignment_survives_roundtrip():
    st = initial_state(Config(p_limit=7))
    st = apply_step(st, plan_step(st, 7), 625)
    doc = state_to_doc(st)
    entry = next(e for e in doc["pairs"] if e["p"] == 7)
    assert entry["assigned"] == {"+": 2}
    back = doc_to_state(doc)
    assert back.pairs[7].assigned == st.pairs[7].assigned


def test_document_shape():
    doc = state_to_doc(small_state())
    assert doc["schema"] == STATE_SCHEMA
    assert doc["version"] == STATE_VERSION
    # big values are decimal strings, residues stay native
    assert doc["a"] == ["1", "11", "25"]
    assert doc["b"] == ["6", "18"]
    # the differences are derived from A and B, not stored
    assert "represented" not in doc
    assert all(isinstance(u, int) for e in doc["pairs"] for u in e["u"])
    text = dumps_state(small_state())
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_states_at_every_coverage_are_written_as_json_dumps_writes_them():
    state = initial_state(Config())
    for target in range(9):
        state = run(state, target).state
        text = json.dumps(state_to_doc(state), indent=2, sort_keys=True) + "\n"
        assert dumps_state(state) == text, target
    assert state.n == 8


@pytest.mark.parametrize("doc", (
    {},
    [],
    {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
    [[], {}, [[], [{}]]],
    {"k\u00e9y \"q\" \n\t\x00\x1f \u2603 \U0001f600": "v\u00e9 \"q\" \\ \r\x7f \u2028 \U0001f600"},
    ["\u00e9", "\"", "\\", "\b\f", "\x01", "", "/"],
    {"z": 1, "a": -1, "M": 0, "\u00e9": 10**40, "-": -(10**40) + 1},
    [True, False, None, 1e-07, 0.1 + 0.2, -0.0, 1e300, 2.5, float("inf")],
    {"deep": {"er": [{"x": [1, "2", None, True, {"y": 0.5}]}]}},
    "alone",
    -7,
    None,
), ids=("empty-dict", "empty-list", "nested-empty-in-dict", "nested-empty-in-list", "escapes-in-key-and-value",
        "escapes-in-list", "ints", "floats-bools-none", "deep", "bare-str", "bare-int", "bare-none"))
def test_dumps_json_writes_what_json_dumps_writes(doc):
    assert dumps_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_schema_and_version_rejection():
    doc = state_to_doc(small_state())
    wrong = dict(doc, schema="something-else")
    with pytest.raises(ValueError, match="schema"):
        doc_to_state(wrong)
    wrong = dict(doc, version=99)
    with pytest.raises(ValueError, match="version"):
        doc_to_state(wrong)
    # a version-1 document, with the random stream and the faithful
    # policy's fields, is refused, not read in part
    config = dict(doc["config"], mode="reduced", k_constant=None, reserve_count=2,
                  seed=0, workers=1, retry_cap=10_000, k_scan_limit=8192)
    old = dict(doc, version=1, config=config, rng_draws=0)
    with pytest.raises(ValueError, match="unsupported state version 1"):
        doc_to_state(old)
    # a version-2 document, which still stores the round count
    old = dict(doc, version=2, config=dict(doc["config"], probable_rounds=24))
    with pytest.raises(ValueError, match="unsupported state version 2"):
        doc_to_state(old)
    # a version-3 document, which still stores the sieve settings
    old = dict(doc, version=3, config=dict(doc["config"], sieve_limit=400, segment_size=1 << 20))
    with pytest.raises(ValueError, match="unsupported state version 3"):
        doc_to_state(old)
    # a version-4 document, which still stores the difference ledger
    ledger = [{"r": str(r), "a": str(a), "b": str(b)} for r, (a, b) in small_state().represented.items()]
    old = dict(doc, version=4, represented=ledger)
    with pytest.raises(ValueError, match="unsupported state version 4"):
        doc_to_state(old)
    with pytest.raises(ValueError):
        doc_to_state(["not", "an", "object"])


def test_repeated_pair_is_rejected():
    # with the later entry winning, verify would pass and a re-save differ
    doc = state_to_doc(small_state())
    doc["pairs"].append(dict(next(e for e in doc["pairs"] if e["p"] == 5)))
    with pytest.raises(ValueError, match="pair mod 5 twice"):
        doc_to_state(doc)


def test_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_state(small_state(), path)
    before = path.read_bytes()

    def broken(state):
        raise RuntimeError("disk full")

    monkeypatch.setattr("sdpc.stateio.dumps_state", broken)
    with pytest.raises(RuntimeError, match="disk full"):
        save_state(run(initial_state(Config(p_limit=5)), 4).state, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_file_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    res = run(initial_state(Config(p_limit=5)), 4)
    save_state(res.state, path)
    back = load_state(path)
    assert dumps_state(back) == path.read_text(encoding="utf-8")
    assert verify(back).ok


# ---------------------------------------------------------------------------
# the loader refuses malformed documents with ValueError
# ---------------------------------------------------------------------------

def test_missing_key_is_a_value_error():
    doc = state_to_doc(small_state())
    del doc["pairs"]
    with pytest.raises(ValueError, match="pairs"):
        doc_to_state(doc)


@pytest.mark.parametrize("drop", ("all", "budget"))
def test_config_fields_are_never_filled_from_defaults(drop):
    doc = state_to_doc(small_state())
    if drop == "all":
        doc["config"] = {}
    else:
        del doc["config"][drop]
    with pytest.raises(ValueError, match="config has no"):
        doc_to_state(doc)


def test_string_step_count_is_a_value_error():
    doc = state_to_doc(small_state())
    doc["n"] = "4"
    with pytest.raises(ValueError, match="n must be an integer"):
        doc_to_state(doc)


def test_fractional_element_is_not_truncated():
    doc = state_to_doc(small_state())
    doc["a"][1] = 11.5
    with pytest.raises(ValueError, match="decimal string"):
        doc_to_state(doc)


@pytest.mark.parametrize("text", ("011", "-0", "+11", "11 ", "1_1", "0x1", ""))
def test_non_canonical_decimal_is_a_value_error(text):
    # "011" would load as 11 and save again as "11": the round trip would
    # no longer be byte-identical
    doc = state_to_doc(small_state())
    doc["a"][1] = text
    with pytest.raises(ValueError, match="decimal string"):
        doc_to_state(doc)
    doc = state_to_doc(small_state())
    doc["b"][0] = text
    with pytest.raises(ValueError, match="decimal string"):
        doc_to_state(doc)


def test_zero_and_negative_decimals_round_trip():
    doc = state_to_doc(small_state())
    doc["a"][0] = "0"
    doc["b"][0] = "-6"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert dumps_state(loads_state(text)) == text


def _paths(value, path=()):
    """Every (container path, key) below a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path, key
        if isinstance(item, (dict, list)):
            yield from _paths(item, path + (key,))


def test_every_key_missing_or_retyped_is_a_value_error():
    # each field of a valid document dropped, or swapped for a value of
    # another JSON type, either still loads or raises ValueError
    base = state_to_doc(small_state())
    for path, key in _paths(base):
        for replacement in (None, 1.5, True, "4", "x", -3, [], {}, [1.5], ...):
            doc = json.loads(json.dumps(base))
            parent = doc
            for step in path:
                parent = parent[step]
            if replacement is ...:
                parent.pop(key) if isinstance(parent, dict) else parent.pop()
            else:
                parent[key] = replacement
            try:
                doc_to_state(doc)
            except ValueError:
                pass


def test_a_pair_above_p_limit_is_refused_before_any_mask(monkeypatch):
    # a set mod p is a p-bit mask, so a pair mod 2**61 - 1 must be refused
    # before one is built
    doc = state_to_doc(run(initial_state(Config()), 4).state)
    next(e for e in doc["pairs"] if e["p"] == 7)["p"] = (1 << 61) - 1
    built = []
    monkeypatch.setattr(stateio.ResidueSet, "__post_init__", lambda s: built.append(s.modulus))
    with pytest.raises(ValueError, match=rf"pair mod {(1 << 61) - 1} is above config p_limit 7"):
        doc_to_state(doc)
    assert (1 << 61) - 1 not in built


@pytest.mark.parametrize("field, value", (
    ("reserved", [-3]), ("reserved", [7]), ("assigned", {"+": -1}), ("assigned", {"-": 7}),
))
def test_out_of_range_reserves_are_refused_by_pair_and_field(field, value):
    doc = state_to_doc(run(initial_state(Config()), 4).state)
    next(e for e in doc["pairs"] if e["p"] == 7)[field] = value
    bad = value[0] if field == "reserved" else next(iter(value.values()))
    message = rf"^pair mod 7 {field} residue {bad} is out of range for p = 7$"
    with pytest.raises(ValueError, match=message):
        doc_to_state(doc)


def test_element_lists_out_of_order_are_rejected():
    # sorted tuples are what a state holds: a reversed A would load, pass
    # verify and be sorted silently by the next step
    doc = state_to_doc(run(initial_state(Config()), 5).state)
    doc["a"].reverse()
    with pytest.raises(ValueError, match="state a must be strictly increasing"):
        doc_to_state(doc)
    doc = state_to_doc(run(initial_state(Config()), 5).state)
    doc["b"].insert(1, doc["b"][1])
    with pytest.raises(ValueError, match="state b must be strictly increasing"):
        doc_to_state(doc)


def _containers(value):
    """value and every list or object inside it."""
    yield value
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (dict, list)):
            yield from _containers(item)


def _retyped(rng, value):
    """A value of another JSON type, or a near miss of the same one."""
    near = [None, True, 1.5, "x", -3, 0, 2**70, [], {}, [1], {"p": 5}]
    if isinstance(value, int) and not isinstance(value, bool):
        near += [float(value), str(value), -value, value + 1]
    elif isinstance(value, str) and value.lstrip("-").isdigit():
        near += [int(value), "0" + value, value + " ", str(int(value) + 1)]
    return rng.choice(near)


def _mutate(rng, doc, names):
    """Drop, duplicate, retype or reorder one key or list item somewhere
    in doc, or swap two list elements, or repeat one over another."""
    box = rng.choice(list(_containers(doc)))
    keys = list(box) if isinstance(box, dict) else list(range(len(box)))
    if not keys:
        if isinstance(box, dict):
            box[rng.choice(names)] = _retyped(rng, None)
        else:
            box.append(_retyped(rng, None))
        return
    key, other = rng.choice(keys), rng.choice(keys)
    edit = rng.choice(("drop", "duplicate", "retype", "reorder", "swap", "repeat"))
    copy = json.loads(json.dumps(box[key]))
    if edit == "drop":
        del box[key]
    elif edit == "retype":
        box[key] = _retyped(rng, box[key])
    elif isinstance(box, dict):
        if edit == "duplicate":
            box[rng.choice(names)] = copy
        else:
            box[key], box[other] = box[other], box[key]
    elif edit == "duplicate":
        box.insert(rng.randrange(len(box) + 1), copy)
    elif edit == "reorder":
        rng.shuffle(box)
    elif edit == "swap":
        box[key], box[other] = box[other], box[key]
    else:
        box[other] = copy


def test_mutated_documents_load_canonically_or_raise_value_error():
    # a seeded mutation loop over a valid document: every mutant either
    # loads to a state with A and B strictly increasing whose save is the
    # mutant itself, byte for byte, or raises ValueError
    base = state_to_doc(run(initial_state(Config()), 6).state)
    names = sorted({key for box in _containers(base) if isinstance(box, dict) for key in box})
    rng = random.Random(2024)
    loaded = 0
    for _ in range(1000):
        doc = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc, names)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        try:
            state = loads_state(text)
        except ValueError:
            continue
        loaded += 1
        assert all(u < v for xs in (state.a, state.b) for u, v in zip(xs, xs[1:])), text
        assert dumps_state(state) == text, text
    assert loaded
