"""Byte parity of :func:`repro.chain.ledger.canonical_encode`.

Every byte the ledgers store and hash goes through ``canonical_encode``,
so its output is frozen: run keys, stored-byte counts (Theorem 4.10) and
the benchmark digests all rest on it.  The reference below is the
recursive encoder the C-backed one replaced, kept here as the oracle:
on every payload of the documented shape — str keys; dict, list, tuple,
str, int, float, bool, ``None``, bytes and bytearray values — both must
produce the same bytes.  Outside that shape the encoder must refuse
with :class:`LedgerError` rather than spell anything differently.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.engine as analytic_engine
import repro.chain.ledger as ledger
from repro.api.engine import get_engine, list_engines
from repro.api.scenario import Scenario
from repro.chain.ledger import canonical_encode
from repro.digraph.generators import cycle_digraph
from repro.errors import LedgerError


def reference_encode(payload: dict) -> bytes:
    """The recursive encoder ``canonical_encode`` must match byte for byte."""
    return json.dumps(
        _reference_value(payload), separators=(",", ":"), sort_keys=True
    ).encode()


def _reference_value(value):
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): _reference_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise LedgerError(f"cannot encode {type(value).__name__} in a ledger record")


leaves = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),
    st.text(),
    st.text(alphabet="é→☃\u0000\"\\𝄞", max_size=6),
    st.binary(max_size=24),
    st.binary(max_size=24).map(bytearray),
    st.booleans(),
    st.none(),
)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)

payloads = st.dictionaries(st.text(max_size=8), values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_matches_the_recursive_encoder(payload):
    assert canonical_encode(payload) == reference_encode(payload)


def str_keys_only(value) -> bool:
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and str_keys_only(item) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(str_keys_only(item) for item in value)
    return True


@pytest.mark.parametrize("engine", list_engines())
def test_every_engine_record_matches(engine, monkeypatch):
    seen: list[dict] = []

    def recording(payload: dict) -> bytes:
        seen.append(payload)
        return canonical_encode(payload)

    monkeypatch.setattr(ledger, "canonical_encode", recording)
    # A memoized closed-form template would answer without writing records.
    monkeypatch.setattr(analytic_engine, "_TEMPLATES", OrderedDict())
    get_engine(engine).run(Scenario(cycle_digraph(3), seed=4))
    assert seen, f"{engine} wrote no ledger record"
    for payload in seen:
        assert str_keys_only(payload)
        assert canonical_encode(payload) == reference_encode(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"x": {1, 2}},
        {"x": frozenset()},
        {"x": object()},
        {b"key": 1},
        {"x": {(1, 2): "tuple key"}},
        {"x": {1: "mixed", "a": "key types"}},
    ],
    ids=["set", "frozenset", "object", "bytes-key", "tuple-key", "mixed-keys"],
)
def test_outside_the_contract_raises_ledger_error(payload):
    with pytest.raises(LedgerError) as caught:
        canonical_encode(payload)
    assert not isinstance(caught.value, TypeError)
