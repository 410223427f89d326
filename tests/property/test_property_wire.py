"""Property-based tests: the cluster's table decoder on untrusted payloads.

A worker decodes every table it is sent with ``table_from_wire``.  Whatever
JSON arrives, the decoder must either return a table or raise a typed
:class:`~repro.exceptions.ReproError` — never a bare ``KeyError`` or
``TypeError`` — and a table it returns must survive another encode/decode
round trip unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.relational.types import DataType
from repro.service.protocol import ProtocolError
from repro.service.wire import table_from_wire, table_to_wire
from repro.sessions.persistence import table_fingerprint

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Keys the decoder looks for, mixed with arbitrary ones.
_KEYS = st.sampled_from(
    ["name", "attributes", "rows", "data_type", "source_relation", "$date", "$datetime"]
) | st.text(max_size=5)

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5)
)

_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=20,
)

_CELLS = (
    _SCALARS
    | st.dates().map(lambda day: {"$date": day.isoformat()})
    | st.datetimes().map(lambda moment: {"$datetime": moment.isoformat()})
    | st.fixed_dictionaries({"$date": _JSON})
    | _JSON
)

_ATTRIBUTES = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["a", "b", "c"]) | _JSON,
        "data_type": st.sampled_from([kind.value for kind in DataType]) | _JSON,
        "source_relation": st.none() | st.sampled_from(["R", "S"]) | _JSON,
    }
)

#: Payloads shaped like ``table_to_wire`` output, with any field malformed.
_TABLES = st.fixed_dictionaries(
    {
        "name": st.text(max_size=5) | _JSON,
        "attributes": st.lists(_ATTRIBUTES, max_size=3) | _JSON,
        "rows": st.lists(st.lists(_CELLS, max_size=3), max_size=3) | _JSON,
    }
)


def _decode_or_typed_error(payload: object) -> None:
    try:
        table = table_from_wire(payload)
    except ReproError:
        return
    again = table_from_wire(table_to_wire(table))
    assert again.name == table.name
    assert again.attributes == table.attributes
    assert table_fingerprint(again) == table_fingerprint(table)


class TestTableFromWire:
    @SETTINGS
    @given(payload=st.dictionaries(_KEYS, _JSON, max_size=4))
    def test_arbitrary_json_objects_decode_or_raise_typed(self, payload):
        _decode_or_typed_error(payload)

    @SETTINGS
    @given(payload=_TABLES)
    def test_table_shaped_payloads_decode_or_raise_typed(self, payload):
        _decode_or_typed_error(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"name": "t", "attributes": 5, "rows": []},
            {"name": "t", "attributes": [{"name": "a", "data_type": "blob"}], "rows": []},
            {"name": "t", "attributes": [{"name": "a", "data_type": "text"}], "rows": [5]},
            {
                "name": "t",
                "attributes": [{"name": "a", "data_type": "date"}],
                "rows": [[{"$date": "not a date"}]],
            },
            [],
        ],
    )
    def test_malformed_payloads_raise_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            table_from_wire(payload)

