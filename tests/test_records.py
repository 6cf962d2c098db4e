"""The three record types repr, hash, compare and pickle by their fields in
order, and no field can be assigned."""

import pickle

import pytest

from nrooted.relations import VerificationReport
from nrooted.ribbon import RootedMap, point_map
from nrooted.wick import Contraction

MAP_FIELDS = ("half_edges", "alpha", "sigma", "roots")

#: (record, its field names, their values, its repr)
RECORDS = [
    (point_map(), MAP_FIELDS, (0, (), (), ()), "RootedMap(point)"),
    (
        RootedMap(2, (2, 1), (2, 1), (1,)),
        MAP_FIELDS,
        (2, (2, 1), (2, 1), (1,)),
        "RootedMap(half_edges=2, alpha=(2, 1), sigma=(2, 1), roots=(1,))",
    ),
    (
        Contraction(1, 2, (2, 1), (1, 2, 3)),
        ("n_external", "n_vertices", "photon", "targets"),
        (1, 2, (2, 1), (1, 2, 3)),
        "Contraction(N=1, 2e=2, photon=[(1, 2)], targets=(1, 2, 3))",
    ),
    (
        VerificationReport("ode-m1", 10, False, 3, detail="at λ^3: 1 != 2"),
        ("identity", "order_checked", "passed", "first_failure_power", "detail"),
        ("ode-m1", 10, False, 3, "at λ^3: 1 != 2"),
        "VerificationReport(identity='ode-m1', order_checked=10, passed=False, "
        "first_failure_power=3, detail='at λ^3: 1 != 2')",
    ),
]
IDS = ["point", "rooted-map", "contraction", "verification-report"]


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_repr(record, names, values, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, names, values, text):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(record, names, values, text):
    assert tuple(getattr(record, name) for name in names) == values
    assert hash(record) == hash(values)


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_pickle_round_trip(record, names, values, text):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record


def test_defaults():
    assert VerificationReport("ode-m1", 10, True, None).detail == ""
