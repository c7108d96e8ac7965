"""The package's typed errors survive pickle and copy with their fields.

A connect run in a worker process sends its error back to the parent by
pickle, and pickle and copy rebuild an exception from its message alone
before they restore its fields.
"""

import copy
import pickle

import pytest

from fiberframe import (
    AdmissibilityCheck,
    ClusteringError,
    ConnectError,
    InadmissibleError,
    NotAFrameError,
    OffFiberError,
)

CHECK = AdmissibilityCheck(False, kind="partial_sum", index=1, lhs=1.9, rhs=1.5)
ERRORS = [
    (NotAFrameError("frame is rank deficient"), {}),
    (InadmissibleError(CHECK.describe(), CHECK), {"check": CHECK}),
    (ClusteringError("gap inside the ambiguity band"), {}),
    (OffFiberError("F1 is off the fiber", 1, 2.5e-3), {"index": 1, "residual": 2.5e-3}),
    (ConnectError("projection failed", t=0.375), {"t": 0.375}),
]


@pytest.mark.parametrize("error,fields", ERRORS, ids=[type(e).__name__ for e, _f in ERRORS])
def test_round_trips_with_its_fields(error, fields):
    for rebuilt in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error) and rebuilt.args == error.args
        assert {name: getattr(rebuilt, name) for name in fields} == fields
