"""The package's typed errors survive pickle and copy with their fields,
and a wrong-typed object at the public boundary is a typed error too.

A connect run in a worker process sends its error back to the parent by
pickle, and pickle and copy rebuild an exception from its message alone
before they restore its fields.
"""

import copy
import pickle

import numpy as np
import pytest

from fiberframe import (
    AdmissibilityCheck,
    ClusteringError,
    ConnectError,
    ConnectOptions,
    FiberTarget,
    FlowOptions,
    FramePath,
    InadmissibleError,
    NotAFrameError,
    OffFiberError,
    alternate_projections,
    connect,
    fiber_residual,
    fiber_residual_gradient,
    flow_to_fiber,
    project_to_fiber,
    random_frame_on_fiber,
    validate_path,
    write_target,
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


T = FiberTarget.funtf(2, 4)
F0, F1 = random_frame_on_fiber(T, seed=0), random_frame_on_fiber(T, seed=1)
PATH = connect(F0, F1, T)
# each call passes one wrong-typed object, and a bad frame, tol or seed where
# one is read, so the class check must come before any other work; each
# raised a bare AttributeError from deep inside the call
WRONG = {
    "connect_dict_options": (
        lambda _d: connect(F0, F1, T, {"path_tol": 1e-8}),
        "options must be a ConnectOptions or None, got dict",
    ),
    "connect_flow_options": (
        lambda _d: connect(F0, F1, T, FlowOptions()),
        "options must be a ConnectOptions or None, got FlowOptions",
    ),
    "connect_target": (lambda _d: connect("bad", F1, None), "target must be a FiberTarget, got NoneType"),
    "project_options": (
        lambda _d: project_to_fiber("bad", T, ConnectOptions()),
        "options must be a FlowOptions or None, got ConnectOptions",
    ),
    "flow_target": (lambda _d: flow_to_fiber("bad", "t"), "target must be a FiberTarget, got str"),
    "alternate_options": (
        lambda _d: alternate_projections(F0, T, {"tol": 1e-8}),
        "options must be a FlowOptions or None, got dict",
    ),
    "residual_target": (lambda _d: fiber_residual(F0, None), "target must be a FiberTarget, got NoneType"),
    "gradient_target": (
        lambda _d: fiber_residual_gradient(F0, T.operator),
        "target must be a FiberTarget, got ndarray",
    ),
    "write_target": (lambda d: write_target("t", d / "t.json"), "target must be a FiberTarget, got str"),
    "random_frame_target": (lambda _d: random_frame_on_fiber("t", -1), "target must be a FiberTarget, got str"),
    "validate_path_path": (
        lambda _d: validate_path(np.stack([F0, F1]), tol=-1.0),
        "path must be a FramePath, got ndarray",
    ),
    "frame_path_target": (
        lambda _d: FramePath(PATH.times, PATH.frames[:1], "t"),
        "target must be a FiberTarget, got str",
    ),
}


@pytest.mark.parametrize("case", list(WRONG))
def test_wrong_typed_object_names_argument_and_class(case, tmp_path):
    call, message = WRONG[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tmp_path)
    assert not (tmp_path / "t.json").exists()


def test_validate_path_endpoints_must_be_a_pair():
    # a single endpoint failed with "not enough values to unpack"
    for endpoints in ((F0,), (F0, F1, F1), 3):
        with pytest.raises(ValueError, match=r"^endpoints must be a pair \(F0, F1\)$"):
            validate_path(PATH, endpoints=endpoints)
