"""Error hierarchy: everything derives from ReproError."""

import pytest

from repro.common import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.ConfigurationError,
        errors.AllocationError,
        errors.VmError,
        errors.SchedulerError,
        errors.TraceError,
        errors.TraceStoreError,
        errors.SimulationError,
        errors.ResultSchemaError,
        errors.ExperimentError,
        errors.LockTimeout,
    ],
)
def test_subclasses_of_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_trace_store_error_is_a_trace_error():
    # Callers that degrade on any malformed trace also catch bad
    # on-disk containers.
    assert issubclass(errors.TraceStoreError, errors.TraceError)


def test_allocation_error_carries_node():
    err = errors.AllocationError(3)
    assert err.node == 3
    assert "node 3" in str(err)


def test_allocation_error_custom_message():
    err = errors.AllocationError(0, "machine out of memory")
    assert str(err) == "machine out of memory"
