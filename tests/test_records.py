"""The value types: immutable, and built without ``dataclasses``.

The records are ``typing.NamedTuple`` classes.  The operator types, the
block matrix, the extension problem and the Moore-Penrose result are plain
classes: they are weakly referenced (``antiop.derived``), validate their
input or cache with ``cached_property``.  ``Report`` is the one mutable
type.  A cold process thus imports no ``dataclasses`` (pinned in
``test_kernel_ownership.py``).
"""

import importlib

import numpy as np
import pytest

from antilin.antiop import AntilinearOperator
from antilin.blockops import BlockAntilinearMatrix, complement
from antilin.extensions import ExtensionProblem
from antilin.matkernel import ranked_svd
from antilin.reporting import Report
from antilin.structure import NormalityCheck, moore_penrose

# module -> its NamedTuple records
RECORDS = {
    "blockops": ("ComplementResult", "ScanEntry", "ScanReport", "RankLinkReport"),
    "extensions": ("ExtensionResidual", "SpanResult"),
    "io": ("LoadedOperator",),
    "matkernel": ("TakagiFactorization", "Factored"),
    "numrange": ("NumericalRangeDisk", "WitnessResult"),
    "reporting": ("CheckRecord",),
    "spectra": ("SpectrumDescription", "CrosscheckPoint", "CrosscheckReport"),
    "structure": ("NormalityCheck", "PolarDecomposition", "IdentitySuiteResult"),
}
RECORD_CLASSES = [
    getattr(importlib.import_module(f"antilin.{module}"), name)
    for module, names in sorted(RECORDS.items()) for name in names
]


def _frozen_instances() -> dict:
    """name -> (instance, one of its fields) for each immutable plain class."""
    op = AntilinearOperator(np.diag([2.0, 1j]))
    return {
        "AntilinearOperator": (op, "canon"),
        "BlockAntilinearMatrix": (BlockAntilinearMatrix(op, op, op, op), "a"),
        "ExtensionProblem": (ExtensionProblem(op, np.eye(2)[:, :1]), "embed"),
        "MpResult": (moore_penrose(op), "dagger"),
    }


def test_eighteen_records():
    assert len(RECORD_CLASSES) == 18


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_refuses_assignment(cls):
    rec = cls(*[None] * len(cls._fields))
    assert not hasattr(cls, "__dataclass_fields__")
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        rec.unknown = 1


@pytest.mark.parametrize("name", sorted(_frozen_instances()))
def test_plain_class_refuses_assignment(name):
    obj, field = _frozen_instances()[name]
    assert not hasattr(type(obj), "__dataclass_fields__")
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is not None


def test_cached_fields_still_fill_on_frozen_classes():
    objs = _frozen_instances()
    blk, mp = objs["BlockAntilinearMatrix"][0], objs["MpResult"][0]
    assert blk.flatten() is blk.flatten()
    assert mp.residuals is mp.residuals


@pytest.mark.parametrize("value", [True, False])
def test_normality_check_truth_follows_value(value):
    # a tuple of three fields is always truthy; the check is truthy when normal
    assert bool(NormalityCheck(value, 0.0, not value)) is value


def test_array_records_compare_by_identity():
    blk = _frozen_instances()["BlockAntilinearMatrix"][0]
    for make in (lambda: ranked_svd(np.eye(2)), lambda: complement(blk, "S2", 0.5)):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b}) == 2


def test_reports_own_their_lists():
    one, two = Report("inspect", ""), Report("inspect", "")
    one.add("adjoint_biduality", 0.0)
    assert len(one.checks) == 1 and two.checks == []
    assert one.environment is not two.environment and one.summary is not two.summary
    one.input_digest = "0" * 64
    assert one.input_digest == "0" * 64
