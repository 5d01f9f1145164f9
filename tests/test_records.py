"""The result records: immutable named tuples, one per kind of result."""

import importlib
import pkgutil

import pytest

import ancestral
from ancestral import (
    OpKind,
    ancestral_matrix,
    bound_report,
    broom,
    by_vertices_and_leaves,
    char_poly,
    complete_dary,
    count_by_edge_states,
    eigen_decompose,
    eigenvalue_one_certificate,
    path_incidence_matrix,
    series_reduced,
    spectral_radius,
    structural_stats,
    trig_spectral_radius,
    valid_specs,
    verify_extremal,
)
from ancestral.exact_charpoly import dary_determinant_check

from helpers import example_tree


def _records():
    """One record of every kind, each from the function that makes it."""
    t = example_tree()
    return [
        t,
        structural_stats(t),
        ancestral_matrix(t),
        path_incidence_matrix(t),
        bound_report(t),
        char_poly(t),
        dary_determinant_check(complete_dary(2, 2), 2),
        count_by_edge_states(t),
        eigen_decompose(ancestral_matrix(t)),
        eigenvalue_one_certificate(t),
        spectral_radius(t),
        trig_spectral_radius(5),
        series_reduced(4),
        verify_extremal(by_vertices_and_leaves(6, 3), broom(2, 3)),
        valid_specs(t, OpKind.STAR_SHIFT)[0],
    ]


def _public_record_types():
    """Every public named-tuple class defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(ancestral.__path__):
        module = importlib.import_module(f"ancestral.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found.add(obj)
    return found


def test_every_record_kind_is_covered():
    records = _records()
    assert len(records) == 15
    assert {type(r) for r in records} == _public_record_types()


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_no_field_of_a_record_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0
