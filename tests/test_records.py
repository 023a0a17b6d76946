"""Every file under ``tests/data/`` has exactly one writer: the one record
of ``tests/record.py`` that names it, computed by the ``record_<name>``
function of the test module the record names."""

import importlib
import os

import record


def test_every_data_file_is_named_by_exactly_one_record():
    named = [file for _, files in record.RECORDS.values() for file in files]
    assert sorted(named) == sorted(os.listdir(record.DATA))


def test_every_record_names_a_test_module_that_computes_it():
    for name, (module, _) in record.RECORDS.items():
        assert callable(getattr(importlib.import_module(module),
                                f"record_{name}", None)), name
