"""Every file under ``tests/data/`` has exactly one writer: the one record
of ``tests/record.py`` that names it."""

import os

import record


def test_every_data_file_is_named_by_exactly_one_record():
    named = [file for _, files in record.RECORDS.values() for file in files]
    assert sorted(named) == sorted(os.listdir(record.DATA))
