"""The bench tracer's names against the library: a traced function that
is renamed or deleted shows here, by name, instead of as absent metrics
in a bench run."""

import importlib.util
from pathlib import Path

from balext import extract, tables

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = extract.table_for, tables.BalancedTable.lookup
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == {}
        assert extract.table_for is not originals[0]
    finally:
        tracer.uninstall()
    assert (extract.table_for, tables.BalancedTable.lookup) == originals
