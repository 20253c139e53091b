"""What the benchmark relies on: the tracer patches sublin functions by name, and
each must still exist; the letter-ga workload's reports are pinned by digest."""
import importlib
import importlib.util
import inspect
import os

import pytest

from sublin import run_protocol

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")

# report digests (timing and call count left out) of letter-ga's input seeds 1-5;
# a change that moves them on purpose updates them here and says so in CHANGES.md
LETTER_GA_DIGESTS = {1: "04c71b7b4b1c21e2", 2: "419edfc4dcf74a51", 3: "07acf05bddb0b56c",
                     4: "7534d9f913047ca0", 5: "003c3953ef276b50"}


def _traced_names():
    """(module, function) pairs of perfbench/tracing.py's SPANNED and COUNTED tables."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for table in (tracing.SPANNED, tracing.COUNTED)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_function_exists(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"sublin.{module}"), name, None))


def test_letter_ga_reports_are_pinned(tmp_path, monkeypatch):
    # perfbench/workloads.py is loaded by path and only read; it imports its
    # sibling module `letters`, so perfbench/ goes on the path for the load
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["letter-ga"]
    for seed, want in LETTER_GA_DIGESTS.items():
        workload.prepare(str(tmp_path / f"seed{seed}"), seed)
        report = run_protocol(workload.config(workload.load()))
        assert (workloads.report_digest(report), report.matcher_calls) == (want, 72), seed
