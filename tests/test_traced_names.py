"""The traced benchmark (shiftbench/run.py) wraps package names from outside,
where each calling module binds them; a name renamed or dropped in src/
fails here, not only in a traced benchmark run."""

import importlib.util
import os
import sys

from shiftlab import cli, tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, monkeypatch):
    # by path, so that shiftbench/ needs no place on sys.path (its tests
    # have their own conftest); registered while the test runs, as its
    # dataclasses need
    spec = importlib.util.spec_from_file_location(
        f"shiftbench_{name}", os.path.join(ROOT, "shiftbench", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_name_the_traced_benchmark_wraps_exists(monkeypatch):
    run, spans = _load("run", monkeypatch), _load("spans", monkeypatch)
    rec = spans.Recorder()
    try:
        run.install_spans(rec)
        assert cli.write_container is not tensor.write_container
    finally:
        rec.unwrap_all()
    assert cli.write_container is tensor.write_container
