"""The benchmark's trace hook names adjfas functions; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

HOOK = Path(__file__).resolve().parents[1] / "perfbench" / "trace_hook" / "sitecustomize.py"


def load_hook(monkeypatch):
    # without PERFBENCH_TRACE_DIR the hook only defines its tables, patching nothing
    monkeypatch.delenv("PERFBENCH_TRACE_DIR", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_trace_hook", HOOK)
    hook = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hook)
    return hook


def test_every_trace_target_resolves(monkeypatch):
    hook = load_hook(monkeypatch)
    targets = [t[:2] for t in hook.TARGETS] + [hook.VWS_OPEN, hook.VWS_CLOSE]
    assert len(targets) > 2
    for modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                pytest.fail(f"trace target {modname}.{attr} does not exist")
        assert callable(obj), f"{modname}.{attr}"
