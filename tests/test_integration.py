"""Cross-module integration tests: the full pipeline, and the examples."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestFullPipeline:
    def test_code_to_memory_pipeline(self, spec, rng):
        """Code -> plan -> decoder -> yield -> defects -> memory."""
        from repro import (
            CrossbarMemory,
            DopingPlan,
            HalfCaveDecoder,
            crossbar_yield,
            make_code,
            sample_defect_map,
        )

        code = make_code("BGC", 2, 10)

        # fabrication plan is self-consistent
        plan = DopingPlan.from_code(code, spec.nanowires_per_half_cave)
        assert plan.verify()

        # decoder figures agree between facade and report
        decoder = HalfCaveDecoder(code, spec.nanowires_per_half_cave)
        report = crossbar_yield(spec, code)
        assert report.cave_yield == pytest.approx(decoder.cave_yield)

        # sampled instance stores data
        memory = CrossbarMemory(sample_defect_map(spec, code, seed=0))
        payload = rng.integers(0, 2, 512).astype(bool)
        memory.write_block(0, payload)
        assert np.array_equal(memory.read_block(0, 512), payload)

    def test_top_level_api_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_public_docstrings_everywhere(self):
        """Every public module, class and function carries a docstring."""
        import importlib
        import inspect
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            assert inspect.getdoc(module), f"{info.name} lacks a docstring"
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != info.name:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert inspect.getdoc(obj), f"{info.name}.{name}"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "code_comparison.py",
        "yield_optimization.py",
        "memory_simulation.py",
        "fabrication_flow.py",
        "readout_and_ecc.py",
        "end_to_end_array.py",
    ],
)
def test_examples_run_clean(script, capsys, monkeypatch):
    """Every shipped example runs to completion and prints something."""
    path = EXAMPLES_DIR / script
    assert path.exists()
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) >= 3
