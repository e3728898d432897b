"""Shared benchmark utilities.

Every benchmark renders its table to stdout and into
``benchmarks/results/<name>.txt`` so the reproduced figures are
inspectable after a run.  The heavy simulation grid is computed once per
process and shared by all performance figures (see
:mod:`repro.harness.runner`).
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save


@pytest.fixture(scope="session")
def scale():
    from repro.harness.runner import get_scale

    return get_scale()
