import pathlib

import pytest


@pytest.fixture
def csv_file(tmp_path):
    """Write CSV text to a temp file and return its path."""

    def _write(text: str, name: str = "data.csv") -> str:
        p = pathlib.Path(tmp_path) / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


@pytest.fixture
def two_blas_threads():
    """numpy's BLAS on two threads for the test, where `credo.blas` can set
    the count (the test is skipped where it cannot); the count is restored."""
    from credo import blas

    if blas._API is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    get, put, _ = blas._API
    before = get()
    put(2)
    yield
    put(before)
