"""Fixtures shared by the test modules."""

import ctypes

import numpy as np
import pytest


@pytest.fixture(params=["one-blas-thread", "blas-threads-as-set"])
def blas_threads(request):
    """Run a test with numpy's OpenBLAS on one thread, then on the threads it was given.

    SvdFactor back-transforms only the rows of V^H it needs on one BLAS
    thread and all of them on more, so its byte-equality tests take both
    paths whether or not the environment pins the thread count.
    """
    if request.param == "blas-threads-as-set":
        yield
        return
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
