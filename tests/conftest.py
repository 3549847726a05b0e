"""Fixtures shared by the test modules."""

import ctypes

import numpy as np
import pytest

from polylab import numkernel


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


@pytest.fixture
def scipy_fallback(monkeypatch):
    """A switch to what numkernel runs on a numpy build that exports no LAPACK.

    Calling it sets numkernel._LAPACK to None, so that zggev, zgeqp3 and
    nrm2 come from scipy's wrappers and SvdFactor from np.linalg.svd. The
    workspace sizes cached from numpy's queries are dropped then and at
    teardown, so that the fallback queries scipy's build for its own.
    """
    if numkernel._LAPACK is None:
        pytest.skip("numpy's LAPACK does not export the routines; the fallback is the only path")
    caches = (numkernel._zggev_lwork, numkernel._zgeqp3_lwork)

    def switch():
        for cached in caches:
            cached.cache_clear()
        monkeypatch.setattr(numkernel, "_LAPACK", None)

    yield switch
    for cached in caches:
        cached.cache_clear()
