"""Fixtures shared by the test modules."""

import pytest

from polylab import numkernel


@pytest.fixture(params=["one-blas-thread", "two-blas-threads", "blas-threads-as-set"])
def blas_threads(request):
    """Run a test with numpy's OpenBLAS on one thread, on two, then on the threads it was given.

    SvdFactor back-transforms only the rows of V^H it needs on one BLAS
    thread and all of them on more, so its byte-equality tests take both
    paths whether or not the environment pins the thread count.
    """
    if request.param == "blas-threads-as-set":
        yield
        return
    if numkernel._SET_BLAS_THREADS is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    before = numkernel._BLAS_THREADS()
    numkernel._SET_BLAS_THREADS(1 if request.param == "one-blas-thread" else 2)
    try:
        yield
    finally:
        numkernel._SET_BLAS_THREADS(before)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on two threads for the test, its count restored after."""
    if numkernel._SET_BLAS_THREADS is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    before = numkernel._BLAS_THREADS()
    numkernel._SET_BLAS_THREADS(2)
    yield
    numkernel._SET_BLAS_THREADS(before)


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
