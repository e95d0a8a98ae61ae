"""Set-up shared by every test module."""

import contextlib
import warnings

import pytest


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # Hypothesis writes a failing example's patch through
    # hypothesis.extra._patching, which its own hook imports when it reports
    # the failed test's teardown. That import loads libcst, and libcst loads
    # mypy_extensions, whose DeprecationWarning `-W error` turns into an
    # INTERNALERROR that hides the example. Imported here as soon as a test
    # phase fails, with that warning ignored, the module is cached for that
    # hook; every other warning stays an error, and a run without a failure
    # never loads libcst. Without libcst there is nothing to import.
    if call.excinfo is not None:
        with contextlib.suppress(ImportError), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
    yield
