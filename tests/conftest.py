"""Set-up shared by every test module."""

import contextlib
import warnings

# Hypothesis writes a failing example's patch through hypothesis.extra._patching,
# which it imports inside a pytest hook. That import loads libcst, and libcst
# loads mypy_extensions, whose DeprecationWarning `-W error` turns into an
# INTERNALERROR that hides the example. Imported once here with that warning
# ignored, the module is cached for the hook; every other warning stays an
# error. Without libcst there is nothing to import.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
