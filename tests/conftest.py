"""Test-session set-up shared by every test module."""

import warnings

# When a hypothesis test fails, its pytest plugin imports this module to
# write a patch file; the import pulls in libcst, which warns about
# ``mypy_extensions.TypedDict``. Under ``-W error`` that warning turns the
# report into an INTERNALERROR that hides the falsifying example, so the
# module is imported once here with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
