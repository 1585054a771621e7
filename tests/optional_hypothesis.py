"""hypothesis's ``given``, ``settings``, ``example`` and ``strategies``, or
inert stand-ins where it is not installed, so that a test file can hold
property tests beside tests that need only the standard library.

Without hypothesis each ``@given`` test is skipped, and the others run;
a test that runs a ``@given`` function of its own is marked
``needs_hypothesis``.  The stand-ins are never drawn from: a strategy, the
strategies module and ``st.composite`` of a function are all one object,
whose every attribute and call is that object again.
"""

import pytest

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:
    st = None
needs_hypothesis = pytest.mark.skipif(st is None, reason="needs hypothesis")

if st is None:

    class _Inert:
        """A stand-in strategy, and the strategies module: each attribute
        and each call is this object again."""

        def __getattr__(self, name):
            if name.startswith("__"):
                raise AttributeError(name)
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Inert()

    def settings(*args, **kwargs):
        return lambda test: test

    example = settings

    def given(*strategies, **named):
        return pytest.mark.skip(reason="needs hypothesis")


__all__ = ["example", "given", "needs_hypothesis", "settings", "st"]
