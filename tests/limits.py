"""A wall-clock budget for tests that guard against unbounded runs."""

import contextlib
import signal

import pytest

needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


class _OverBudget(BaseException):
    """Raised by the alarm wherever the block happens to be running; a
    BaseException, so that no ``except Exception`` in library code swallows it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test if the block runs longer than ``seconds``.

    The alarm only unwinds the block; the test fails here, at the
    ``yield``, so the failure carries no library frames for pytest to
    format."""

    def over_budget(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(seconds)
    try:
        yield
    except _OverBudget:
        raise pytest.fail.Exception(f"still running after {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
