"""A wall-clock budget for tests that guard against unbounded runs."""

import contextlib
import signal

import pytest

needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test if the block runs longer than ``seconds``."""

    def over_budget(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
