import pytest

from limits import needs_alarm, time_limit
from tubecalc import type_a


@needs_alarm
def test_budget_spent_in_library_code_fails_at_the_with_statement():
    with pytest.raises(pytest.fail.Exception, match="still running after 1 s") as info:
        with time_limit(1):
            type_a.enumerate_tilting(300)  # its compatibility table alone takes minutes
    assert info.value.__cause__ is None and info.value.__suppress_context__
    assert not [entry for entry in info.traceback if "tubecalc" in str(entry.path)]
