import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """The interpreter's default int-string limit, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
