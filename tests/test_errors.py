import math

import numpy as np
import pytest

from ventrc.errors import ConfigurationError, check_number

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("value, bounds, expected", [
    # NaN fails every bound, and the first one names the rule
    (NAN, {"gt": 0}, "positive"),
    (NAN, {"ge": 1}, ">= 1"),
    (NAN, {}, "finite"),
    (NAN, {"gt": 0, "le": INF}, "positive"),
    (NAN, {"le": INF}, "<= inf"),
    # inf passes only an upper bound le=inf; -inf fails any lower bound
    (INF, {"gt": 0}, "finite"),
    (INF, {"gt": 0, "le": INF}, None),
    (INF, {"gt": 0, "lt": 250.0}, "< 250.0"),
    (-INF, {"ge": 0}, ">= 0"),
    (-INF, {"le": INF}, None),
    # open and closed bounds
    (0.0, {"gt": 0}, "positive"),
    (0.0, {"ge": 0}, None),
    (1.0, {"gt": 1}, "> 1"),
    (250.0, {"gt": 0, "lt": 250.0}, "< 250.0"),
    (250.0, {"gt": 0, "le": 250.0}, None),
    (-1e-300, {"ge": 0}, ">= 0"),
    # counts pass operator.index, and their index is returned
    (2.5, {"ge": 0, "integer": True}, "an integer"),
    (2.0, {"ge": 0, "integer": True}, "an integer"),
    ("3", {"ge": 0, "integer": True}, "an integer"),
    (None, {"ge": 0, "integer": True}, "an integer"),
    (np.int64(3), {"ge": 0, "integer": True}, None),
    (0, {"ge": 1, "integer": True}, ">= 1"),
    (0, {"gt": 0, "integer": True}, "positive"),
])
def test_check_number(value, bounds, expected):
    if expected is None:
        result = check_number("field", value, **bounds)
        assert result == value and type(result) is (int if bounds.get("integer") else type(value))
    else:
        with pytest.raises(ConfigurationError) as exc:
            check_number("field", value, **bounds)
        assert str(exc.value) == f"field must be {expected}, got {value!r}"
