import pytest

from twistlab.numerics import IndeterminateRatioError, guarded_ratio


def test_guarded_ratio():
    assert guarded_ratio(4.0, 2.0) == 2.0
    with pytest.raises(IndeterminateRatioError) as info:
        guarded_ratio(1e-14, 1e-13)
    assert info.value.numerator == 1e-14
    # one side alive keeps the ratio defined
    assert guarded_ratio(1.0, 1e-14) > 0
