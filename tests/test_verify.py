import math

import pytest

from reduced_measures import verify


def test_family_gap_bound_scales_with_each_domain_volume():
    details = verify.check_monotone_scheme().details
    # the 2-d instances live on the unit disk, the 3-d one on the unit ball
    for tag, volume in (("exp-8pi", math.pi), ("exp-2pi", math.pi),
                        ("p2-dirac", 4.0 * math.pi / 3.0)):
        assert details[f"{tag}_family_gap_bound"] == pytest.approx(5e-7 * volume, rel=1e-12)
        assert details[f"{tag}_family_gap"] <= details[f"{tag}_family_gap_bound"]
