import pytest

from idcos.stability import amplification, stability_boundary_real_axis


class TestRealAxisBoundary:
    @pytest.mark.parametrize("corrections,crossing", [(1, -195.45), (2, -156.21)])
    def test_strang_crossing(self, corrections, crossing):
        tol = 1e-6
        x = stability_boundary_real_axis("strang", corrections, tol=tol)
        assert x == pytest.approx(crossing, abs=0.01)
        step = 2 * tol * abs(x)
        assert abs(amplification(x + step, "strang", corrections)) <= 1.0
        assert abs(amplification(x - step, "strang", corrections)) > 1.0

    @pytest.mark.parametrize("scheme", ["lie-trotter", "adi"])
    def test_a_stable_base_has_no_crossing(self, scheme):
        assert stability_boundary_real_axis(scheme, 0) is None
