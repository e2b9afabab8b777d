import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sample_region_loop
from ripsbars.cloud import (
    Circle,
    Region,
    four_hole_disk,
    read_points_csv,
    sample_region,
    validate_region,
    write_points_csv,
)
from ripsbars.fileio import ParseError, read_lines


def test_four_hole_disk_geometry():
    region = four_hole_disk()
    validate_region(region)
    assert region.outer.radius == 1.0
    assert len(region.holes) == 4
    for hole in region.holes:
        assert hole.radius == 0.18
        # strictly inside the outer circle
        assert math.hypot(*hole.center) + hole.radius < 1.0
    # hole centers are 0.9 apart along each axis, radii sum to 0.36
    assert region.admissible_area() == pytest.approx(math.pi * (1 - 4 * 0.18**2))
    assert region.admissible_area() > 0


def test_single_point_in_unit_disk():
    region = Region(outer=Circle((0, 0), 1.0))
    (p,) = sample_region(region, 1, seed=11)
    assert math.hypot(*p) < 1.0


def test_samples_respect_membership():
    region = four_hole_disk()
    pts = sample_region(region, 50, seed=3)
    assert pts.shape == (50, 2)
    for x, y in pts.tolist():
        assert math.hypot(x, y) < 1.0
        for hole in region.holes:
            assert math.hypot(x - hole.center[0], y - hole.center[1]) > hole.radius


def test_determinism_bit_for_bit():
    region = four_hole_disk()
    a = sample_region(region, 30, seed=42)
    b = sample_region(region, 30, seed=42)
    assert np.array_equal(a, b)
    c = sample_region(region, 30, seed=43)
    assert not np.array_equal(a, c)


def test_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        sample_region(four_hole_disk(), 0)


def test_rejects_hole_outside():
    bad = Region(
        outer=Circle((0, 0), 1.0), holes=(Circle((0.9, 0.0), 0.5),)
    )
    with pytest.raises(ValueError, match="inside"):
        validate_region(bad)


def test_rejects_overlapping_holes():
    bad = Region(
        outer=Circle((0, 0), 1.0),
        holes=(Circle((-0.3, 0), 0.25), Circle((0.1, 0), 0.25)),
    )
    with pytest.raises(ValueError, match="overlap"):
        validate_region(bad)


def test_rejects_hole_swallowing_region():
    """A hole covering (nearly) the whole disk leaves no admissible area."""
    bad = Region(outer=Circle((0, 0), 1.0), holes=(Circle((0, 0), 1.0),))
    with pytest.raises(ValueError):
        sample_region(bad, 5, seed=0)


def test_quadrant_uniformity_smoke():
    """Fraction of samples per quadrant within 3σ of the area fraction.

    The region is symmetric under both axis reflections, so each open
    quadrant carries exactly 1/4 of the admissible area.
    """
    region = four_hole_disk()
    n = 10_000
    pts = sample_region(region, n, seed=2026)
    count = int(((pts[:, 0] > 0) & (pts[:, 1] > 0)).sum())
    expected = n / 4
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(count - expected) < 3 * sigma


def test_points_csv_round_trip(tmp_path):
    pts = sample_region(four_hole_disk(), 9, seed=8)
    path = tmp_path / "points.csv"
    write_points_csv(str(path), pts, config={"command": "cloud"})
    back = read_points_csv(str(path), read_lines(str(path)))
    assert back.dtype == np.float64
    assert np.array_equal(back, pts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=300))
def test_sampler_matches_per_candidate_loop(seed, n):
    region = four_hole_disk()
    assert np.array_equal(sample_region(region, n, seed), sample_region_loop(region, n, seed))


@pytest.mark.parametrize("n", [1, 40, 300])
@pytest.mark.parametrize("seed", range(5))
def test_sampler_draws_match_per_candidate_loop(n, seed):
    """The sizes the workloads draw, on fixed seeds: the one distance call
    over every circle keeps exactly the candidates the loop keeps."""
    region = four_hole_disk()
    assert np.array_equal(sample_region(region, n, seed), sample_region_loop(region, n, seed))


def test_sampler_keeps_boundary_convention():
    """Strict inside the outer circle, outside the closed holes: an annulus
    whose inner hole is large rejects most candidates, and every kept point
    matches the per-candidate loop."""
    region = Region(outer=Circle((0.5, -0.25), 2.0), holes=(Circle((0.5, -0.25), 1.5),))
    pts = sample_region(region, 200, seed=9)
    assert np.array_equal(pts, sample_region_loop(region, 200, 9))


def test_points_csv_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.5,0.5\n")
    with pytest.raises(ParseError, match="header"):
        read_points_csv(str(path), read_lines(str(path)))


def test_points_csv_rejects_bad_pair(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1.0\n")
    with pytest.raises(ParseError, match="pair"):
        read_points_csv(str(path), read_lines(str(path)))
