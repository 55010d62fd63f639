"""Each GeometryError subclass below is raised by a literal input, and each
refusal threshold holds at its boundary."""

import cmath
import contextlib
import io
import json
import math
import random
from unittest import mock

import pytest

from diskgeom import cli
from diskgeom.configurations import build_config
from diskgeom.errors import (
    CollinearPoints,
    CollinearWithOrigin,
    ConcentricCircles,
    DegenerateInput,
    EqualModuli,
    GeometryError,
    InvalidCyclicOrder,
    NearBoundary,
    NoInDiskRoot,
    NoRealIntersection,
    OriginIntersection,
    OutsideDisk,
    PoleHit,
    SamplerStarvation,
)
from diskgeom.euclid import GenCircle, meet, orthocenter
from diskgeom.figures import build_figure
from diskgeom.hyperbolic import (
    check_cyclic_order,
    chord_vs_geodesic_midpoint,
    midpoint_via_inversion,
    midpoint_via_lens,
    mobius_T,
)
from diskgeom.spherical import gcis, gcis_roots, great_circle_projection, orthogonal_great_circle
from diskgeom.oracles import midpoint_oracle
from diskgeom.verify import SampleSpec, VerificationReport, conjecture_check, sample_disk_pair


def _inversion_centered_at(c):
    """midpoint_via_inversion on a regular pair whose inversion center,
    L[a,b] ^ the endpoint chord, is put at c."""
    with mock.patch("diskgeom.hyperbolic.line_intersection", lambda *_: c):
        return midpoint_via_inversion(0.5 + 0j, 0.2 + 0.6j)


CASES = [
    # 2 = 1/conj(0.5) is the pole of T_0.5
    (PoleHit, lambda: mobius_T(0.5 + 0j, 2 + 0j)),
    # the diagonals of the square 1, i, -1, -i cross at 0
    (OriginIntersection,
     lambda: chord_vs_geodesic_midpoint(1 + 0j, 1j, -1 + 0j, -1j)),
    # h = 1.5 lies outside the disk
    (OutsideDisk,
     lambda: conjecture_check(cmath.exp(0.3j), cmath.exp(1.5j), cmath.exp(3j),
                              cmath.exp(4.5j), 1.5 + 0j)),
    # the geodesics around 2 and -2 are disjoint: the radicand is 0 - 4^2
    (NoRealIntersection, lambda: meet((-2 + 0j, 1.0), (2 + 0j, 1.0), +1)),
    # an inversion center inside the unit circle spans no orthogonal circle
    (NoInDiskRoot, lambda: _inversion_centered_at(0.5j)),
    # the three vertices lie on the real axis
    (CollinearPoints, lambda: orthocenter(0j, 1 + 0j, 2 + 0j)),
    # no two radii in [0.05, 0.95] are 1.0 apart, so every attempt is rejected
    (SamplerStarvation,
     lambda: sample_disk_pair(SampleSpec(1, 0, moduli_margin=1.0), 0)),
    # a line through one point, a circle of radius 0
    (DegenerateInput, lambda: GenCircle.line(0.5j, 0.5j)),
    (DegenerateInput, lambda: GenCircle.circle(0.5j, 0.0)),
    # 4 is no figure id, and a spec must ask for a sample
    (ValueError, lambda: build_figure(4)),
    (ValueError, lambda: SampleSpec(0, 0)),
]


@pytest.mark.parametrize("error,call", CASES, ids=[e.__name__ for e, _ in CASES])
def test_error_class_is_raised(error, call):
    with pytest.raises(error):
        call()


def test_curve_functions_refuse_a_squared_modulus_past_the_float_range():
    # |z| log-uniform in [1e-300, 1e300]: past about 1.3e154, |z| ** 2 and
    # abs() overflow, which must surface as a GeometryError, not OverflowError
    rng = random.Random(34)

    def z():
        return 10 ** rng.uniform(-300, 300) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    def r():
        return 10 ** rng.uniform(-300, 300)

    calls = {
        "gcis_roots": lambda: gcis_roots(z(), z(), z(), z()),
        "gcis": lambda: gcis(z(), z(), z(), z()),
        "orthocenter": lambda: orthocenter(z(), z(), z()),
        "GenCircle.through": lambda: GenCircle.through(z(), z(), rng.choice((1, -1))),
        "orthogonal_great_circle": lambda: orthogonal_great_circle(z(), z()),
        "great_circle_projection": lambda: great_circle_projection(z(), z()),
        "GenCircle.circle": lambda: GenCircle.circle(z(), r()),
        "GenCircle.residual": lambda: GenCircle(r(), z(), -r()).residual(z()),
        "GenCircle.radius": lambda: GenCircle(r(), z(), -r()).radius,
    }
    escaped = {}
    for name, call in calls.items():
        for _ in range(300):
            try:
                call()
            except GeometryError:
                pass
            except ArithmeticError as exc:
                escaped[name] = repr(exc)
    assert escaped == {}


def _refusal(call, *args):
    """The GeometryError class call(*args) raises, or None."""
    try:
        call(*args)
    except GeometryError as exc:
        return type(exc)
    return None


def _flagged(max_residual):
    """possible_counterexample of `diskgeom conjecture` for a run with this max."""
    report = VerificationReport(
        theorem_id="conjecture", sampler="circle_quadruple", requested=2, evaluated=2,
        skipped=0, seed=0, tolerance=1e-9, max_residual=max_residual,
        mean_residual=max_residual, worst_input=[], passed=True, assertive=False,
        wall_time_s=0.0)
    out = io.StringIO()
    with mock.patch("diskgeom.verify.run_check", lambda *_: report), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["conjecture", "--samples", "2"]) == 0
    return json.loads(out.getvalue())["possible_counterexample"]


def _midpoints_refusing_a_meet_at(z):
    """What midpoint_via_lens and midpoint_via_inversion raise, if anything,
    for a regular pair when their meet of two geodesics lands at z."""
    with mock.patch("diskgeom.euclid.meet", lambda *_: z):
        return (_refusal(midpoint_via_lens, 0.5 + 0j, 0.2 + 0.6j),
                _refusal(midpoint_via_inversion, 0.5 + 0j, 0.2 + 0.6j))


# One row per threshold of the refusal policy (errors.py): a probe, a literal
# input just on its accepting side with the probe's result there, and one just
# on its refusing side with that result.
BOUNDARIES = {
    # DEGENERACY_TOL scaled by |a| |b| = 0.25: |Im(a conj(b))| = 2.75e-13, 2.25e-13
    "degeneracy_collinear_with_origin": (
        lambda b: _refusal(build_config, 0.5 + 0j, b),
        0.5 + 5.5e-13j, None, 0.5 + 4.5e-13j, CollinearWithOrigin),
    # DEGENERACY_TOL: |a|^2 - |b|^2 = 1.1e-12, 0.9e-12
    "degeneracy_orthogonal_great_circle": (
        lambda b: _refusal(orthogonal_great_circle, 0.5 + 0j, b),
        0.4999999999989j, None, 0.4999999999991j, EqualModuli),
    # POLE_TOL = 1e-15: |1 - conj(a) z| = 10 and 9 times 2**-53
    "pole_mobius_T": (
        lambda z: _refusal(mobius_T, 0.5 + 0j, z),
        1.9999999999999978 + 0j, None, 1.999999999999998 + 0j, PoleHit),
    # MEET_MIN_SINE = 1e-9: the normals (0, 0, 1) of the equator and
    # (t, 0, 1) of a great circle are t / sqrt(1 + t^2) apart (sine)
    "meet_min_sine_meet": (
        lambda t: _refusal(meet, (0j, 1.0), (complex(t), 1.0), -1),
        1.1e-9, None, 0.9e-9, ConcentricCircles),
    # DISK_EDGE_TOL = 1e-12: the lens and the inversion take a meet with
    # |z| = 1 - 1.1e-12 and refuse one with 1 - 0.9e-12
    "disk_edge_midpoint_via_lens_and_inversion": (
        _midpoints_refusing_a_meet_at, 0.9999999999989 + 0j, (None, None),
        0.9999999999991 + 0j, (NoRealIntersection, NoRealIntersection)),
    # UNIT_CIRCLE_TOL = 1e-9: ||z| - 1| = 0.9e-9, 1.1e-9
    "unit_circle_check_cyclic_order": (
        lambda z: _refusal(check_cyclic_order, (z, 1j, -1 + 0j, -1j)),
        1.0000000009 + 0j, None, 1.0000000011 + 0j, InvalidCyclicOrder),
    # ORACLE_MIN_GAP = 1e-6: T_0(y) = y, 1 - |y| = 1.1e-6, 0.9e-6
    "oracle_min_gap_midpoint_oracle": (
        lambda y: _refusal(midpoint_oracle, 0j, y),
        0.9999989 + 0j, None, 0.9999991 + 0j, NearBoundary),
    # INVERSION_MIN_GAP = 1e-2: ||a| - |b|| = 1.1e-2, 0.9e-2
    "inversion_min_gap_midpoint_via_inversion": (
        lambda b: _refusal(midpoint_via_inversion, 0.5 + 0j, b),
        0.489j, None, 0.491j, EqualModuli),
    # LENS_MIN_CURVATURE = 2e-3: the geodesic through 0.5 and b has
    # |A| / |B| = 2.2e-3, 1.8e-3
    "lens_min_curvature_midpoint_via_lens": (
        lambda b: _refusal(midpoint_via_lens, 0.5 + 0j, b),
        -0.4 + 0.002376j, None, -0.4 + 0.001944j, CollinearPoints),
    # INVERSION_MIN_CURVATURE = 3e-3: the geodesic through 0.5 and b has
    # |A| / |B| = 3.3e-3, 2.7e-3
    "inversion_min_curvature_midpoint_via_inversion": (
        lambda b: _refusal(midpoint_via_inversion, 0.5 + 0j, b),
        -0.4 + 0.003564j, None, -0.4 + 0.002916j, CollinearPoints),
    # COUNTEREXAMPLE_RESIDUAL = 1e-6: a max residual above it is flagged
    "counterexample_residual_cli_conjecture": (
        _flagged, 1e-6, False, 1.0000000000000002e-6, True),
}


@pytest.mark.parametrize("probe, accepted, gives, refused, refusal",
                         BOUNDARIES.values(), ids=BOUNDARIES)
def test_threshold_holds_at_its_boundary(probe, accepted, gives, refused, refusal):
    assert probe(accepted) == gives
    assert probe(refused) == refusal
