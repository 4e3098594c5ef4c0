"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All randomized criteria draw from the documented 64-bit LCG with seed 42,
so every run checks the identical sample set.
"""

import math

from fntwist import (
    AnnulusCoords,
    AnnulusEmbedding,
    Lcg,
    SurfaceCoords,
    apply_local_twist,
    coords_from_endpoints,
    core_geodesic,
    dehn_twist,
    endpoints,
    random_coords,
    twist_closed_form,
    twist_oracle,
    twist_p_form,
)
from fntwist.cli import main
from fntwist.mobius import MobiusMap, cross_ratio
from util import exponential_fixed_points, max_rel, rel_err

SEED = 42


def _report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, detail


def test_criterion_1_dehn_specialization():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        x1, x2, x3, x4 = coords.as_tuple()
        rational = (x1 * x1 * x2 / (x1 + 1.0) ** 2, 1.0 / x1, (x1 + 1.0) * x3, (x1 + 1.0) * x4)
        worst = max(worst, max_rel(twist_closed_form(coords, 1.0), rational))
    unit = max_rel(twist_closed_form(AnnulusCoords(1, 1, 1, 1), 1.0), (0.25, 1.0, 2.0, 2.0))
    worst = max(worst, unit)
    _report(1, worst < 1e-12, f"closed form at t=1 vs rational Dehn map, max rel err {worst:.3e}")


def test_criterion_2_identity_specialization():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        worst = max(worst, max_rel(twist_closed_form(coords, 0.0), coords))
    _report(2, worst < 1e-12, f"closed form at t=0 vs identity, max rel err {worst:.3e}")


def test_criterion_3_triple_path_equivalence():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        t = rng.uniform(0.0, 3.0)
        closed = twist_closed_form(coords, t)
        p_form = twist_p_form(coords, t)
        oracle = twist_oracle(coords, t)
        worst = max(worst, max_rel(closed, p_form), max_rel(p_form, oracle),
                    max_rel(closed, oracle))
    _report(3, worst < 1e-9, f"closed = p-form = oracle on 1000 (X, t), max rel err {worst:.3e}")


def test_criterion_4_fixed_point_identities():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        _, _, p1, p2 = core_geodesic(coords)
        worst = max(worst, rel_err(p1 * p2, -coords.x1))
        # the sum identity crosses zero (at X1 X2 + X1 = 1), so measure it
        # with an absolute floor alongside the relative tolerance
        sum_err = abs((p1 + p2) - (1.0 - coords.x1 * coords.x2 - coords.x1))
        sum_scale = max(abs(p1 + p2), abs(1.0 - coords.x1 * coords.x2 - coords.x1), 1.0)
        worst = max(worst, sum_err / sum_scale)
        q1, q2 = exponential_fixed_points(coords)
        worst = max(worst, rel_err(p1, q1), rel_err(p2, q2))
    _report(4, worst < 1e-10, f"axis endpoint identities, max rel err {worst:.3e}")


def test_criterion_5_length_trace_invariance():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        t = rng.uniform(0.0, 3.0)
        moved = twist_p_form(coords, t)
        tr_before = (coords.x1 * (coords.x2 + 1.0) + 1.0) / math.sqrt(coords.x1 * coords.x2)
        tr_after = (moved.x1 * (moved.x2 + 1.0) + 1.0) / math.sqrt(moved.x1 * moved.x2)
        worst = max(worst, rel_err(tr_before, tr_after))
    _report(5, worst < 1e-9, f"trace invariance along the flow, max rel err {worst:.3e}")


def test_criterion_6_flow_additivity():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(200):
        coords = random_coords(rng)
        s = rng.uniform(0.0, 2.0)
        t = rng.uniform(0.0, 2.0)
        stepwise = twist_p_form(twist_p_form(coords, s), t)
        direct = twist_p_form(coords, s + t)
        worst = max(worst, max_rel(stepwise, direct))
    _report(6, worst < 1e-8, f"flow additivity on 200 (X, s, t), max rel err {worst:.3e}")


def test_criterion_7_integer_flow_is_dehn_power():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(200):
        coords = random_coords(rng)
        for m in (1, 2, 3):
            worst = max(worst, max_rel(dehn_twist(coords, m), twist_closed_form(coords, float(m))))
    _report(7, worst < 1e-8, f"m-fold Dehn vs flow at t=m, max rel err {worst:.3e}")


def _random_map(rng):
    while True:
        entries = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] >= 0.1:
            return MobiusMap(*entries)


def _random_quadruple(rng):
    pts = [rng.uniform(-5.0, 5.0)]
    for _ in range(3):
        pts.append(pts[-1] + rng.uniform(0.05, 3.0))
    return pts


def test_criterion_8_cross_ratio_mobius_invariance():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        pts = _random_quadruple(rng)
        m = _random_map(rng)
        while min(abs(m.c * p + m.d) for p in pts) < 0.05:
            m = _random_map(rng)  # keep the pole away from the sample points
        before = cross_ratio(*pts)
        after = cross_ratio(*(m.apply(p) for p in pts))
        worst = max(worst, rel_err(before, after))
    ok = worst < 1e-10
    # the point at infinity participates in the invariance as well
    inf_case = rel_err(
        cross_ratio(-1.0, 0.0, 1.0, math.inf),
        cross_ratio(*(MobiusMap(2.0, 1.0, 1.0, 1.0).apply(p)
                      for p in (-1.0, 0.0, 1.0, math.inf))),
    )
    ok = ok and inf_case < 1e-10
    _report(8, ok, f"cross-ratio invariance on 1000 pairs, max rel err {max(worst, inf_case):.3e}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    args = ["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    rows = first.read_text().splitlines()
    head = [float(v) for v in rows[1].split(",")[1:5]]
    tail = [float(v) for v in rows[-1].split(",")[1:5]]
    head_ok = max(rel_err(a, b) for a, b in zip(head, (1.0, 1.0, 1.0, 1.0))) < 1e-12
    tail_ok = max(rel_err(a, b) for a, b in zip(tail, (0.25, 1.0, 2.0, 2.0))) < 1e-12
    capsys.readouterr()
    _report(9, identical and head_ok and tail_ok,
            f"byte-identical reruns {identical}, endpoint rows ok {head_ok and tail_ok}")


def test_criterion_10_local_embedding():
    vec = SurfaceCoords((1.0, 1.0, 1.0, 1.0, 5.0, 7.0, 0.1 + 0.2))
    emb = AnnulusEmbedding(2, 5, 1, 3)
    t = 0.85
    out = apply_local_twist(vec, emb, t)
    untouched = all(out.values[i] == vec.values[i] for i in (3, 5, 6))
    quad = AnnulusCoords(*(vec.values[i - 1] for i in emb.as_tuple()))
    expected = twist_p_form(quad, t)
    embedded = all(
        out.values[i - 1] == v for i, v in zip(emb.as_tuple(), expected.as_tuple())
    )
    _report(10, untouched and embedded,
            f"untouched bit-identical {untouched}, quadruple exact {embedded}")


def test_verify_command_thousand_samples(capsys):
    # the seeded CLI suite itself: 1000 samples, seed 42, tolerance 1e-9
    assert main(["verify", "--samples", "1000", "--seed", "42", "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "all suites within tolerance" in out


def test_endpoint_round_trip_sweep():
    rng = Lcg(SEED)
    worst = 0.0
    for _ in range(1000):
        coords = random_coords(rng)
        worst = max(worst, max_rel(coords_from_endpoints(endpoints(coords)), coords))
    assert worst < 1e-10
