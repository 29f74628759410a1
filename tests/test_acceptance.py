"""Acceptance suite: one test per numbered criterion.

Each test pins the agreed lattice, drive, and tolerance choices and
asserts with a message that carries the full measured table, so a red
criterion documents exactly what was computed.  The conftest hook turns
the per-test outcomes into the one-line-per-criterion summary.
"""

import math

import numpy as np
import pytest

from spinladder.dynamics import (
    evolve_stroboscopic,
    measure_magnetization,
    one_flip,
    power_spectrum,
    prepare_state,
    uniform_tilt,
)
from spinladder.floquet import (
    DriveParams,
    build_floquet,
    diagonalize,
    spacing_stats,
)
from spinladder.lattice import make_lattice
from spinladder.majorana import (
    SpectralFunctionConfig,
    corner_modes,
    corner_spectral_functions,
    majorana,
    mode_residual,
    verify_dictionary,
)
from spinladder.transfer1d import (
    PhaseLabel,
    classify_phase,
    mpm_solution,
    transfer_matrix,
)
from solvable_point import solvable_point_spectrum_1x4, solvable_point_spectrum_2x2

PERIOD = 2.0
UNIT = math.pi / PERIOD  # one pi/T in raw angular-frequency units


def drive(h, j_y, j_x=0.0):
    """Raw-unit drive from couplings quoted in pi/T units."""
    return DriveParams(j_x=j_x * UNIT, j_y=j_y * UNIT, h=h * UNIT, period=PERIOD)


# reference spacing deviations (pi/T units) with one-unit-in-the-last-digit
# tolerances, as (label, (n_x, n_y), (min_dev, tol), (max_dev, tol))
SPACING_TABLE = [
    ("2x2", (2, 2), (1.20e-3, 1e-5), (0.023, 1e-3)),
    ("3x2", (3, 2), (5.42e-6, 1e-8), (0.016, 1e-3)),
    ("4x2", (4, 2), (2.06e-5, 1e-7), (0.017, 1e-3)),
    ("5x2", (5, 2), (2.14e-6, 1e-8), (0.013, 1e-3)),
    ("6x2", (6, 2), (4.53e-7, 1e-9), (0.015, 1e-3)),
    ("1x4", (1, 4), (1.81e-3, 1e-5), (0.15, 1e-2)),
    ("1x6", (1, 6), (2.08e-4, 1e-6), (0.086, 1e-3)),
    ("1x8", (1, 8), (2.49e-5, 1e-7), (0.050, 1e-3)),
    ("1x10", (1, 10), (1.38e-4, 1e-6), (0.032, 1e-3)),
    ("1x12", (1, 12), (1.37e-5, 1e-7), (0.017, 1e-3)),
]


def test_criterion_01_spacing_table():
    """Spacing deviations from pi/T across ten sizes match the reference
    table at plus or minus one unit in the last printed digit."""
    params = DriveParams(j_x=0.05 * UNIT, j_y=1.0, h=0.85 * UNIT, period=PERIOD)
    lines = []
    failures = []
    for label, (n_x, n_y), (ref_min, tol_min), (ref_max, tol_max) in SPACING_TABLE:
        lattice = make_lattice(
            n_x, n_y, bc_x="periodic", bc_y="periodic",
            dedup_coincident_bonds=False,
        )
        op = build_floquet(lattice, params)
        stats = spacing_stats(diagonalize(op))
        got_min = stats.min_dev / UNIT
        got_max = stats.max_dev / UNIT
        ok_min = abs(got_min - ref_min) <= tol_min
        ok_max = abs(got_max - ref_max) <= tol_max
        lines.append(
            f"{label:>5}: min {got_min:.6e} vs {ref_min:.2e} "
            f"[{'ok' if ok_min else 'OFF'}]  "
            f"max {got_max:.6e} vs {ref_max:.2e} [{'ok' if ok_max else 'OFF'}]"
        )
        if not (ok_min and ok_max):
            failures.append(label)
    report = "\n".join(lines)
    assert not failures, (
        f"spacing table mismatches for {failures}:\n{report}"
    )


def test_criterion_02_solvable_point_spectra():
    """At kick angle pi/2 the diagonalized spectra equal the closed forms."""
    j_y = 1.0  # raw coupling, theta_y = 1
    for n_x, n_y, expected in (
        (1, 4, solvable_point_spectrum_1x4(j_y, PERIOD)),
        (2, 2, solvable_point_spectrum_2x2(j_y, 0.05 * UNIT, PERIOD)),
    ):
        lattice = make_lattice(n_x, n_y)
        params = DriveParams(
            j_x=0.0 if n_x == 1 else 0.05 * UNIT,
            j_y=j_y,
            h=math.pi / 2,
            period=PERIOD,
        )
        spectrum = diagonalize(build_floquet(lattice, params))
        got = np.sort(spectrum.quasienergies)
        assert got.size == expected.size, (n_x, n_y)
        worst = float(np.max(np.abs(got - expected)))
        assert worst < 1e-10, f"{n_x}x{n_y}: max closed-form gap {worst:.3e}"


def test_criterion_03_corner_mode_exactness():
    """Both corner modes anticommute with the propagator exactly at kick
    angle pi/2, for three ladder sizes."""
    for n_x in (2, 3, 4):
        lattice = make_lattice(n_x, 2)
        params = DriveParams(
            j_x=0.05 * UNIT, j_y=0.6 * UNIT, h=math.pi / 2, period=PERIOD
        )
        op = build_floquet(lattice, params)
        mode_a, mode_b = corner_modes(lattice)
        res_a = mode_residual(op, mode_a, "pi")
        res_b = mode_residual(op, mode_b, "pi")
        assert res_a < 1e-12, f"{n_x}x2 corner A residual {res_a:.3e}"
        assert res_b < 1e-12, f"{n_x}x2 corner B residual {res_b:.3e}"


def test_criterion_04_spectral_function_thresholds():
    """Corner spectral functions along an h scan: pi weights high at
    h = 0.8, low somewhere below 0.6, zero weights high somewhere
    below 0.4 (all h in pi/T units)."""
    lattice = make_lattice(
        4, 2, bc_x="periodic", bc_y="periodic", dedup_coincident_bonds=False
    )
    config = SpectralFunctionConfig(chi=16, window=0.01)
    h_values = [round(0.1 * k, 1) for k in range(1, 10)]
    table = {}
    lines = []
    for h in h_values:
        params = drive(h, 0.6, j_x=0.05)
        spectrum = diagonalize(build_floquet(lattice, params))
        funcs = corner_spectral_functions(spectrum, lattice, config)
        table[h] = funcs
        lines.append(
            f"h={h:.1f}: s0=({funcs.s0_1:.3f}, {funcs.s0_2:.3f}) "
            f"spi=({funcs.spi_1:.3f}, {funcs.spi_2:.3f})"
        )
    report = "\n".join(lines)

    at_08 = table[0.8]
    clause_a = at_08.spi_1 > 0.9 and at_08.spi_2 > 0.9
    clause_b = any(
        table[h].spi_1 < 0.5 and table[h].spi_2 < 0.5
        for h in h_values if h < 0.6
    )
    clause_c = any(
        table[h].s0_1 > 0.5 and table[h].s0_2 > 0.5
        for h in h_values if h < 0.4
    )
    assert clause_a and clause_b and clause_c, (
        f"clauses: pi-weights>0.9 at h=0.8 {clause_a}, "
        f"pi-weights<0.5 below h=0.6 {clause_b}, "
        f"zero-weights>0.5 below h=0.4 {clause_c}\n{report}"
    )


def test_criterion_05_dynamics_contrast():
    """Subharmonic dominance of the one-flip quench: strong on the 4x2
    ladder, weak on the 1x8 chain (both wrapped)."""
    params = DriveParams(j_x=0.05 * UNIT, j_y=1.0, h=0.85 * UNIT, period=PERIOD)
    ratios = {}
    for n_x, n_y in ((4, 2), (1, 8)):
        lattice = make_lattice(
            n_x, n_y, bc_x="periodic", bc_y="periodic",
            dedup_coincident_bonds=False,
        )
        op = build_floquet(lattice, params)
        state = prepare_state(lattice, one_flip(lattice.n_sites))
        trace = evolve_stroboscopic(op, state, periods=2000)
        ratios[(n_x, n_y)] = power_spectrum(trace).dominance_ratio
    report = (
        f"dominance ratios: 4x2 = {ratios[(4, 2)]:.3f} (needs > 5), "
        f"1x8 = {ratios[(1, 8)]:.3f} (needs < 2)"
    )
    assert ratios[(4, 2)] > 5 and ratios[(1, 8)] < 2, report


def test_criterion_06_oracle_equivalence():
    """Matrix-free propagator agrees with the dense unitary on random
    states and over a long stroboscopic run."""
    lattice = make_lattice(2, 5)
    params = DriveParams(j_x=0.37, j_y=0.81, h=0.59, period=PERIOD)
    op = build_floquet(lattice, params, materialize_dense=True)
    dense = np.asarray(op.dense)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.max(np.abs(op.apply(v) - dense @ v))))
    assert worst < 1e-12, f"max amplitude gap {worst:.3e}"

    v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
    v /= np.linalg.norm(v)
    trace = evolve_stroboscopic(op, v, periods=100)
    w = v.copy()
    dense_values = [measure_magnetization(w, lattice.n_sites)]
    for _ in range(100):
        w = dense @ w
        dense_values.append(measure_magnetization(w, lattice.n_sites))
    gap = float(np.max(np.abs(trace.values - np.array(dense_values))))
    assert gap < 1e-11, f"stroboscopic trace gap {gap:.3e}"


def test_criterion_07_algebra_suite():
    """All Majorana anticommutators and all spin-operator identities hold
    to 1e-13 on the dense 3x2 lattice."""
    lattice = make_lattice(3, 2)
    report = verify_dictionary(lattice)
    assert not report.failures, report.failures
    assert report.max_deviation < 1e-13, report.max_deviation
    assert report.identities_checked > 0

    modes = []
    for i in range(1, 4):
        for j in range(1, 3):
            modes.append(majorana(lattice, "A", i, j).to_matrix())
            modes.append(majorana(lattice, "B", i, j).to_matrix())
    eye = np.eye(64)
    worst = 0.0
    for p, gp in enumerate(modes):
        for q in range(p, len(modes)):
            gq = modes[q]
            anti = gp @ gq + gq @ gp
            target = 2.0 * eye if p == q else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
    assert worst < 1e-13, f"worst anticommutator deviation {worst:.3e}"


def test_criterion_08_transfer_closed_forms():
    """Transfer-matrix eigenvalues are unimodular on the critical line,
    the coefficient recursion matches its closed form, and the phase
    raster shows four regions split by the two diagonals."""
    j_grid = np.linspace(0.02, math.pi / 2 - 0.02, 1000)
    worst = 0.0
    for j in j_grid:
        tm = transfer_matrix(math.pi / 2 - j, j)
        assert not tm.singular
        worst = max(worst, abs(abs(tm.e_minus) - 1.0), abs(abs(tm.e_plus) - 1.0))
    assert worst < 1e-12, f"worst |E| deviation on the critical line {worst:.3e}"

    for h, j in ((3 * math.pi / 8, math.pi / 4), (0.4 * math.pi, 0.3 * math.pi),
                 (0.3 * math.pi, 0.45 * math.pi), (0.35 * math.pi, 0.1 * math.pi)):
        sol = mpm_solution(h, j, length=20)
        tm = transfer_matrix(h, j)
        pairs = np.column_stack([sol.a_coeffs, sol.b_coeffs])
        # check each consecutive pair; iterating the matrix instead would
        # amplify float noise along the growing eigendirection
        gap = max(
            abs(pairs[0, 0] - sol.seed[0]), abs(pairs[0, 1] - sol.seed[1])
        )
        for idx in range(19):
            stepped = tm.matrix @ pairs[idx]
            gap = max(gap, float(np.max(np.abs(stepped - pairs[idx + 1]))))
        assert gap < 1e-12, f"recursion vs closed form at ({h:.3f},{j:.3f}): {gap:.3e}"

    grid = np.linspace(0.03, math.pi / 2 - 0.03, 41)
    for h in grid:
        for j in grid:
            label = classify_phase(float(h), float(j))
            if label is PhaseLabel.BOUNDARY:
                continue
            pi_mode = h + j > math.pi / 2
            zero_mode = j > h
            expected = {
                (False, False): PhaseLabel.PM,
                (False, True): PhaseLabel.ZERO_SG,
                (True, False): PhaseLabel.PI_SG,
                (True, True): PhaseLabel.ZERO_PI_PM,
            }[(pi_mode, zero_mode)]
            assert label is expected, (h, j, label)
    assert classify_phase(math.pi / 4, math.pi / 4) is PhaseLabel.BOUNDARY


def test_criterion_09_nonmonotonic_size_dependence():
    """Per-site subharmonic peak of open chains rises then falls with
    length, attaining its maximum at an interior size."""
    peaks = {}
    for n in (4, 6, 8, 10, 12):
        lattice = make_lattice(1, n)
        op = build_floquet(lattice, drive(0.8, 0.6, j_x=0.05))
        trace = evolve_stroboscopic(op, prepare_state(lattice, "up"), periods=2000)
        peaks[n] = power_spectrum(trace).subharmonic_amplitude / n
    sizes = sorted(peaks)
    values = [peaks[n] for n in sizes]
    top = max(range(len(sizes)), key=lambda k: values[k])
    report = ", ".join(f"N={n}: {peaks[n]:.4f}" for n in sizes)
    assert 0 < top < len(sizes) - 1, f"peak not interior: {report}"
    assert values[0] < values[top] and values[-1] < values[top], report


def test_criterion_10_subharmonic_collapse_on_resonance():
    """With tilted preparation and measurement axes, the half-frequency
    bin dominates at h = 0.9 and 1.1 but not at h = 1.0 (pi/T units)."""
    lattice = make_lattice(1, 16)
    init = uniform_tilt(16, math.pi / 4)
    ratios = {}
    for h in (0.9, 1.0, 1.1):
        op = build_floquet(lattice, drive(h, 0.6, j_x=0.05))
        state = prepare_state(lattice, init)
        trace = evolve_stroboscopic(op, state, periods=2000, axis=math.pi / 4)
        ratios[h] = power_spectrum(trace).dominance_ratio
    report = ", ".join(f"h={h}: {ratios[h]:.3f}" for h in sorted(ratios))
    assert ratios[0.9] > 5, f"dominance ratios: {report}"
    assert ratios[1.1] > 5, f"dominance ratios: {report}"
    assert ratios[1.0] < 5, f"dominance ratios: {report}"
