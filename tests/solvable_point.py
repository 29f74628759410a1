"""Closed-form quasienergy levels at kick angle pi/2, the oracle of
criterion 2.

At theta_h = pi/2 the kick is a global spin flip (up to phase), and the
propagator is solved by cat states over each pair of flipped basis
states.  Each lattice has three independent bond signs s_1, s_2, s_3 =
+-1, and every level comes with its pi/T partner.
"""

import itertools

import numpy as np

from spinladder.floquet import fold_quasienergy

#: the eight sign triples (s_1, s_2, s_3), one per row
_SIGNS = np.array(list(itertools.product((1, -1), repeat=3)))


def _with_partners(base: np.ndarray, period: float) -> np.ndarray:
    """Each base level and its pi/T partner, folded and sorted."""
    return np.sort(fold_quasienergy(np.concatenate([base, base + np.pi / period]), period))


def solvable_point_spectrum_1x4(j_y: float, period: float) -> np.ndarray:
    """The 16 levels of the 4-site chain: -(j_y / 2) sum_j s_j over the
    three interior bonds, and their pi/T partners."""
    return _with_partners(-0.5 * j_y * _SIGNS.sum(axis=1), period)


def solvable_point_spectrum_2x2(j_y: float, j_x: float, period: float) -> np.ndarray:
    """The 16 levels of the 2x2 plaquette.  The rungs enter through s_1
    and s_2; the two leg bonds act only when the rung signs agree, via
    the (1 + s_1 s_2) factor."""
    s1, s2, s3 = _SIGNS.T
    return _with_partners(-0.5 * j_y * (s1 + s2) - 0.5 * j_x * (1 + s1 * s2) * s3, period)
