"""Optical elements of the interferometer and its which-way extensions.

All constructors return `LinearMap`s over the canonical subsystems from
`hilbert` (direction, photon, atom, eraser).  Path naming convention: path A
is the transmitted beam and carries direction label x between the first
beam splitter and the mirrors; path B is the deflected beam (label y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hilbert
from .hilbert import (
    ATOL_UNITARY,
    LinearMap,
    SpaceSpec,
    StateVector,
    apply,
    branch_probability,
    embed,
    projector,
    space_of,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


@lru_cache(maxsize=None)
def direction_space() -> SpaceSpec:
    return space_of(hilbert.direction())


@lru_cache(maxsize=None)
def tagged_space() -> SpaceSpec:
    """direction (x) photon (x) atom: the which-way entangler's arena."""
    return space_of(hilbert.direction(), hilbert.photon(), hilbert.atom())


@lru_cache(maxsize=None)
def eraser_space() -> SpaceSpec:
    """direction (x) photon (x) atom (x) eraser, 24-dimensional."""
    return space_of(hilbert.direction(), hilbert.photon(), hilbert.atom(),
                    hilbert.eraser())


@lru_cache(maxsize=None)
def beam_splitter() -> LinearMap:
    """Symmetric 50/50 beam splitter on the direction subsystem.

    |x> -> (|x> + i|y>)/sqrt(2) and |y> -> (|y> + i|x>)/sqrt(2); the
    reflected amplitude picks up the phase i.
    """
    mat = SQRT_HALF * np.array([[1.0, 1.0j], [1.0j, 1.0]])
    return LinearMap(direction_space(), mat, unitary=True)


@lru_cache(maxsize=None)
def mirror_pair() -> LinearMap:
    """Both mirrors together: |x> -> i|y>, |y> -> i|x> (i times a swap)."""
    mat = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    return LinearMap(direction_space(), mat, unitary=True)


def phase_shifter(phi: float, path: str = "y") -> LinearMap:
    """Extra path length on one arm: multiplies that arm's amplitude by e^{i phi}.

    `path` is a direction label (x for arm A, y for arm B).  The map is a
    `LinearMap.diagonal`, checked entry by entry; its entry on `path` is
    `np.exp(1j * phi)`, as in `phase_shifter_stack`, bit for bit.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi!r}")
    space = direction_space()
    diag = [1.0, 1.0]
    diag[space.subsystem("direction").label_index(path)] = np.exp(1j * phi)
    return LinearMap.diagonal(space, diag)


def phase_shifter_stack(phis: np.ndarray, path: str = "y") -> np.ndarray:
    """`phase_shifter(phi, path).matrix` for every phi in `phis`, as one
    (len(phis), 2, 2) array."""
    phis = np.asarray(phis, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(phis))
    if bad.size:
        raise ValueError(f"phase must be finite, got {float(phis[bad[0]])!r}")
    k = direction_space().subsystem("direction").label_index(path)
    out = np.zeros((len(phis), 2, 2), dtype=np.complex128)
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, k, k] = np.exp(1j * phis)
    return out


@lru_cache(maxsize=None)
def which_way_entangler() -> LinearMap:
    """Path detectors that record the arm in a photon, without projecting.

    An excited atom crossing arm A (direction x) or arm B (direction y)
    relaxes to its ground state and deposits a photon in mode A or B:

        |x, vac, e> -> |x, A, g>        |y, vac, e> -> |y, B, g>

    The map is completed to a unitary by swapping each pair of basis states
    and fixing everything else; inputs outside the physical subspace
    {|., vac, e>} are never produced by the pipelines here.
    """
    space = tagged_space()
    mat = np.eye(space.dim, dtype=np.complex128)
    for src, dst in (
        (("x", "vac", "e"), ("x", "A", "g")),
        (("y", "vac", "e"), ("y", "B", "g")),
    ):
        i, j = space.index_of(src), space.index_of(dst)
        mat[[i, j], :] = 0.0
        mat[j, i] = 1.0
        mat[i, j] = 1.0
    return LinearMap(space, mat, unitary=True)


def which_way_readout(psi: StateVector, rng_draw: float) -> tuple[str, StateVector, float]:
    """Projectively read which arm the particle is in.

    Outcome "A" projects the direction onto x, "B" onto y; `rng_draw` in
    [0, 1) picks the branch against the A-probability.  Returns
    (outcome, collapsed state, branch probability).
    """
    if not 0.0 <= rng_draw < 1.0:
        raise ValueError(f"rng draw must lie in [0, 1), got {rng_draw!r}")
    p_a = projector(psi.space, "direction", "x")
    prob_a = branch_probability(p_a, psi)
    if rng_draw < prob_a:
        outcome, proj, prob = "A", p_a, prob_a
    else:
        proj = projector(psi.space, "direction", "y")
        outcome, prob = "B", 1.0 - prob_a
    if not prob > 0.0:
        raise RuntimeError("drew a zero-probability which-way branch")
    collapsed = apply(proj, psi).renormalized()
    return outcome, collapsed, prob


@dataclass(frozen=True, eq=False)
class EraserKrausPair:
    """Two-outcome generalized measurement for photon absorption.

    `k_abs` absorbs the photon (eraser gamma -> epsilon, photon -> vac),
    `k_noabs` is the complementary no-click evolution; together they are
    trace-preserving: k_abs†k_abs + k_noabs†k_noabs = I.  `_lifted` memoizes
    the pair's full-space (2, d, d) stacks, as `LinearMap._lifted` does.
    """

    k_abs: LinearMap
    k_noabs: LinearMap
    eta: float
    _lifted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = (self.k_abs.dagger @ self.k_abs).matrix + \
                (self.k_noabs.dagger @ self.k_noabs).matrix
        defect = np.max(np.abs(total - np.eye(self.k_abs.space.dim)))
        if defect > ATOL_UNITARY:
            raise ValueError(f"Kraus pair not complete: max defect {defect:.3e}")

    @property
    def space(self) -> SpaceSpec:
        return self.k_abs.space


@lru_cache(maxsize=256)
def eraser_kraus(eta: float) -> EraserKrausPair:
    """Probabilistic absorption of the which-way photon by the eraser atom.

    The absorber couples to a single photon mode, the symmetric combination
    (|A> + |B>)/sqrt(2).  `eta` in (0, 1] scales the absorption probability
    and stands in for the cross-section of the absorption process; certain
    absorption of an arbitrary photon state would not be a physical
    (trace-preserving) operation.

        k_abs   = sqrt(eta) |vac, epsilon><coupled mode, gamma|
        k_noabs = I - (1 - sqrt(1 - eta)) |coupled mode, gamma><...|

    An unabsorbed photon stays in the photon register, with only the
    coupled-mode amplitude damped.

    The cache keeps up to 256 pairs, each with the stacks it was lifted to:
    on the 24-dimensional eraser space, one (2, 24, 24) complex stack of
    18 KiB, so at most 4.5 MiB in all.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    space = space_of(hilbert.photon(), hilbert.eraser())

    coupled = np.zeros(space.dim, dtype=np.complex128)
    coupled[[space.index_of((path, "gamma")) for path in ("A", "B")]] = SQRT_HALF
    sink = np.zeros(space.dim, dtype=np.complex128)
    sink[space.index_of(("vac", "epsilon"))] = 1.0

    k_abs = math.sqrt(eta) * np.outer(sink, coupled.conj())
    k_noabs = np.eye(space.dim) - (1.0 - math.sqrt(1.0 - eta)) * \
        np.outer(coupled, coupled.conj())
    return EraserKrausPair(LinearMap(space, k_abs), LinearMap(space, k_noabs), eta=eta)


def embedded(op: LinearMap, space: SpaceSpec) -> LinearMap:
    """Embed a component into a larger space by its own subsystem names."""
    return embed(op, op.space.names, space)
