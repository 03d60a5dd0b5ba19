"""Optical elements of the interferometer and its which-way extensions.

The constructors act on the canonical subsystems from `hilbert`
(direction, photon, atom, eraser).  Most return a `LinearMap`;
`eraser_kraus` returns an `EraserKrausPair`, and the two stacks
(`phase_shifter_stack`, `eraser_kraus_stack`) return the plain matrices of
a parameterised component over an array of values, for a batched sweep.

Path naming convention: path A is the transmitted beam and carries
direction label x between the first beam splitter and the mirrors; path B
is the deflected beam (label y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _checked(stack: np.ndarray) -> np.ndarray:
    """The (n, 2, k, k) `stack` of (k_abs, k_noabs) pairs, once every pair
    is found trace-preserving: k_abs†k_abs + k_noabs†k_noabs = I within
    ATOL_UNITARY."""
    k = stack.shape[-1]
    column = stack.reshape(-1, 2 * k, k)      # k_abs over k_noabs
    defect = np.abs(column.conj().mT @ column - np.eye(k)).max(initial=0.0)
    if defect > ATOL_UNITARY:
        raise ValueError(f"Kraus pair not complete: max defect {defect:.3e}")
    return stack


@dataclass(frozen=True, eq=False)
class EraserKrausPair:
    """Two-outcome generalized measurement for photon absorption.

    `k_abs` absorbs the photon (eraser gamma -> epsilon, photon -> vac),
    `k_noabs` is the complementary no-click evolution; together they are
    trace-preserving, checked at construction as `eraser_kraus_stack`
    checks each of its pairs.  Like a `LinearMap`, the pair is frozen and
    compares and hashes by identity.
    """

    k_abs: LinearMap
    k_noabs: LinearMap

    def __post_init__(self):
        _checked(np.array([[self.k_abs.matrix, self.k_noabs.matrix]]))

    @property
    def space(self) -> SpaceSpec:
        return self.k_abs.space


def _kraus_matrices(etas: np.ndarray) -> tuple[SpaceSpec, np.ndarray]:
    """photon (x) eraser and the unchecked (len(etas), 2, 6, 6)
    `(k_abs, k_noabs)` matrices of `eraser_kraus`'s formula at each eta."""
    space = space_of(hilbert.photon(), hilbert.eraser())
    coupled = np.zeros(space.dim, dtype=np.complex128)
    coupled[[space.index_of((path, "gamma")) for path in ("A", "B")]] = SQRT_HALF
    sink = np.zeros(space.dim, dtype=np.complex128)
    sink[space.index_of(("vac", "epsilon"))] = 1.0
    return space, np.stack([
        np.sqrt(etas)[:, None, None] * np.outer(sink, coupled.conj()),
        np.eye(space.dim) - (1.0 - np.sqrt(1.0 - etas))[:, None, None] *
        np.outer(coupled, coupled.conj())], axis=1)


def leading_etas(etas: np.ndarray | list[float]) -> int:
    """How many leading etas lie in (0, 1]: all of them, or those before the
    first out of range (nan included).  The one range test of eta."""
    etas = np.asarray(etas, dtype=np.float64)
    inside = (etas > 0.0) & (etas <= 1.0)
    return len(inside) if inside.all() else int(np.argmin(inside))


def eraser_kraus_stack(etas: np.ndarray) -> np.ndarray:
    """`eraser_kraus(eta)`'s `(k_abs, k_noabs)` matrices at the leading n
    etas in (0, 1] (`leading_etas`) as one checked (n, 2, 6, 6) array; bit
    for bit the pair's matrices."""
    etas = np.asarray(etas, dtype=np.float64)
    return _checked(_kraus_matrices(etas[:leading_etas(etas)])[1])


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
    coupled-mode amplitude damped.  The matrices are `eraser_kraus_stack`'s
    at this one eta.  The cache keeps up to 256 pairs.
    """
    if not leading_etas([eta]):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    space, ((k_abs, k_noabs),) = _kraus_matrices(np.array([eta], dtype=np.float64))
    return EraserKrausPair(LinearMap(space, k_abs), LinearMap(space, k_noabs))


def embedded(op: LinearMap, space: SpaceSpec) -> LinearMap:
    """Embed a component into a larger space by its own subsystem names."""
    return embed(op, op.space.names, space)
