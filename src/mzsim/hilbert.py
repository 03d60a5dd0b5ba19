"""Finite tensor-product Hilbert spaces over named, labelled subsystems.

Everything in this module is immutable and pure: spaces are ordered lists of
named subsystems, states are dense complex amplitude vectors over a space,
and maps are dense square matrices.  The basis convention is mixed-radix:
the flat amplitude index enumerates subsystem labels in space order with the
*last* subsystem varying fastest, so a flat vector or matrix reshapes into
one tensor axis per subsystem.  `lift` uses that to turn an operator on a
few subsystems into a full-space matrix; `embed` and `projector` are
validated wrappers around it.  It does no arithmetic: op (x) I_rest has
each entry of op in r places (r the dimension of the other subsystems) and
zeros elsewhere, so `lift` zero-fills the output and copies op's entries to
their places.  Every lifted entry is op's bit for bit, signed zeros
included, and every other entry is +0.0.  Those places, its index plan,
depend only on the shape of the space and the target axes, so they are
worked out once per (axes, dims) and cached; no matrix content is.

A unitary diagonal map, such as a phase shifter, is built by
`LinearMap.diagonal`, which checks its d entries for finiteness and
|z|^2 = 1 in O(d) where the general constructor forms M†M.

The one mutable part is a memo: a `LinearMap`'s `_lifted` dict (and a
`components.EraserKrausPair`'s) holds the read-only stacks that
`experiment._stage_operators` lifted the map to, keyed by the int tuples
(axes, dims), so a map shared by many pipelines is lifted once per space
layout.  It cannot go stale: the matrix is read-only from construction and
the map is frozen, so the same (axes, dims) always lifts to the same bytes.
It takes no part in equality or repr and dies with its map.

Tolerances are fixed module constants.  Constructors reject bad input
(non-finite amplitudes, non-unit norms, non-unitary matrices flagged
unitary) instead of silently repairing it.  The state rule lives in
`check_states`, which checks every row of a (..., d) amplitude array at
once: `StateVector` applies it to its one row, and `experiment.run_analytic`
to its whole block of leaf amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

#: Max-entry tolerance on M†M - I for maps flagged unitary.
ATOL_UNITARY = 1e-10
#: Norm tolerance for states tagged normalized.
ATOL_NORM = 1e-10

#: Hard cap on composite dimension.  Stages are applied as dense d x d
#: complex matrices, 16 MiB each at the cap.
MAX_TOTAL_DIM = 1024


class SpaceMismatchError(ValueError):
    """Two objects live on different spaces (or a subsystem is unknown)."""


@dataclass(frozen=True)
class SubsystemSpec:
    """A named subsystem with an ordered set of basis labels."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError(f"subsystem {self.name!r} needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in subsystem {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r} in subsystem {self.name!r}") from None


def direction() -> SubsystemSpec:
    """Propagation direction of the interfering particle: x or y."""
    return SubsystemSpec("direction", ("x", "y"))


def photon() -> SubsystemSpec:
    """Which-way marker photon: no photon (vac), or emitted on path A / B."""
    return SubsystemSpec("photon", ("vac", "A", "B"))


def atom() -> SubsystemSpec:
    """Internal state of the interfering atom: excited (e) or ground (g)."""
    return SubsystemSpec("atom", ("e", "g"))


def eraser() -> SubsystemSpec:
    """Auxiliary absorber atom: ground (gamma) or excited (epsilon)."""
    return SubsystemSpec("eraser", ("gamma", "epsilon"))


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered tensor product of subsystems; fixes the flat basis ordering.

    `dim`, `dims` and `names` are computed once per space; equality and
    hashing use the subsystems only.
    """

    subsystems: tuple[SubsystemSpec, ...]

    def __post_init__(self):
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate subsystem names: {names}")
        if self.dim > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {self.dim} exceeds {MAX_TOTAL_DIM}")

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SpaceMismatchError(f"unknown subsystem {name!r} (have {self.names})") from None

    def subsystem(self, name: str) -> SubsystemSpec:
        return self.subsystems[self.axis(name)]

    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place values; last subsystem varies fastest."""
        out, acc = [], 1
        for d in reversed(self.dims):
            out.append(acc)
            acc *= d
        return tuple(reversed(out))

    def index_of(self, labels: Mapping[str, str] | Sequence[str]) -> int:
        """Flat basis index of the given label assignment (one per subsystem)."""
        if not isinstance(labels, Mapping):
            labels = dict(zip(self.names, labels, strict=True))
        extra = set(labels) - set(self.names)
        if extra:
            raise SpaceMismatchError(f"unknown subsystem(s) {sorted(extra)}")
        idx = 0
        for sub, stride in zip(self.subsystems, self.strides()):
            idx += sub.label_index(labels[sub.name]) * stride
        return idx

    def labels_at(self, index: int) -> tuple[str, ...]:
        """Label tuple (in subsystem order) of a flat basis index."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} out of range for dim {self.dim}")
        out = []
        for sub, stride in zip(self.subsystems, self.strides()):
            out.append(sub.labels[(index // stride) % sub.dim])
        return tuple(out)

    def restricted(self, names: Sequence[str]) -> "SpaceSpec":
        """Sub-space made of the named subsystems, in the order given."""
        return SpaceSpec(tuple(self.subsystem(n) for n in names))

    def basis_state(self, labels: Mapping[str, str] | Sequence[str]) -> "StateVector":
        amps = np.zeros(self.dim, dtype=np.complex128)
        amps[self.index_of(labels)] = 1.0
        return StateVector(self, amps)


def space_of(*subsystems: SubsystemSpec) -> SpaceSpec:
    return SpaceSpec(tuple(subsystems))


def check_states(amps: np.ndarray, normalized: bool = True) -> None:
    """Enforce the state rule on every row of a (..., d) amplitude array.

    Every entry must be finite and, if `normalized`, every row's norm must
    lie within ATOL_NORM of 1.  Raises ValueError naming the norm of the
    first row that is off.
    """
    if not np.isfinite(amps).all():
        raise ValueError("non-finite entries in state vector")
    if normalized:
        norms = np.sqrt(np.vecdot(amps, amps).real)
        off = np.abs(norms - 1.0) > ATOL_NORM
        if off.any():
            first = np.ravel(norms)[np.flatnonzero(off)[0]]
            raise ValueError(
                f"state tagged normalized has norm {first!r}; "
                "renormalize explicitly or pass normalized=False"
            )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex amplitude vector over a SpaceSpec.

    States are tagged `normalized` by default and rejected if their norm is
    off by more than ATOL_NORM; intermediate measurement residuals may be
    built with normalized=False.
    """

    space: SpaceSpec
    amps: np.ndarray
    normalized: bool = field(default=True)

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.shape != (self.space.dim,):
            raise ValueError(f"amplitude count {arr.shape} != space dim {self.space.dim}")
        check_states(arr, self.normalized)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def renormalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot renormalize the zero vector")
        return StateVector(self.space, self.amps / n)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense square matrix over a SpaceSpec, optionally flagged unitary.

    The unitary flag is *checked* at construction: max|M†M - I| must not
    exceed ATOL_UNITARY (`diagonal` checks a diagonal map in O(d)).
    `_lifted` is the memo of full-space stacks described in the module
    docstring.
    """

    space: SpaceSpec
    matrix: np.ndarray
    unitary: bool = field(default=False)
    _lifted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if not np.isfinite(mat).all():
            raise ValueError("non-finite entries in matrix")
        mat.setflags(write=False)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if self.unitary:
            defect = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
            if defect > ATOL_UNITARY:
                raise ValueError(f"matrix flagged unitary but max|M†M-I| = {defect:.3e}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def diagonal(cls, space: SpaceSpec, entries: Sequence[complex] | np.ndarray
                 ) -> "LinearMap":
        """The unitary map with these diagonal entries and zeros elsewhere.

        It is checked in O(d), not by M†M: every entry must be finite and
        within ATOL_UNITARY of the unit circle in |z|^2 (the diagonal of
        M†M - I), and there must be one entry per basis state.
        """
        diag = np.array(entries, dtype=np.complex128)
        if diag.shape != (space.dim,):
            raise ValueError(f"diagonal shape {diag.shape} != ({space.dim},)")
        if not np.isfinite(diag).all():
            raise ValueError("non-finite entries in matrix")
        defect = max(abs(z.real * z.real + z.imag * z.imag - 1.0) for z in diag.tolist())
        if defect > ATOL_UNITARY:
            raise ValueError(f"diagonal flagged unitary but max||z|^2-1| = {defect:.3e}")
        mat = np.diag(diag)
        mat.setflags(write=False)
        # Every field as __init__ sets it, without __post_init__'s M†M.
        out = object.__new__(cls)
        for name, value in (("space", space), ("matrix", mat), ("unitary", True),
                            ("_lifted", {})):
            object.__setattr__(out, name, value)
        return out

    @property
    def dagger(self) -> "LinearMap":
        return LinearMap(self.space, self.matrix.conj().T, unitary=self.unitary)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if self.space != other.space:
            raise SpaceMismatchError("cannot compose maps on different spaces")
        return LinearMap(self.space, self.matrix @ other.matrix,
                         unitary=self.unitary and other.unitary)


@lru_cache(maxsize=256)
def _lift_plan(axes: tuple[int, ...], dims: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """`lift`'s index plan for one shape: where the entries of op (x) I_rest
    that the structure lets be nonzero sit, and the space's dimension d.

    The plan is a read-only (r, k*k) array of flat indices into the (d, d)
    output, for r = d / k: row j holds, in the local matrix's row-major
    order, the places of op's k*k entries in the block where the other
    subsystems have joint index j.  An entry takes r*k*k*8 bytes, at most
    8 MiB (k = d = MAX_TOTAL_DIM)."""
    d, k = math.prod(dims), math.prod(dims[axis] for axis in axes)
    rest = [axis for axis in range(len(dims)) if axis not in axes]
    # index[j, a]: the basis state whose other subsystems have joint index j
    # and whose targets have joint index a.
    index = np.arange(d).reshape(dims).transpose(rest + list(axes)).reshape(d // k, k)
    places = (index[:, :, None] * d + index[:, None, :]).reshape(d // k, k * k)
    places.setflags(write=False)
    return places, d


def lift(matrix: np.ndarray, axes: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Full-space matrix of `matrix` acting on the subsystems at `axes`, in
    that order, and as the identity on the others.

    `dims` are the subsystem dimensions of the full space and the last two
    axes of `matrix` are square over the product of `dims[axes]`; leading
    axes are a batch, lifted matrix by matrix.  No arithmetic is done: the
    output is zero-filled and each local entry is copied to its places, so a
    lifted entry is the local entry bit for bit (signed zeros included) and
    every other entry is +0.0.  The dtype is that of `matrix` promoted with
    float64.  The index plan is cached by (axes, dims) alone, and every call
    returns a new array.  Nothing is validated; `embed` and `projector` are
    the checked entry points.
    """
    places, d = _lift_plan(tuple(axes), tuple(dims))
    batch = matrix.shape[:-2]
    out = np.zeros(batch + (d * d,), dtype=np.result_type(matrix.dtype, np.float64))
    out[..., places] = matrix.reshape(batch + (1, places.shape[1]))
    return out.reshape(batch + (d, d))


def label_projector(sub: SubsystemSpec, label: str) -> np.ndarray:
    """Diagonal 0/1 matrix on `sub` that keeps only `label`."""
    out = np.zeros((sub.dim, sub.dim), dtype=np.complex128)
    k = sub.label_index(label)
    out[k, k] = 1.0
    return out


def embed(op: LinearMap, targets: Sequence[str], space: SpaceSpec) -> LinearMap:
    """Extend `op` to act on `space`: `op` on the target subsystems, identity
    elsewhere.

    `op.space` must consist of `space`'s target subsystems in the order
    listed in `targets`; targets may be non-adjacent in `space`.
    """
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise SpaceMismatchError(f"repeated target subsystem in {targets}")
    expected = space.restricted(targets)
    if op.space != expected:
        raise SpaceMismatchError(
            f"operator space {op.space.names}/{op.space.dims} does not match "
            f"targets {targets} of {space.names}"
        )

    axes = [space.axis(t) for t in targets]
    return LinearMap(space, lift(op.matrix, axes, space.dims), unitary=op.unitary)


def apply(op: LinearMap, psi: StateVector) -> StateVector:
    """Matrix-vector product; stays tagged normalized only under a unitary."""
    if op.space != psi.space:
        raise SpaceMismatchError("map and state live on different spaces")
    return StateVector(psi.space, op.matrix @ psi.amps,
                       normalized=psi.normalized and op.unitary)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise SpaceMismatchError("states live on different spaces")
    return complex(np.vdot(a.amps, b.amps))


def projector(space: SpaceSpec, subsystem: str, label: str) -> LinearMap:
    """Projector onto one basis label of a subsystem, identity elsewhere.

    Entries are exactly 0 or 1, so completeness over a subsystem's labels
    holds without rounding.
    """
    axis = space.axis(subsystem)
    return LinearMap(space, lift(label_projector(space.subsystems[axis], label),
                                 [axis], space.dims))


def branch_probability(op: LinearMap, psi: StateVector) -> float:
    """||K psi||^2: probability weight of the measurement branch K."""
    if op.space != psi.space:
        raise SpaceMismatchError("map and state live on different spaces")
    amp = op.matrix @ psi.amps
    return float(np.real(np.vdot(amp, amp)))
