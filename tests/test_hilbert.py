import itertools
from dataclasses import fields

import numpy as np
import pytest

from mzsim import hilbert
from mzsim.components import EraserKrausPair
from mzsim.hilbert import (
    LinearMap,
    SpaceSpec,
    StateVector,
    SubsystemSpec,
    apply,
    embed,
    inner,
    lift,
    projector,
    space_of,
)

AB = SubsystemSpec("left", ("a", "b"))
PQR = SubsystemSpec("mid", ("p", "q", "r"))
UV = SubsystemSpec("right", ("u", "v"))


def random_map(rng, sub):
    d = sub.dim
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return LinearMap(space_of(sub), mat)


def gram_schmidt_unitary(rng, d):
    cols = []
    for _ in range(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        for u in cols:
            v = v - np.vdot(u, v) * u
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def random_state(rng, space):
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, v / np.linalg.norm(v))


def identity(space):
    return LinearMap.diagonal(space, np.ones(space.dim))


def embed_oracle(op, targets, space):
    # Apply op to every basis label tuple and reassemble the columns.
    target_positions = [space.names.index(t) for t in targets]
    sub_space = space.restricted(targets)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for col in range(space.dim):
        labels = space.labels_at(col)
        sub_col = sub_space.index_of([labels[p] for p in target_positions])
        for sub_row in range(sub_space.dim):
            coeff = op.matrix[sub_row, sub_col]
            if coeff == 0:
                continue
            new_labels = list(labels)
            for p, lab in zip(target_positions, sub_space.labels_at(sub_row)):
                new_labels[p] = lab
            out[space.index_of(new_labels), col] += coeff
    return out


class TestSpaceIndexing:
    def test_index_label_bijection(self):
        space = space_of(AB, PQR, UV)
        seen = set()
        for idx in range(space.dim):
            labels = space.labels_at(idx)
            assert space.index_of(labels) == idx
            seen.add(labels)
        assert len(seen) == space.dim == 12

    def test_last_subsystem_varies_fastest(self):
        space = space_of(AB, UV)
        assert space.labels_at(0) == ("a", "u")
        assert space.labels_at(1) == ("a", "v")
        assert space.labels_at(2) == ("b", "u")

    def test_index_of_mapping_form(self):
        space = space_of(AB, UV)
        assert space.index_of({"left": "b", "right": "u"}) == 2

    def test_duplicate_subsystem_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            space_of(AB, SubsystemSpec("left", ("u", "v")))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemSpec("bad", ("a", "a"))

    def test_unknown_subsystem(self):
        with pytest.raises(hilbert.SpaceMismatchError):
            space_of(AB).axis("nope")


class TestConstruction:
    def test_non_finite_amplitudes_rejected(self):
        space = space_of(AB)
        with pytest.raises(ValueError, match="finite"):
            StateVector(space, [np.nan, 0.0])
        rows = np.array([[1.0, 0.0], [np.inf, 0.0]])
        for normalized in (True, False):
            with pytest.raises(ValueError, match="non-finite entries in state vector"):
                hilbert.check_states(rows, normalized)
        with pytest.raises(ValueError, match="finite"):
            LinearMap(space, [[np.inf, 0], [0, 1]])

    def test_norm_enforced_when_tagged_normalized(self):
        space = space_of(AB)
        with pytest.raises(ValueError, match="norm"):
            StateVector(space, [1.0, 1.0])
        StateVector(space, [1.0, 1.0], normalized=False)  # fine as residual
        # A block of rows: the first row that is off is named, in
        # StateVector's words, in any leading shape.
        rows = np.array([[1.0, 0.0], [0.6, 0.8j], [1.0 + 1e-9, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError) as from_state:
            StateVector(space, rows[2])
        for block in (rows, rows.reshape(2, 2, 2)):
            with pytest.raises(ValueError) as from_block:
                hilbert.check_states(block)
            assert str(from_block.value) == str(from_state.value)
        hilbert.check_states(rows[:2])
        hilbert.check_states(rows, normalized=False)

    def test_unitary_flag_checked_at_construction(self):
        space = space_of(AB)
        with pytest.raises(ValueError, match="unitary"):
            LinearMap(space, [[1, 0], [0, 2]], unitary=True)

    def test_states_are_immutable(self):
        psi = space_of(AB).basis_state(("a",))
        with pytest.raises(ValueError):
            psi.amps[0] = 5.0

    @pytest.mark.parametrize("cls", [LinearMap, EraserKrausPair])
    def test_operators_hold_only_public_fields(self, cls):
        # An operator is a plain value: what it holds is what it was built
        # from, and what a stage lifts it to is kept elsewhere.
        assert [f.name for f in fields(cls) if f.name.startswith("_")] == []


class TestDiagonal:
    @pytest.mark.parametrize("entries", [
        [1.0, 1.0], [1j, -1.0], [np.exp(0.3j), np.exp(-2.1j)], [-0.0 - 1j, 1.0 + 1e-11],
        [complex(0.6, -0.8), complex(-0.8, -0.6)]])
    def test_equals_the_dense_checked_map(self, entries):
        op = LinearMap.diagonal(space_of(AB), entries)
        dense = LinearMap(space_of(AB), np.diag(np.array(entries, dtype=complex)), unitary=True)
        assert op.unitary and op.space == space_of(AB)
        assert vars(op).keys() == {f.name for f in fields(LinearMap)}
        assert op.matrix.dtype == np.complex128 and not op.matrix.flags.writeable
        assert op.matrix.tobytes() == dense.matrix.tobytes()

    def test_copies_its_entries(self):
        entries = np.array([1.0, 1j])
        op = LinearMap.diagonal(space_of(AB), entries)
        entries[0] = -1.0
        assert op.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(np.inf, 0.0)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            LinearMap.diagonal(space_of(AB), [1.0, bad])

    @pytest.mark.parametrize("entry", [1.0 + 1e-10, 1j * (1.0 - 1e-10), 2.0, 0.0, 0.5j])
    def test_rejects_entries_off_the_unit_circle(self, entry):
        # |z|^2 - 1 is about 2e-10 at the first two: beyond ATOL_UNITARY.
        assert abs(abs(entry) ** 2 - 1.0) > hilbert.ATOL_UNITARY
        with pytest.raises(ValueError, match="unitary"):
            LinearMap.diagonal(space_of(AB), [1.0, entry])
        with pytest.raises(ValueError, match="unitary"):
            LinearMap(space_of(AB), np.diag([1.0, entry]), unitary=True)

    def test_accepts_entries_within_the_tolerance(self):
        entry = 1.0 + 0.4 * hilbert.ATOL_UNITARY   # |z|^2 - 1 = 0.8 ATOL_UNITARY
        assert LinearMap.diagonal(space_of(AB), [entry, -1.0]).matrix[0, 0] == entry

    @pytest.mark.parametrize("entries", [[1.0], [1.0, 1.0, 1.0], [], [[1.0, 1.0]]])
    def test_rejects_a_wrong_length(self, entries):
        with pytest.raises(ValueError, match="shape"):
            LinearMap.diagonal(space_of(AB), entries)

    def test_identity_at_the_cap(self):
        big = SubsystemSpec("big", tuple(f"l{i}" for i in range(hilbert.MAX_TOTAL_DIM)))
        op = identity(space_of(big))
        assert op.unitary and not op.matrix.flags.writeable
        assert op.matrix.tobytes() == np.eye(hilbert.MAX_TOTAL_DIM, dtype=complex).tobytes()


class TestDimensionCap:
    def test_space_at_the_cap_embeds(self):
        big = SubsystemSpec("big", tuple(f"l{i}" for i in range(hilbert.MAX_TOTAL_DIM // 2)))
        space = space_of(big, AB)
        assert space.dim == hilbert.MAX_TOTAL_DIM
        op = LinearMap(space_of(AB), np.array([[0.0, 1.0], [1.0, 0.0]]))
        got = embed(op, ["left"], space).matrix
        assert got.shape == (space.dim, space.dim)
        assert np.array_equal(got, np.kron(np.eye(big.dim), op.matrix))

    def test_space_above_the_cap_rejected(self):
        big = SubsystemSpec("big", tuple(f"l{i}" for i in range(hilbert.MAX_TOTAL_DIM // 2)))
        with pytest.raises(ValueError, match="exceeds"):
            space_of(big, PQR)


def assert_fresh(first, relift):
    """`first` is a writable array of its own: the next lift of the same
    shape shares no memory with it, and writing to it changes no later lift."""
    assert first.flags.writeable
    second = relift()
    assert not np.shares_memory(first, second)
    expected = second.copy()
    first[...] = np.nan
    assert np.array_equal(relift(), expected)


def signed_zero_stack(rng, batch, k):
    """Random complex (batch..., k, k) matrices in which about a third of the
    entries have a zero part of either sign, or are zero outright."""
    mats = rng.normal(size=batch + (k, k)) + 1j * rng.normal(size=batch + (k, k))
    zeros = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)])
    which = rng.integers(0, 9, size=mats.shape)
    mats = np.where(which < 3, zeros[which % 3], mats)
    mats.real[which == 3] = -0.0
    mats.imag[which == 4] = -0.0
    return mats


def assert_copied(local, axes, dims, got):
    """`got` is `local` (x) I_rest with no arithmetic: where the other
    subsystems' labels agree, the local entry bit for bit; everywhere else
    +0.0 in both parts.  The places come from the mixed-radix digits of each
    basis index, not from `lift`'s plan."""
    d = int(np.prod(dims))
    digits = np.unravel_index(np.arange(d), dims)
    at = np.ravel_multi_index([digits[a] for a in axes], [dims[a] for a in axes])
    same_rest = np.ones((d, d), dtype=bool)
    for a in set(range(len(dims))) - set(axes):
        same_rest &= digits[a][:, None] == digits[a][None, :]
    want = np.where(same_rest, local[..., at[:, None], at[None, :]], 0.0)
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
    off = got[..., ~same_rest]
    assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()
    assert not np.any(off)


class TestLift:
    @pytest.mark.parametrize("targets", [
        targets for k in (1, 2, 3)
        for targets in itertools.permutations(["left", "mid", "right"], k)])
    def test_equals_entrywise_oracle_exactly(self, targets):
        rng = np.random.default_rng(len(targets))
        space = space_of(AB, PQR, UV)
        op_space = space.restricted(targets)
        op = LinearMap(op_space, rng.normal(size=(op_space.dim,) * 2)
                       + 1j * rng.normal(size=(op_space.dim,) * 2))
        axes = [space.axis(t) for t in targets]
        got = lift(op.matrix, axes, space.dims)
        assert np.array_equal(got, embed_oracle(op, targets, space))
        assert_fresh(got, lambda: lift(op.matrix, axes, space.dims))

    @pytest.mark.parametrize("targets", [
        targets for k in (1, 2, 3)
        for targets in itertools.permutations(["left", "mid", "right"], k)])
    def test_batch_equals_matrix_by_matrix_exactly(self, targets):
        rng = np.random.default_rng(10 + len(targets))
        space = space_of(AB, PQR, UV)
        k = space.restricted(targets).dim
        stack = rng.normal(size=(5, k, k)) + 1j * rng.normal(size=(5, k, k))
        axes = [space.axis(t) for t in targets]
        got = lift(stack, axes, space.dims)
        assert got.shape == (5, space.dim, space.dim)
        for mat, lifted in zip(stack, got):
            assert np.array_equal(lifted, lift(mat, axes, space.dims))
        assert_fresh(got, lambda: lift(stack, axes, space.dims))
        assert hilbert._lift_plan.cache_info().maxsize is not None

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3), (0,)])
    @pytest.mark.parametrize("targets", [
        targets for k in (1, 2, 3)
        for targets in itertools.permutations(["left", "mid", "right"], k)])
    def test_entries_are_copied_bit_for_bit(self, targets, batch):
        rng = np.random.default_rng(20 + len(targets) + len(batch))
        space = space_of(AB, PQR, UV)
        axes = [space.axis(t) for t in targets]
        local = signed_zero_stack(rng, batch, space.restricted(targets).dim)
        assert not local.size or (np.signbit(local.real).any() and
                                  np.signbit(local.imag).any())
        assert_copied(local, axes, space.dims, lift(local, axes, space.dims))

    @pytest.mark.parametrize("axes", [(0,), (1,), (2,), (3,), (3, 1), (0, 2), (0, 1, 2),
                                      (2, 3, 0, 1)])
    def test_a_batch_of_64_at_d_24(self, axes):
        dims = (2, 3, 2, 2)   # the eraser space
        rng = np.random.default_rng(sum(axes) + len(axes))
        local = signed_zero_stack(rng, (64,), int(np.prod([dims[a] for a in axes])))
        got = lift(local, axes, dims)
        assert got.shape == (64, 24, 24)
        assert_copied(local, axes, dims, got)
        assert_fresh(got, lambda: lift(local, axes, dims))

    @pytest.mark.parametrize("dims,axes", [((512, 2), (1,)), ((2, 512), (0,)),
                                           ((512, 2), (0,))])
    def test_at_the_cap(self, dims, axes):
        # A batch of two: 32 MiB out, where 64 would take 1 GiB.
        rng = np.random.default_rng(len(axes) + dims[0])
        local = signed_zero_stack(rng, (2,), dims[axes[0]])
        got = lift(local, axes, dims)
        assert got.shape == (2, hilbert.MAX_TOTAL_DIM, hilbert.MAX_TOTAL_DIM)
        assert_copied(local, axes, dims, got)


class TestEmbed:
    def test_adjacent_targets_reduce_to_kron(self):
        rng = np.random.default_rng(7)
        op = random_map(rng, AB)
        space = space_of(AB, PQR)
        expected = np.kron(op.matrix, np.eye(3))
        assert np.allclose(embed(op, ["left"], space).matrix, expected, atol=1e-15)

    def test_middle_subsystem_matches_oracle(self):
        rng = np.random.default_rng(8)
        op = random_map(rng, PQR)
        space = space_of(AB, PQR, UV)
        got = embed(op, ["mid"], space).matrix
        assert np.allclose(got, embed_oracle(op, ["mid"], space), atol=1e-15)

    def test_non_adjacent_pair_matches_oracle(self):
        rng = np.random.default_rng(9)
        op_space = SpaceSpec((AB, UV))
        op = LinearMap(op_space, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        space = space_of(AB, PQR, UV)
        got = embed(op, ["left", "right"], space).matrix
        assert np.allclose(got, embed_oracle(op, ["left", "right"], space), atol=1e-15)

    def test_reversed_target_order_matches_oracle(self):
        rng = np.random.default_rng(10)
        op_space = SpaceSpec((UV, AB))
        op = LinearMap(op_space, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        space = space_of(AB, PQR, UV)
        got = embed(op, ["right", "left"], space).matrix
        assert np.allclose(got, embed_oracle(op, ["right", "left"], space), atol=1e-15)

    def test_identity_embeds_to_identity(self):
        space = space_of(AB, PQR, UV)
        for name in space.names:
            got = embed(identity(space.restricted([name])), [name], space)
            assert np.array_equal(got.matrix, np.eye(space.dim))

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(11)
        space = space_of(AB, PQR, UV)
        a = embed(random_map(rng, AB), ["left"], space)
        b = embed(random_map(rng, UV), ["right"], space)
        assert np.max(np.abs((a @ b).matrix - (b @ a).matrix)) <= 1e-12

    def test_unknown_target_rejected(self):
        with pytest.raises(hilbert.SpaceMismatchError):
            embed(identity(space_of(AB)), ["nope"], space_of(AB, UV))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(hilbert.SpaceMismatchError):
            embed(identity(space_of(PQR)), ["left"], space_of(AB, UV))


class TestApplyAndInner:
    def test_apply_identity(self):
        space = space_of(AB, PQR)
        psi = random_state(np.random.default_rng(1), space)
        assert np.allclose(apply(identity(space), psi).amps, psi.amps)

    def test_apply_space_mismatch(self):
        with pytest.raises(hilbert.SpaceMismatchError):
            apply(identity(space_of(AB)), space_of(UV).basis_state(("u",)))

    def test_unitaries_preserve_norm(self):
        rng = np.random.default_rng(12)
        space = space_of(AB, PQR)
        for _ in range(10):
            u = LinearMap(space, gram_schmidt_unitary(rng, space.dim), unitary=True)
            for _ in range(100):
                psi = random_state(rng, space)
                assert abs(apply(u, psi).norm - 1.0) <= 1e-10

    def test_inner_of_normalized_self_is_one(self):
        psi = random_state(np.random.default_rng(3), space_of(PQR))
        assert abs(inner(psi, psi) - 1.0) <= 1e-12

    def test_inner_orthogonal_basis_states(self):
        space = space_of(AB)
        assert inner(space.basis_state(("b",)), space.basis_state(("a",))) == 0.0

    def test_inner_superposition_component(self):
        space = space_of(AB)
        sup = StateVector(space, np.array([1.0, 1.0j]) / np.sqrt(2.0))
        assert abs(inner(space.basis_state(("a",)), sup) - 1 / np.sqrt(2)) <= 1e-12

    def test_inner_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        space = space_of(AB, UV)
        for _ in range(50):
            a, b = random_state(rng, space), random_state(rng, space)
            assert abs(inner(a, b) - np.conj(inner(b, a))) <= 1e-15


class TestProjector:
    def test_rank_one_on_single_subsystem(self):
        p = projector(space_of(AB), "left", "a")
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0]))

    def test_idempotent_hermitian(self):
        space = space_of(AB, PQR, UV)
        p = projector(space, "mid", "q").matrix
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
        assert np.trace(p).real == space.dim / 3

    def test_keeps_exactly_the_basis_states_with_the_label(self):
        space = space_of(AB, PQR, UV)
        for axis, sub in enumerate(space.subsystems):
            for label in sub.labels:
                keep = [space.labels_at(i)[axis] == label for i in range(space.dim)]
                assert np.array_equal(projector(space, sub.name, label).matrix,
                                      np.diag(np.array(keep, dtype=complex)))

    def test_completeness_is_exact(self):
        space = space_of(AB, PQR, UV)
        for sub in space.subsystems:
            total = sum(projector(space, sub.name, lab).matrix for lab in sub.labels)
            assert np.array_equal(total, np.eye(space.dim))

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            projector(space_of(AB), "left", "zzz")
