import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import components as comp
from mzsim import hilbert
from mzsim.hilbert import (
    apply,
    branch_probability,
    inner,
    projector,
    space_of,
)

S = 1.0 / math.sqrt(2.0)


def interferometer(phi=None, path="y"):
    # BS -> mirrors -> BS, with an optional phase shifter before the mirrors.
    composite = comp.beam_splitter() @ comp.mirror_pair()
    if phi is not None:
        composite = composite @ comp.phase_shifter(phi, path)
    return composite @ comp.beam_splitter()


def amplitude(state, labels):
    return complex(state.amps[state.space.index_of(labels)])


def equal_up_to_global_phase(a, b):
    return abs(inner(a, b)) >= 1.0 - 1e-10


def detector_projectors(space):
    return projector(space, "direction", "x"), projector(space, "direction", "y")


def mzi_oracle(phi=None, path="y"):
    # Plain 2x2 products, independent of the LinearMap machinery.
    bs = S * np.array([[1, 1j], [1j, 1]])
    mirrors = np.array([[0, 1j], [1j, 0]])
    chain = bs
    if phi is not None:
        shift = np.diag([1.0, np.exp(1j * phi)]) if path == "y" \
            else np.diag([np.exp(1j * phi), 1.0])
        chain = shift @ chain
    return bs @ mirrors @ chain


def tagged_state(entries):
    # Hand-built 12-dim vector over direction x photon x atom.
    space = comp.tagged_space()
    amps = np.zeros(space.dim, dtype=complex)
    for labels, a in entries.items():
        amps[space.index_of(labels)] = a
    return hilbert.StateVector(space, amps)


PSI_OUT_ENTRIES = {  # tagged interferometer output, i/2 (y,A) - i/2 (y,B) - ...
    ("y", "A", "g"): 0.5j,
    ("y", "B", "g"): -0.5j,
    ("x", "A", "g"): -0.5,
    ("x", "B", "g"): -0.5,
}


class TestBeamSplitter:
    def test_column_for_x_input(self):
        bs = comp.beam_splitter()
        assert np.allclose(bs.matrix[:, 0], [S, 1j * S], atol=1e-15)
        assert np.allclose(bs.matrix[:, 1], [1j * S, S], atol=1e-15)

    def test_is_unitary(self):
        bs = comp.beam_splitter()
        assert bs.unitary
        assert np.max(np.abs(bs.dagger.matrix @ bs.matrix - np.eye(2))) <= 1e-10

    def test_double_pass_swaps_with_phase(self):
        # Two beam splitters back to back act like the mirror pair.
        bs = comp.beam_splitter()
        twice = (bs @ bs).matrix
        by_hand = S * np.array([[1, 1j], [1j, 1]]) @ (S * np.array([[1, 1j], [1j, 1]]))
        assert np.allclose(twice, by_hand, atol=1e-15)
        out = twice @ np.array([1.0, 0.0])
        assert np.allclose(out, [0.0, 1.0j], atol=1e-12)

    def test_embedded_beside_a_photon(self):
        space = space_of(hilbert.direction(), hilbert.photon())
        out = apply(comp.embedded(comp.beam_splitter(), space),
                    space.basis_state(("x", "vac")))
        assert abs(amplitude(out, ("x", "vac")) - S) <= 1e-12
        assert abs(amplitude(out, ("y", "vac")) - 1j * S) <= 1e-12


class TestMirrorsAndInterferometer:
    def test_mirrors_are_i_times_swap(self):
        m = comp.mirror_pair()
        assert np.array_equal(m.matrix, 1j * np.array([[0, 1], [1, 0]]))
        assert m.unitary

    def test_full_interferometer_is_minus_identity(self):
        mzi = comp.beam_splitter() @ comp.mirror_pair() @ comp.beam_splitter()
        assert np.max(np.abs(mzi.matrix - np.exp(1j * math.pi) * np.eye(2))) <= 1e-10

    def test_interferometer_helper_matches_composition(self):
        assert np.allclose(interferometer().matrix, mzi_oracle(), atol=1e-15)

    def test_x_input_returns_to_x_up_to_phase(self):
        space = comp.direction_space()
        out = apply(interferometer(), space.basis_state(("x",)))
        assert equal_up_to_global_phase(out, space.basis_state(("x",)))

    def test_any_state_returns_up_to_phase(self):
        rng = np.random.default_rng(21)
        space = comp.direction_space()
        mzi = interferometer()
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = hilbert.StateVector(space, v / np.linalg.norm(v))
            assert abs(inner(psi, apply(mzi, psi))) >= 1.0 - 1e-10


class TestPhaseShifter:
    def test_zero_phase_is_identity(self):
        assert np.array_equal(comp.phase_shifter(0.0).matrix, np.eye(2))

    @pytest.mark.parametrize("path", ["x", "y"])
    def test_fringe_law_matches_brute_force(self, path):
        for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            out = interferometer(phi, path).matrix @ np.array([1.0, 0.0])
            oracle = mzi_oracle(phi, path) @ np.array([1.0, 0.0])
            assert np.max(np.abs(out - oracle)) <= 1e-12
            assert abs(abs(out[0]) ** 2 - math.cos(phi / 2.0) ** 2) <= 1e-12

    def test_pi_phase_sends_everything_to_y(self):
        out = interferometer(math.pi).matrix @ np.array([1.0, 0.0])
        assert abs(out[0]) ** 2 <= 1e-12
        assert abs(abs(out[1]) ** 2 - 1.0) <= 1e-12

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            comp.phase_shifter(math.inf)

    def test_unknown_path_rejected(self):
        with pytest.raises(KeyError):
            comp.phase_shifter(0.3, "z")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, -0.0, 1e6, -1e6, math.pi, -math.pi, 5e-324]),
                     st.floats(-1e6, 1e6)),
           st.sampled_from(["x", "y"]))
    def test_matrix_is_the_stack_entry_bit_for_bit(self, phi, path):
        op = comp.phase_shifter(phi, path)
        assert op.unitary and not op.matrix.flags.writeable
        assert op.matrix.tobytes() == comp.phase_shifter_stack([phi], path)[0].tobytes()


class TestWhichWayEntangler:
    def test_photon_tags_the_arm(self):
        w = comp.which_way_entangler()
        psi1 = tagged_state({("x", "vac", "e"): S, ("y", "vac", "e"): 1j * S})
        psi2 = apply(w, psi1)
        expected = tagged_state({("x", "A", "g"): S, ("y", "B", "g"): 1j * S})
        assert np.max(np.abs(psi2.amps - expected.amps)) <= 1e-12

    def test_state_after_mirrors(self):
        w = comp.which_way_entangler()
        space = comp.tagged_space()
        psi1 = tagged_state({("x", "vac", "e"): S, ("y", "vac", "e"): 1j * S})
        psi3 = apply(comp.embedded(comp.mirror_pair(), space), apply(w, psi1))
        expected = tagged_state({("y", "A", "g"): 1j * S, ("x", "B", "g"): -S})
        assert np.max(np.abs(psi3.amps - expected.amps)) <= 1e-12

    def test_is_unitary(self):
        w = comp.which_way_entangler()
        assert w.unitary
        assert np.max(np.abs(w.dagger.matrix @ w.matrix - np.eye(12))) <= 1e-10

    def test_isometry_on_physical_subspace(self):
        w = comp.which_way_entangler()
        space = comp.tagged_space()
        ins = [space.basis_state(("x", "vac", "e")), space.basis_state(("y", "vac", "e"))]
        outs = [apply(w, psi) for psi in ins]
        for i, a in enumerate(ins):
            for j, b in enumerate(ins):
                assert abs(inner(outs[i], outs[j]) - inner(a, b)) <= 1e-12
        span = {space.index_of(("x", "A", "g")), space.index_of(("y", "B", "g"))}
        for out in outs:
            support = {int(k) for k in np.flatnonzero(np.abs(out.amps) > 1e-14)}
            assert support <= span


class TestWhichWayReadout:
    def test_balanced_after_first_beam_splitter(self):
        space = comp.direction_space()
        psi = apply(comp.beam_splitter(), space.basis_state(("x",)))
        outcome_a, _, prob_a = comp.which_way_readout(psi, 0.25)
        outcome_b, _, prob_b = comp.which_way_readout(psi, 0.75)
        assert (outcome_a, outcome_b) == ("A", "B")
        assert abs(prob_a - 0.5) <= 1e-12
        assert abs(prob_b - 0.5) <= 1e-12

    def test_pure_x_always_reads_a(self):
        space = comp.direction_space()
        psi = space.basis_state(("x",))
        outcome, collapsed, prob = comp.which_way_readout(psi, 0.999)
        assert outcome == "A"
        assert abs(prob - 1.0) <= 1e-12
        assert np.allclose(collapsed.amps, psi.amps)

    @pytest.mark.parametrize("draw", [0.1, 0.9])
    def test_both_branches_lose_interference(self, draw):
        # Collapsed state propagated through mirrors and the second beam
        # splitter always splits 50/50, whichever arm was seen.
        space = comp.direction_space()
        psi = apply(comp.beam_splitter(), space.basis_state(("x",)))
        _, collapsed, _ = comp.which_way_readout(psi, draw)
        final = apply(comp.beam_splitter(),
                      apply(comp.mirror_pair(), collapsed))
        p_x, p_y = np.abs(final.amps) ** 2
        assert abs(p_x - 0.5) <= 1e-12
        assert abs(p_y - 0.5) <= 1e-12

    def test_draw_outside_unit_interval_rejected(self):
        psi = comp.direction_space().basis_state(("x",))
        with pytest.raises(ValueError):
            comp.which_way_readout(psi, 1.0)


def coupled_mode_weight(state):
    # Independent expansion: total |amplitude|^2 of the photon component
    # (|A> + |B>)/sqrt(2) with the absorber still in gamma, summed over the
    # other subsystems, straight from the raw amplitudes.
    weight = 0.0
    for d in ("x", "y"):
        for a in ("e", "g"):
            amp_a = amplitude(state, (d, "A", a, "gamma"))
            amp_b = amplitude(state, (d, "B", a, "gamma"))
            weight += abs(S * (amp_a + amp_b)) ** 2
    return weight


def eraser_input_state():
    # Tagged interferometer output, absorber appended in its ground state.
    space = comp.eraser_space()
    amps = np.zeros(space.dim, dtype=complex)
    for (d, ph, at), a in PSI_OUT_ENTRIES.items():
        amps[space.index_of((d, ph, at, "gamma"))] = a
    return hilbert.StateVector(space, amps)


class TestEraserKraus:
    def test_completeness_holds_by_construction(self):
        for eta in (0.1, 0.5, 1.0):
            pair = comp.eraser_kraus(eta)
            total = (pair.k_abs.dagger @ pair.k_abs).matrix + \
                    (pair.k_noabs.dagger @ pair.k_noabs).matrix
            assert np.max(np.abs(total - np.eye(6))) <= 1e-10

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_absorption_probability_is_half_eta(self, eta):
        state = eraser_input_state()
        k_abs = comp.embedded(comp.eraser_kraus(eta).k_abs, state.space)
        expected = eta * coupled_mode_weight(state)
        assert abs(expected - eta / 2.0) <= 1e-12  # oracle sanity
        assert abs(branch_probability(k_abs, state) - eta / 2.0) <= 1e-12

    def test_full_absorption_branch_state(self):
        state = eraser_input_state()
        pair = comp.eraser_kraus(1.0)
        absorbed = apply(comp.embedded(pair.k_abs, state.space), state)
        assert abs(absorbed.norm ** 2 - 0.5) <= 1e-12
        collapsed = absorbed.renormalized()
        expected = np.zeros(state.space.dim, dtype=complex)
        expected[state.space.index_of(("x", "vac", "g", "epsilon"))] = -1.0
        assert np.max(np.abs(collapsed.amps - expected)) <= 1e-12

    def test_full_absorption_complement_state(self):
        state = eraser_input_state()
        pair = comp.eraser_kraus(1.0)
        survived = apply(comp.embedded(pair.k_noabs, state.space), state)
        assert abs(survived.norm ** 2 - 0.5) <= 1e-12
        expected = np.zeros(state.space.dim, dtype=complex)
        expected[state.space.index_of(("y", "A", "g", "gamma"))] = S
        expected[state.space.index_of(("y", "B", "g", "gamma"))] = -S
        target = hilbert.StateVector(state.space, expected)
        assert equal_up_to_global_phase(survived.renormalized(), target)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.2, math.nan])
    def test_eta_out_of_range_rejected(self, eta):
        with pytest.raises(ValueError):
            comp.eraser_kraus(eta)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([1.0, 5e-324, math.nextafter(1.0, 0.0)]),
                              st.floats(0.0, 1.0, exclude_min=True)), max_size=8))
    def test_pair_is_the_stack_entry_bit_for_bit(self, etas):
        stack = comp.eraser_kraus_stack(etas)
        assert stack.shape == (len(etas), 2, 6, 6)
        for eta, (k_abs, k_noabs) in zip(etas, stack):
            pair = comp.eraser_kraus(eta)
            assert pair.k_abs.matrix.tobytes() == k_abs.tobytes()
            assert pair.k_noabs.matrix.tobytes() == k_noabs.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.0, math.nan, math.inf, math.nextafter(1.0, 2.0)])
    @pytest.mark.parametrize("where", [0, 2])
    def test_stack_stops_at_the_first_eta_out_of_range(self, bad, where):
        good = [0.25, 1.0, 0.5, 0.75]
        stack = comp.eraser_kraus_stack(good[:where] + [bad] + good[where:])
        assert stack.shape == (where, 2, 6, 6)
        assert stack.tobytes() == comp.eraser_kraus_stack(good[:where]).tobytes()
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\], got "):
            comp.eraser_kraus(bad)

    def test_incomplete_pair_raises_the_completeness_message(self, monkeypatch):
        pair = comp.eraser_kraus(0.5)
        message = r"^Kraus pair not complete: max defect 7\.500e-01$"
        with pytest.raises(ValueError, match=message):
            comp.EraserKrausPair(pair.k_abs, hilbert.LinearMap(pair.space, 0.5 * pair.k_noabs.matrix))
        formula = comp._kraus_matrices

        def halve_the_last_no_click(etas):
            space, stack = formula(etas)
            stack[-1, 1] *= 0.5
            return space, stack
        monkeypatch.setattr(comp, "_kraus_matrices", halve_the_last_no_click)
        with pytest.raises(ValueError, match=message):
            comp.eraser_kraus_stack([0.25, 0.75, 0.5])
        with pytest.raises(ValueError, match=message):
            comp.eraser_kraus.__wrapped__(0.5)

    def test_a_pair_is_checked_once(self, monkeypatch):
        calls = []
        checked = comp._checked
        monkeypatch.setattr(comp, "_checked", lambda stack: calls.append(stack.shape)
                            or checked(stack))
        comp.eraser_kraus.__wrapped__(0.3)
        assert calls == [(1, 2, 6, 6)]


class TestDetectorProjectors:
    def test_on_tagged_output_state(self):
        space = comp.tagged_space()
        amps = np.zeros(space.dim, dtype=complex)
        for labels, a in PSI_OUT_ENTRIES.items():
            amps[space.index_of(labels)] = a
        psi = hilbert.StateVector(space, amps)
        p_x, p_y = detector_projectors(space)
        assert abs(branch_probability(p_x, psi) - 0.5) <= 1e-12
        assert abs(branch_probability(p_y, psi) - 0.5) <= 1e-12

    def test_pure_x_product_state(self):
        space = comp.tagged_space()
        psi = space.basis_state(("x", "B", "g"))
        p_x, _ = detector_projectors(space)
        assert abs(branch_probability(p_x, psi) - 1.0) <= 1e-12

    def test_projectors_complete(self):
        space = comp.eraser_space()
        p_x, p_y = detector_projectors(space)
        assert np.array_equal(p_x.matrix + p_y.matrix, np.eye(space.dim))


class TestConstructorUnitarity:
    @pytest.mark.parametrize("make", [
        comp.beam_splitter,
        comp.mirror_pair,
        lambda: comp.phase_shifter(0.7),
        comp.which_way_entangler,
    ])
    def test_every_unitary_constructor_checks_out(self, make):
        op = make()
        assert op.unitary
        d = op.space.dim
        assert np.max(np.abs(op.dagger.matrix @ op.matrix - np.eye(d))) <= 1e-10
