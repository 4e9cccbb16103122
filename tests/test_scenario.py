import copy
import json
import math
import sys
from importlib import resources

import numpy as np
import pytest
from conftest import dense_coupling, overflowing_span_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

import envborn.scenario
from envborn.scenario import (
    MAX_COMPOSITE_DIM,
    MAX_SAMPLES,
    MAX_TRIALS,
    ScenarioError,
    _is_number,
    _shown,
    _complex,
    _decode_spans,
    _pairs as pairs,
    decode_vector,
    encode_vector,
    load_scenario,
    parse_scenario,
)

FIXTURES = resources.files("envborn.fixtures")


def minimal_derive(**extra):
    data = {
        "dims": [2, 2],
        "observable": {"complete": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "apparatus": {
            "ready_state": [[1, 0], [0, 0]],
            "pointer_states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        },
        "input_state": [[1, 0], [1, 0]],
    }
    data.update(extra)
    return data


def per_pair_decode(data, what, dim=None):
    """The decoder that checks and converts one pair at a time: the reference
    for the value bits and for the message naming the first faulty pair."""
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{what} must be a non-empty array of [re, im] pairs")
    out = np.empty(len(data), dtype=complex)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_number(x) for x in pair):
            raise ScenarioError(f"{what}[{i}] is not a [re, im] pair: {_shown(pair)}")
        if not all(abs(x) <= sys.float_info.max for x in pair):
            raise ScenarioError(f"{what}[{i}] is not finite: {_shown(pair)}")
        out[i] = complex(float(pair[0]), float(pair[1]))
    if dim is not None and len(out) != dim:
        raise ScenarioError(f"{what} has length {len(out)}, expected {dim}")
    return out


def per_vector_spans(data, what, dim):
    """The spans of a section decoded one vector at a time: the reference for
    the value bits and for the message naming the first fault."""
    if not isinstance(data, list):
        raise ScenarioError(f"{what} must be a list of spans")
    spans = []
    for n, span in enumerate(data):
        if not isinstance(span, list) or not span:
            raise ScenarioError(f"{what}[{n}] must be a non-empty list of spanning vectors")
        spans.append(np.array([per_pair_decode(v, f"{what}[{n}][{i}]", dim) for i, v in enumerate(span)]))
    return spans


def decoded_spans(decode, data, dim):
    """Each span's dtype, shape and bits, or the exact rejection message."""
    try:
        spans = decode(data, "s", dim)
    except ScenarioError as exc:
        return str(exc)
    return [(span.dtype, span.shape, span.tobytes()) for span in spans]


def decoded(decode, data, dim):
    """The value's dtype, shape and bits, or the exact rejection message."""
    try:
        vec = decode(data, "v", dim)
    except ScenarioError as exc:
        return str(exc)
    return vec.dtype, vec.shape, vec.tobytes()


FLOAT_MAX_INT = int(sys.float_info.max)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))
# non-finite floats, integers that overflow a float, and integers just above
# the largest float that round down to it
OUT_OF_RANGE = st.sampled_from([
    math.nan, math.inf, -math.inf, FLOAT_MAX_INT + 1, -(FLOAT_MAX_INT + 2**969),
    FLOAT_MAX_INT + 2**970, 2**1100, -(2**1100),
])
# edge values that decode: signed zero, the smallest subnormal, the largest float
IN_RANGE = st.sampled_from([-0.0, 5e-324, sys.float_info.max, -sys.float_info.max, FLOAT_MAX_INT])
PAIR = st.lists(FINITE, min_size=2, max_size=2)
NUMBER = st.one_of(FINITE, OUT_OF_RANGE, IN_RANGE, st.booleans(), st.integers())
ITEM = st.one_of(
    st.lists(st.one_of(FINITE, IN_RANGE), min_size=2, max_size=2),
    st.lists(NUMBER, min_size=2, max_size=2),
    st.lists(NUMBER, max_size=3),
    st.tuples(FINITE, FINITE),
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), FINITE, max_size=1),
    NUMBER,
)


@st.composite
def json_vectors(draw):
    """Mostly valid vectors with up to three items, faulty or not, inserted."""
    data = draw(st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        data.insert(draw(st.integers(0, len(data))), draw(ITEM))
    return data or draw(st.sampled_from([[], None, {}, "v"]))


class TestVectorCodec:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(json_vectors(), st.lists(st.lists(NUMBER, min_size=2, max_size=2), max_size=6)),
        st.one_of(st.none(), st.integers(0, 10)),
    )
    def test_decode_matches_per_pair_reference(self, data, dim):
        assert decoded(decode_vector, data, dim) == decoded(per_pair_decode, data, dim)

    @pytest.mark.parametrize(
        "value", [FLOAT_MAX_INT + 1, FLOAT_MAX_INT + 2**969, -(FLOAT_MAX_INT + 2**969), 2**1100]
    )
    def test_integer_above_largest_float_rejected(self, value):
        # float(FLOAT_MAX_INT + 2**969) rounds down to the largest float
        # without overflow; the exact bound still rejects it
        with pytest.raises(ScenarioError, match=r"v\[1\] is not finite"):
            decode_vector([[1, 0], [0, value], [math.nan, 0]], "v")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.lists(st.lists(json_vectors(), max_size=3), max_size=3),
            st.lists(st.lists(st.lists(PAIR, min_size=2, max_size=2), min_size=1, max_size=3), max_size=3),
            st.sampled_from([None, {}, "s", [[]], [None]]),
        ),
        st.integers(1, 3),
    )
    def test_spans_match_the_per_vector_reference(self, data, dim):
        # a section converts in one call only when every vector is well formed;
        # otherwise the first fault is named as one vector at a time names it
        def decode(*args):
            return [_complex(values) for values in _decode_spans(*args)]

        assert decoded_spans(decode, data, dim) == decoded_spans(per_vector_spans, data, dim)

    def test_first_faulty_pair_is_named(self):
        with pytest.raises(ScenarioError, match=r"v\[1\] is not a \[re, im\] pair"):
            decode_vector([[1, 0], [True, 0], [math.inf, 0], [2]], "v")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
    def test_encode_matches_per_element_floats(self, values):
        vec = np.array(values, dtype=complex)
        expected = [[float(z.real), float(z.imag)] for z in vec]
        assert repr(encode_vector(vec)) == repr(expected)
        assert all(type(x) is float for pair in encode_vector(vec) for x in pair)

    def test_round_trip(self):
        vec = np.array([1 + 2j, -0.5j, 3.0])
        assert np.allclose(decode_vector(encode_vector(vec), "v"), vec)

    def test_rejects_non_pairs(self):
        with pytest.raises(ScenarioError, match="pair"):
            decode_vector([[1, 0], [2]], "v")

    @pytest.mark.parametrize("pair", [[True, 0], [0, False]])
    def test_rejects_booleans(self, pair):
        with pytest.raises(ScenarioError, match=r"v\[1\]"):
            decode_vector([[1, 0], pair], "v")

    def test_rejects_wrong_length(self):
        with pytest.raises(ScenarioError, match="length"):
            decode_vector([[1, 0]], "v", dim=2)


class TestParsing:
    def test_defaults_resolved(self):
        scenario = parse_scenario(minimal_derive())
        assert scenario.raw["name"] == "scenario"
        assert scenario.seed == 0
        assert scenario.operator_tol == 1e-10
        assert scenario.raw["tolerances"]["norm"] == 1e-12

    def test_complete_sugar_canonicalizes_to_projectors(self):
        scenario = parse_scenario(minimal_derive())
        obs = scenario.raw["observable"]
        assert "complete" not in obs
        assert obs["eigenvalues"] == [0.0, 1.0]
        assert len(obs["projectors"]) == 2
        assert scenario.model().measured.ranks == (1, 1)

    def test_complete_sugar_needs_full_basis(self):
        data = minimal_derive()
        data["observable"] = {"complete": [[[1, 0], [0, 0]]]}
        with pytest.raises(ScenarioError, match="basis vectors"):
            parse_scenario(data)

    def test_pointer_projectors_default_rank1(self):
        scenario = parse_scenario(minimal_derive())
        spans = scenario.raw["apparatus"]["pointer_projectors"]
        assert len(spans) == 2 and all(len(s) == 1 for s in spans)

    def test_pointer_projector_default_requires_full_basis(self):
        data = minimal_derive(dims=[2, 3])
        data["apparatus"]["ready_state"] = [[1, 0], [0, 0], [0, 0]]
        data["apparatus"]["pointer_states"] = [
            [[1, 0], [0, 0], [0, 0]],
            [[0, 0], [1, 0], [0, 0]],
        ]
        with pytest.raises(ScenarioError, match="full basis"):
            parse_scenario(data)

    def test_explicit_wide_pointer_projectors(self):
        data = minimal_derive(dims=[2, 3])
        data["apparatus"] = {
            "ready_state": [[1, 0], [0, 0], [0, 0]],
            "pointer_states": [
                [[1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [1, 0]],
            ],
            "pointer_projectors": [
                [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
                [[[0, 0], [0, 0], [1, 0]]],
            ],
        }
        scenario = parse_scenario(data)
        assert scenario.model().apparatus.pointer_observable.ranks == (2, 1)

    def test_unknown_field(self):
        with pytest.raises(ScenarioError, match="unknown"):
            parse_scenario(minimal_derive(bogus=1))

    def test_bad_dims(self):
        with pytest.raises(ScenarioError, match="dims"):
            parse_scenario({"dims": [2], "input_state": [[1, 0], [0, 0]]})

    def test_dims_required_without_auto_purify(self):
        with pytest.raises(ScenarioError, match="dims"):
            parse_scenario({"input_state": [[1, 0], [0, 0]]})

    def test_dims_inferred_from_auto_purify(self):
        scenario = parse_scenario(
            {
                "mixture": {
                    "components": [
                        {"state": [[1, 0], [0, 0]], "weight": 0.5},
                        {"state": [[0, 0], [1, 0]], "weight": 0.5},
                    ],
                    "auto_purify": True,
                }
            }
        )
        assert scenario.raw["dims"] == [2, 2]
        assert scenario.raw["mixture"]["trials"] == 50

    def test_mixture_needs_some_partner(self):
        data = {
            "dims": [2, 2],
            "mixture": {
                "components": [{"state": [[1, 0], [0, 0]], "weight": 1.0}]
            },
        }
        with pytest.raises(ScenarioError, match="partner"):
            parse_scenario(data)

    def test_mixture_partner_sources_are_exclusive(self):
        data = {
            "dims": [2, 2],
            "composite_state": [[1, 0], [0, 0], [0, 0], [1, 0]],
            "mixture": {
                "components": [{"state": [[1, 0], [0, 0]], "weight": 1.0}],
                "auto_purify": True,
            },
        }
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [0.0, 1e308])
    def test_composite_state_must_normalize(self, scale):
        # 1e308 is finite, but the norm of two or four such entries overflows;
        # the rejection names the field and numpy warns nothing
        for field, length in (("composite_state", 4), ("input_state", 2)):
            data = {"dims": [2, 2], field: [[scale, 0]] * length}
            with pytest.raises(ScenarioError, match=field):
                parse_scenario(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "state, reason",
        [
            ([[0, 0], [0, 0]], "cannot normalize a zero vector"),
            ([[1e308, 1e308], [1e308, 0]], "cannot normalize a vector of norm inf"),
        ],
    )
    def test_first_unnormalizable_mixture_component_is_named(self, state, reason):
        components = [{"state": [[3, 0], [0, 4]], "weight": 0.4}]
        components += [{"state": state, "weight": 0.3}] * 2
        data = {"mixture": {"components": components, "auto_purify": True}}
        with pytest.raises(ScenarioError, match=f"^invalid mixture component 1: {reason}$"):
            parse_scenario(data)

    @pytest.mark.parametrize("section", ["observable", "apparatus"])
    def test_span_vector_with_an_overflowing_norm(self, section):
        # a valid direction whose norm overflows is rejected as make_state
        # rejects such a vector, with no RuntimeWarning (an error in this suite)
        with pytest.raises(ScenarioError, match=f"^invalid {section}: cannot normalize a vector of norm inf$"):
            parse_scenario(overflowing_span_scenario(section))

    def test_mixture_components_normalized_as_unit_columns(self):
        components = [
            {"state": [[3, 0], [0, 4]], "weight": 0.5},
            {"state": [[0, 1e-6], [1e-6, 0]], "weight": 0.5},
        ]
        data = {"mixture": {"components": components, "auto_purify": True}}
        spec = parse_scenario(data).mixture_spec()
        expected = np.array([[0.6, 0.8j], [1j / np.sqrt(2), 1 / np.sqrt(2)]]).T
        assert np.allclose(spec.states, expected, rtol=0, atol=1e-15)

    def test_observable_eigenvalue_projector_count_mismatch(self):
        data = minimal_derive()
        data["observable"] = {
            "eigenvalues": [1.0],
            "projectors": [
                [[[1, 0], [0, 0]]],
                [[[0, 0], [1, 0]]],
            ],
        }
        with pytest.raises(ScenarioError, match="one eigenvalue per projector"):
            parse_scenario(data)

    def test_incomplete_projector_family_rejected_eagerly(self):
        data = minimal_derive()
        data["observable"] = {
            "eigenvalues": [1.0],
            "projectors": [[[[1, 0], [0, 0]]]],
        }
        with pytest.raises(ScenarioError, match="observable"):
            parse_scenario(data)

    def test_zero_input_state_rejected(self):
        with pytest.raises(ScenarioError, match="input_state"):
            parse_scenario(minimal_derive(input_state=[[0, 0], [0, 0]]))

    def test_non_finite_amplitude_names_field(self):
        with pytest.raises(ScenarioError, match=r"input_state\[0\] is not finite"):
            parse_scenario(minimal_derive(input_state=[[float("nan"), 0], [1, 0]]))

    @pytest.mark.parametrize("seed", [True, 2.7, "3", [1]])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(minimal_derive(seed=seed))

    def test_parsed_model_is_kept(self):
        scenario = parse_scenario(minimal_derive())
        assert scenario.model() is scenario.model()

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(minimal_derive(seed=-1))

    def test_negative_sampling_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(minimal_derive(sampling={"n": 10, "seed": -2}))

    def test_dims_bounded_by_composite_dimension(self):
        side = int(MAX_COMPOSITE_DIM**0.5)
        assert parse_scenario({"dims": [side, side]}).raw["dims"] == [side, side]
        assert parse_scenario({"dims": [MAX_COMPOSITE_DIM, 1]}).raw["dims"] == [MAX_COMPOSITE_DIM, 1]
        with pytest.raises(ScenarioError, match="dims"):
            parse_scenario({"dims": [MAX_COMPOSITE_DIM + 1, 1]})

    def test_sample_count_bounded(self):
        sampling = parse_scenario(minimal_derive(sampling={"n": MAX_SAMPLES, "seed": 0})).sampling()
        assert sampling["n"] == MAX_SAMPLES
        for n in (MAX_SAMPLES + 1, 10**15):
            with pytest.raises(ScenarioError, match=r"sampling\.n"):
                parse_scenario(minimal_derive(sampling={"n": n, "seed": 0}))

    def test_sampling_requires_integers(self):
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(minimal_derive(sampling={"n": 10.5, "seed": 0}))

    def test_mixture_trials_bounded(self):
        data = {
            "mixture": {
                "components": [{"state": [[1, 0]], "weight": 1.0}],
                "auto_purify": True,
                "trials": MAX_TRIALS,
            }
        }
        assert parse_scenario(data).raw["mixture"]["trials"] == MAX_TRIALS
        for trials in (MAX_TRIALS + 1, 10**400):
            data["mixture"]["trials"] = trials
            with pytest.raises(ScenarioError, match=r"mixture\.trials"):
                parse_scenario(data)

    def test_raw_shares_no_list_with_the_input(self):
        data = {
            "dims": [2, 2],
            "composite_state": [[1, 0], [0, 0], [0, 0], [1, 0]],
            "mixture": {
                "components": [
                    {"state": [[1, 0], [0, 0]], "weight": 0.5},
                    {"state": [[0, 0], [1, 0]], "weight": 0.5},
                ],
                "counts": [1, 1],
            },
            "sampling": {"n": 10, "seed": 0, "bias": [1, -1]},
        }
        scenario = parse_scenario(data)
        before = copy.deepcopy(scenario.raw)
        data["dims"][0] = 3
        data["composite_state"][0][0] = 0.5
        data["mixture"]["components"][0]["state"].append([0, 0])
        data["mixture"]["counts"].append(3)
        data["sampling"]["bias"][0] = 5
        assert scenario.raw == before

    def test_each_vector_decoded_once(self, monkeypatch):
        # complete sugar and default pointer projectors reuse their basis
        # vectors; every conversion of JSON vectors goes through _pairs, one
        # call each for input_state, ready_state, the two complete basis
        # vectors and the two pointer states
        converted = []

        def counted(vectors, dim):
            values = pairs(vectors, dim)
            if values is not None:
                converted.append(len(values))
            return values

        monkeypatch.setattr(envborn.scenario, "_pairs", counted)
        parse_scenario(minimal_derive()).model()
        assert sorted(converted) == [1, 1, 2, 2]


class TestBuilders:
    def test_model_builds_and_couples(self):
        scenario = parse_scenario(minimal_derive())
        model = scenario.model()
        assert model.outcome_count == 2
        u = dense_coupling(model)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    def test_identity_override(self):
        scenario = parse_scenario(minimal_derive(unitary_override="identity"))
        model = scenario.model()
        assert np.allclose(dense_coupling(model), np.eye(4))

    def test_broken_unitary_fixture_holds_block_coupling(self):
        # the identity override is the blocks V_n = I: no (d1 d2)^2 matrix
        model = load_scenario(FIXTURES / "broken-unitary.json").model()
        assert isinstance(model.coupling, tuple)
        assert len(model.coupling) == model.outcome_count
        assert all(np.array_equal(v.matrix, np.eye(model.d2)) for v in model.coupling)
        assert np.array_equal(dense_coupling(model), np.eye(model.d1 * model.d2))

    def test_unknown_override(self):
        with pytest.raises(ScenarioError, match="unitary_override"):
            parse_scenario(minimal_derive(unitary_override="swap")).model()

    def test_identity_override_kept_without_a_model(self):
        scenario = parse_scenario({"dims": [2, 2], "unitary_override": "identity"})
        assert scenario.raw["unitary_override"] == "identity"

    def test_input_state_normalized_on_build(self):
        scenario = parse_scenario(minimal_derive(input_state=[[3, 0], [4, 0]]))
        assert np.allclose(scenario.input_state().amplitudes, [0.6, 0.8])
        # the echo keeps the raw (unnormalized) amplitudes
        assert scenario.raw["input_state"] == [[3.0, 0.0], [4.0, 0.0]]


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_valid_file_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal_derive()), encoding="utf-8")
        scenario = load_scenario(path)
        assert parse_scenario(scenario.raw).raw == scenario.raw

    def test_default_tolerance_override(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal_derive()), encoding="utf-8")
        scenario = load_scenario(path, default_operator_tol=1e-8)
        assert scenario.operator_tol == 1e-8

    def test_file_tolerance_beats_default(self, tmp_path):
        data = minimal_derive(tolerances={"operator": 1e-9})
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        scenario = load_scenario(path, default_operator_tol=1e-8)
        assert scenario.operator_tol == 1e-9
