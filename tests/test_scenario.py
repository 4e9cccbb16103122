import json

import numpy as np
import pytest
from conftest import dense_coupling

from envborn.scenario import (
    MAX_COMPOSITE_DIM,
    MAX_SAMPLES,
    ScenarioError,
    decode_vector,
    encode_vector,
    load_scenario,
    parse_scenario,
)


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


class TestVectorCodec:
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
        assert scenario.name == "scenario"
        assert scenario.seed == 0
        assert scenario.operator_tol == 1e-10
        assert scenario.raw["tolerances"]["norm"] == 1e-12

    def test_complete_sugar_canonicalizes_to_projectors(self):
        scenario = parse_scenario(minimal_derive())
        obs = scenario.raw["observable"]
        assert "complete" not in obs
        assert obs["eigenvalues"] == [0.0, 1.0]
        assert len(obs["projectors"]) == 2
        assert scenario.observable().projectors[0].rank == 1

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
        apparatus = scenario.apparatus()
        assert apparatus.pointer_observable.projectors[0].rank == 2

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
        assert scenario.dims == (2, 2)
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

    @pytest.mark.parametrize("scale", [0.0, 1e308])
    def test_composite_state_must_normalize(self, scale):
        # 1e308 is finite, but the norm of four such entries overflows
        data = {"dims": [2, 2], "composite_state": [[scale, 0]] * 4}
        with pytest.raises(ScenarioError, match="composite_state"):
            parse_scenario(data)

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
        assert parse_scenario({"dims": [side, side]}).dims == (side, side)
        assert parse_scenario({"dims": [MAX_COMPOSITE_DIM, 1]}).dims == (MAX_COMPOSITE_DIM, 1)
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

    def test_unknown_override(self):
        with pytest.raises(ScenarioError, match="unitary_override"):
            parse_scenario(minimal_derive(unitary_override="swap")).model()

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
        assert parse_scenario(scenario.canonical()).canonical() == scenario.canonical()

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
