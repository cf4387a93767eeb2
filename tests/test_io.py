import numpy as np
import pytest
import yaml

from factorcavity import cli, io, models
from factorcavity.errors import ConfigError
from factorcavity.graphmodel import DegreeSpec, WeightFamily


def test_degree_spec_forms():
    assert io.degree_spec_from_config(3).support == (3,)
    assert io.degree_spec_from_config({"constant": 4}).support == (4,)
    spec = io.degree_spec_from_config({2: 0.25, 3: 0.75})
    assert spec.mean == pytest.approx(2.75)
    spec = io.degree_spec_from_config({"support": [1, 2], "mass": [0.5, 0.5]})
    assert spec.mean == 1.5
    spec = io.degree_spec_from_config({"poisson": {"mean": 2.5, "max_support": 20}})
    assert spec.max_value <= 20
    with pytest.raises(ConfigError):
        io.degree_spec_from_config("nope")


def test_degree_spec_round_trip():
    spec = DegreeSpec.from_mapping({2: 0.3, 5: 0.7})
    again = io.degree_spec_from_config(io.degree_spec_to_config(spec))
    assert again.support == spec.support
    assert again.mass == spec.mass


def test_weight_family_rejects_nonpositive():
    table = np.array([[1.0, 1.0], [1.0, -0.5]])
    with pytest.raises(ValueError):
        WeightFamily(q=2, tables={2: (table,)}, masses={2: [1.0]})


def test_degree_spec_rejects_non_integral_degrees():
    with pytest.raises(ValueError, match="integers"):
        io.degree_spec_from_config({"support": [1.5, 2], "mass": [0.5, 0.5]})
    with pytest.raises(ValueError, match="integers"):
        io.degree_spec_from_config({"constant": 2.5})
    assert io.degree_spec_from_config({"constant": 3.0}).support == (3,)
    with pytest.raises(ConfigError, match="integers"):
        io.model_from_config({"name": "sbm", "q": 2, "beta": 1.0, "d": 3.5})


_MODEL_FORMS = [
    models.ldgm(0.3, DegreeSpec.constant(2), DegreeSpec.from_mapping({2: 0.5, 3: 0.5})),
    models.sbm(3, 0.5, 4),
    models.sbm(2, 1.0, 3, assortative=True),
    models.kspin(1.0, DegreeSpec.from_mapping({2: 0.5, 3: 0.5}), r=3, d=1.5),
]


@pytest.mark.parametrize("model", _MODEL_FORMS,
                         ids=["ldgm", "sbm", "sbm-assortative", "kspin"])
def test_every_model_form_round_trips(model):
    node = io.model_to_config(model)
    assert node["name"] in models.MODELS
    again = io.model_from_config(yaml.safe_load(yaml.safe_dump(node)))
    assert again.name == model.name and again.q == model.q
    assert again.params.keys() == model.params.keys()
    for key, val in model.params.items():
        assert again.params[key] == val, key
    for spec in ("dspec", "kspec"):
        assert getattr(again, spec) == getattr(model, spec)
    for k in model.family.arities:
        assert np.array_equal(again.family.masses[k], model.family.masses[k])
        for i in range(model.family.n_tables(k)):
            assert np.array_equal(again.family.table(k, i), model.family.table(k, i))


def test_model_round_trip(tmp_path):
    node = {"name": "ldgm", "eta": 0.3, "dspec": 2, "kspec": {2: 0.5, 3: 0.5}}
    model = io.model_from_config(node)
    assert model.params["eta"] == 0.3
    again = io.model_from_config(io.model_to_config(model))
    assert again.kspec.support == model.kspec.support

    path = tmp_path / "model.yaml"
    path.write_text(yaml.safe_dump({"model": node}))
    loaded = io.load_config(path)
    assert io.model_from_config(loaded["model"]).q == 2


def test_model_config_errors():
    with pytest.raises(ConfigError):
        io.model_from_config({"eta": 0.2})
    with pytest.raises(ConfigError):
        io.model_from_config({"name": "ldgm"})
    # the block model covers the Potts antiferromagnet; there is no separate name
    with pytest.raises(ConfigError, match=r"known: \['kspin', 'ldgm', 'sbm'\]"):
        io.model_from_config({"name": "potts", "q": 2, "beta": 1.0, "d": 3})


def test_records_and_digests():
    a = io.inputs_digest({"n": 4, "model": {"name": "sbm", "q": 2}})
    assert a == io.inputs_digest({"model": {"q": 2, "name": "sbm"}, "n": 4})
    assert a != io.inputs_digest({"n": 5, "model": {"name": "sbm", "q": 2}})
    assert a != io.inputs_digest({"n": 4, "model": {"name": "sbm", "q": 3}})
    manifest = cli._manifest("exact", {"model": {"name": "sbm", "q": 2}, "n": 4}, 7, 0.0, 1)
    assert manifest["inputs_digest"] == a and manifest["seed"] == 7


def test_csv_body_deterministic():
    rows = [(0.1, 1 / 3, "tag"), (0.2, 2.0 ** -45, "tag2")]
    text = io.csv_body(("a", "b", "c"), rows)
    assert text.splitlines()[0] == "# factor-cavity schema v1"
    assert text == io.csv_body(("a", "b", "c"), rows)
    assert repr(1 / 3) in text
